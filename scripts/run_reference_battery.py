#!/usr/bin/env python3
"""Run the comparison battery on the frozen per-window CAGR table.

Reads data/reference_windows.csv (per-window CAGR pairs for both execution
schedules), groups rows by duration, and prints the full metrics table.
This is the fast path: no index data needed, just the window-level numbers.
Exit codes: 0 success, 2 a bad table, config file or flag.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections import defaultdict
from pathlib import Path

from sipcraft.stats import BatteryConfig, PairedSample, run_battery
from sipcraft.report import render_metrics_table

DEFAULT_TABLE = Path(__file__).resolve().parent.parent / "data" / "reference_windows.csv"
COLUMNS = ("years", "cagr_ftd", "cagr_exp")


def load_samples(path: Path) -> dict[int, PairedSample]:
    by_duration: dict[int, list[tuple[float, float]]] = defaultdict(list)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}: missing columns {missing}")
        for rec in reader:
            try:
                by_duration[int(rec["years"])].append(
                    (float(rec["cagr_exp"]), float(rec["cagr_ftd"])))
            except (TypeError, ValueError):  # a short row reads None
                raise ValueError(f"{path} line {reader.line_num}: expected integer years and "
                                 f"numeric CAGRs, got {[rec[c] for c in COLUMNS]}") from None
    return {
        years: PairedSample([e for e, _ in pairs], [f for _, f in pairs])
        for years, pairs in sorted(by_duration.items())
    }


def load_config(path: str) -> BatteryConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("config file nests too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return BatteryConfig.from_dict(data)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--table", type=Path, default=DEFAULT_TABLE,
                        help="window CAGR csv (default: data/reference_windows.csv)")
    parser.add_argument("--config", help="battery config JSON file")
    parser.add_argument("--format", choices=("markdown", "csv", "json"),
                        default="markdown")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config) if args.config else BatteryConfig()
        samples = load_samples(args.table)
        reports = [run_battery(sample, config, label=f"{years}y")._asdict()
                   for years, sample in samples.items()]
        text = render_metrics_table(reports, args.format)
    except (OSError, ValueError, csv.Error) as exc:
        print(f"run_reference_battery: error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
