#!/usr/bin/env python3
"""Run the comparison battery on the frozen per-window CAGR table.

Reads data/reference_windows.csv (per-window CAGR pairs for both execution
schedules), groups rows by duration, and prints the full metrics table.
This is the fast path: no index data needed, just the window-level numbers.
"""

from __future__ import annotations

import argparse
import csv
import sys
from collections import defaultdict
from pathlib import Path

from sipcraft.stats import BatteryConfig, PairedSample, run_battery
from sipcraft.report import render_metrics_table

DEFAULT_TABLE = Path(__file__).resolve().parent.parent / "data" / "reference_windows.csv"


def load_samples(path: Path) -> dict[int, PairedSample]:
    by_duration: dict[int, list[tuple[float, float]]] = defaultdict(list)
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            by_duration[int(rec["years"])].append(
                (float(rec["cagr_exp"]), float(rec["cagr_ftd"])))
    return {
        years: PairedSample([e for e, _ in pairs], [f for _, f in pairs])
        for years, pairs in sorted(by_duration.items())
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--table", type=Path, default=DEFAULT_TABLE,
                        help="window CAGR csv (default: data/reference_windows.csv)")
    parser.add_argument("--config", help="battery config JSON file")
    parser.add_argument("--format", choices=("markdown", "csv", "json"),
                        default="markdown")
    args = parser.parse_args(argv)

    if args.config:
        config = BatteryConfig.from_json(Path(args.config).read_text())
    else:
        config = BatteryConfig()

    samples = load_samples(args.table)
    reports = [run_battery(sample, config, label=f"{years}y").to_json_dict()
               for years, sample in samples.items()]
    sys.stdout.write(render_metrics_table(reports, args.format))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
