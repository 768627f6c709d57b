"""Run the benchmark over several seeds; print run-to-run spreads and record a baseline.

Usage, from the repository root:

    python3 perfbench/baseline.py --seeds 1-10 --trace-seeds 1,2 [--seconds 30] \\
        [--workloads compare_grid,validate_long] [--write perfbench/BASELINE.json]

For each workload, ``run.py --trace 0`` runs once per seed, one run at a
time. For every end-to-end metric it prints the median of the per-run
values and their spread: the distance between the first and third quartile
(``statistics.quantiles(n=4)``) as a share of the median. ``--trace-seeds``
adds traced runs, whose medians and layer shares go into the record; their
work counts must be the same for every seed.
``--write`` saves the environment, the per-seed values, the medians and the
layer shares as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import COUNTS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# top-level spans under cli.main, grouped by layer
LAYER_SPANS = {
    "timeseries": ("timeseries.parse_series_s",),
    "schedule": ("schedule.load_schedule_overrides_s", "schedule.build_schedule_s"),
    "engine": ("engine.paired_run_s",),
    "stats": ("stats.battery.run_s",),
    "report": ("report.boxplot_summary_s", "report.render_bundle_s", "report.file_sha256_s"),
    "cli (self)": ("cli.self_s",),
}


def _seeds(text: str) -> list[int]:
    if not text:
        return []
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{' '.join(cmd)} failed its checks:\n{proc.stdout[-3000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def environment() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    import numpy

    return {"nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seeds", default="")
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--write")
    args = parser.parse_args()

    record = {"environment": environment(), "run_seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        entry = {"why": WORKLOADS[workload].why}
        runs = [run_once(workload, seed, args.seconds, 0) for seed in _seeds(args.seeds)]
        if runs:
            entry["end_to_end"] = {name: summarize([r[name] for r in runs]) for name in runs[0]}
            for name, s in entry["end_to_end"].items():
                print(f"{workload} {name}: median {s['median']:.4f} spread {s['spread']:.4f}",
                      file=sys.stderr, flush=True)
        traced = [run_once(workload, seed, args.seconds, 1) for seed in _seeds(args.trace_seeds)]
        if traced:
            for name in COUNTS + ("cli.numpy_loaded",):
                if len({r[name] for r in traced}) > 1:
                    raise RuntimeError(f"{workload}: count {name} differs across seeds")
            medians = {name: statistics.median(r[name] for r in traced) for name in traced[0]}
            main_s = medians["cli.main_s"]
            entry["per_layer"] = medians
            entry["layer_shares"] = {layer: sum(medians[n] for n in names) / main_s
                                     for layer, names in LAYER_SPANS.items()}
            entry["layer_shares"]["stats.bootstrap"] = medians["stats.bootstrap.bca_s"] / main_s
            print(f"{workload} layer shares of cli.main_s {main_s:.4f} s: "
                  + ", ".join(f"{k} {v:.3f}" for k, v in entry["layer_shares"].items()),
                  file=sys.stderr, flush=True)
        record["workloads"][workload] = entry

    text = json.dumps(record, indent=2) + "\n"
    if args.write:
        Path(args.write).write_text(text, encoding="utf-8")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
