"""sipcraft benchmark: seeded CLI workloads, timed end to end or traced per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload compare_grid --seed 1 --seconds 20 --trace 0

The benchmark writes the workload's input from ``--seed`` into a scratch
directory under ``.perfbench_work/``, checks one untimed invocation against
an independent oracle (``oracle.py``), and then measures.

``--trace 0`` is a closed loop with one client: ``python -m sipcraft ...``
processes run one after another, with nothing in parallel, for
``--seconds``. Each must exit with the expected code, write nothing to
stderr and print the same bytes as the checked invocation. It reports the
end-to-end metrics.

``--trace 1`` runs ``trace_child.py`` in a fresh interpreter, which calls
``cli.main`` in-process with runtime wrappers around each layer's public
functions, and reports the per-layer metrics. Its output bytes must equal
the untimed subprocess run, and its work counts must repeat exactly and
match the oracle's.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Lines before it give every metric
with its unit, sample counts and the input's SHA-256.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import gen
import oracle

ROOT = Path(__file__).resolve().parent.parent
SCHEDULE = "data/schedule_overrides.csv"
GRID = "data/reference_windows.csv"
SCHEMA = "docs/report_schema.json"
REQUIRED = ("src/sipcraft/__main__.py", "src/sipcraft/cli.py", SCHEDULE, GRID, SCHEMA)
WORK_DIR = ".perfbench_work"

SETUP_EVERY = 2  # one --version run after every second workload invocation
SETUP_MIN_SAMPLES = 5
PROBE_SAMPLES = 5
INVOCATION_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Workload:
    why: str
    input_kind: str  # "grid" or "long", see gen.py
    argv: tuple[str, ...]  # "{data}" is replaced by the input's path
    resamples: int = 0  # B of a compare workload
    twin: tuple[str, ...] = ()  # extra flags of an untimed JSON twin, checked by the oracle

    @property
    def command(self) -> str:
        return self.argv[0]

    def args(self, data: str, extra: tuple[str, ...] = ()) -> list[str]:
        return [data if a == "{data}" else a for a in self.argv + extra]


WORKLOADS = {
    "compare_grid": Workload(
        "the paper's headline run: JSON bundle, B=10000, computed anchors; the bootstrap dominates",
        "grid", ("compare", "--data", "{data}", "--format", "json"), resamples=10000),
    "compare_quick": Workload(
        "override table, markdown output, B=1000: small bootstrap, so fixed per-call cost shows",
        "long", ("compare", "--data", "{data}", "--schedule", SCHEDULE, "--resamples", "1000"),
        resamples=1000, twin=("--format", "json")),
    "validate_long": Workload(
        "420 months, override and computed anchors, no statistics: import and parse dominate",
        "long", ("validate", "--data", "{data}", "--schedule", SCHEDULE)),
}

END_TO_END = {"setup_s": "s", "cmd_s": "s", "cpu_s": "s", "rss_mb": "MB"}

HORIZONS = ("1y", "3y", "5y", "10y", "20y")
PER_LAYER = {
    "cli.python_start_s": "s", "cli.import_s": "s", "cli.numpy_loaded": "count",
    "cli.main_s": "s", "cli.self_s": "s",
    "timeseries.parse_series_s": "s", "timeseries.rows": "count", "timeseries.rows_per_s": "1/s",
    "schedule.load_schedule_overrides_s": "s", "schedule.build_schedule_s": "s",
    "schedule.months": "count", "schedule.anchors_override": "count",
    "schedule.anchors_computed": "count", "schedule.anomalies": "count",
    "engine.paired_run_s": "s", **{f"engine.paired_run_s.{h}": "s" for h in HORIZONS},
    "engine.windows": "count", "engine.installments": "count",
    "stats.paired.t_s": "s", "stats.paired.wilcoxon_s": "s", "stats.paired.effect_s": "s",
    "stats.bootstrap.bca_s": "s", **{f"stats.bootstrap.bca_s.{h}": "s" for h in HORIZONS[:3]},
    "stats.bootstrap.calls": "count", "stats.bootstrap.resamples": "count",
    "stats.bootstrap.resamples_per_s": "1/s",
    "stats.dominance.ks_s": "s", "stats.dominance.fsd_ssd_s": "s",
    "stats.battery.run_s": "s", **{f"stats.battery.run_s.{h}": "s" for h in HORIZONS},
    "stats.battery.self_s": "s", "stats.battery.cells_na": "count",
    "report.boxplot_summary_s": "s", "report.render_bundle_s": "s", "report.file_sha256_s": "s",
    "report.out_bytes": "bytes",
    "trace.overhead_s": "s", "trace.repeats": "count",
}
# spans whose time is also reported per horizon label
LABELLED = ("engine.paired_run", "stats.battery.run", "stats.bootstrap.bca")
# work counts read from span return values; each must repeat exactly
COUNTS = ("timeseries.rows", "schedule.months", "schedule.anchors_override",
          "schedule.anchors_computed", "schedule.anomalies", "engine.windows",
          "engine.installments", "stats.bootstrap.calls", "stats.bootstrap.resamples",
          "stats.battery.cells_na")


@dataclass
class Invocation:
    rc: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    out: bytes
    err: bytes


class Runner:
    """Spawns one child at a time with the package on PYTHONPATH and reaps it with wait4."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.env = {k: v for k, v in os.environ.items() if k != "SIPCRAFT_SEED"}
        self.env["PYTHONPATH"] = str(ROOT / "src")

    def run(self, python_args: list[str], timeout_s: float = INVOCATION_TIMEOUT_S) -> Invocation:
        out_path, err_path = self.scratch / "stdout", self.scratch / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *python_args], cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            watchdog = threading.Timer(timeout_s, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Invocation(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                          out_path.read_bytes(), err_path.read_bytes())

    def sipcraft(self, argv: list[str]) -> Invocation:
        return self.run(["-m", "sipcraft", *argv])


class Bench:
    """One run: inputs from the seed, the oracle's view of them, and the checked reference output."""

    def __init__(self, name: str, seed: int, scratch: Path):
        self.workload = WORKLOADS[name]
        self.runner = Runner(scratch)
        self.problems: list[str] = []
        self.attempted = self.failed = 0

        text = gen.grid_csv(seed) if self.workload.input_kind == "grid" else gen.long_csv(seed, SCHEDULE)
        data_path = scratch / f"{name}.csv"
        data_path.write_text(text, encoding="utf-8")
        self.data = str(data_path.relative_to(ROOT))
        overrides = oracle.load_overrides(SCHEDULE) if SCHEDULE in self.workload.argv else None
        self.cal = oracle.Calendar(text, overrides)
        self.grid = oracle.load_grid(GRID)
        self.expected = oracle.expected_counts(self.cal, self.grid, self.workload.command,
                                               self.workload.resamples)
        # validate exits 1 when it finds anomalies; compare always exits 0
        self.expected_rc = int(self.workload.command == "validate" and self.expected["schedule.anomalies"] > 0)
        print(f"input {self.data} rows {len(self.cal.dates)} "
              f"sha256 {hashlib.sha256(text.encode()).hexdigest()}")

    def invoke(self, extra: tuple[str, ...] = ()) -> Invocation:
        return self.runner.sipcraft(self.workload.args(self.data, extra))

    def count(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems[:5]

    def reference(self) -> bytes:
        """One untimed invocation (plus its JSON twin), checked against the oracle."""
        ref = self.invoke()
        problems = oracle.check_invocation(ref.rc, self.expected_rc, ref.err, ref.out, ref.out)
        if not problems:
            problems = self._check_output(ref.out)
        self.count(problems)
        print(f"output sha256 {hashlib.sha256(ref.out).hexdigest()} ({len(ref.out)} bytes)")
        return ref.out

    def _check_output(self, out: bytes) -> list[str]:
        w = self.workload
        if w.command == "validate":
            return oracle.check_validate(out, self.cal)
        schema = json.loads((ROOT / SCHEMA).read_text(encoding="utf-8"))
        if not w.twin:
            return oracle.check_bundle(out, self.cal, self.grid, schema, w.resamples)
        twin = self.invoke(w.twin)
        problems = oracle.check_invocation(twin.rc, self.expected_rc, twin.err, twin.out, twin.out)
        if not problems:
            problems = (oracle.check_bundle(twin.out, self.cal, self.grid, schema, w.resamples)
                        + oracle.check_markdown(out, twin.out))
        self.count(problems)
        return problems

    def version(self) -> float:
        """Wall time of ``--version`` in a fresh process: the fixed cost every command pays."""
        inv = self.runner.sipcraft(["--version"])
        if inv.rc != 0 or inv.err or not inv.out.startswith(b"sipcraft "):
            self.problems.append(f"--version: exit {inv.rc}, stderr {inv.err[:200]!r}")
        return inv.wall_s

    def plain(self, seconds: float) -> dict[str, float]:
        self.version()  # warm-up: byte-compiles the package on a fresh checkout
        reference = self.reference()
        runs: list[Invocation] = []
        setup: list[float] = []
        deadline = time.perf_counter() + seconds
        while not runs or time.perf_counter() < deadline:
            inv = self.invoke()
            self.count(oracle.check_invocation(inv.rc, self.expected_rc, inv.err, inv.out, reference))
            runs.append(inv)
            # set-up samples spread over the whole run see the same machine load as cmd_s
            if len(runs) % SETUP_EVERY == 0:
                setup.append(self.version())
        while len(setup) < SETUP_MIN_SAMPLES:
            setup.append(self.version())
        wall = [r.wall_s for r in runs]
        print(f"samples {len(runs)}; cmd_s {_describe(wall)}; setup_s {_describe(setup)}")
        return {
            "setup_s": statistics.median(setup),
            "cmd_s": statistics.median(wall),
            "cpu_s": statistics.median(r.cpu_s for r in runs),
            "rss_mb": statistics.median(r.maxrss_kb / 1024.0 for r in runs),
        }

    def probe(self, code: str) -> list[Invocation]:
        runs = [self.runner.run(["-c", code]) for _ in range(PROBE_SAMPLES)]
        for inv in runs:
            if inv.rc != 0 or inv.err:
                self.problems.append(f"probe {code!r}: exit {inv.rc}, stderr {inv.err[:200]!r}")
        return runs

    def traced(self, seconds: float) -> dict[str, float]:
        reference = self.reference()
        start = self.probe("pass")
        imports = self.probe("import time; t = time.perf_counter(); import sipcraft.cli; "
                             "print(time.perf_counter() - t)")
        spans_path = self.runner.scratch / "spans.json"
        child = self.runner.run([str(Path(__file__).with_name("trace_child.py")), "--out",
                                 str(spans_path), "--seconds", str(seconds), "--",
                                 *self.workload.args(self.data)],
                                timeout_s=seconds + INVOCATION_TIMEOUT_S)
        if child.rc != 0 or child.err:
            self.count([f"traced run: exit {child.rc}, stderr {child.err[-500:]!r}"])
            return {}
        trace = json.loads(spans_path.read_text(encoding="utf-8"))
        repeats = len(trace["traced"])
        self.attempted += 2 * repeats  # the first call is counted by the check below
        self.failed += trace["mismatches"]
        if trace["mismatches"]:
            self.problems.append(f"traced run: {trace['mismatches']} calls gave other bytes")
        self.count(oracle.check_invocation(
            trace["rc"], self.expected_rc, trace["stderr"].encode(),
            trace["out_sha256"].encode(), hashlib.sha256(reference).hexdigest().encode()))
        if trace["missing"]:
            print(f"not traced (attribute missing): {', '.join(trace['missing'])}")

        per_repeat = [layer_metrics(spans) for spans in trace["traced"]]
        metrics = {name: statistics.median(m.get(name, 0.0) for m in per_repeat)
                   for name in PER_LAYER}
        for name in COUNTS:
            values = {m.get(name, 0) for m in per_repeat}
            if len(values) > 1:
                self.problems.append(f"count {name} differs between traced calls: {sorted(values)}")
        for name, want in self.expected.items():
            # a count whose span never fired (its wrapper is missing) is not checked
            if name in per_repeat[0] and metrics[name] != want:
                self.problems.append(f"count {name} = {metrics[name]}, oracle expects {want}")

        metrics.update({
            "cli.python_start_s": statistics.median(i.wall_s for i in start),
            "cli.import_s": statistics.median(float(i.out or "nan") for i in imports),
            "cli.numpy_loaded": trace["numpy_loaded"],
            "timeseries.rows_per_s": _rate(metrics["timeseries.rows"], metrics["timeseries.parse_series_s"]),
            "stats.bootstrap.resamples_per_s": _rate(metrics["stats.bootstrap.resamples"],
                                                     metrics["stats.bootstrap.bca_s"]),
            "report.out_bytes": trace["out_bytes"],
            # paired differences cancel drift in machine load between the calls
            "trace.overhead_s": statistics.median(
                m["cli.main_s"] - u for m, u in zip(per_repeat, trace["untraced_s"])),
            "trace.repeats": repeats,
        })
        print(f"traced calls {repeats}; untraced cli.main_s {_describe(trace['untraced_s'])}")
        return metrics


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Busy time, self time and work counts of one traced ``cli.main`` call."""
    dur = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            child[s["parent"]] += dur[i]
    out: dict[str, float] = {"cli.main_s": dur[0], "cli.self_s": dur[0] - child[0]}
    for i, s in enumerate(spans[1:], start=1):
        name = s["name"]
        keys = [f"{name}_s"] + ([f"{name}_s.{s['label']}"] if name in LABELLED else [])
        if name == "stats.battery.run":
            out["stats.battery.self_s"] = out.get("stats.battery.self_s", 0.0) + dur[i] - child[i]
        for key in keys:
            out[key] = out.get(key, 0.0) + dur[i]
        layer = name.rsplit(".", 1)[0]
        for key, value in s["counts"].items():
            out[f"{layer}.{key}"] = out.get(f"{layer}.{key}", 0) + value
    return out


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _describe(samples: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    text = f"median {statistics.median(samples):.4f}"
    if n > 10:
        pct = 100 * (n - 10) // n
        text += f", p{pct} {sorted(samples)[max(0, -(-pct * n // 100) - 1)]:.4f}"
    return f"{text} (n={n})"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(missing)}; run from a sipcraft checkout", file=sys.stderr)
        return 2

    os.chdir(ROOT)
    # a fixed path keeps the bundle's provenance, and so its bytes, the same across runs
    scratch = ROOT / WORK_DIR / f"{args.workload}-{args.seed}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, scratch)
        if args.trace:
            values, units = bench.traced(args.seconds), PER_LAYER
        else:
            values, units = bench.plain(args.seconds), END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            (ROOT / WORK_DIR).rmdir()
        except OSError:
            pass  # another run still holds a scratch directory

    for problem in bench.problems:
        print(f"FAIL {problem}")
    for name, unit in units.items():
        print(f"{name} {values.get(name, 0.0):.6g} {unit}")
    print(f"fail_frac {bench.failed / max(bench.attempted, 1):.4f} ({bench.failed}/{bench.attempted})")
    print(json.dumps({
        "correct": not bench.problems and len(values) > 0,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
