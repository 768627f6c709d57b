"""Tests of the benchmark itself: generator, oracle, tracer and contract.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Scratch files go under ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import oracle
import run

ROOT = run.ROOT


@pytest.fixture
def scratch(request):
    path = ROOT / run.WORK_DIR / f"test-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass  # another run still holds a scratch directory


def _sipcraft(argv: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("SIPCRAFT_SEED", None)
    return subprocess.run([sys.executable, "-m", "sipcraft", *argv], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)


def _write(scratch: Path, text: str) -> str:
    path = scratch / "input.csv"
    path.write_text(text, encoding="utf-8")
    return str(path.relative_to(ROOT))


def test_generator_is_deterministic_per_seed():
    assert gen.grid_csv(3) == gen.grid_csv(3)
    assert gen.grid_csv(3) != gen.grid_csv(4)
    assert gen.long_csv(3, run.SCHEDULE) == gen.long_csv(3, run.SCHEDULE)
    assert gen.long_csv(3, run.SCHEDULE) != gen.long_csv(4, run.SCHEDULE)
    # a fixed number of holidays keeps every row count independent of the seed
    assert len({gen.grid_csv(s).count("\n") for s in range(1, 4)}) == 1
    assert len({gen.long_csv(s, run.SCHEDULE).count("\n") for s in range(1, 4)}) == 1


def test_long_input_holds_every_override_date():
    overrides = oracle.load_overrides(run.SCHEDULE)
    cal = oracle.Calendar(gen.long_csv(5, run.SCHEDULE), overrides)
    assert gen.override_dates(run.SCHEDULE) <= set(cal.close)
    sched = cal.schedule((1990, 1), (2024, 12))
    assert sched["months"] == 420 and sched["anomalies"] == []
    assert sched["override"] > 0 and sched["computed"] > 0


def test_oracle_accepts_the_bundle_and_rejects_a_perturbed_cagr(scratch):
    text = gen.grid_csv(2)
    proc = _sipcraft(["compare", "--data", _write(scratch, text), "--format", "json",
                      "--resamples", "1000"])
    assert proc.returncode == 0 and proc.stderr == b""
    cal, grid = oracle.Calendar(text), oracle.load_grid(run.GRID)
    schema = json.loads((ROOT / run.SCHEMA).read_text(encoding="utf-8"))
    assert oracle.check_bundle(proc.stdout, cal, grid, schema, 1000) == []

    bundle = json.loads(proc.stdout)
    bundle["windows"]["3y"][2]["cagr_exp"] += 0.02
    problems = oracle.check_bundle(json.dumps(bundle).encode(), cal, grid, schema, 1000)
    assert len(problems) == 1 and "3y" in problems[0] and "cagr_exp" in problems[0]

    bundle = json.loads(proc.stdout)
    bundle["metrics"][0]["t"]["p"] *= 1.01
    assert oracle.check_bundle(json.dumps(bundle).encode(), cal, grid, schema, 1000) != []


def test_oracle_rejects_a_wrong_exit_code_or_stderr():
    out = b"{}\n"
    assert oracle.check_invocation(0, 0, b"", out, out) == []
    assert oracle.check_invocation(1, 0, b"", out, out) == ["exit code 1, expected 0"]
    assert oracle.check_invocation(0, 0, b"warning\n", out, out) != []
    assert oracle.check_invocation(0, 0, b"", out, b"{ }\n") != []


def test_oracle_checks_the_validate_report(scratch):
    text = gen.long_csv(2, run.SCHEDULE)
    proc = _sipcraft(["validate", "--data", _write(scratch, text), "--schedule", run.SCHEDULE])
    assert proc.returncode == 0
    cal = oracle.Calendar(text, oracle.load_overrides(run.SCHEDULE))
    assert oracle.check_validate(proc.stdout, cal) == []
    report = json.loads(proc.stdout)
    report["rows"] -= 1
    assert oracle.check_validate(json.dumps(report).encode(), cal) != []


@pytest.mark.parametrize("workload", ["validate_long", "compare_quick"])
def test_traced_bytes_equal_untraced_bytes(scratch, workload):
    w = run.WORKLOADS[workload]
    text = gen.long_csv(7, run.SCHEDULE)
    argv = w.args(_write(scratch, text))
    untraced = _sipcraft(argv)
    assert untraced.returncode == 0

    spans_path = scratch / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.run([sys.executable, str(Path(run.__file__).with_name("trace_child.py")),
                            "--out", str(spans_path), "--seconds", "0", "--", *argv],
                           cwd=ROOT, env=env, capture_output=True, timeout=120)
    assert child.returncode == 0, child.stderr
    trace = json.loads(spans_path.read_text(encoding="utf-8"))
    assert trace["out_sha256"] == hashlib.sha256(untraced.stdout).hexdigest()
    assert trace["mismatches"] == 0 and trace["missing"] == []

    per_call = [run.layer_metrics(spans) for spans in trace["traced"]]
    cal = oracle.Calendar(text, oracle.load_overrides(run.SCHEDULE))
    expected = oracle.expected_counts(cal, oracle.load_grid(run.GRID), w.command, w.resamples)
    for metrics in per_call:
        assert {k: metrics[k] for k in expected} == expected


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_run_fails_without_the_program(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(ROOT / "perfbench", scratch / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "validate_long",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=scratch, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
