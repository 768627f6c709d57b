"""The benchmark's layer tracer finds every function it wraps.

``perfbench/trace_child.py`` times each layer by wrapping the attributes in
its ``WRAPPED`` table, and reports a missing one only as a line of benchmark
output. These checks keep that table in step with the modules it wraps, and
keep the return values its span counts read in the shape it reads. That the
CLI's deferred imports load no layer before a command needs it is
``test_cli.py::test_each_command_imports_only_its_layers``'s to check.
"""

import csv
import importlib
import json
import subprocess
import sys

import gen
import trace_child

from conftest import ROOT


def test_every_wrapped_attribute_resolves():
    missing = [f"{module}.{attr}" for module, attr in trace_child.WRAPPED
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_traced_compare_reads_every_count(walk_csv, tmp_path):
    # trace_child._counts reads the layers' return values (the schedule
    # table's sources, the outcomes' windows, BootstrapCI and the battery
    # report's not_applicable), so a record change there breaks this run
    out = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_child.py"), "--out", str(out),
         "--seconds", "0", "--", "compare", "--data", str(walk_csv), "--resamples", "1000",
         "--format", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert (result["rc"], result["missing"], result["mismatches"]) == (0, [], 0)
    for spans in result["traced"]:
        keys = {key for span in spans for key in span["counts"]}
        assert {"rows", "months", "windows", "installments", "calls", "resamples",
                "cells_na"} <= keys
        cells_na = {s["label"]: s["counts"]["cells_na"] for s in spans
                    if s["name"] == "stats.battery.run"}
        assert cells_na == {"1y": 0, "3y": 0, "5y": 0, "10y": 2, "20y": 8}


def test_traced_validate_counts_override_anchors(tmp_path):
    # build_schedule sets each anchor's source, and the tracer counts the
    # override and computed ones from the table it returns
    overrides = ROOT / "data" / "schedule_overrides.csv"
    data, out = tmp_path / "long.csv", tmp_path / "trace.json"
    text = gen.long_csv(1, str(overrides))
    data.write_text(text, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_child.py"), "--out", str(out),
         "--seconds", "0", "--", "validate", "--data", str(data), "--schedule", str(overrides)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert (result["rc"], result["missing"], result["mismatches"]) == (0, [], 0)

    # the months validate checks run from the series' first month to its last
    months = [row[:7] for row in text.splitlines()[1:]]
    with open(overrides, encoding="utf-8") as fh:
        cells = sum(bool(day) for row in csv.DictReader(fh)
                    if min(months) <= f"{int(row['year']):04d}-{int(row['month']):02d}"
                    <= max(months)
                    for day in (row["ftd_dom"], row["expiry_dom"]))
    for spans in result["traced"]:
        (counts,) = [s["counts"] for s in spans if s["name"] == "schedule.build_schedule"]
        assert counts["anchors_override"] + counts["anchors_computed"] == 2 * counts["months"]
        assert counts["anchors_override"] == cells
