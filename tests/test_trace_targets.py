"""The benchmark's layer tracer finds every function it wraps.

``perfbench/trace_child.py`` times each layer by wrapping the attributes in
its ``WRAPPED`` table, and reports a missing one only as a line of benchmark
output. These checks keep that table and the CLI's deferred imports in step,
and keep the return values its span counts read in the shape it reads.
"""

import importlib
import importlib.util
import json
import subprocess
import sys

from conftest import ROOT


def _trace_child():
    spec = importlib.util.spec_from_file_location("trace_child", ROOT / "perfbench" / "trace_child.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_resolves():
    missing = [f"{module}.{attr}" for module, attr in _trace_child().WRAPPED
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_cli_import_loads_no_layer():
    # the wrapped cli attributes are stand-ins, so importing the CLI loads
    # none of the layers they stand for
    layers = ("timeseries", "schedule", "engine", "stats", "report")
    probe = (
        "import json, sys\n"
        "import sipcraft.cli\n"
        f"print(json.dumps([m for m in {layers!r} if 'sipcraft.' + m in sys.modules]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_traced_compare_reads_every_count(tmp_path):
    # trace_child._counts reads the layers' return values (the schedule
    # table's sources, the outcomes' windows, BootstrapCI and the battery
    # report's not_applicable), so a record change there breaks this run
    from sipcraft.cli import main

    data, out = tmp_path / "walk.csv", tmp_path / "trace.json"
    assert main(["fixtures", "--kind", "walk", "--start-year", "2003", "--years", "22",
                 "--seed", "11", "--out", str(data)]) == 0
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_child.py"), "--out", str(out),
         "--seconds", "0", "--", "compare", "--data", str(data), "--resamples", "1000",
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
