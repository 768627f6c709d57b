"""The benchmark's layer tracer finds every function it wraps.

``perfbench/trace_child.py`` times each layer by wrapping the attributes in
its ``WRAPPED`` table, and reports a missing one only as a line of benchmark
output. These checks keep that table and the CLI's deferred imports in step.
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
