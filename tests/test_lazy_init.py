"""The package re-exports resolve on first access and behave like eager ones."""

import json
import subprocess
import sys

import pytest

import sipcraft


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sipcraft.no_such_name
    assert not hasattr(sipcraft, "no_such_name")


def test_star_import_binds_every_export():
    # a fresh interpreter, so no earlier test has resolved a name already
    probe = (
        "import json\n"
        "ns = {}\n"
        "exec('from sipcraft import *', ns)\n"
        "import sipcraft.engine, sipcraft.stats\n"
        "missing = [n for n in sipcraft.__all__ if n not in ns]\n"
        "same = [ns['paired_run'] is sipcraft.engine.paired_run,\n"
        "        ns['BatteryConfig'] is sipcraft.stats.BatteryConfig]\n"
        "print(json.dumps([missing, same]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], [True, True]]
