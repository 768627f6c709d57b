"""Smoke tests for the scripts under scripts/."""

import json
import os
import subprocess
import sys

import pytest

from conftest import ROOT


def run_reference_battery(tmp_path, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_reference_battery.py"), *args],
        capture_output=True, text=True, env=env, cwd=tmp_path)


def test_run_reference_battery_prints_every_horizon(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"B": 1000}))
    proc = run_reference_battery(tmp_path, "--config", str(cfg))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "| Metric | 1y | 3y | 5y | 10y | 20y |"
    assert "B=1000" in proc.stdout


# each of these ended in a traceback with exit 1
@pytest.mark.parametrize("config, table, message", [
    ("[1, 2]", None, "config file must hold a JSON object"),
    ("{", None, "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("[" * 100000 + "]" * 100000, None, "config file nests too deeply"),
    ('{"bee": 1}', None, "unknown battery config keys: ['bee']"),
    ('{"B": 10}', None, "B must be >= 1000, got 10"),
    (None, "from_year,to_year,years,cagr_ftd\n2003,2003,1,1.0\n",
     "table.csv: missing columns ['cagr_exp']"),
    (None, "years,cagr_ftd,cagr_exp\n1,1.0,x\n",
     "table.csv line 2: expected integer years and numeric CAGRs, got ['1', '1.0', 'x']"),
    (None, "years,cagr_ftd,cagr_exp\n1.5,1.0,2.0\n",
     "table.csv line 2: expected integer years and numeric CAGRs, got ['1.5', '1.0', '2.0']"),
    (None, "years,cagr_ftd,cagr_exp\n1,1.0\n",
     "table.csv line 2: expected integer years and numeric CAGRs, got ['1', '1.0', None]"),
    # one getrandbits call for 70 * 1000000 picks would take more than 2**31 - 1 bits
    ('{"B": 1000000}', "years,cagr_ftd,cagr_exp\n" + "".join(f"1,{i},{i / 2}\n" for i in range(70)),
     "n * resamples must be <= 67108863, got 70 * 1000000"),
], ids=["not-an-object", "malformed", "nesting", "unknown-key", "invalid-key", "missing-column",
        "non-numeric", "fractional-years", "short-row", "too-many-picks"])
def test_run_reference_battery_bad_input_exits_2(tmp_path, config, table, message):
    args = []
    if config is not None:
        (tmp_path / "cfg.json").write_text(config)
        args += ["--config", "cfg.json"]
    if table is not None:
        (tmp_path / "table.csv").write_text(table)
        args += ["--table", "table.csv"]
    proc = run_reference_battery(tmp_path, *args)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"run_reference_battery: error: {message}\n"


@pytest.mark.parametrize("flag", ["--config", "--table"])
def test_run_reference_battery_unreadable_file_exits_2(tmp_path, flag):
    proc = run_reference_battery(tmp_path, flag, "absent")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("run_reference_battery: error: "
                           "[Errno 2] No such file or directory: 'absent'\n")
