"""Smoke tests for the scripts under scripts/."""

import json
import os
import subprocess
import sys

from conftest import ROOT


def test_run_reference_battery_prints_every_horizon(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"B": 1000}))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_reference_battery.py"), "--config", str(cfg)],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "| Metric | 1y | 3y | 5y | 10y | 20y |"
    assert "B=1000" in proc.stdout
