"""Every command in the golden corpus matches its recorded exit code and output.

The manifest, ``tests/golden/manifest.json``, is written by
``scripts/golden.py --update``; an entry that moves here is a changed output
byte, which only a declared contract change may bring.
"""

import os
import re
import subprocess
import sys

import pytest

import golden
from conftest import ROOT

MANIFEST = golden.load_manifest()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    golden.write_inputs(directory)
    return directory


def test_manifest_names_every_command():
    assert list(MANIFEST) == list(golden.COMMANDS)


@pytest.mark.parametrize("name", list(golden.COMMANDS))
def test_golden_output(name, inputs, monkeypatch):
    monkeypatch.chdir(inputs)
    monkeypatch.delenv("SIPCRAFT_SEED", raising=False)
    result = golden.capture(name)
    assert golden.record(name, result) == MANIFEST[name]
    # bad input ends in one error line and no output, never a traceback
    if result["exit"] == 2:
        assert result["stdout"] == ""
        assert re.fullmatch(r"sipcraft: error: .+\n", result["stderr"]), result["stderr"]
    else:
        assert result["stderr"] == ""


def test_corpus_reaches_every_path_an_entry_was_added_for():
    # a fresh interpreter, so that the package's module-level lines run traced too
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "golden.py"), "--reach"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_diff_outputs_names_each_moved_entry_with_a_unified_diff():
    same = {"exit": 0, "stdout": "kept\n", "stderr": ""}
    base = {"a": {"exit": 0, "stdout": "x\ny\n", "stderr": ""}, "b": same,
            "c": {"exit": 2, "stdout": "", "stderr": "old\n"}}
    head = {"a": {"exit": 0, "stdout": "x\nz\n", "stderr": ""}, "b": dict(same),
            "c": {"exit": 1, "stdout": "", "stderr": "old\n"}}
    assert golden.diff_outputs(base, head, "REV") == [
        "a",
        "--- REV:a:stdout", "+++ this tree:a:stdout", "@@ -1,3 +1,3 @@",
        " x", "-y", "+z", " ",
        "c",
        "--- REV:c:exit", "+++ this tree:c:exit", "@@ -1 +1 @@", "-2", "+1",
    ]
    assert golden.diff_outputs(base, base, "REV") == []
