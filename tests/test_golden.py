"""Every command in the golden corpus matches its recorded exit code and output.

The manifest, ``tests/golden/manifest.json``, is written by
``scripts/golden.py --update``; an entry that moves here is a changed output
byte, which only a declared contract change may bring.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from conftest import ROOT


def _golden():
    spec = importlib.util.spec_from_file_location("golden", ROOT / "scripts" / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _golden()
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
    assert golden.record(name) == MANIFEST[name]


# package lines, by their source text, that only the corpus entries added for
# them run: an args file, SIPCRAFT_SEED and --out; malformed durations; a
# bundle with anomalies; a simulate amount other than the default; a month
# without trading days and one without an expiry; an ftd_dominates verdict; growth fixtures; the
# bootstrap's word loop; samples whose differences are all equal or all zero;
# the parsers' checks of an override month and of a window's order; and an
# execution date before the series' first trading day
REACHED = {
    "cli.py": ('raise ValueError(f"durations must be comma-separated integers',
               "args.seed = int(env_seed)",
               'with open(out, "w", encoding="utf-8") as fh:', "fh.write(text)"),
    "engine.py": ('raise SeriesFormatError(f"window ends before it starts',
                  '"no earlier trading day in series"'),
    "report.py": ('lines += ["## Schedule anomalies", ""]', "{plan['monthly_amount']:.15g}/month"),
    "schedule.py": ('_anomaly(key, "expiry_day", expiry, "expiry precedes',
                    "return None  # the series has no trading day in the month",
                    "return None  # no trading day in the month up to its last Thursday",
                    "_anomaly(key, field, None, missing)",
                    'raise SeriesFormatError(f"month must be in 1..12'),
    "stats/dominance.py": ('return "ftd_dominates"',),
    "synth.py": ("close = base * math.exp(3e-4 * i)",),
    "stats/bootstrap.py": ("for w in struct.unpack(",
                           "z0=0.0, acceleration=0.0, degenerate=True"),
    "stats/battery.py": ('na["t"] = "all differences are identical, t is undefined"',
                         'na["cohens_d"] = na["hedges_g"] = "all differences are identical, d is',
                         '"degenerate sample (all differences zero)"'),
}
# modules the corpus runs every line of: a check that no command can trip
# there would be a second check of a value the CLI or a parser has checked
FULLY_REACHED = ("cli.py", "report.py", "schedule.py", "timeseries.py", "stats/paired.py",
                 "stats/dominance.py", "stats/battery.py")


def test_corpus_reaches_every_path_an_entry_was_added_for():
    # a fresh interpreter, so that the package's module-level lines run traced too
    proc = subprocess.run(
        [sys.executable, "-c", "import golden, json; print(json.dumps(golden.reach()))"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "scripts")])})
    assert proc.returncode == 0, proc.stderr
    unreached = {path: set(lines) for path, (_, lines) in json.loads(proc.stdout).items()}
    assert {path: sorted(unreached[path]) for path in FULLY_REACHED} == dict.fromkeys(
        FULLY_REACHED, [])
    for path, texts in REACHED.items():
        source = (ROOT / "src" / "sipcraft" / path).read_text(encoding="utf-8").splitlines()
        for text in texts:
            lines = {number for number, line in enumerate(source, 1) if text in line}
            assert lines, (path, text)
            assert not lines & unreached[path], (path, text, sorted(lines & unreached[path]))


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
