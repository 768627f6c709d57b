"""The process entry: ``python -m sipcraft`` and the ``sipcraft`` console
script run ``sipcraft.__main__.run``, which freezes the heap on the way
out. ``cli.main`` never freezes, because tests, ``scripts/golden.py`` and
the benchmark's tracer call it in-process many times."""

import gc
import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import sipcraft
from sipcraft import __main__ as entry, timeseries
from sipcraft._version import VERSION
from sipcraft.cli import EXIT_ANOMALIES, EXIT_ERROR, EXIT_OK, main

from conftest import DATA, OVERRIDES, ROOT


def _sipcraft(*argv, python=()):
    return subprocess.run([sys.executable, *python, "-m", "sipcraft", *argv],
                          capture_output=True, text=True)


def test_cli_main_leaves_the_heap_unfrozen(walk_csv, capsys):
    frozen = gc.get_freeze_count()
    with pytest.raises(SystemExit):
        main(["--version"])
    assert main(["validate", "--data", str(walk_csv)]) == EXIT_OK
    assert gc.get_freeze_count() == frozen


def _pyproject() -> dict:
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)


def _script_target() -> str:
    return _pyproject()["project"]["scripts"]["sipcraft"]


def test_console_script_is_the_module_entry():
    module, _, attr = _script_target().partition(":")
    assert getattr(importlib.import_module(module), attr) is entry.run


def test_project_version_is_the_package_version():
    # one version string: the build reads it from the attribute --version prints
    config = _pyproject()
    assert "version" not in config["project"] and "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "sipcraft._version.VERSION"}


@pytest.mark.parametrize("route", ["module", "script"])
def test_each_entry_freezes_and_keeps_atexit(route):
    # runpy runs the package's __main__ as -m does; the script route calls
    # the pyproject target as an installed console script does
    if route == "module":
        call = "import runpy; runpy.run_module('sipcraft', run_name='__main__', alter_sys=True)"
    else:
        module, _, attr = _script_target().partition(":")
        call = f"import importlib; sys.exit(importlib.import_module({module!r}).{attr}())"
    probe = ("import atexit, gc, sys\n"
             "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr))\n"
             f"{call}\n")
    proc = subprocess.run([sys.executable, "-c", probe, "--version"], capture_output=True,
                          text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        EXIT_OK, f"sipcraft {VERSION}\n", "frozen True\n")


def test_module_entry_exit_codes_and_streams(tmp_path):
    proc = _sipcraft("--version")
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, f"sipcraft {VERSION}\n", "")
    proc = _sipcraft("validate", "--data", str(tmp_path / "missing.csv"))
    assert (proc.returncode, proc.stdout) == (EXIT_ERROR, "")
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("sipcraft: error: ")


def test_module_entry_reports_a_failed_flush():
    # stdout is a pipe nobody reads, so the exit's flush fails; buffered
    # output reaches that flush only after the freeze
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    try:
        proc = subprocess.run([sys.executable, "-m", "sipcraft", "--version"], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert proc.returncode == 120
    assert "BrokenPipeError" in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["compare", "--help"]],
                         ids=["version", "help", "compare-help"])
def test_module_entry_reports_an_unwritable_stdout(argv):
    # unbuffered, the write fails inside argparse, which on its own drops the error
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "sipcraft", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True,
                              env={**os.environ, "PYTHONUNBUFFERED": "1"})
    assert (proc.returncode, proc.stderr) == (
        EXIT_ERROR, "sipcraft: error: [Errno 28] No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["--bogus"], ["validate", "--data", "{missing}"],
                                  ["compare", "--data", "{missing}"]],
                         ids=["usage", "validate-missing", "compare-missing"])
def test_module_entry_exits_2_when_its_report_cannot_be_written(tmp_path, argv, unbuffered):
    # the one-line report fails on stderr too; the exit code must still say
    # "error", not 1 from a traceback or 120 from the exit's flush
    argv = [a.format(missing=tmp_path / "missing.csv") for a in argv]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "sipcraft", *argv], stdout=subprocess.PIPE,
                              stderr=full, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (EXIT_ERROR, "")


def test_module_entry_version_loads_only_the_start_modules():
    # -m runs sipcraft/__main__.py as __main__, so it is no sipcraft module
    proc = _sipcraft("--version", python=("-X", "importtime"))
    assert proc.returncode == EXIT_OK, proc.stderr
    imported = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()}
    assert sorted(m for m in imported if m.split(".")[0] == "sipcraft") == [
        "sipcraft", "sipcraft._version", "sipcraft.cli"]


def test_every_sipcraft_error_is_a_value_error():
    # cli.main reports OSError and ValueError, so no error of the package
    # escapes it; the one class of its own is the one that adds behaviour
    modules = [sipcraft, *(importlib.import_module(m.name)
                           for m in pkgutil.walk_packages(sipcraft.__path__, "sipcraft."))]
    classes = {obj for module in modules for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, Exception)
               and obj.__module__ == module.__name__}
    assert all(issubclass(cls, ValueError) for cls in classes), classes
    assert classes == {timeseries.SeriesFormatError}


@pytest.mark.parametrize("argv, rc", [
    (["validate", "--data", "{walk}", "--schedule", "{overrides}", "--out", "{out}"], EXIT_OK),
    (["validate", "--data", "{walk}", "--schedule", str(DATA / "schedule_overrides.csv")],
     EXIT_ANOMALIES),
    (["simulate", "--data", "{walk}", "--schedule", "{overrides}", "--strategy", "exp",
      "--start-year", "2010", "--years", "3", "--out", "{out}"], EXIT_OK),
    (["compare", "--data", "{walk}", "--schedule", "{overrides}", "@{args}", "--format", "json"],
     EXIT_OK),
    (["compare", "--data", str(DATA / "reference_windows.csv"), "--resamples", "1000",
      "--out", "{out}"], EXIT_OK),
    (["fixtures", "--kind", "walk", "--holiday-rate", "0.05", "--out", "{out}"], EXIT_OK),
], ids=["validate", "validate-anomalies", "simulate", "compare-series", "compare-windows",
        "fixtures"])
def test_dev_mode_run_closes_every_file(walk_csv, tmp_path, argv, rc):
    # under -X dev a file left for the collector to close warns on stderr;
    # the process entry skips the shutdown collections, so sipcraft must
    # close each file it opens itself, the @file argparse reads included
    (tmp_path / "overrides.csv").write_text(OVERRIDES)
    (tmp_path / "args.txt").write_text("--resamples=1000\n")
    paths = {"walk": walk_csv, "overrides": tmp_path / "overrides.csv",
             "args": tmp_path / "args.txt", "out": tmp_path / "out"}
    proc = _sipcraft(*[a.format(**paths) for a in argv], python=("-X", "dev"))
    assert (proc.returncode, proc.stderr) == (rc, "")
