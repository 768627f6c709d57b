#!/usr/bin/env python3
"""Golden-output corpus: every command's exit code and output digests.

Each command runs in-process through ``sipcraft.cli.main``, in a scratch
directory that holds seeded inputs under relative paths, so provenance
paths are the same on every machine. ``tests/golden/manifest.json`` maps
each command to its exit code and the SHA-256 of its stdout and stderr,
and of its ``--out`` file if it writes one; an entry of ``ENV`` runs with
those environment variables set, and its record lists them.

    python3 scripts/golden.py                 # list moved entries, exit 1 if any
    python3 scripts/golden.py --update        # rewrite the manifest
    python3 scripts/golden.py --against REV   # diff every output against REV's
    python3 scripts/golden.py --reach         # list package lines no entry runs, exit 1
                                              # if a module outside EXEMPT has one

A change that moves an entry on purpose regenerates the manifest and names
every moved entry in CHANGES.md. ``--against`` runs the same corpus on the
same inputs with the program of git revision REV (a temporary worktree
whose ``src/`` a subprocess imports), prints the name and a unified diff
of every entry whose exit code, stdout or stderr differs, and exits 1 if
any does. ``--reach`` runs the corpus under ``sys.settrace`` and prints,
for each module of the package, the executable lines (those of its code
objects' ``co_lines()``) that no entry runs, then their total; it exits 1
if any module outside ``EXEMPT`` has such a line.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import types
from datetime import date, timedelta
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
if importlib.util.find_spec("sipcraft") is None:  # a PYTHONPATH or an install wins
    sys.path.append(str(ROOT / "src"))
sys.path.append(str(ROOT / "perfbench"))  # gen, the benchmark's input generator
MANIFEST = ROOT / "tests" / "golden" / "manifest.json"
SCHEDULE = ROOT / "data" / "schedule_overrides.csv"
WINDOWS = ROOT / "data" / "reference_windows.csv"

# overrides on Saturdays, which no series trades on
UNVERIFIABLE = "year,month,ftd_dom,expiry_dom\n2010,1,2,\n2009,12,,5\n"
# window tables whose CAGRs lie beyond float range and beyond engine.MAX_CAGR
BEYOND_FLOAT = "from_year,to_year,cagr_ftd,cagr_exp\n2003,2003,1e308,-1e308\n"
BEYOND_MAX = "from_year,to_year,cagr_ftd,cagr_exp\n" + "".join(
    f"{y},{y},2.0,{y - 2002}e200\n" for y in range(2003, 2009))
_OVERRIDE = "year,month,ftd_dom,expiry_dom\n"
# override tables that each break one rule of load_schedule_overrides: a
# year that is not an integer, one outside the years a date can hold, a
# month that is not a calendar month, a month given twice, a day that is not
# an integer, a day its month lacks, and a row with neither anchor
OVERRIDE_ERRORS = {
    "year-text.csv": _OVERRIDE + "x,1,2,\n",
    "year-zero.csv": _OVERRIDE + "0,1,2,\n",
    "month-13.csv": _OVERRIDE + "2010,13,2,\n",
    "repeated-month.csv": _OVERRIDE + "2010,1,4,\n2010,1,,28\n",
    "day-text.csv": _OVERRIDE + "2010,1,x,\n",
    "february-30.csv": _OVERRIDE + "2010,2,30,\n",
    "no-anchor.csv": _OVERRIDE + "2010,1,,\n",
}
# series that each break one rule of parse_series: a date that is not
# YYYY-MM-DD, a close that is not a number, a zero and an infinite close, a
# date given twice and no data row; and one with a blank and a
# whitespace-only row, which it skips
SERIES = {
    "compact-date.csv": "date,close\n20030102,100\n",
    "text-close.csv": "date,close\n2003-01-02,abc\n",
    "zero-close.csv": "date,close\n2003-01-02,0\n",
    "inf-close.csv": "date,close\n2003-01-02,inf\n",
    "duplicate-date.csv": "date,close\n2003-01-02,100\n2003-01-03,101\n2003-01-02,102\n",
    "header-only.csv": "date,close\n",
    "blank-rows.csv": "date,close\n2003-01-02,100\n\n   \n2003-01-03,101\n",
}
# an override row whose expiry, 2002-12-01, falls before the grid series' first day
BEFORE_SERIES = "year,month,ftd_dom,expiry_dom\n2002,12,,1\n"
_WINDOWS = "from_year,to_year,cagr_ftd,cagr_exp\n"
# window tables that each break one rule of load_windows: a window that ends
# before it starts, a CAGR that is not a number, a years column that
# disagrees with the window, a window of no supported duration, a window
# given twice, and one one-year row, so the default durations have no rows
WINDOW_ERRORS = {
    "reversed.csv": _WINDOWS + "2004,2003,1.0,2.0\n",
    "cagr-text.csv": _WINDOWS + "2003,2003,abc,1.0\n",
    "years-mismatch.csv": "from_year,to_year,years,cagr_ftd,cagr_exp\n2003,2003,2,1.0,2.0\n",
    "two-years.csv": _WINDOWS + "2003,2004,1.0,2.0\n",
    "duplicate-window.csv": _WINDOWS + "2003,2003,1.0,2.0\n2003,2003,1.0,2.0\n",
    "one-year.csv": _WINDOWS + "2003,2003,1.0,2.0\n",
}
# inputs that each break one rule of the CSV reader all three input files share
READER_ERRORS = {
    "empty.csv": "",
    "no-close.csv": "date,price\n2003-01-02,1\n",
    "short-series.csv": "date,close\n2003-01-02,100\n2003-01-03\n",
    "short-override.csv": "year,month,ftd_dom,expiry_dom\n2010,1,4\n",
    "no-to-year.csv": "from_year,years,cagr_ftd,cagr_exp\n2003,1,1.0,2.0\n",
    # a header and a data field one character past the csv module's field limit
    "long-header.csv": f"date,{'c' * 131073}\n",
    "long-field.csv": f"date,close\n2003-01-02,{'1' * 131073}\n",
}
# an args file, one argument per line, with no seed, so SIPCRAFT_SEED supplies it
ARGS = "--data=grid.csv\n--durations=1,3\n--format=json\n--resamples=1000\n--alpha=0.1\n"
# an override row whose expiry, 2010-03-04, precedes its first trading day,
# 2010-03-25; both are trading days of the grid series
EXPIRY_FIRST = "year,month,ftd_dom,expiry_dom\n2010,3,25,4\n"
# 65 one-year windows
MANY_WINDOWS = "from_year,to_year,cagr_ftd,cagr_exp\n" + "".join(
    f"{y},{y},{y * 7 % 19 - 6}.5,{y * 11 % 17 - 5}.25\n" for y in range(1950, 2015))
# 300 one-year windows: more than 256 pairs, so the bootstrap draws one index per word
WINDOWS_300 = "from_year,to_year,cagr_ftd,cagr_exp\n" + "".join(
    f"{y},{y},{y * 13 % 31 - 9}.5,{y * 11 % 29 - 8}.25\n" for y in range(1725, 2025))
# three one-year windows whose differences all equal 0.5, and two
# three-year windows whose differences are both zero
EQUAL_DIFFS = "from_year,to_year,cagr_ftd,cagr_exp\n2003,2003,1.0,1.5\n2004,2004,2.0,2.5\n" \
    "2005,2005,3.0,3.5\n2006,2008,5.0,5.0\n2009,2011,-6.0,-6.0\n"
# 22 one-year windows whose differences are zero but for 2010's: the
# acceleration is about 0.155, so at alpha 1e-15 the upper z passes the BCa pole
POLE = _WINDOWS + "".join(f"{y},{y},5.0,{6.0 if y == 2010 else 5.0}\n"
                          for y in range(2003, 2025))

_SIM = ("simulate", "--data", "grid.csv", "--start-year", "2010", "--years", "3")
_LONG = ("--data", "long.csv", "--schedule", "schedule.csv")
COMMANDS: dict[str, tuple[str, ...]] = {
    "compare-markdown": ("compare", "--data", "grid.csv", "--resamples", "1000"),
    "compare-csv": ("compare", "--data", "grid.csv", "--resamples", "1000", "--format", "csv"),
    "compare-json": ("compare", "--data", "grid.csv", "--resamples", "1000", "--format", "json"),
    "compare-json-default-b": ("compare", "--data", "grid.csv", "--format", "json"),
    "compare-overrides": ("compare", *_LONG, "--resamples", "1000"),
    "compare-windows-markdown": ("compare", "--data", "windows.csv"),
    "compare-windows-json": ("compare", "--data", "windows.csv", "--format", "json"),
    "compare-windows-csv": ("compare", "--data", "windows.csv", "--format", "csv"),
    "validate-grid": ("validate", "--data", "grid.csv"),
    "validate-overrides": ("validate", *_LONG),
    "validate-gaps": ("validate", "--data", "gaps.csv"),
    "simulate-markdown": (*_SIM, "--strategy", "ftd"),
    "simulate-amount-markdown": (*_SIM, "--strategy", "ftd", "--amount", "2500.5"),
    "simulate-csv": (*_SIM, "--strategy", "exp", "--format", "csv"),
    "simulate-json": (*_SIM, "--strategy", "exp", "--format", "json"),
    "simulate-overrides": ("simulate", *_LONG, "--strategy", "exp", "--start-year", "2003",
                           "--years", "5", "--format", "json"),
    "fixtures": ("fixtures",),
    "fixtures-walk": ("fixtures", "--kind", "walk", "--start-year", "2003", "--years", "22",
                      "--seed", "11", "--holiday-rate", "0.05"),
    "version": ("--version",),
    "error-uncovered-ftd": ("simulate", "--data", "grid.csv", "--strategy", "ftd",
                            "--start-year", "2025", "--years", "1"),
    "error-uncovered-exp": ("simulate", "--data", "grid.csv", "--strategy", "exp",
                            "--start-year", "2025", "--years", "1"),
    "error-unverifiable-ftd": ("simulate", "--data", "grid.csv", "--schedule", "bad.csv",
                               "--strategy", "ftd", "--start-year", "2010", "--years", "1"),
    "error-unverifiable-exp": ("simulate", "--data", "grid.csv", "--schedule", "bad.csv",
                               "--strategy", "exp", "--start-year", "2010", "--years", "1"),
    "validate-unverifiable": ("validate", "--data", "grid.csv", "--schedule", "bad.csv"),
    "error-windows-schedule": ("compare", "--data", "windows.csv", "--schedule", "schedule.csv"),
    "error-cagr-overflow": ("simulate", "--data", "jump.csv", "--strategy", "ftd",
                            "--start-year", "2011", "--years", "1", "--amount", "1",
                            "--format", "json"),
    "error-windows-beyond-float": ("compare", "--data", "beyond-float.csv", "--durations", "1",
                                   "--format", "json"),
    "error-windows-beyond-max": ("compare", "--data", "beyond-max.csv", "--durations", "1",
                                 "--format", "json"),
    "error-override-year": ("validate", "--data", "grid.csv", "--schedule", "year-zero.csv"),
    "error-series-empty": ("validate", "--data", "empty.csv"),
    "error-compare-empty": ("compare", "--data", "empty.csv"),
    "error-series-no-close": ("validate", "--data", "no-close.csv"),
    "error-series-short-row": ("validate", "--data", "short-series.csv"),
    "error-override-short-row": ("validate", "--data", "grid.csv", "--schedule",
                                 "short-override.csv"),
    "error-windows-no-to-year": ("compare", "--data", "no-to-year.csv"),
    "compare-argfile-out": ("compare", "@args.txt", "--out", "bundle.json"),
    "compare-anomalies-markdown": ("compare", "--data", "grid.csv", "--schedule",
                                   "expiry-first.csv", "--resamples", "1000"),
    "compare-windows-ftd-dominates": ("compare", "--data", "swapped.csv", "--resamples",
                                      "1000", "--format", "json"),
    "fixtures-growth": ("fixtures", "--kind", "growth"),
    "compare-windows-65": ("compare", "--data", "many-windows.csv", "--durations", "1",
                           "--resamples", "1000", "--format", "json"),
    "compare-windows-300": ("compare", "--data", "windows-300.csv", "--durations", "1",
                            "--resamples", "1000", "--format", "json"),
    "compare-windows-equal-diffs": ("compare", "--data", "equal-diffs.csv", "--durations",
                                    "1,3", "--format", "json"),
    "error-override-month": ("validate", "--data", "grid.csv", "--schedule", "month-13.csv"),
    "error-windows-reversed": ("compare", "--data", "reversed.csv"),
    "error-override-before-series": ("simulate", "--data", "grid.csv", "--schedule", "before.csv",
                                     "--strategy", "exp", "--start-year", "2003", "--years", "1"),
    "compare-anomaly-no-date": ("compare", "--data", "no-dec-expiry.csv", "--durations", "1",
                                "--resamples", "1000"),
    "error-durations-not-integers": ("compare", "--data", "windows.csv", "--durations", "1,x"),
    "error-durations-empty": ("compare", "--data", "windows.csv", "--durations", ","),
    "error-durations-unsupported": ("compare", "--data", "windows.csv", "--durations", "1,2"),
    "error-amount-inf": (*_SIM, "--strategy", "ftd", "--amount", "inf"),
    "error-start-year": ("simulate", "--data", "grid.csv", "--strategy", "ftd",
                         "--start-year", "10000", "--years", "1"),
    "error-years": ("fixtures", "--start-year", "9999", "--years", "2"),
    "error-env-seed": ("compare", "--data", "windows.csv"),
    "error-double-dash-value": ("validate", "--data=--"),
    "error-resamples-small": ("compare", "--data", "windows.csv", "--resamples", "999"),
    "error-resamples-large": ("compare", "--data", "windows.csv", "--resamples", "1000001"),
    "error-alpha": ("compare", "--data", "windows.csv", "--alpha", "1"),
    "error-seed-negative": ("compare", "--data", "windows.csv", "--seed", "-1"),
    "error-fixtures-seed": ("fixtures", "--seed", "-1"),
    "error-base": ("fixtures", "--base", "0"),
    "error-holiday-rate": ("fixtures", "--holiday-rate", "0.31"),
    "error-series-long-header": ("validate", "--data", "long-header.csv"),
    "error-series-long-field": ("validate", "--data", "long-field.csv"),
    "error-series-date": ("validate", "--data", "compact-date.csv"),
    "error-series-close-text": ("validate", "--data", "text-close.csv"),
    "error-series-close-zero": ("validate", "--data", "zero-close.csv"),
    "error-series-close-inf": ("validate", "--data", "inf-close.csv"),
    "error-series-duplicate-date": ("validate", "--data", "duplicate-date.csv"),
    "error-series-header-only": ("validate", "--data", "header-only.csv"),
    "validate-blank-rows": ("validate", "--data", "blank-rows.csv"),
    "error-override-year-text": ("validate", "--data", "grid.csv", "--schedule", "year-text.csv"),
    "error-override-repeated-month": ("validate", "--data", "grid.csv", "--schedule",
                                      "repeated-month.csv"),
    "error-override-day-text": ("validate", "--data", "grid.csv", "--schedule", "day-text.csv"),
    "error-override-day-invalid": ("validate", "--data", "grid.csv", "--schedule",
                                   "february-30.csv"),
    "error-override-no-anchor": ("validate", "--data", "grid.csv", "--schedule", "no-anchor.csv"),
    "error-windows-cagr-text": ("compare", "--data", "cagr-text.csv"),
    "error-windows-years-mismatch": ("compare", "--data", "years-mismatch.csv"),
    "error-windows-unsupported-span": ("compare", "--data", "two-years.csv"),
    "error-windows-duplicate": ("compare", "--data", "duplicate-window.csv"),
    "error-windows-no-rows": ("compare", "--data", "one-year.csv"),
    "error-inverse-price": ("simulate", "--data", "huge.csv", "--strategy", "ftd",
                            "--start-year", "2011", "--years", "1"),
    "error-value-ratio": ("simulate", "--data", "jump-max.csv", "--strategy", "ftd",
                          "--start-year", "2011", "--years", "1"),
    "error-amount-huge": (*_SIM, "--strategy", "ftd", "--amount", "1e308"),
    "error-amount-tiny": (*_SIM, "--strategy", "ftd", "--amount", "1e-310"),
    "error-fixtures-level": ("fixtures", "--kind", "growth", "--base", "1.7e308"),
    "compare-windows-pole": ("compare", "--data", "pole.csv", "--durations", "1", "--alpha",
                             "1e-15", "--resamples", "1000", "--format", "json"),
    # argparse's rejections: a missing required flag, a value outside a flag's
    # choices, an unknown flag and an @file that does not exist
    "error-missing-data": ("compare",),
    "error-format-choice": ("compare", "--data", "windows.csv", "--format", "xml"),
    "error-unknown-flag": ("validate", "--data", "grid.csv", "--bogus"),
    "error-missing-argfile": ("compare", "@missing.txt"),
}
# entry -> the environment variables it runs with
ENV: dict[str, dict[str, str]] = {"compare-argfile-out": {"SIPCRAFT_SEED": "7"},
                                  "error-env-seed": {"SIPCRAFT_SEED": "-1"}}
# the modules --reach lets keep unreached lines: __main__.py is the process
# entry, which tests/test_entry.py and `python -m sipcraft` run and the
# corpus's in-process cli.main calls never do; stats/special.py guards
# p = 0, p = 1 and subnormal p, a NaN or infinite t, a non-int df and q
# outside [0, 1], which no command passes and tests/test_stats_special.py
# checks against mpmath and numpy
EXEMPT = ("__main__.py", "stats/special.py")


def jump_csv(before: float, after: float) -> str:
    """Weekday closes from 2010-12-01 to 2011-12-31: ``before`` through
    2011-12-19 and ``after`` from then on."""
    days = (date(2010, 12, 1) + timedelta(i) for i in range(396))
    return "date,close\n" + "".join(f"{d},{before if d < date(2011, 12, 20) else after}\n"
                                     for d in days if d.weekday() < 5)


def gaps_csv() -> str:
    """Weekday closes from January through June 2010 with no March rows and,
    in April, only the 30th, the day after its last Thursday: March has no
    first trading day and neither month an expiry."""
    days = (date(2010, 1, 4) + timedelta(i) for i in range(178))
    return "date,close\n" + "".join(f"{d},{100 + i}\n" for i, d in enumerate(days)
                                     if d.weekday() < 5 and d.month != 3
                                     and not (d.month == 4 and d.day < 30))


def write_inputs(directory: Path) -> None:
    """The corpus inputs: the benchmark's seed-1 grid and long series, the
    override table, an override table no series can verify, the frozen
    per-window CAGR table, the series with gaps, the inputs whose CAGRs,
    prices or values lie out of range, the inputs that break the shared CSV
    rules, the override tables, series and window tables of
    ``OVERRIDE_ERRORS``, ``SERIES`` and ``WINDOW_ERRORS``, an args file, an
    override table that puts an expiry before its month's first trading
    day, the CAGR table with its two CAGR headers swapped, a 65-row and a
    300-row one-year table, a table whose differences are equal within each
    duration, the ``POLE`` table, an override table whose one expiry falls
    before the grid series starts and the grid series without
    2024-12-01..26, so December 2024 has no expiry."""
    import gen

    grid = gen.grid_csv(1)
    (directory / "grid.csv").write_text(grid, encoding="utf-8")
    (directory / "no-dec-expiry.csv").write_text(
        "".join(row for row in grid.splitlines(keepends=True)
                if not "2024-12-01" <= row[:10] <= "2024-12-26"), encoding="utf-8")
    (directory / "long.csv").write_text(gen.long_csv(1, str(SCHEDULE)), encoding="utf-8")
    (directory / "schedule.csv").write_bytes(SCHEDULE.read_bytes())
    (directory / "bad.csv").write_text(UNVERIFIABLE, encoding="utf-8")
    (directory / "windows.csv").write_bytes(WINDOWS.read_bytes())
    (directory / "gaps.csv").write_text(gaps_csv(), encoding="utf-8")
    # 2011's ftd plan on these: a CAGR that overflows while an amount of 1
    # keeps the ledger finite, a value ratio that overflows, and inverse
    # prices below the smallest normal float
    (directory / "jump.csv").write_text(jump_csv(1.0, 1e307), encoding="utf-8")
    (directory / "jump-max.csv").write_text(jump_csv(1.0, 1.7e308), encoding="utf-8")
    (directory / "huge.csv").write_text(jump_csv(1e308, 1e308), encoding="utf-8")
    (directory / "beyond-float.csv").write_text(BEYOND_FLOAT, encoding="utf-8")
    (directory / "beyond-max.csv").write_text(BEYOND_MAX, encoding="utf-8")
    for name, text in {**READER_ERRORS, **OVERRIDE_ERRORS, **SERIES, **WINDOW_ERRORS}.items():
        (directory / name).write_text(text, encoding="utf-8")
    (directory / "args.txt").write_text(ARGS, encoding="utf-8")
    (directory / "expiry-first.csv").write_text(EXPIRY_FIRST, encoding="utf-8")
    (directory / "swapped.csv").write_bytes(
        WINDOWS.read_bytes().replace(b"cagr_ftd,cagr_exp", b"cagr_exp,cagr_ftd"))
    (directory / "many-windows.csv").write_text(MANY_WINDOWS, encoding="utf-8")
    (directory / "windows-300.csv").write_text(WINDOWS_300, encoding="utf-8")
    (directory / "equal-diffs.csv").write_text(EQUAL_DIFFS, encoding="utf-8")
    (directory / "pole.csv").write_text(POLE, encoding="utf-8")
    (directory / "before.csv").write_text(BEFORE_SERIES, encoding="utf-8")


def capture(name: str) -> dict:
    """Exit code, stdout, stderr and any ``--out`` file text of corpus command
    ``name``, run through ``cli.main`` in the current directory under its ``ENV``."""
    from sipcraft.cli import main

    argv = COMMANDS[name]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, ENV.get(name, {})), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # --version
            code = exc.code
    result = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if "--out" in argv:
        path = Path(argv[argv.index("--out") + 1])
        result["out"] = path.read_text(encoding="utf-8")
        path.unlink()
    return result


def record(name: str, result: dict | None = None) -> dict:
    """Manifest record of corpus command ``name``: its argv and any ``ENV``,
    then its exit code and the digest of each output of ``result``, its
    ``capture``, which runs here when not given."""
    result = capture(name) if result is None else result
    head = {"argv": list(COMMANDS[name]), **({"env": ENV[name]} if name in ENV else {}),
            "exit": result["exit"]}
    return {**head, **{f"{stream}_sha256": hashlib.sha256(text.encode()).hexdigest()
                       for stream, text in result.items() if stream != "exit"}}


def outputs(record=capture) -> dict[str, dict]:
    """``record`` of every corpus command, run on fresh inputs in a scratch directory."""
    os.environ.pop("SIPCRAFT_SEED", None)
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        os.chdir(tmp)
        try:
            return {name: record(name) for name in COMMANDS}
        finally:
            os.chdir(here)


def executable_lines(path: Path) -> set[int]:
    """Line numbers that the code objects compiled from ``path`` map instructions to."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def reach() -> dict[str, tuple[int, list[int]]]:
    """Each package module's executable line count and the lines of those
    that no corpus entry runs, by path relative to the package.

    The package must not be imported yet, so that its module-level lines
    run under the tracer too.
    """
    if "sipcraft" in sys.modules:
        raise RuntimeError("reach() needs an interpreter that has not imported sipcraft")
    package = Path(importlib.util.find_spec("sipcraft").submodule_search_locations[0])
    prefix = f"{package}{os.sep}"
    ran: dict[str, set[int]] = {}

    def trace_lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return trace_lines

    sys.settrace(trace_calls)
    try:
        outputs()
    finally:
        sys.settrace(None)
    counts = {}
    for path in sorted(package.rglob("*.py")):
        lines = executable_lines(path)
        counts[path.relative_to(package).as_posix()] = (
            len(lines), sorted(lines - ran.get(str(path), set())))
    return counts


def _ranges(lines: list[int]) -> str:
    """``[1, 2, 3, 7]`` as ``1-3, 7``."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][-1] + 1:
            runs[-1][1:] = [line]
        else:
            runs.append([line])
    return ", ".join("-".join(map(str, run)) for run in runs)


def outputs_at(rev: str) -> dict[str, dict]:
    """``outputs()`` of git revision REV's program on this tree's corpus and inputs.

    A subprocess imports ``sipcraft`` from a temporary worktree of REV and
    this module from this tree, so only the program differs.
    """
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "rev"
        git = ["git", "-C", str(ROOT), "worktree"]
        subprocess.run([*git, "add", "--detach", "--quiet", str(tree), rev], check=True)
        try:
            env = {**os.environ,
                   "PYTHONPATH": os.pathsep.join([str(tree / "src"), str(ROOT / "scripts")])}
            dump = "import golden, json, sys; json.dump(golden.outputs(), sys.stdout)"
            child = subprocess.run([sys.executable, "-c", dump], env=env,
                                   capture_output=True, text=True, check=True)
        finally:
            subprocess.run([*git, "remove", "--force", str(tree)], check=True)
    return json.loads(child.stdout)


def diff_outputs(base: dict[str, dict], head: dict[str, dict], base_label: str) -> list[str]:
    """The name and a unified diff of each entry whose exit code, stdout or stderr differs."""
    lines: list[str] = []
    for name in dict.fromkeys([*head, *base]):
        old, new = base.get(name, {}), head.get(name, {})
        if old == new:
            continue
        lines.append(name)
        for stream in ("exit", "stdout", "stderr", "out"):
            lines += difflib.unified_diff(
                str(old.get(stream, "")).split("\n"), str(new.get(stream, "")).split("\n"),
                f"{base_label}:{name}:{stream}", f"this tree:{name}:{stream}", lineterm="")
    return lines


def load_manifest() -> dict:
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--update", action="store_true", help="rewrite the manifest")
    mode.add_argument("--against", metavar="REV",
                      help="diff every entry's output against that of git revision REV")
    mode.add_argument("--reach", action="store_true",
                      help="list each module's executable lines that no entry runs; "
                           "exit 1 if any module outside EXEMPT has one")
    args = parser.parse_args(argv)

    if args.reach:
        counts = reach()
        for path, (executable, lines) in counts.items():
            print(f"{path}: {len(lines)} of {executable}" + (f": {_ranges(lines)}" if lines else ""))
        print(f"total: {sum(len(lines) for _, lines in counts.values())} of "
              f"{sum(executable for executable, _ in counts.values())} executable lines unreached")
        return 1 if any(lines for path, (_, lines) in counts.items() if path not in EXEMPT) else 0

    if args.against:
        try:
            base = outputs_at(args.against)
        except subprocess.CalledProcessError as exc:
            print(f"golden: {' '.join(exc.cmd[:4])} ... exited {exc.returncode}", file=sys.stderr)
            if exc.stderr:
                print(exc.stderr, end="", file=sys.stderr)
            return 2
        lines = diff_outputs(base, outputs(), args.against)
        for line in lines:
            print(line)
        return 1 if lines else 0

    old = load_manifest() if MANIFEST.exists() else {}
    new = outputs(record)
    moved = sorted(name for name in old.keys() | new.keys() if old.get(name) != new.get(name))
    for name in moved:
        print(name)
    if args.update:
        MANIFEST.parent.mkdir(exist_ok=True)
        MANIFEST.write_text(json.dumps(new, indent=2) + "\n", encoding="utf-8")
        return 0
    return 1 if moved else 0


if __name__ == "__main__":
    raise SystemExit(main())
