"""The input boundary under arbitrary input: a clean error or a result, never a crash."""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from sipcraft.cli import EXIT_ANOMALIES, EXIT_ERROR, EXIT_OK, main
from sipcraft.engine import load_windows
from sipcraft.schedule import load_schedule_overrides
from sipcraft.timeseries import SeriesFormatError, parse_series

from conftest import DATA

numbers = st.integers(-1, 32) | st.integers() | st.floats()


def rows(row):
    return st.lists(row.map(lambda cells: ",".join(map(str, cells))), max_size=6).map("\n".join)


# rows shaped like any of the three inputs, rows of numbers, dates and short
# text, or text in which the characters that steer the csv reader show up often
csv_text = (rows(st.tuples(st.dates(), numbers))
            | rows(st.tuples(st.integers(), st.integers(0, 13), numbers, numbers))
            | rows(st.tuples(st.integers(1990, 2030), st.integers(1990, 2030), numbers, numbers,
                             numbers))
            | rows(st.lists(numbers | st.dates() | st.text(max_size=5), min_size=2, max_size=5))
            | st.text(st.sampled_from('0123456789-,.\n\r" eE+') | st.characters(), max_size=200))


def window_table(text):
    return load_windows(io.StringIO(text, newline=""), [1])


@pytest.mark.parametrize("header", ["", "date,close\n", "year,month,ftd_dom,expiry_dom\n",
                                    "from_year,to_year,years,cagr_ftd,cagr_exp\n"])
@given(body=csv_text)
@settings(max_examples=150, deadline=None)
def test_csv_parsers_return_or_raise_sipcraft_error(header, body):
    for parse in (parse_series, load_schedule_overrides, window_table):
        try:
            parse(header + body)
        except SeriesFormatError:
            pass


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            rc = exc
    return rc, out.getvalue(), err.getvalue()


def check_outcome(command, rc, out, err):
    assert rc in (EXIT_OK, EXIT_ANOMALIES, EXIT_ERROR)
    if rc == EXIT_ERROR:
        assert err.startswith("sipcraft: error: ") and err.count("\n") == 1, err
    else:
        assert err == ""
    if rc == EXIT_ANOMALIES:
        assert command == "validate" and json.loads(out)["anomalies"]


# each value flag of the commands that read a series, and the commands that take it
FLAGS = {"--schedule": ("validate", "simulate", "compare"), "--format": ("simulate", "compare"),
         "--amount": ("simulate",), "--strategy": ("simulate",), "--start-year": ("simulate",),
         "--years": ("simulate",), "--durations": ("compare",), "--resamples": ("compare",),
         "--alpha": ("compare",), "--seed": ("compare",)}
# the flags every run gives before the fuzzed one; B=1000 and one duration
# keep a compare short
BASE = {"validate": [], "simulate": ["--strategy", "exp", "--start-year", "2010", "--years", "2"],
        "compare": ["--durations", "3", "--resamples", "1000"]}
# short text that often starts as an option or an @file does; with no path
# separator, an @file names an entry of the empty working directory
flag_values = st.tuples(st.sampled_from(["", "-", "@"]),
                        st.text(st.characters(blacklist_characters="/\\"), max_size=8)).map(
                            "".join)


@given(command_flag=st.sampled_from([(c, f) for f, commands in FLAGS.items() for c in commands]),
       value=flag_values, joined=st.booleans(), overrides=st.booleans())
# argparse before Python 3.13 passed on --years=-- as an unchecked empty list
@example(command_flag=("simulate", "--years"), value="--", joined=True, overrides=False)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_main_survives_any_flag_value(walk_csv, tmp_path, monkeypatch, command_flag, value,
                                      joined, overrides):
    # the override table names dates the walk does not trade on, so validate
    # finds anomalies with it
    command, flag = command_flag
    monkeypatch.chdir(tmp_path)
    argv = [command, "--data", str(walk_csv), *BASE[command]]
    if overrides:
        argv += ["--schedule", str(DATA / "schedule_overrides.csv")]
    argv += [f"{flag}={value}"] if joined else [flag, value]
    rc, out, err = run_main(argv)
    if isinstance(rc, SystemExit):  # argparse's usage line, then its one error line
        last = err.splitlines()[-1]
        assert (rc.code, out) == (EXIT_ERROR, ""), err
        assert last.startswith("sipcraft") and "error:" in last, err
    else:
        check_outcome(command, rc, out, err)


@given(start_year=st.integers(), years=st.integers())
@example(start_year=9999, years=2)  # runs --years 1: the walk once stepped past 9999-12-31
@settings(max_examples=60, deadline=None)
def test_fixtures_survives_any_year_flags(start_year, years):
    # only the span is checked here, so a valid one stays short
    years = years if not 1 <= years <= 9999 else 1 + years % 2
    rc, out, err = run_main(["fixtures", "--start-year", str(start_year), "--years", str(years)])
    check_outcome("fixtures", rc, out, err)
