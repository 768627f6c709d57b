"""The input boundary under arbitrary input: a clean error or a result, never a crash."""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from sipcraft.cli import CONFIG_KEYS, EXIT_ANOMALIES, EXIT_ERROR, EXIT_OK, main
from sipcraft.engine import load_windows
from sipcraft.errors import SipcraftError
from sipcraft.schedule import load_schedule_overrides
from sipcraft.timeseries import parse_series

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
        except SipcraftError:
            pass


# integers past float range too; scalars as often as containers
scalars = (st.none() | st.booleans() | st.integers() | st.integers(-10**400, 10**400)
           | st.floats() | st.text(max_size=20))
json_values = scalars | st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                               max_size=4),
    max_leaves=8)


@pytest.fixture(scope="module")
def walk_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "walk.csv"
    assert main(["fixtures", "--kind", "walk", "--start-year", "2003", "--years", "22",
                 "--seed", "11", "--out", str(path)]) == EXIT_OK
    return str(path)


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def check_outcome(command, rc, out, err):
    assert rc in (EXIT_OK, EXIT_ANOMALIES, EXIT_ERROR)
    if rc == EXIT_ERROR:
        assert err.startswith("sipcraft: error: ") and err.count("\n") == 1, err
    else:
        assert err == ""
    if rc == EXIT_ANOMALIES:
        assert command == "validate" and json.loads(out)["anomalies"]


@given(key=st.sampled_from(CONFIG_KEYS), value=json_values, overrides=st.booleans())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_main_survives_any_config_value(walk_csv, tmp_path, key, value, overrides):
    # a config every command runs with, one key replaced by an arbitrary
    # value; B=1000 and one duration keep a compare short; the override
    # table names dates the walk does not trade on, so validate finds
    # anomalies with it
    config = {"data": walk_csv, "strategy": "exp", "start_year": 2010, "years": 2,
              "durations": [3], "stats": {"B": 1000}}
    if overrides:
        config["schedule"] = str(DATA / "schedule_overrides.csv")
    config[key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    for command in ("validate", "simulate", "compare"):
        check_outcome(command, *run_main([command, "--config", str(path)]))


@given(start_year=st.integers(), years=st.integers())
@example(start_year=9999, years=2)  # runs --years 1: the walk once stepped past 9999-12-31
@settings(max_examples=60, deadline=None)
def test_fixtures_survives_any_year_flags(start_year, years):
    # only the span is checked here, so a valid one stays short
    years = years if not 1 <= years <= 9999 else 1 + years % 2
    rc, out, err = run_main(["fixtures", "--start-year", str(start_year), "--years", str(years)])
    check_outcome("fixtures", rc, out, err)
