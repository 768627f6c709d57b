"""SIP simulation, CAGR arithmetic, window grids, and invariance properties."""

import datetime
import math

import pytest
from hypothesis import given, settings, strategies as st

from sipcraft.engine import (
    SUPPORTED_DURATIONS,
    Window,
    enumerate_windows,
    is_window_table,
    load_windows,
    paired_run,
    simulate,
)
from sipcraft.schedule import MonthKey, MonthSchedule, build_schedule
from sipcraft.synth import generate_series

from conftest import DATA, anchor_prices, ledger_cagr, load_reference_sample, weekday_series


def build_table(series, start_year, years):
    table, anomalies = build_schedule(
        series, None, MonthKey(start_year - 1, 12), MonthKey(start_year + years - 1, 12))
    assert not anomalies
    return table


def test_flat_series_one_year(flat_year_series):
    table = build_table(flat_year_series, 2020, 1)
    for strategy in ("ftd", "exp"):
        res = simulate(strategy, Window(2020, 2020), 100.0, flat_year_series, table)
        assert res["units"] == pytest.approx(12.0, abs=1e-12)
        assert res["invested"] == 1200.0
        assert res["final_value"] == pytest.approx(1200.0, abs=1e-9)
        assert res["cagr_percent"] == pytest.approx(0.0, abs=1e-12)
        assert len(res["executions"]) == 12


def test_two_level_series():
    # execution closes 100 in Jan..Nov, 200 from Dec onward
    def price(d):
        return 200.0 if (d.year, d.month) >= (2020, 12) else 100.0
    series = weekday_series(datetime.date(2019, 12, 2), datetime.date(2020, 12, 31), price)
    table = build_table(series, 2020, 1)
    res = simulate("ftd", Window(2020, 2020), 100.0, series, table)
    assert res["units"] == pytest.approx(11.5, abs=1e-12)
    assert res["final_value"] == pytest.approx(2300.0, abs=1e-9)
    assert round(res["cagr_percent"], 2) == 91.67
    prices, terminal_close = anchor_prices(series, table, True, 2020, 1)
    assert ledger_cagr(prices, terminal_close, 1, 100.0) == pytest.approx(
        res["cagr_percent"], rel=1e-12)


def test_simulate_missing_anchor(flat_year_series):
    with pytest.raises(ValueError) as ftd:
        simulate("ftd", Window(2020, 2020), 10_000.0, flat_year_series, {})
    assert str(ftd.value) == "installment 2020-01 (ftd): schedule has no first trading day for 2020-01"
    with pytest.raises(ValueError) as exp:
        simulate("exp", Window(2020, 2020), 10_000.0, flat_year_series, {})
    assert str(exp.value) == ("installment 2020-01 (exp): "
                              "schedule has no expiry for 2019-12 (needed by 2020-01)")
    # an anchor off the calendar: Saturday 2020-01-04 follows Friday 2020-01-03,
    # and the series starts on 2019-12-02
    for day, hint in ((datetime.date(2020, 1, 4), "previous trading day: 2020-01-03"),
                      (datetime.date(2019, 11, 29), "no earlier trading day in series")):
        table = {MonthKey(2020, 1): MonthSchedule(day, None, "override", None)}
        with pytest.raises(ValueError) as exc:
            simulate("ftd", Window(2020, 2020), 10_000.0, flat_year_series, table)
        assert str(exc.value) == f"installment 2020-01 (ftd): {day} is not a trading day ({hint})"


def test_window_grids():
    assert [len(enumerate_windows(d)) for d in SUPPORTED_DURATIONS] == [22, 7, 4, 2, 1]
    assert enumerate_windows(1) == [Window(y, y) for y in range(2003, 2025)]
    assert enumerate_windows(3) == [Window(2004, 2006), Window(2007, 2009), Window(2010, 2012),
                                    Window(2013, 2015), Window(2016, 2018), Window(2019, 2021),
                                    Window(2022, 2024)]
    assert enumerate_windows(5) == [Window(2005, 2009), Window(2010, 2014),
                                    Window(2015, 2019), Window(2020, 2024)]
    assert enumerate_windows(10) == [Window(2005, 2014), Window(2015, 2024)]
    assert enumerate_windows(20) == [Window(2005, 2024)]


def test_invested_and_execution_counts(long_series, long_table):
    res = simulate("exp", Window(2005, 2009), 2500.0, long_series, long_table)
    assert len(res["executions"]) == 60
    assert res["invested"] == 12 * 2500.0 * 5
    # every execution lands on a series date with the recorded price
    for ex in res["executions"]:
        assert long_series.close_on(datetime.date.fromisoformat(ex["date"])) == ex["price"]


def test_simulate_deterministic(long_series, long_table):
    plan = ("ftd", Window(2010, 2012), 10_000.0, long_series, long_table)
    assert simulate(*plan) == simulate(*plan)


def test_simulate_names_offending_month(flat_year_series):
    table = build_table(flat_year_series, 2020, 1)
    with pytest.raises(ValueError, match=r"2021-01 \(ftd\)"):
        simulate("ftd", Window(2021, 2021), 10_000.0, flat_year_series, table)


def test_simulate_names_missing_terminal():
    # executions all resolve but the terminal December is not covered
    series = weekday_series(datetime.date(2019, 12, 2), datetime.date(2020, 12, 15), 100.0)
    table, _ = build_schedule(series, None, MonthKey(2019, 12), MonthKey(2020, 12))
    plan = ("ftd", Window(2020, 2020), 10_000.0)
    res = simulate(*plan, series, table)  # Dec 15 still covers December
    assert res["terminal_date"] == "2020-12-15"

    short = weekday_series(datetime.date(2019, 12, 2), datetime.date(2020, 11, 30), 100.0)
    table_short, _ = build_schedule(short, None, MonthKey(2019, 12), MonthKey(2020, 11))
    with pytest.raises(ValueError, match="2020-12"):
        simulate(*plan, short, table_short)


@pytest.mark.parametrize("amount", [1e308, 5e-324], ids=["overflow", "underflow"])
def test_simulate_rejects_ledger_out_of_float_range(flat_year_series, amount):
    table = build_table(flat_year_series, 2020, 1)
    with pytest.raises(ValueError, match=r"^plan 2020\.\.2020 \(ftd\): final value .* "
                                         r"is out of float range$"):
        simulate("ftd", Window(2020, 2020), amount, flat_year_series, table)


def test_paired_run_flat_sample(flat_year_series):
    # restrict to the single 2020 window by reusing the 1y grid entry
    series = weekday_series(datetime.date(2002, 12, 2), datetime.date(2024, 12, 31), 100.0)
    table, _ = build_schedule(series, None, MonthKey(2002, 12), MonthKey(2024, 12))
    sample, outcomes = paired_run(1, series, table)
    assert sample.n == 22
    assert all(d == 0.0 for d in sample.diffs)
    assert all(o.cagr_ftd == pytest.approx(0.0, abs=1e-12) for o in outcomes)


def test_paired_run_rows_align_with_windows(long_series, long_table):
    sample, outcomes = paired_run(3, long_series, long_table)
    assert [o.window for o in outcomes] == enumerate_windows(3)
    for o, e, f in zip(outcomes, sample.exp_values, sample.ftd_values):
        assert o.cagr_exp == e
        assert o.cagr_ftd == f
        assert o.difference == e - f



def test_paired_run_arithmetic_order_is_exact():
    # holidays move anchors off their nominal days; every CAGR must be
    # bit-identical to the amount-free form over the same anchors,
    # ((I_L * fsum(1/I_i)) / (12N))^(1/N) - 1, evaluated left to right
    series = generate_series("walk", 2003, 22, seed=11, holiday_rate=0.05)
    table = build_table(series, 2003, 22)
    for duration in SUPPORTED_DURATIONS:
        _, outcomes = paired_run(duration, series, table)
        for o in outcomes:
            years = o.window.years
            for ftd, got in ((True, o.cagr_ftd), (False, o.cagr_exp)):
                prices, terminal_close = anchor_prices(series, table, ftd,
                                                       o.window.from_year, years)
                inverses = []
                for price in prices:
                    inverses.append(1.0 / price)
                ratio = terminal_close * math.fsum(inverses)
                want = ((ratio / (12.0 * years)) ** (1.0 / years) - 1.0) * 100.0
                assert got == want, (duration, o.window, ftd)


def test_simulate_cagr_is_the_paired_run_cagr(long_series, long_table):
    # one CAGR path: the ledger simulate prints never feeds its CAGR
    for duration in SUPPORTED_DURATIONS:
        _, outcomes = paired_run(duration, long_series, long_table)
        for o in outcomes:
            for strategy, want in (("ftd", o.cagr_ftd), ("exp", o.cagr_exp)):
                ledger = simulate(strategy, o.window, 7.3, long_series, long_table)
                assert ledger["cagr_percent"] == want


plan_cases = st.tuples(
    st.sampled_from(("flat", "growth", "walk")),
    st.integers(min_value=1995, max_value=2030),  # start year
    st.integers(min_value=1, max_value=3),        # plan years
    st.integers(min_value=0, max_value=2 ** 31),  # series seed
    st.sampled_from(("ftd", "exp")),
)


@settings(max_examples=60, deadline=None)
@given(plan_cases, st.floats(min_value=0.01, max_value=1e7, allow_nan=False))
def test_amount_invariance(case, amount):
    kind, start_year, years, seed, strategy = case
    series = generate_series(kind, start_year, years, seed=seed)
    table = build_table(series, start_year, years)
    window = Window(start_year, start_year + years - 1)
    base = simulate(strategy, window, 10_000.0, series, table)
    scaled = simulate(strategy, window, amount, series, table)
    assert scaled["cagr_percent"] == base["cagr_percent"]


@settings(max_examples=60, deadline=None)
@given(plan_cases)
def test_lemma_identity(case):
    kind, start_year, years, seed, strategy = case
    series = generate_series(kind, start_year, years, seed=seed)
    table = build_table(series, start_year, years)
    prices, terminal_close = anchor_prices(series, table, strategy == "ftd",
                                           start_year, years)
    ledger = ledger_cagr(prices, terminal_close, years, 10_000.0)
    assert ledger == pytest.approx(
        simulate(strategy, Window(start_year, start_year + years - 1), 10_000.0, series,
                 table)["cagr_percent"],
        rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(plan_cases, st.floats(min_value=0.001, max_value=1000.0, allow_nan=False))
def test_uniform_price_scaling_preserves_cagr(case, factor):
    kind, start_year, years, seed, strategy = case
    series = generate_series(kind, start_year, years, seed=seed)
    # every kind's closes are proportional to its base level
    scaled_series = generate_series(kind, start_year, years, seed=seed, base=1000.0 * factor)
    plan = (strategy, Window(start_year, start_year + years - 1), 10_000.0)
    base_table = build_table(series, start_year, years)
    scaled_table = build_table(scaled_series, start_year, years)
    base = simulate(*plan, series, base_table)["cagr_percent"]
    scaled = simulate(*plan, scaled_series, scaled_table)["cagr_percent"]
    assert scaled == pytest.approx(base, rel=1e-9, abs=1e-9)


def test_reference_table_follows_the_window_grid():
    with open(DATA / "reference_windows.csv", newline="") as fh:
        assert is_window_table(fh.readline())
        fh.seek(0)
        runs = load_windows(fh, SUPPORTED_DURATIONS)
    assert list(runs) == list(SUPPORTED_DURATIONS)
    for duration, (sample, outcomes) in runs.items():
        assert [o.window for o in outcomes] == enumerate_windows(duration)
        reference = load_reference_sample(duration)
        assert (sample.exp_values, sample.ftd_values) == (reference.exp_values,
                                                          reference.ftd_values)


@pytest.mark.parametrize("header, table", [
    ("from_year,to_year,cagr_ftd,cagr_exp\r\n", True),
    ("\ufeffCAGR_EXP, Cagr_Ftd\n", True),
    ("date,close,cagr_ftd\n", False),
    ('"cagr_ftd,cagr_exp\n', False),  # one quoted cell that runs on
    ("", False),
])
def test_is_window_table(header, table):
    assert is_window_table(header) is table


def test_load_windows_keeps_selected_durations_in_start_order():
    lines = ["from_year,to_year,cagr_ftd,cagr_exp", "2010,2012,1,2", "2003,2003,3,4",
             "2004,2006,5,6"]
    runs = load_windows(lines, [3])
    sample, outcomes = runs[3]
    assert list(runs) == [3]
    assert [o.window for o in outcomes] == [Window(2004, 2006), Window(2010, 2012)]
    assert (sample.ftd_values, sample.exp_values) == ((5.0, 1.0), (6.0, 2.0))
