"""SIP simulation, CAGR arithmetic, window grids, and invariance properties."""

import datetime
import math

import pytest
from hypothesis import given, settings, strategies as st

from sipcraft.engine import (
    DEFAULT_MONTHLY_AMOUNT,
    SUPPORTED_DURATIONS,
    SipPlan,
    Window,
    cagr,
    cagr_via_lemma,
    enumerate_windows,
    paired_run,
    simulate,
)
from sipcraft.errors import SimulationError
from sipcraft.schedule import MonthKey, Strategy, build_schedule
from sipcraft.synth import generate_series

from conftest import weekday_series


def build_table(series, start_year, years):
    table, anomalies = build_schedule(
        series, None, MonthKey(start_year - 1, 12), MonthKey(start_year + years - 1, 12))
    assert not anomalies
    return table


def test_flat_series_one_year(flat_year_series):
    table = build_table(flat_year_series, 2020, 1)
    for strategy in (Strategy.FTD, Strategy.EXP):
        res = simulate(SipPlan(strategy, 2020, 1, monthly_amount=100.0),
                       flat_year_series, table)
        assert res.units == pytest.approx(12.0, abs=1e-12)
        assert res.invested == 1200.0
        assert res.final_value == pytest.approx(1200.0, abs=1e-9)
        assert res.cagr_percent == pytest.approx(0.0, abs=1e-12)
        assert len(res.executions) == 12


def test_two_level_series():
    # execution closes 100 in Jan..Nov, 200 from Dec onward
    def price(d):
        return 200.0 if (d.year, d.month) >= (2020, 12) else 100.0
    series = weekday_series(datetime.date(2019, 12, 2), datetime.date(2020, 12, 31), price)
    table = build_table(series, 2020, 1)
    res = simulate(SipPlan(Strategy.FTD, 2020, 1, monthly_amount=100.0), series, table)
    assert res.units == pytest.approx(11.5, abs=1e-12)
    assert res.final_value == pytest.approx(2300.0, abs=1e-9)
    assert round(res.cagr_percent, 2) == 91.67
    assert cagr_via_lemma(SipPlan(Strategy.FTD, 2020, 1), series, table) == pytest.approx(
        res.cagr_percent, rel=1e-12)


def test_cagr_examples():
    assert cagr(1200.0, 1200.0, 1) == 0.0
    assert round(cagr(2300.0, 1200.0, 1), 2) == 91.67
    assert round(cagr(2.0, 1.0, 10), 3) == 7.177


def test_cagr_validation():
    with pytest.raises(ValueError):
        cagr(100.0, 0.0, 1)
    with pytest.raises(ValueError):
        cagr(100.0, -5.0, 1)
    with pytest.raises(ValueError):
        cagr(-1.0, 100.0, 1)
    with pytest.raises(ValueError):
        cagr(100.0, 100.0, 0)


def test_plan_validation():
    with pytest.raises(ValueError):
        SipPlan(Strategy.FTD, 2020, 0)
    for bad_amount in (0.0, math.inf):
        with pytest.raises(ValueError):
            SipPlan(Strategy.FTD, 2020, 1, monthly_amount=bad_amount)
    plan = SipPlan(Strategy.FTD, 2020, 2)
    assert plan.final_year == 2021
    months = plan.months()
    assert len(months) == 24
    assert months[0] == MonthKey(2020, 1)
    assert months[-1] == MonthKey(2021, 12)


def test_window_grids():
    assert [len(enumerate_windows(d)) for d in SUPPORTED_DURATIONS] == [22, 7, 4, 2, 1]
    ones = enumerate_windows(1)
    assert ones[0] == Window(2003, 2003)
    assert ones[-1] == Window(2024, 2024)
    threes = enumerate_windows(3)
    assert threes[0] == Window(2004, 2006)
    assert threes[-1] == Window(2022, 2024)
    assert enumerate_windows(5) == [Window(2005, 2009), Window(2010, 2014),
                                    Window(2015, 2019), Window(2020, 2024)]
    assert enumerate_windows(10) == [Window(2005, 2014), Window(2015, 2024)]
    assert enumerate_windows(20) == [Window(2005, 2024)]
    with pytest.raises(ValueError):
        enumerate_windows(2)


def test_invested_and_execution_counts(long_series, long_table):
    plan = SipPlan(Strategy.EXP, 2005, 5, monthly_amount=2500.0)
    res = simulate(plan, long_series, long_table)
    assert len(res.executions) == 60
    assert res.invested == 12 * 2500.0 * 5
    # every execution lands on a series date with the recorded price
    for ex in res.executions:
        assert long_series.close_on(ex.date) == ex.price


def test_simulate_deterministic(long_series, long_table):
    plan = SipPlan(Strategy.FTD, 2010, 3)
    assert simulate(plan, long_series, long_table) == simulate(plan, long_series, long_table)


def test_simulate_names_offending_month(flat_year_series):
    table = build_table(flat_year_series, 2020, 1)
    with pytest.raises(SimulationError, match=r"2021-01 \(ftd\)"):
        simulate(SipPlan(Strategy.FTD, 2021, 1), flat_year_series, table)


def test_simulate_names_missing_terminal():
    # executions all resolve but the terminal December is not covered
    series = weekday_series(datetime.date(2019, 12, 2), datetime.date(2020, 12, 15), 100.0)
    table, _ = build_schedule(series, None, MonthKey(2019, 12), MonthKey(2020, 12))
    plan = SipPlan(Strategy.FTD, 2020, 1)
    res = simulate(plan, series, table)  # Dec 15 still covers December
    assert res.terminal_date == datetime.date(2020, 12, 15)

    short = weekday_series(datetime.date(2019, 12, 2), datetime.date(2020, 11, 30), 100.0)
    table_short, _ = build_schedule(short, None, MonthKey(2019, 12), MonthKey(2020, 11))
    with pytest.raises(SimulationError, match="2020-12"):
        simulate(plan, short, table_short)


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
    # bit-identical to a plain left-to-right loop over the same anchors
    series = generate_series("walk", 2003, 22, seed=11, holiday_rate=0.05)
    table = build_table(series, 2003, 22)
    amount = DEFAULT_MONTHLY_AMOUNT
    for duration in SUPPORTED_DURATIONS:
        _, outcomes = paired_run(duration, series, table)
        for o in outcomes:
            years = o.window.years
            terminal = [d for d in series.days if d.date.year == o.window.to_year][-1]
            for strategy, got in ((Strategy.FTD, o.cagr_ftd), (Strategy.EXP, o.cagr_exp)):
                units = 0.0
                for year in range(o.window.from_year, o.window.to_year + 1):
                    for month in range(1, 13):
                        key = MonthKey(year, month)
                        if strategy is Strategy.FTD:
                            anchor = table.get(key).first_trading_day
                        else:
                            anchor = table.get(key.prev()).expiry_day
                        units += amount / series.close_on(anchor)
                final = terminal.close * units
                want = ((final / (12.0 * amount * years)) ** (1.0 / years) - 1.0) * 100.0
                assert got == want, (duration, o.window, strategy)


plan_cases = st.tuples(
    st.sampled_from(("flat", "growth", "walk")),
    st.integers(min_value=1995, max_value=2030),  # start year
    st.integers(min_value=1, max_value=3),        # plan years
    st.integers(min_value=0, max_value=2 ** 31),  # series seed
    st.sampled_from((Strategy.FTD, Strategy.EXP)),
)


@settings(max_examples=60, deadline=None)
@given(plan_cases, st.floats(min_value=0.01, max_value=1e7, allow_nan=False))
def test_amount_invariance(case, amount):
    kind, start_year, years, seed, strategy = case
    series = generate_series(kind, start_year, years, seed=seed)
    table = build_table(series, start_year, years)
    base = simulate(SipPlan(strategy, start_year, years), series, table)
    scaled = simulate(SipPlan(strategy, start_year, years, monthly_amount=amount),
                      series, table)
    assert scaled.cagr_percent == pytest.approx(base.cagr_percent, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(plan_cases)
def test_lemma_identity(case):
    kind, start_year, years, seed, strategy = case
    series = generate_series(kind, start_year, years, seed=seed)
    table = build_table(series, start_year, years)
    plan = SipPlan(strategy, start_year, years)
    assert cagr_via_lemma(plan, series, table) == pytest.approx(
        simulate(plan, series, table).cagr_percent, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(plan_cases, st.floats(min_value=0.001, max_value=1000.0, allow_nan=False))
def test_uniform_price_scaling_preserves_cagr(case, factor):
    from sipcraft.timeseries import IndexSeries, TradingDay

    kind, start_year, years, seed, strategy = case
    series = generate_series(kind, start_year, years, seed=seed)
    scaled_series = IndexSeries(
        [TradingDay(d.date, d.close * factor) for d in series.days])
    plan = SipPlan(strategy, start_year, years)
    base_table = build_table(series, start_year, years)
    scaled_table = build_table(scaled_series, start_year, years)
    base = simulate(plan, series, base_table).cagr_percent
    scaled = simulate(plan, scaled_series, scaled_table).cagr_percent
    assert scaled == pytest.approx(base, rel=1e-9, abs=1e-9)
