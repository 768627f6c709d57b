"""Month anchors: first trading day, expiry resolution, overrides, anomalies."""

import datetime

import pytest
from hypothesis import given, strategies as st

from sipcraft.schedule import (
    SOURCE_COMPUTED,
    SOURCE_OVERRIDE,
    MonthKey,
    build_schedule,
    compute_expiry,
    last_thursday,
    load_schedule_overrides,
    resolve_first_trading_day,
)
from sipcraft.timeseries import IndexSeries, SeriesFormatError

from conftest import DATA, weekday_series

month_keys = st.builds(MonthKey,
                       st.integers(min_value=1990, max_value=2040),
                       st.integers(min_value=1, max_value=12))


def test_month_key_validation_and_order():
    assert MonthKey(2020, 1) < MonthKey(2020, 2) < MonthKey(2021, 1)
    assert sorted([MonthKey(2021, 1), MonthKey(2020, 12), MonthKey(2020, 2)]) == [
        MonthKey(2020, 2), MonthKey(2020, 12), MonthKey(2021, 1)]
    assert str(MonthKey(2020, 3)) == "2020-03"
    assert repr(MonthKey(2003, 1)) == "MonthKey(year=2003, month=1)"
    assert MonthKey(2020, 1).prev() == MonthKey(2019, 12)
    assert MonthKey(2019, 12).next() == MonthKey(2020, 1)


@pytest.mark.parametrize("key, last", [
    (MonthKey(1900, 2), datetime.date(1900, 2, 28)),  # a century, not a leap year
    (MonthKey(2000, 2), datetime.date(2000, 2, 29)),  # divisible by 400, a leap year
    (MonthKey(2024, 2), datetime.date(2024, 2, 29)),
    (MonthKey(2023, 2), datetime.date(2023, 2, 28)),
    (MonthKey(2024, 4), datetime.date(2024, 4, 30)),
    (MonthKey(2024, 12), datetime.date(2024, 12, 31)),
    (MonthKey(datetime.MAXYEAR, 12), datetime.date(datetime.MAXYEAR, 12, 31)),
])
def test_month_key_first_and_last_day(key, last):
    assert key.last_day() == last


@given(month_keys)
def test_month_key_prev_next_inverse(key):
    assert key.prev().next() == key
    assert key.next().prev() == key


@given(month_keys)
def test_last_thursday_properties(key):
    d = last_thursday(key)
    assert d.weekday() == 3
    assert (d.year, d.month) == (key.year, key.month)
    # no later Thursday fits inside the month
    assert (d + datetime.timedelta(days=7)).month != key.month


def test_last_thursday_known_months():
    assert last_thursday(MonthKey(2024, 10)) == datetime.date(2024, 10, 31)
    assert last_thursday(MonthKey(2003, 1)) == datetime.date(2003, 1, 30)
    assert last_thursday(MonthKey(2002, 12)) == datetime.date(2002, 12, 26)


def test_resolve_first_trading_day_min_date():
    series = IndexSeries({datetime.date(2020, 3, d): 10.0 for d in (5, 6, 7)})
    assert resolve_first_trading_day(series, MonthKey(2020, 3)) == datetime.date(2020, 3, 5)
    assert resolve_first_trading_day(series, MonthKey(2020, 4)) is None


def test_compute_expiry_unadjusted():
    # September 2020: last Thursday is the 24th, present in a weekday series
    series = weekday_series(datetime.date(2020, 9, 1), datetime.date(2020, 9, 30), 10.0)
    assert compute_expiry(series, MonthKey(2020, 9)) == datetime.date(2020, 9, 24)


def test_compute_expiry_steps_back_over_holiday():
    series = IndexSeries(dict.fromkeys(
        (datetime.date(2020, 9, 21), datetime.date(2020, 9, 23), datetime.date(2020, 9, 28)),
        10.0))
    # the 24th (Thursday) is absent; the Wednesday before is the answer
    assert compute_expiry(series, MonthKey(2020, 9)) == datetime.date(2020, 9, 23)


def test_compute_expiry_exhausts_month():
    series = IndexSeries({datetime.date(2020, 9, 28): 10.0})
    assert compute_expiry(series, MonthKey(2020, 9)) is None


def test_load_overrides_full_row():
    table = load_schedule_overrides("year,month,ftd_dom,expiry_dom\n2003,1,1,30\n")
    assert table == {MonthKey(2003, 1): (datetime.date(2003, 1, 1), datetime.date(2003, 1, 30))}


def test_load_overrides_expiry_only_row():
    table = load_schedule_overrides("year,month,ftd_dom,expiry_dom\n2002,12,,26\n")
    assert table == {MonthKey(2002, 12): (None, datetime.date(2002, 12, 26))}


def test_load_overrides_invalid_day_of_month():
    with pytest.raises(SeriesFormatError, match="not a valid day"):
        load_schedule_overrides("year,month,ftd_dom,expiry_dom\n2003,2,30,27\n")


def test_load_overrides_year_beyond_c_long():
    with pytest.raises(SeriesFormatError,
                       match="^line 2: year 100000000000000000000 is outside 1..9999$"):
        load_schedule_overrides("year,month,ftd_dom,expiry_dom\n100000000000000000000,1,1,\n")


# these once blamed the day, and printed the year as 0000 or -005
@pytest.mark.parametrize("year", [0, -5, 10000, 10**20])
def test_load_overrides_names_an_out_of_range_year(year):
    with pytest.raises(SeriesFormatError, match=rf"^line 2: year {year} is outside 1\.\.9999$"):
        load_schedule_overrides(f"year,month,ftd_dom,expiry_dom\n{year},1,2,\n")


@pytest.mark.parametrize("month", [0, 13])
def test_load_overrides_names_an_out_of_range_month(month):
    with pytest.raises(SeriesFormatError,
                       match=rf"^line 2: month must be in 1\.\.12, got {month}$"):
        load_schedule_overrides(f"year,month,ftd_dom,expiry_dom\n2003,{month},2,\n")


def test_load_overrides_duplicate_month():
    with pytest.raises(SeriesFormatError, match="duplicate"):
        load_schedule_overrides(
            "year,month,ftd_dom,expiry_dom\n2003,1,1,30\n2003,1,2,30\n")


def test_load_overrides_empty_row_rejected():
    with pytest.raises(SeriesFormatError, match="neither anchor"):
        load_schedule_overrides("year,month,ftd_dom,expiry_dom\n2003,1,,\n")


def test_bundled_override_table():
    with open(DATA / "schedule_overrides.csv") as fh:
        table = load_schedule_overrides(fh)
    assert len(table) == 265  # Dec 2002 + 22 full years
    assert (min(table), max(table)) == (MonthKey(2002, 12), MonthKey(2024, 12))

    assert table[MonthKey(2002, 12)] == (None, datetime.date(2002, 12, 26))
    assert table[MonthKey(2003, 2)] == (datetime.date(2003, 2, 3), datetime.date(2003, 2, 27))
    assert table[MonthKey(2024, 12)] == (datetime.date(2024, 12, 2), None)

    # every dual-anchor month keeps its anchors ordered and in-month
    for key, (ftd, expiry) in table.items():
        for day in (ftd, expiry):
            assert day is None or (day.year, day.month) == key, key
        if ftd and expiry:
            assert ftd <= expiry, key


def test_build_schedule_override_wins(flat_year_series):
    overrides = load_schedule_overrides(
        "year,month,ftd_dom,expiry_dom\n2020,1,2,30\n")
    table, anomalies = build_schedule(flat_year_series, overrides,
                                      MonthKey(2020, 1), MonthKey(2020, 2))
    assert not anomalies
    jan = table.get(MonthKey(2020, 1))
    assert jan.first_trading_day == datetime.date(2020, 1, 2)
    assert jan.ftd_source == SOURCE_OVERRIDE
    feb = table.get(MonthKey(2020, 2))
    assert feb.ftd_source == SOURCE_COMPUTED
    assert feb.first_trading_day == datetime.date(2020, 2, 3)
    assert feb.expiry_day == datetime.date(2020, 2, 27)


def test_build_schedule_flags_unverifiable_override(flat_year_series):
    # 2020-01-05 is a Sunday, absent from a weekday series
    overrides = load_schedule_overrides(
        "year,month,ftd_dom,expiry_dom\n2020,1,5,30\n")
    table, anomalies = build_schedule(flat_year_series, overrides,
                                      MonthKey(2020, 1), MonthKey(2020, 1))
    assert len(anomalies) == 1
    a = anomalies[0]
    assert a == {"month": "2020-01", "field": "first_trading_day", "date": "2020-01-05",
                 "reason": "override date is not a trading day in the series"}
    # kept as-is, not silently fixed
    assert table.get(MonthKey(2020, 1)).first_trading_day == datetime.date(2020, 1, 5)


def test_build_schedule_flags_uncovered_month(flat_year_series):
    _, anomalies = build_schedule(flat_year_series, None,
                                  MonthKey(2021, 1), MonthKey(2021, 1))
    reasons = {a["reason"] for a in anomalies}
    assert "month has no trading days in the series" in reasons


def test_build_schedule_deterministic(flat_year_series):
    args = (flat_year_series, None, MonthKey(2020, 1), MonthKey(2020, 12))
    t1, a1 = build_schedule(*args)
    t2, a2 = build_schedule(*args)
    assert t1 == t2
    assert a1 == a2


def test_execution_dates_from_override_table(flat_year_series):
    table, anomalies = build_schedule(flat_year_series, None,
                                      MonthKey(2019, 12), MonthKey(2020, 12))
    assert not anomalies
    # January executes on December's expiry under the expiry schedule
    exp = table[MonthKey(2019, 12)].expiry_day
    assert exp == datetime.date(2019, 12, 26)
    ftd = table[MonthKey(2020, 1)].first_trading_day
    assert ftd == datetime.date(2020, 1, 1)
    assert exp < ftd


def test_expiry_precedes_next_months_ftd(long_series, long_table):
    for key in long_table:
        nxt = key.next()
        if nxt not in long_table:
            continue
        exp = long_table[key].expiry_day
        ftd = long_table[nxt].first_trading_day
        assert exp < ftd, f"expiry of {key} not before first trading day of {nxt}"


def test_computed_expiry_bounds(long_series, long_table):
    for key, entry in long_table.items():
        assert entry.expiry_day <= last_thursday(key)
        assert entry.expiry_day >= datetime.date(key.year, key.month, 1)
        assert entry.first_trading_day <= entry.expiry_day
