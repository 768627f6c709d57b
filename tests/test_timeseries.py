"""Series parsing, lookup, and round-trip behavior."""

import datetime
import io

import pytest
from hypothesis import given, strategies as st

from sipcraft.errors import CoverageError, NotTradingDayError, SeriesFormatError
from sipcraft.timeseries import IndexSeries, TradingDay, parse_series, serialize_series

from conftest import weekday_series


def test_parse_minimal_two_rows():
    s = parse_series("date,close\n2003-01-01,1100.15\n2003-01-02,1100.90\n")
    assert len(s) == 2
    assert s.close_on(datetime.date(2003, 1, 1)) == 1100.15
    assert s.close_on(datetime.date(2003, 1, 2)) == 1100.90


def test_parse_descending_rows_normalized():
    asc = parse_series("date,close\n2003-01-01,1100.15\n2003-01-02,1100.90\n")
    desc = parse_series("date,close\n2003-01-02,1100.90\n2003-01-01,1100.15\n")
    assert asc == desc
    assert [d.date for d in asc.days] == sorted(d.date for d in asc.days)


def test_parse_accepts_stream_and_bom():
    stream = io.StringIO("﻿Date,Close\n2003-01-01,1100.15\n")
    s = parse_series(stream)
    assert len(s) == 1


def test_parse_extra_columns_ignored():
    s = parse_series(
        "date,open,high,low,close,volume\n"
        "2003-01-01,1,2,0.5,1100.15,99\n"
    )
    assert s.close_on(datetime.date(2003, 1, 1)) == 1100.15


def test_parse_skips_blank_lines():
    s = parse_series("date,close\n\n2003-01-01,1100.15\n\n2003-01-02,1100.90\n")
    assert len(s) == 2


def test_parse_non_positive_close_cites_line():
    with pytest.raises(SeriesFormatError, match=r"line 2"):
        parse_series("date,close\n2003-01-01,-5\n")
    with pytest.raises(SeriesFormatError, match=r"line 3"):
        parse_series("date,close\n2003-01-01,5\n2003-01-02,0\n")


def test_parse_malformed_date_cites_line():
    with pytest.raises(SeriesFormatError, match=r"line 2"):
        parse_series("date,close\n01/02/2003,5\n")
    # Python 3.11+ fromisoformat reads each of these as 2003-01-02; 3.10 rejects them
    for raw in ("20030102", "2003-W01-4", "2003W014"):
        with pytest.raises(SeriesFormatError, match=rf"line 3: malformed date '{raw}'"):
            parse_series(f"date,close\n2003-01-01,5\n{raw},6\n")


def test_parse_non_numeric_close_cites_line():
    with pytest.raises(SeriesFormatError, match=r"line 2"):
        parse_series("date,close\n2003-01-01,abc\n")
    with pytest.raises(SeriesFormatError, match=r"line 2"):
        parse_series("date,close\n2003-01-01,nan\n")


def test_parse_duplicate_date_rejected():
    with pytest.raises(SeriesFormatError, match=r"duplicate"):
        parse_series("date,close\n2003-01-01,5\n2003-01-01,6\n")
    with pytest.raises(SeriesFormatError) as exc:
        parse_series("date,close\n2003-01-02,5\n\n2003-01-01,6\n , \n2003-01-02,7\n")
    assert str(exc.value) == "line 6: duplicate date 2003-01-02 (first seen at line 2)"


def test_parse_short_row_cites_line_and_blank_rows_are_skipped():
    text = "date,close\n2003-01-01,5\n  \n , \n2003-01-02\n"
    with pytest.raises(SeriesFormatError) as exc:
        parse_series(text)
    assert str(exc.value) == "line 5: row has 1 columns, expected at least 2"


def test_parse_missing_columns_rejected():
    with pytest.raises(SeriesFormatError):
        parse_series("date,price\n2003-01-01,5\n")
    with pytest.raises(SeriesFormatError):
        parse_series("")


def test_parsed_series_matches_series_built_from_days():
    text = "date,close\n2003-02-03,7\n2003-01-02,1100.9\n2003-01-01,1100.15\n"
    parsed = parse_series(text)
    rebuilt = IndexSeries(parsed.days)
    assert parsed == rebuilt
    assert hash(parsed) == hash(rebuilt)
    assert parsed != parse_series(text.replace(",7\n", ",7.5\n"))
    jan1, jan2, feb3 = (datetime.date(2003, 1, 1), datetime.date(2003, 1, 2),
                        datetime.date(2003, 2, 3))
    assert list(parsed) == [TradingDay(jan1, 1100.15), TradingDay(jan2, 1100.9),
                            TradingDay(feb3, 7.0)]
    assert parsed.days == tuple(parsed)
    assert parsed.dates == (jan1, jan2, feb3)
    assert len(parsed) == 3
    assert repr(parsed) == "IndexSeries(3 days, 2003-01-01..2003-02-03)"
    assert parsed.close_on(jan2) == 1100.9
    assert parsed.dates_in_month(2003, 1) == (jan1, jan2)


def test_close_on_absent_date_hints_preceding_day():
    s = parse_series("date,close\n2003-01-01,1100.15\n2003-01-02,1100.90\n")
    with pytest.raises(NotTradingDayError) as exc:
        s.close_on(datetime.date(2003, 1, 3))
    assert "2003-01-03" in str(exc.value)
    assert "2003-01-02" in str(exc.value)


def test_close_on_before_series_start():
    s = parse_series("date,close\n2003-01-06,1100.15\n")
    with pytest.raises(NotTradingDayError):
        s.close_on(datetime.date(2003, 1, 3))


def test_last_trading_day_of_year():
    s = weekday_series(datetime.date(2020, 1, 1), datetime.date(2020, 12, 28), 50.0)
    assert s.last_trading_day_of_year(2020) == datetime.date(2020, 12, 28)
    with pytest.raises(CoverageError):
        s.last_trading_day_of_year(2021)


def test_last_trading_day_requires_year_presence():
    s = parse_series("date,close\n2003-01-01,5\n2005-01-03,6\n")
    with pytest.raises(CoverageError):
        s.last_trading_day_of_year(2004)


def test_dates_in_month():
    s = weekday_series(datetime.date(2020, 1, 1), datetime.date(2020, 3, 31), 10.0)
    jan = s.dates_in_month(2020, 1)
    assert jan[0] == datetime.date(2020, 1, 1)
    assert jan[-1] == datetime.date(2020, 1, 31)
    assert all(d.month == 1 for d in jan)
    assert s.dates_in_month(2021, 1) == ()


def test_trading_day_validation():
    with pytest.raises(ValueError):
        TradingDay(datetime.date(2020, 1, 1), 0.0)
    with pytest.raises(ValueError):
        TradingDay(datetime.date(2020, 1, 1), float("nan"))
    with pytest.raises(ValueError):
        TradingDay(datetime.date(2020, 1, 1), float("inf"))


def test_series_requires_strictly_increasing_dates():
    day = TradingDay(datetime.date(2020, 1, 2), 10.0)
    with pytest.raises(ValueError):
        IndexSeries([day, day])
    with pytest.raises(ValueError):
        IndexSeries([])


@st.composite
def series_rows(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    start = draw(st.dates(min_value=datetime.date(2000, 1, 1),
                          max_value=datetime.date(2030, 1, 1)))
    offsets = draw(st.lists(st.integers(min_value=1, max_value=5),
                            min_size=n - 1, max_size=n - 1))
    dates = [start]
    for step in offsets:
        dates.append(dates[-1] + datetime.timedelta(days=step))
    closes = draw(st.lists(
        st.floats(min_value=0.01, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
        min_size=n, max_size=n))
    return list(zip(dates, closes))


@given(series_rows())
def test_parse_serialize_round_trip(rows):
    series = IndexSeries([TradingDay(d, c) for d, c in rows])
    again = parse_series(serialize_series(series))
    assert again == series


@given(series_rows(), st.integers(min_value=-3, max_value=3))
def test_close_on_succeeds_iff_date_present(rows, jitter):
    series = IndexSeries([TradingDay(d, c) for d, c in rows])
    probe = rows[0][0] + datetime.timedelta(days=jitter)
    present = {d for d, _ in rows}
    if probe in present:
        assert series.close_on(probe) == dict(rows)[probe]
    else:
        with pytest.raises(NotTradingDayError):
            series.close_on(probe)


@given(series_rows())
def test_last_trading_day_is_latest_covered(rows):
    series = IndexSeries([TradingDay(d, c) for d, c in rows])
    years = {d.year for d, _ in rows}
    for year in years:
        last = series.last_trading_day_of_year(year)
        in_year = [d for d, _ in rows if d.year == year]
        assert last == max(in_year)
