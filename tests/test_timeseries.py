"""Series parsing, lookup, and round-trip behavior, and the CSV rules
every input file shares."""

import datetime
import io

import pytest
from hypothesis import given, strategies as st

from sipcraft.engine import load_windows
from sipcraft.schedule import load_schedule_overrides
from sipcraft.timeseries import IndexSeries, SeriesFormatError, parse_series, serialize_series

from conftest import weekday_series


def test_parse_minimal_two_rows():
    s = parse_series("date,close\n2003-01-01,1100.15\n2003-01-02,1100.90\n")
    assert len(s) == 2
    assert s.close_on(datetime.date(2003, 1, 1)) == 1100.15
    assert s.close_on(datetime.date(2003, 1, 2)) == 1100.90


def test_parse_descending_rows_normalized():
    asc = parse_series("date,close\n2003-01-01,1100.15\n2003-01-02,1100.90\n")
    desc = parse_series("date,close\n2003-01-02,1100.90\n2003-01-01,1100.15\n")
    assert serialize_series(asc) == serialize_series(desc)
    assert (asc.first_date, asc.last_date) == (datetime.date(2003, 1, 1), datetime.date(2003, 1, 2))


def test_parse_accepts_stream_and_bom():
    stream = io.StringIO("﻿Date,Close\n2003-01-01,1100.15\n")
    s = parse_series(stream)
    assert len(s) == 1


def test_parse_cr_only_line_ends():
    text = "date,close\n2003-01-02,100\n2003-01-03,101.5\n"
    assert (serialize_series(parse_series(text.replace("\n", "\r")))
            == serialize_series(parse_series(text)))
    with pytest.raises(SeriesFormatError, match="^line 3: non-positive close '0'$"):
        parse_series("date,close\r2003-01-02,100\r2003-01-03,0\r")


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


# each reader of read_table: a comparable result, the name its errors give
# the file, a header and two data rows
READERS = {
    "series": (lambda text: serialize_series(parse_series(text)), "input", "date,close",
               ["2003-01-02,100", "2003-01-03,101.5"]),
    "overrides": (load_schedule_overrides, "override file", "year,month,ftd_dom,expiry_dom",
                  ["2020,1,2,30", "2020,2,,27"]),
    "windows": (lambda text: load_windows(io.StringIO(text, newline=""), [1])[1][1],
                "window table", "from_year,to_year,cagr_ftd,cagr_exp",
                ["2003,2003,1.0,2.0", "2004,2004,3.0,-4.5"]),
}
BIG = '"' + "x" * 140000 + '"'


def _text(lines, end="\n"):
    return end.join(lines) + end


def _error(read, text):
    with pytest.raises(SeriesFormatError) as exc:
        read(text)
    return str(exc.value)


@pytest.mark.parametrize("name", READERS)
def test_reader_rejects_an_empty_source(name):
    read, what, _, _ = READERS[name]
    assert _error(read, "") == f"line 1: {what} is empty, expected a header row"


@pytest.mark.parametrize("name", READERS)
def test_reader_header_ignores_bom_case_and_padding(name):
    read, _, header, rows = READERS[name]
    odd = "\ufeff" + ",".join(f" {c.upper()}  " for c in header.split(","))
    assert read(_text([odd, *rows])) == read(_text([header, *rows]))


@pytest.mark.parametrize("name", READERS)
def test_reader_names_a_missing_column(name):
    read, what, header, rows = READERS[name]
    kept, lost = header.rsplit(",", 1)
    assert _error(read, _text([kept, *rows])) == (
        f"line 1: {what} header lacks [{lost!r}], got {kept.split(',')!r}")


@pytest.mark.parametrize("name", READERS)
def test_reader_names_a_short_row(name):
    read, _, header, rows = READERS[name]
    short = rows[1].rsplit(",", 1)[0]
    needed = header.count(",") + 1
    assert _error(read, _text([header, rows[0], short])) == (
        f"line 3: row has {needed - 1} columns, expected at least {needed}")


@pytest.mark.parametrize("name", READERS)
def test_reader_skips_blank_and_whitespace_rows(name):
    read, _, header, rows = READERS[name]
    padded = [header, "", rows[0], "  ", ",,", " , ,", ",,,,,,", rows[1], ""]
    assert read(_text(padded)) == read(_text([header, *rows]))


@pytest.mark.parametrize("name", READERS)
def test_reader_splits_cr_only_line_ends(name):
    read, _, header, rows = READERS[name]
    assert read(_text([header, *rows], "\r")) == read(_text([header, *rows]))
    short = rows[1].rsplit(",", 1)[0]
    assert _error(read, _text([header, rows[0], short], "\r")).startswith("line 3: row has")


@pytest.mark.parametrize("name", READERS)
def test_reader_names_the_line_of_an_oversized_field(name):
    read, _, header, rows = READERS[name]
    message = "field larger than field limit (131072)"
    assert _error(read, _text([f"{BIG},{header}", *rows])) == f"line 1: {message}"
    assert _error(read, _text([header, rows[0], f"{BIG},{rows[1]}"])) == f"line 3: {message}"


def test_parsed_series_matches_series_built_from_days():
    text = "date,close\n2003-02-03,7\n2003-01-02,1100.9\n2003-01-01,1100.15\n"
    parsed = parse_series(text)
    jan1, jan2, feb3 = (datetime.date(2003, 1, 1), datetime.date(2003, 1, 2),
                        datetime.date(2003, 2, 3))
    built = IndexSeries({jan1: 1100.15, jan2: 1100.9, feb3: 7.0})
    assert serialize_series(parsed) == serialize_series(built)
    for series in (parsed, built):
        assert (len(series), series.first_date, series.last_date) == (3, jan1, feb3)
        assert jan2 in series and datetime.date(2003, 1, 3) not in series
        assert series.close_on(jan2) == 1100.9
        assert series.on_or_before(datetime.date(2003, 2, 2)) == jan2
        assert series.on_or_after(datetime.date(2003, 1, 3)) == feb3


def test_close_on_absent_date_hints_preceding_day():
    s = parse_series("date,close\n2003-01-01,1100.15\n2003-01-02,1100.90\n")
    assert s.close_on(datetime.date(2003, 1, 3)) is None
    assert s.on_or_before(datetime.date(2003, 1, 3)) == datetime.date(2003, 1, 2)


def test_close_on_before_series_start():
    s = parse_series("date,close\n2003-01-06,1100.15\n")
    assert s.close_on(datetime.date(2003, 1, 3)) is None
    assert s.on_or_before(datetime.date(2003, 1, 3)) is None


def test_last_trading_day_of_year():
    s = weekday_series(datetime.date(2020, 1, 1), datetime.date(2020, 12, 28), 50.0)
    assert s.on_or_before(datetime.date(2020, 12, 31)) == datetime.date(2020, 12, 28)
    # a later year holds no trading day: the nearest one falls back into 2020
    assert s.on_or_before(datetime.date(2021, 12, 31)).year == 2020
    assert s.on_or_after(datetime.date(2021, 1, 1)) is None


def test_last_trading_day_requires_year_presence():
    s = parse_series("date,close\n2003-01-01,5\n2005-01-03,6\n")
    assert s.on_or_before(datetime.date(2004, 12, 31)) == datetime.date(2003, 1, 1)
    assert s.on_or_after(datetime.date(2004, 1, 1)) == datetime.date(2005, 1, 3)
    assert s.on_or_before(datetime.date(2002, 12, 31)) is None


def test_dates_in_month():
    s = weekday_series(datetime.date(2020, 1, 1), datetime.date(2020, 3, 31), 10.0)
    assert s.on_or_after(datetime.date(2020, 1, 1)) == datetime.date(2020, 1, 1)
    assert s.on_or_before(datetime.date(2020, 1, 31)) == datetime.date(2020, 1, 31)
    assert s.on_or_after(datetime.date(2020, 2, 1)) == datetime.date(2020, 2, 3)
    assert s.on_or_after(datetime.date(2021, 1, 1)) is None
    # December's last day is the last date there is: no bound past MAXYEAR is needed
    last = datetime.date(datetime.MAXYEAR, 12, 31)
    dec = weekday_series(datetime.date(datetime.MAXYEAR, 11, 1), last, 10.0)
    assert dec.on_or_after(datetime.date(datetime.MAXYEAR, 12, 1)) == datetime.date(
        datetime.MAXYEAR, 12, 1)
    assert dec.on_or_before(last) == last and dec.on_or_after(last) == last


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
    text = serialize_series(IndexSeries(dict(rows)))
    assert serialize_series(parse_series(text)) == text
    assert text.splitlines()[1:] == [f"{d.isoformat()},{c!r}" for d, c in rows]


@given(series_rows(), st.integers(min_value=-3, max_value=3))
def test_close_on_succeeds_iff_date_present(rows, jitter):
    series = IndexSeries(dict(rows))
    probe = rows[0][0] + datetime.timedelta(days=jitter)
    present = {d for d, _ in rows}
    if probe in present:
        assert series.close_on(probe) == dict(rows)[probe]
    else:
        assert series.close_on(probe) is None


@given(series_rows())
def test_last_trading_day_is_latest_covered(rows):
    series = IndexSeries(dict(rows))
    for year in {d.year for d, _ in rows}:
        last = series.on_or_before(datetime.date(year, 12, 31))
        assert last == max(d for d, _ in rows if d.year == year)


@given(series_rows(), st.booleans())
def test_nearest_trading_days_match_a_linear_scan(rows, at_maxyear):
    if at_maxyear:  # end the rows on 9999-12-31
        shift = datetime.date(datetime.MAXYEAR, 12, 31) - rows[-1][0]
        rows = [(d + shift, c) for d, c in rows]
    series = IndexSeries(dict(rows))
    dates = [d for d, _ in rows]
    last = min(dates[-1].toordinal() + 3, datetime.date.max.toordinal())
    for ordinal in range(dates[0].toordinal() - 3, last + 1):
        probe = datetime.date.fromordinal(ordinal)
        assert series.on_or_before(probe) == max((d for d in dates if d <= probe), default=None)
        assert series.on_or_after(probe) == min((d for d in dates if d >= probe), default=None)
