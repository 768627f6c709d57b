"""Daily index close series: ingestion, validation, and date queries.

The series is the only holiday authority in the package: a date is a
trading day if and only if it appears here. Closes are parsed into binary
floating point (15+ significant digits), which leaves ample headroom over
the 2-decimal reporting precision used downstream.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_left, bisect_right
from datetime import date as Date
from typing import Iterable, Iterator, NamedTuple

from .errors import CoverageError, NotTradingDayError, SeriesFormatError

__all__ = [
    "TradingDay",
    "IndexSeries",
    "parse_series",
    "serialize_series",
]


class _TradingDay(NamedTuple):
    date: Date
    close: float


class TradingDay(_TradingDay):
    """One observed trading day: calendar date and positive closing level."""

    __slots__ = ()

    def __new__(cls, date: Date, close: float) -> TradingDay:
        if not isinstance(date, Date):
            raise TypeError(f"date must be a datetime.date, got {type(date).__name__}")
        value = float(close)
        if not math.isfinite(value) or value <= 0.0:
            raise ValueError(f"close must be a finite positive number, got {close!r}")
        return tuple.__new__(cls, (date, value))


class IndexSeries:
    """Immutable, strictly ascending sequence of trading days.

    Construction validates ordering and uniqueness; use :func:`parse_series`
    to build one from CSV text in arbitrary row order. The series keeps its
    dates and a date -> close map; :class:`TradingDay` values are built
    only when ``days`` or iteration asks for them.
    """

    __slots__ = ("_dates", "_lookup")

    def __init__(self, days: Iterable[TradingDay]):
        days = tuple(days)
        if not days:
            raise ValueError("series must contain at least one trading day")
        for prev, cur in zip(days, days[1:]):
            if cur.date <= prev.date:
                raise ValueError(
                    f"dates must be strictly increasing: {prev.date} followed by {cur.date}"
                )
        self._dates = tuple(d.date for d in days)
        self._lookup = {d.date: d.close for d in days}

    @classmethod
    def _from_closes(cls, closes: dict[Date, float]) -> IndexSeries:
        """Series over a non-empty, ascending map of validated closes; no checks."""
        series = object.__new__(cls)
        series._dates = tuple(closes)
        series._lookup = closes
        return series

    @property
    def days(self) -> tuple[TradingDay, ...]:
        return tuple(self)

    @property
    def dates(self) -> tuple[Date, ...]:
        return self._dates

    @property
    def first_date(self) -> Date:
        return self._dates[0]

    @property
    def last_date(self) -> Date:
        return self._dates[-1]

    def __len__(self) -> int:
        return len(self._dates)

    def __iter__(self) -> Iterator[TradingDay]:
        return map(TradingDay, self._dates, self._lookup.values())

    def __contains__(self, date: Date) -> bool:
        return date in self._lookup

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IndexSeries):
            return NotImplemented
        return self._lookup == other._lookup

    def __hash__(self) -> int:
        return hash(tuple(self._lookup.items()))

    def __repr__(self) -> str:
        return (
            f"IndexSeries({len(self._dates)} days, "
            f"{self.first_date.isoformat()}..{self.last_date.isoformat()})"
        )

    def close_on(self, date: Date) -> float:
        """Exact close for ``date``; no interpolation ever.

        Raises :class:`NotTradingDayError` with the nearest preceding trading
        date as a hint when the date is absent.
        """
        try:
            return self._lookup[date]
        except KeyError:
            idx = bisect_left(self._dates, date)
            hint = self._dates[idx - 1] if idx > 0 else None
            raise NotTradingDayError(date, hint) from None

    def last_trading_day_of_year(self, year: int) -> Date:
        """Latest series date within ``year``; requires December coverage."""
        idx = bisect_right(self._dates, Date(year, 12, 31))
        if idx == 0 or self._dates[idx - 1].year != year:
            raise CoverageError(f"series has no trading days in {year}")
        return self._dates[idx - 1]

    def dates_in_month(self, year: int, month: int) -> tuple[Date, ...]:
        """All trading dates falling inside the given calendar month."""
        lo = bisect_left(self._dates, Date(year, month, 1))
        if month == 12:
            upper = Date(year + 1, 1, 1)
        else:
            upper = Date(year, month + 1, 1)
        hi = bisect_left(self._dates, upper)
        return self._dates[lo:hi]


def _normalize_header_cell(cell: str) -> str:
    return cell.lstrip("﻿").strip().lower()


def parse_series(source: str | io.TextIOBase) -> IndexSeries:
    """Parse ``date,close`` CSV text into a validated ascending series.

    The header row is required and matched case-insensitively; extra columns
    (open/high/low/volume and the like) are ignored. Rows may appear in any
    order. Every error message carries the offending line number.
    """
    if isinstance(source, str):
        # split lines as a file opened with newline="" does, so CR-only text parses
        source = io.StringIO(source, newline="")
    reader = csv.reader(source)

    try:
        header = next(reader)
    except StopIteration:
        raise SeriesFormatError("input is empty, expected a header row", 1) from None
    except csv.Error as exc:
        raise SeriesFormatError(str(exc), reader.line_num) from None
    names = [_normalize_header_cell(c) for c in header]
    try:
        date_idx = names.index("date")
        close_idx = names.index("close")
    except ValueError:
        raise SeriesFormatError(
            f"header must contain 'date' and 'close' columns, got {header!r}", 1
        ) from None

    needed = max(date_idx, close_idx) + 1
    closes: dict[Date, float] = {}
    lines: list[int] = []  # source line of each entry of closes, in insertion order
    try:
        for row in reader:
            line = reader.line_num
            raw_date = row[date_idx].strip() if len(row) >= needed else ""
            try:
                # only YYYY-MM-DD: from Python 3.11 on fromisoformat also takes
                # 20030102 and the week date 2003-W01-4
                if len(raw_date) != 10 or raw_date[4::3] != "--":
                    raise ValueError
                date = Date.fromisoformat(raw_date)
            except ValueError:
                # blank and short rows have no date either; only a row that
                # failed here is checked for them, which keeps the loop lean
                if not "".join(row).strip():
                    continue  # blank line
                if len(row) < needed:
                    raise SeriesFormatError(
                        f"row has {len(row)} columns, expected at least {needed}", line
                    ) from None
                raise SeriesFormatError(f"malformed date {raw_date!r}", line) from None
            raw_close = row[close_idx].strip()
            try:
                close = float(raw_close)
            except ValueError:
                raise SeriesFormatError(f"non-numeric close {raw_close!r}", line) from None
            if not 0.0 < close < math.inf:  # one comparison chain; NaN fails it too
                problem = "non-positive" if math.isfinite(close) else "non-finite"
                raise SeriesFormatError(f"{problem} close {raw_close!r}", line)
            if date in closes:
                first = lines[list(closes).index(date)]
                raise SeriesFormatError(
                    f"duplicate date {date.isoformat()} (first seen at line {first})", line
                )
            closes[date] = close
            lines.append(line)
    except csv.Error as exc:  # an oversized field, say
        raise SeriesFormatError(str(exc), reader.line_num) from None

    if not closes:
        raise SeriesFormatError("no data rows after the header")
    return IndexSeries._from_closes({d: closes[d] for d in sorted(closes)})


def serialize_series(series: IndexSeries) -> str:
    """Serialize to ``date,close`` CSV; parse(serialize(s)) == s."""
    lines = ["date,close"]
    for date, close in series._lookup.items():
        # repr() keeps the shortest decimal that round-trips the float
        lines.append(f"{date.isoformat()},{close!r}")
    return "\n".join(lines) + "\n"
