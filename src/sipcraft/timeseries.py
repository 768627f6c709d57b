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
from typing import Iterable, Iterator


class IndexSeries:
    """Immutable, strictly ascending sequence of trading days.

    Takes a non-empty date -> close map in ascending date order with finite
    positive closes, as :func:`parse_series` and ``synth.generate_series``
    build it, and checks none of that.
    """

    __slots__ = ("_dates", "_lookup")

    def __init__(self, closes: dict[Date, float]):
        self._dates = tuple(closes)
        self._lookup = closes

    @property
    def first_date(self) -> Date:
        return self._dates[0]

    @property
    def last_date(self) -> Date:
        return self._dates[-1]

    def __len__(self) -> int:
        return len(self._dates)

    def __contains__(self, date: Date) -> bool:
        return date in self._lookup

    def close_on(self, date: Date) -> float | None:
        """Exact close for ``date``, or None if it is not a trading day; no interpolation ever."""
        return self._lookup.get(date)

    def on_or_before(self, date: Date) -> Date | None:
        """Latest trading day no later than ``date``, or None if there is none."""
        idx = bisect_right(self._dates, date)
        return self._dates[idx - 1] if idx else None

    def on_or_after(self, date: Date) -> Date | None:
        """Earliest trading day no earlier than ``date``, or None if there is none."""
        idx = bisect_left(self._dates, date)
        return self._dates[idx] if idx < len(self._dates) else None


class SeriesFormatError(ValueError):
    """Malformed input file; the message names the offending 1-based line."""

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")


def read_table(
    source: str | Iterable[str], columns: tuple[str, ...], what: str, optional: tuple[str, ...] = (),
) -> tuple[dict[str, int], Iterator[tuple[int, list[str]]]]:
    """The CSV rules every input file shares; ``what`` names the file in errors.

    A header cell matches a column once its BOM, padding and case are
    dropped; ``optional`` names the columns of ``columns`` that may be
    absent. Returns each found column's position, in ``columns`` order, and
    an iterator of ``(line, row)`` that skips blank rows. A ``str`` source is
    split into lines as a file opened with ``newline=""`` is. Every error is
    a :class:`SeriesFormatError` that names its line.
    """
    if isinstance(source, str):
        source = io.StringIO(source, newline="")
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise SeriesFormatError(f"{what} is empty, expected a header row", 1) from None
    except csv.Error as exc:
        raise SeriesFormatError(str(exc), reader.line_num) from None
    names = [cell.lstrip("\ufeff").strip().lower() for cell in header]
    found = {c: names.index(c) for c in columns if c in names}
    missing = [c for c in columns if c not in found and c not in optional]
    if missing:
        raise SeriesFormatError(f"{what} header lacks {missing}, got {header!r}", 1)
    return found, _data_rows(reader, max(found.values()) + 1)


def _data_rows(reader, needed: int) -> Iterator[tuple[int, list[str]]]:
    try:
        for row in reader:
            # only a short row or one whose first cell is blank can be a blank
            # row; checking just those keeps the loop lean
            if len(row) < needed or not row[0].strip():
                if not "".join(row).strip():
                    continue
                if len(row) < needed:
                    raise SeriesFormatError(
                        f"row has {len(row)} columns, expected at least {needed}", reader.line_num
                    )
            yield reader.line_num, row
    except csv.Error as exc:  # an oversized field, say
        raise SeriesFormatError(str(exc), reader.line_num) from None


def parse_series(source: str | io.TextIOBase) -> IndexSeries:
    """Parse ``date,close`` CSV text into a validated ascending series.

    The header and row rules are :func:`read_table`'s; extra columns
    (open/high/low/volume and the like) are ignored. Rows may appear in any
    order. Every error message carries the offending line number.
    """
    columns, rows = read_table(source, ("date", "close"), "input")
    date_idx, close_idx = columns["date"], columns["close"]
    closes: dict[Date, float] = {}
    lines: list[int] = []  # source line of each entry of closes, in insertion order
    for line, row in rows:
        raw_date = row[date_idx].strip()
        try:
            # only YYYY-MM-DD: from Python 3.11 on fromisoformat also takes
            # 20030102 and the week date 2003-W01-4
            if len(raw_date) != 10 or raw_date[4::3] != "--":
                raise ValueError
            date = Date.fromisoformat(raw_date)
        except ValueError:
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

    if not closes:
        raise SeriesFormatError("no data rows after the header")
    return IndexSeries({d: closes[d] for d in sorted(closes)})


def serialize_series(series: IndexSeries) -> str:
    """Serialize to ``date,close`` CSV; parse(serialize(s)) == s."""
    lines = ["date,close"]
    for date, close in series._lookup.items():
        # repr() keeps the shortest decimal that round-trips the float
        lines.append(f"{date.isoformat()},{close!r}")
    return "\n".join(lines) + "\n"
