"""Per-month execution anchors: first trading day and derivatives expiry.

The expiry rule is the last Thursday of the month, or the latest trading
day before it within the month (never a later day, which would leak into
the next month). An explicit override table is authoritative wherever it
has a value; overrides that conflict with the price series are reported
as anomalies, never silently repaired.
"""

from __future__ import annotations

import io
from datetime import MAXYEAR, MINYEAR, date as Date, timedelta
from typing import Iterator, NamedTuple

from .timeseries import IndexSeries, SeriesFormatError, read_table

__all__ = [
    "MonthKey",
    "MonthSchedule",
    "SOURCE_OVERRIDE",
    "SOURCE_COMPUTED",
    "last_thursday",
    "resolve_first_trading_day",
    "compute_expiry",
    "load_schedule_overrides",
    "build_schedule",
]

_THURSDAY = 3  # datetime.weekday() convention, Monday == 0

SOURCE_OVERRIDE = "override"
SOURCE_COMPUTED = "computed"


class MonthKey(NamedTuple):
    """A calendar month; keys sort by (year, month)."""

    year: int
    month: int

    def prev(self) -> "MonthKey":
        if self.month == 1:
            return MonthKey(self.year - 1, 12)
        return MonthKey(self.year, self.month - 1)

    def next(self) -> "MonthKey":
        if self.month == 12:
            return MonthKey(self.year + 1, 1)
        return MonthKey(self.year, self.month + 1)

    def last_day(self) -> Date:
        if self.month == 12:
            return Date(self.year, 12, 31)
        return Date(self.year, self.month + 1, 1) - timedelta(days=1)

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"


class MonthSchedule(NamedTuple):
    """Anchors for one month; either field may be absent.

    Sources are tracked per field because a month can mix an overridden
    anchor with a computed one (an override row may populate only one cell).
    The month is the key of the table that holds the record.
    """

    first_trading_day: Date | None
    expiry_day: Date | None
    ftd_source: str | None
    expiry_source: str | None


def last_thursday(key: MonthKey) -> Date:
    """Calendar last Thursday of the month, before any holiday adjustment."""
    d = key.last_day()
    while d.weekday() != _THURSDAY:
        d -= timedelta(days=1)
    return d


def resolve_first_trading_day(series: IndexSeries, key: MonthKey) -> Date | None:
    """Earliest series date within the month, or None if the series has none."""
    day = series.on_or_after(Date(key.year, key.month, 1))
    if day is None or (day.year, day.month) != key:
        return None  # the series has no trading day in the month
    return day


def compute_expiry(series: IndexSeries, key: MonthKey) -> Date | None:
    """Latest trading day on or before the month's last Thursday, or None if
    that day is not in the month."""
    day = series.on_or_before(last_thursday(key))
    if day is None or (day.year, day.month) != key:
        return None  # no trading day in the month up to its last Thursday
    return day


def load_schedule_overrides(
    source: str | io.TextIOBase,
) -> dict[MonthKey, tuple[Date | None, Date | None]]:
    """Load an override CSV with columns ``year,month,ftd_dom,expiry_dom``
    as ``{month: (ftd, expiry)}``.

    The header and row rules are :func:`~sipcraft.timeseries.read_table`'s.
    Day-of-month cells may be empty (an expiry-only or first-day-only row),
    and an empty cell's date is None.
    """
    columns, rows = read_table(source, ("year", "month", "ftd_dom", "expiry_dom"), "override file")
    entries: dict[MonthKey, tuple[Date | None, Date | None]] = {}
    first_lines: dict[MonthKey, int] = {}
    for line, row in rows:
        try:
            year = int(row[columns["year"]])
            month = int(row[columns["month"]])
        except ValueError:
            raise SeriesFormatError(f"malformed year/month in row {row!r}", line) from None
        if not MINYEAR <= year <= MAXYEAR:
            raise SeriesFormatError(f"year {year} is outside {MINYEAR}..{MAXYEAR}", line)
        if not 1 <= month <= 12:
            raise SeriesFormatError(f"month must be in 1..12, got {month}", line)
        key = MonthKey(year, month)
        if key in entries:
            raise SeriesFormatError(
                f"duplicate override for {key} (first seen at line {first_lines[key]})", line
            )

        def _dom(cell_name: str) -> Date | None:
            raw = row[columns[cell_name]].strip()
            if not raw:
                return None
            try:
                dom = int(raw)
            except ValueError:
                raise SeriesFormatError(f"non-integer {cell_name} {raw!r}", line) from None
            try:
                return Date(year, month, dom)
            except (ValueError, OverflowError):  # a day past C long overflows
                raise SeriesFormatError(
                    f"{cell_name} {dom} is not a valid day of {key}", line
                ) from None

        ftd = _dom("ftd_dom")
        expiry = _dom("expiry_dom")
        if ftd is None and expiry is None:
            raise SeriesFormatError(f"override row for {key} has neither anchor", line)
        entries[key] = (ftd, expiry)
        first_lines[key] = line
    return entries


# each anchor in MonthSchedule field order, and so in an override pair's:
# its field, the rule that computes it where no override applies, and the
# anomaly when the rule finds no day
_ANCHOR_RULES = (
    ("first_trading_day", resolve_first_trading_day, "month has no trading days in the series"),
    ("expiry_day", compute_expiry, "no trading day at or before the last Thursday"),
)


def _month_range(start: MonthKey, end: MonthKey) -> Iterator[MonthKey]:
    key = start
    while key <= end:
        yield key
        key = key.next()


def build_schedule(
    series: IndexSeries,
    overrides: dict[MonthKey, tuple[Date | None, Date | None]] | None,
    start: MonthKey,
    end: MonthKey,
) -> tuple[dict[MonthKey, MonthSchedule], list[dict]]:
    """Resolve every month in ``start..end``: override wins, else computed rule.

    Every resulting date is validated against the series. Failures are
    collected as anomalies, each the bundle's ``{month, field, date,
    reason}`` dict, and the offending value is kept as-is, so data problems
    surface to the operator instead of being guessed around.
    """
    table: dict[MonthKey, MonthSchedule] = {}
    anomalies: list[dict] = []

    def _anomaly(key: MonthKey, field: str, date: Date | None, reason: str) -> None:
        anomalies.append({"month": str(key), "field": field,
                          "date": date.isoformat() if date is not None else None,
                          "reason": reason})

    overrides = overrides or {}
    for key in _month_range(start, end):
        days: list[Date | None] = []
        sources: list[str | None] = []
        for (field, compute, missing), day in zip(_ANCHOR_RULES, overrides.get(key, (None, None))):
            source = SOURCE_OVERRIDE
            if day is not None:
                if day not in series:
                    _anomaly(key, field, day, "override date is not a trading day in the series")
            else:
                day, source = compute(series, key), SOURCE_COMPUTED
                if day is None:
                    source = None
                    _anomaly(key, field, None, missing)
            days.append(day)
            sources.append(source)
        ftd, expiry = days
        if ftd is not None and expiry is not None and expiry < ftd:
            _anomaly(key, "expiry_day", expiry, "expiry precedes the first trading day")
        table[key] = MonthSchedule(*days, *sources)
    return table, anomalies

