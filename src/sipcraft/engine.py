"""SIP simulation: unit accumulation, terminal valuation, CAGR, window grid.

A plan invests a fixed amount every month, January through December of each
year in its window, at the execution date of its strategy. The terminal
valuation always uses the last trading day of December of the final year,
whatever the strategy. CAGR is the total-value ratio annualized over the
plan's years, deliberately not an IRR; the monthly amount cancels out of
it, so it is computed from the prices alone.
"""

from __future__ import annotations

import math
import sys
from datetime import date as Date
from typing import Iterable, NamedTuple

from .errors import SeriesFormatError, SimulationError
from .schedule import MonthKey, MonthSchedule
from .stats.paired import PairedSample
from .timeseries import IndexSeries, read_table

__all__ = [
    "MAX_CAGR",
    "Window",
    "WindowOutcome",
    "is_window_table",
    "load_windows",
    "simulate",
    "enumerate_windows",
    "paired_run",
]

SUPPORTED_DURATIONS = (1, 3, 5, 10, 20)

# the largest CAGR, in percent, that a plan or a window table may give; the
# bootstrap's jackknife cubes deviations of this size, which overflows above
# about 5.6e102
MAX_CAGR = 1e100

# the columns of a per-window CAGR table; all but years are required
WINDOW_COLUMNS = ("from_year", "to_year", "years", "cagr_ftd", "cagr_exp")


class Window(NamedTuple):
    from_year: int
    to_year: int

    @property
    def years(self) -> int:
        return self.to_year - self.from_year + 1


class WindowOutcome(NamedTuple):
    """Per-window CAGRs of the two strategies, at full precision."""

    window: Window
    cagr_ftd: float
    cagr_exp: float

    @property
    def difference(self) -> float:
        return self.cagr_exp - self.cagr_ftd


def _paired(outcomes: list[WindowOutcome]) -> tuple[PairedSample, list[WindowOutcome]]:
    return PairedSample([o.cagr_exp for o in outcomes], [o.cagr_ftd for o in outcomes]), outcomes


def is_window_table(header: str) -> bool:
    """Whether a CSV header line names both CAGR columns of a per-window table."""
    try:
        read_table(header, ("cagr_ftd", "cagr_exp"), "window table")
    except SeriesFormatError:  # an empty line, or a header without both CAGR columns
        return False
    return True


def load_windows(
    lines: Iterable[str], durations: Iterable[int],
) -> dict[int, tuple[PairedSample, list[WindowOutcome]]]:
    """Per-window CAGR table to each selected duration's paired sample and
    outcomes in start-year order, the shape ``paired_run`` returns.

    The header and row rules are :func:`~sipcraft.timeseries.read_table`'s;
    ``years`` is the one optional column of ``WINDOW_COLUMNS``. Every error
    message carries the offending line number.
    """
    columns, rows = read_table(lines, WINDOW_COLUMNS, "window table", optional=("years",))
    selected: dict[int, list[WindowOutcome]] = {d: [] for d in durations}
    seen: dict[Window, int] = {}
    line = 1
    for line, row in rows:
        cells = {}
        for key, i in columns.items():
            kind = float if key.startswith("cagr") else int
            try:
                cells[key] = kind(row[i])
                # an int is always finite, and math.isfinite overflows on a huge one
                finite = kind is int or math.isfinite(cells[key])
            except ValueError:
                finite = False
            if not finite:
                what = "a finite number" if kind is float else "an integer"
                raise SeriesFormatError(f"{key} must be {what}, got {row[i].strip()!r}", line)
            if kind is float and not -100.0 <= cells[key] <= MAX_CAGR:
                raise SeriesFormatError(f"{key} {_outside(cells[key])}", line)
        from_year, to_year = cells["from_year"], cells["to_year"]
        if to_year < from_year:
            raise SeriesFormatError(f"window ends before it starts: {from_year}..{to_year}", line)
        window = Window(from_year, to_year)
        where = f"window {from_year}..{to_year}"
        if cells.get("years", window.years) != window.years:
            raise SeriesFormatError(f"years {cells['years']} does not match {where}", line)
        if window.years not in SUPPORTED_DURATIONS:
            raise SeriesFormatError(f"{where} spans {window.years} years, expected one of "
                                    f"{SUPPORTED_DURATIONS}", line)
        if window in seen:
            raise SeriesFormatError(f"duplicate {where} (first seen at line {seen[window]})",
                                    line)
        seen[window] = line
        if window.years in selected:
            selected[window.years].append(
                WindowOutcome(window, cells["cagr_ftd"], cells["cagr_exp"]))
    absent = [d for d, outcomes in selected.items() if not outcomes]
    if absent:
        raise SeriesFormatError(f"window table ends with no rows for durations {absent}", line)
    return {d: _paired(sorted(outcomes, key=lambda o: o.window.from_year))
            for d, outcomes in selected.items()}


def _installments(
    strategy: str, window: Window, series: IndexSeries, table: dict[MonthKey, MonthSchedule],
) -> tuple[list[tuple[MonthKey, Date, float]], Date, float]:
    """A plan's (month, date, price) installments and its terminal (date, close).

    The strategy is "ftd" or "exp": FTD executes on the month's own first
    trading day, EXP on the previous month's expiry (a January installment
    executes on December's expiry). Any missing execution date or price
    aborts with the offending month in the message.
    """
    ftd = strategy == "ftd"
    installments = []
    for year in range(window.from_year, window.to_year + 1):
        for month in range(1, 13):
            key = MonthKey(year, month)
            anchor = key if ftd else key.prev()
            entry = table.get(anchor)
            date = None if entry is None else entry.first_trading_day if ftd else entry.expiry_day
            close = None if date is None else series.close_on(date)
            if close is None:
                if date is None:
                    problem = "schedule has no " + (f"first trading day for {key}" if ftd
                                                    else f"expiry for {anchor} (needed by {key})")
                else:
                    previous = series.on_or_before(date)
                    hint = ("no earlier trading day in series" if previous is None
                            else f"previous trading day: {previous.isoformat()}")
                    problem = f"{date.isoformat()} is not a trading day ({hint})"
                raise SimulationError(f"installment {key} ({strategy}): {problem}")
            installments.append((key, date, close))
    # the last installment fell on a trading day of the final year, so the
    # terminal day lies in that year too
    terminal_date = series.on_or_before(Date(window.to_year, 12, 31))
    return installments, terminal_date, series.close_on(terminal_date)


def _outside(value: float) -> str:
    return f"{value!r} lies outside [-100, {MAX_CAGR:g}]"


def _where(strategy: str, window: Window) -> str:
    return f"plan {window.from_year}..{window.to_year} ({strategy})"


def _cagr_of(strategy: str, window: Window,
             installments: list[tuple[MonthKey, Date, float]], terminal_close: float) -> float:
    """CAGR from the amount-free form ((I_L * sum(1/I_i)) / (12N))^(1/N) - 1.

    The monthly amount cancels out of the total-value ratio, so the CAGR of
    every plan comes from here and needs no monetary input at all.
    """
    inverses = [1.0 / price for _, _, price in installments]
    # a subnormal term keeps too few digits, and the ratio must stay a float
    smallest = min(inverses)
    if smallest < sys.float_info.min:
        raise SimulationError(f"{_where(strategy, window)}: 1/price {smallest!r} in one "
                              "installment is out of float range")
    ratio = terminal_close * math.fsum(inverses)
    if not 0.0 < ratio < math.inf:
        raise SimulationError(f"{_where(strategy, window)}: value ratio {ratio!r} is out of "
                              "float range")
    value = ((ratio / (12.0 * window.years)) ** (1.0 / window.years) - 1.0) * 100.0
    if not -100.0 <= value <= MAX_CAGR:
        raise SimulationError(f"{_where(strategy, window)}: CAGR {_outside(value)}")
    return value


def simulate(strategy: str, window: Window, monthly_amount: float, series: IndexSeries,
             table: dict[MonthKey, MonthSchedule]) -> dict:
    """Invest ``monthly_amount`` in each of the window's 12N months, then
    value the units at the terminal close.

    Returns the ledger as ``simulate --format json`` prints it. Its units,
    outlay and final value are for printing; its CAGR is the amount-free
    one that ``paired_run`` reports for the same window.
    """
    installments, terminal_date, terminal_close = _installments(strategy, window, series, table)
    cagr_percent = _cagr_of(strategy, window, installments, terminal_close)
    executions = []
    units = 0.0
    for key, date, price in installments:
        bought = monthly_amount / price
        units += bought
        executions.append({"month": str(key), "date": date.isoformat(), "price": price,
                           "units": bought})
    final_value = terminal_close * units
    invested = 12.0 * monthly_amount * window.years
    # an extreme amount over- or underflows the ledger, and a subnormal
    # installment keeps too few digits to print
    where = _where(strategy, window)
    if not (0.0 < final_value < math.inf and invested < math.inf):
        raise SimulationError(f"{where}: final value {final_value!r} on {invested!r} invested "
                              "is out of float range")
    fewest = min(e["units"] for e in executions)
    if fewest < sys.float_info.min:
        raise SimulationError(f"{where}: {fewest!r} units in one installment is out of float range")
    return {
        "plan": {"strategy": strategy, "start_year": window.from_year,
                 "years": window.years, "monthly_amount": monthly_amount},
        "executions": executions,
        "units": units,
        "invested": invested,
        "terminal_date": terminal_date.isoformat(),
        "terminal_close": terminal_close,
        "final_value": final_value,
        "cagr_percent": cagr_percent,
    }


def enumerate_windows(duration: int) -> list[Window]:
    """The fixed window grid for a supported duration: non-overlapping windows
    packed back from December 2024, none starting before 2003, in start order."""
    return [Window(y, y + duration - 1) for y in reversed(range(2025 - duration, 2002, -duration))]


def paired_run(
    duration: int, series: IndexSeries, table: dict[MonthKey, MonthSchedule],
) -> tuple[PairedSample, list[WindowOutcome]]:
    """Both strategies' CAGRs over every window of the duration.

    Returns the aligned paired sample (ordered by window start year) plus
    the full-precision per-window outcomes for reporting.
    """
    def plan_cagr(strategy: str, window: Window) -> float:
        installments, _, terminal_close = _installments(strategy, window, series, table)
        return _cagr_of(strategy, window, installments, terminal_close)

    return _paired([WindowOutcome(window, plan_cagr("ftd", window), plan_cagr("exp", window))
                    for window in enumerate_windows(duration)])
