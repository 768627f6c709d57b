"""SIP simulation: unit accumulation, terminal valuation, CAGR, window grid.

A plan invests a fixed amount every month, January through December of each
year in its window, at the execution date of its strategy. The terminal
valuation always uses the last trading day of December of the final year,
whatever the strategy. CAGR is the total-value ratio annualized over the
plan's years, deliberately not an IRR.
"""

from __future__ import annotations

import math
import sys
from datetime import date as Date
from typing import NamedTuple

from .errors import (
    CoverageError,
    NotTradingDayError,
    ScheduleError,
    SimulationError,
)
from .schedule import MonthKey, ScheduleTable, Strategy, execution_date
from .stats.paired import PairedSample
from .timeseries import IndexSeries

__all__ = [
    "DEFAULT_MONTHLY_AMOUNT",
    "SipPlan",
    "Execution",
    "SipResult",
    "Window",
    "WindowOutcome",
    "cagr",
    "simulate",
    "cagr_via_lemma",
    "enumerate_windows",
    "paired_run",
]

# the amount is irrelevant to CAGR (it cancels), so the default is arbitrary
DEFAULT_MONTHLY_AMOUNT = 10_000.0

SUPPORTED_DURATIONS = (1, 3, 5, 10, 20)


class _SipPlan(NamedTuple):
    strategy: Strategy
    start_year: int
    years: int
    monthly_amount: float = DEFAULT_MONTHLY_AMOUNT


class SipPlan(_SipPlan):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> SipPlan:
        self = super().__new__(cls, *args, **kwargs)
        if self.years < 1:
            raise ValueError(f"years must be >= 1, got {self.years}")
        if not (math.isfinite(self.monthly_amount) and self.monthly_amount > 0):
            raise ValueError(f"monthly_amount must be positive and finite, got {self.monthly_amount}")
        return self

    @property
    def final_year(self) -> int:
        return self.start_year + self.years - 1

    def months(self) -> list[MonthKey]:
        """The 12*years installment months, January through December per year."""
        return [MonthKey(y, m)
                for y in range(self.start_year, self.start_year + self.years)
                for m in range(1, 13)]


class Execution(NamedTuple):
    """One installment: where the money went and what it bought."""

    month: MonthKey
    date: Date
    price: float
    units: float


class SipResult(NamedTuple):
    plan: SipPlan
    units: float
    invested: float
    final_value: float
    cagr_percent: float
    terminal_date: Date
    terminal_close: float
    executions: tuple[Execution, ...]


class _Window(NamedTuple):
    from_year: int
    to_year: int


class Window(_Window):
    __slots__ = ()

    def __new__(cls, from_year: int, to_year: int) -> Window:
        if to_year < from_year:
            raise ValueError(f"window ends before it starts: {from_year}..{to_year}")
        return tuple.__new__(cls, (from_year, to_year))

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


def cagr(final_value: float, invested: float, years: int) -> float:
    """Annualized total-value ratio in percent: ((F/invested)^(1/N) - 1) * 100."""
    if invested <= 0:
        raise ValueError(f"invested must be positive, got {invested}")
    if final_value < 0:
        raise ValueError(f"final_value must be non-negative, got {final_value}")
    if years < 1:
        raise ValueError(f"years must be >= 1, got {years}")
    return ((final_value / invested) ** (1.0 / years) - 1.0) * 100.0


def _installments(
    plan: SipPlan, series: IndexSeries, table: ScheduleTable,
) -> tuple[list[tuple[MonthKey, Date, float]], Date, float]:
    """The plan's (month, date, price) installments and its terminal (date, close).

    Any missing execution date or price aborts with the offending month in
    the message.
    """
    installments = []
    for key in plan.months():
        try:
            date = execution_date(plan.strategy, key, table)
            installments.append((key, date, series.close_on(date)))
        except (ScheduleError, NotTradingDayError) as exc:
            raise SimulationError(f"installment {key} ({plan.strategy.value}): {exc}") from exc
    try:
        terminal_date = series.last_trading_day_of_year(plan.final_year)
    except CoverageError as exc:
        raise SimulationError(f"terminal valuation {plan.final_year}-12: {exc}") from exc
    return installments, terminal_date, series.close_on(terminal_date)


def simulate(plan: SipPlan, series: IndexSeries, table: ScheduleTable) -> SipResult:
    """Run the plan: 12N installments, then terminal valuation."""
    installments, terminal_date, terminal_close = _installments(plan, series, table)
    executions: list[Execution] = []
    units = 0.0
    for key, date, price in installments:
        bought = plan.monthly_amount / price
        units += bought
        executions.append(Execution(month=key, date=date, price=price, units=bought))
    final_value = terminal_close * units
    invested = 12.0 * plan.monthly_amount * plan.years
    # the amount cancels out of the CAGR, but an extreme amount or price over- or
    # underflows, and a subnormal installment keeps too few digits to cancel
    where = f"plan {plan.start_year}..{plan.final_year} ({plan.strategy.value})"
    if not (0.0 < final_value < math.inf and invested < math.inf):
        raise SimulationError(f"{where}: final value {final_value!r} on {invested!r} invested "
                              "is out of float range")
    fewest = min(e.units for e in executions)
    if fewest < sys.float_info.min:
        raise SimulationError(f"{where}: {fewest!r} units in one installment is out of float range")
    return SipResult(
        plan=plan,
        units=units,
        invested=invested,
        final_value=final_value,
        cagr_percent=cagr(final_value, invested, plan.years),
        terminal_date=terminal_date,
        terminal_close=terminal_close,
        executions=tuple(executions),
    )


def cagr_via_lemma(plan: SipPlan, series: IndexSeries, table: ScheduleTable) -> float:
    """CAGR from the amount-free form ((I_L * sum(1/I_i)) / (12N))^(1/N) - 1.

    The monthly amount cancels out of the CAGR, so this needs no monetary
    input at all; it must agree with simulate() to float precision.
    """
    installments, _, terminal_close = _installments(plan, series, table)
    inv_sum = 0.0
    for _, _, price in installments:
        inv_sum += 1.0 / price
    ratio = terminal_close * inv_sum / (12.0 * plan.years)
    return (ratio ** (1.0 / plan.years) - 1.0) * 100.0


def enumerate_windows(duration: int) -> list[Window]:
    """The fixed, non-overlapping window grid for a supported duration."""
    if duration == 1:
        return [Window(y, y) for y in range(2003, 2025)]
    if duration == 3:
        return [Window(y, y + 2) for y in range(2004, 2023, 3)]
    if duration == 5:
        return [Window(y, y + 4) for y in range(2005, 2021, 5)]
    if duration == 10:
        return [Window(2005, 2014), Window(2015, 2024)]
    if duration == 20:
        return [Window(2005, 2024)]
    raise ValueError(f"unsupported duration {duration}, expected one of {SUPPORTED_DURATIONS}")


def paired_run(
    duration: int,
    series: IndexSeries,
    table: ScheduleTable,
    monthly_amount: float = DEFAULT_MONTHLY_AMOUNT,
) -> tuple[PairedSample, list[WindowOutcome]]:
    """Simulate both strategies over every window of the duration.

    Returns the aligned paired sample (ordered by window start year) plus
    the full-precision per-window outcomes for reporting.
    """
    outcomes: list[WindowOutcome] = []
    for window in enumerate_windows(duration):
        ftd = simulate(SipPlan(Strategy.FTD, window.from_year, window.years, monthly_amount),
                       series, table)
        exp = simulate(SipPlan(Strategy.EXP, window.from_year, window.years, monthly_amount),
                       series, table)
        outcomes.append(WindowOutcome(window=window, cagr_ftd=ftd.cagr_percent,
                                      cagr_exp=exp.cagr_percent))
    sample = PairedSample(
        exp_values=[o.cagr_exp for o in outcomes],
        ftd_values=[o.cagr_ftd for o in outcomes],
    )
    return sample, outcomes
