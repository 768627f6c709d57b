"""Synthetic daily series generator for tests and offline experimentation.

Weekdays only; optional random holidays thin the calendar so the
holiday-adjustment paths get exercised. Everything is deterministic given
the seed. The span always includes December of the year before the first
plan year, so previous-month-expiry schedules can resolve their January
installment.
"""

from __future__ import annotations

import math
from datetime import date as Date, timedelta

from .timeseries import IndexSeries, TradingDay

__all__ = ["KINDS", "generate_series"]

KINDS = ("flat", "growth", "walk")

MAX_HOLIDAY_RATE = 0.3


def generate_series(
    kind: str = "flat",
    start_year: int = 2003,
    years: int = 1,
    seed: int = 0,
    base: float = 1000.0,
    holiday_rate: float = 0.0,
) -> IndexSeries:
    """Generate a synthetic index series.

    kind "flat" holds the level constant, "growth" follows a smooth
    deterministic drift with a mild seasonal wiggle, "walk" draws seeded
    lognormal daily steps.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if years < 1:
        raise ValueError(f"years must be >= 1, got {years}")
    if not base > 0:
        raise ValueError(f"base must be positive, got {base}")
    if not 0.0 <= holiday_rate <= MAX_HOLIDAY_RATE:
        raise ValueError(f"holiday_rate must be in [0, {MAX_HOLIDAY_RATE}], got {holiday_rate}")

    first = Date(start_year - 1, 12, 1)
    last = Date(start_year + years - 1, 12, 31)

    import numpy as np  # deferred: validate/simulate/--version never load numpy

    rng = np.random.default_rng(seed)
    days: list[TradingDay] = []
    level = base
    i = 0
    current = first
    one_day = timedelta(days=1)
    while current <= last:
        if current.weekday() < 5:  # Monday..Friday
            is_holiday = holiday_rate > 0.0 and rng.random() < holiday_rate
            if not is_holiday:
                if kind == "flat":
                    close = base
                elif kind == "growth":
                    close = base * math.exp(3e-4 * i) * (1.0 + 0.01 * math.sin(2.0 * math.pi * i / 63.0))
                else:
                    level *= math.exp(rng.normal(3e-4, 0.01))
                    close = level
                days.append(TradingDay(current, close))
                i += 1
        current += one_day
    return IndexSeries(days)
