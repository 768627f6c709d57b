"""Synthetic daily series generator for tests and offline experimentation.

Weekdays only; optional random holidays thin the calendar so the
holiday-adjustment paths get exercised. Everything is deterministic given
the seed. The span always includes December of the year before the first
plan year, so previous-month-expiry schedules can resolve their January
installment.
"""

from __future__ import annotations

import math
import random
from datetime import date as Date, timedelta

from .timeseries import IndexSeries


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
    lognormal daily steps. The arguments go unchecked, as
    ``cli.resolve_settings`` checks the flags they come from; only a level
    that over- or underflows on the way raises ValueError.
    """
    first = Date(start_year - 1, 12, 1)
    last = Date(start_year + years - 1, 12, 31)

    rng = random.Random(seed)
    closes: dict[Date, float] = {}
    level = base
    i = 0
    # stepping a date past ``last`` would overflow at 9999-12-31
    for offset in range((last - first).days + 1):
        current = first + timedelta(days=offset)
        if current.weekday() < 5:  # Monday..Friday
            is_holiday = holiday_rate > 0.0 and rng.random() < holiday_rate
            if not is_holiday:
                if kind == "flat":
                    close = base
                elif kind == "growth":
                    close = base * math.exp(3e-4 * i) * (1.0 + 0.01 * math.sin(2.0 * math.pi * i / 63.0))
                else:
                    level *= math.exp(rng.normalvariate(3e-4, 0.01))
                    close = level
                if not 0.0 < close < math.inf:  # the level over- or underflowed
                    raise ValueError(f"level on {current.isoformat()} is not a finite positive "
                                     f"float, got {close!r}")
                closes[current] = close
                i += 1
    return IndexSeries(closes)
