"""Seeded input files for the benchmark workloads, written without sipcraft.

Both generators draw from ``random.Random`` seeded with a string, so the
bytes depend only on the seed and the generator version, never on
``sipcraft.synth`` or on the interpreter's hash seed. Holidays are drawn as
a fixed number of weekdays, so the row count is the same for every seed.
"""

from __future__ import annotations

import csv
import math
import random
from datetime import date as Date, timedelta

GRID_FIRST, GRID_LAST = Date(2002, 12, 1), Date(2024, 12, 31)
LONG_FIRST, LONG_LAST = Date(1990, 1, 1), Date(2024, 12, 31)


def _weekdays(first: Date, last: Date) -> list[Date]:
    days, d = [], first
    while d <= last:
        if d.weekday() < 5:
            days.append(d)
        d += timedelta(days=1)
    return days


def _walk(rng: random.Random, n: int, base: float = 1000.0) -> list[float]:
    """Lognormal daily steps: drift 3e-4, volatility 1% per trading day."""
    level, closes = base, []
    for _ in range(n):
        level *= math.exp(rng.gauss(3e-4, 0.01))
        closes.append(level)
    return closes


def override_dates(schedule_csv: str) -> frozenset[Date]:
    """Every anchor date named in a ``year,month,ftd_dom,expiry_dom`` table."""
    dates = set()
    with open(schedule_csv, newline="", encoding="utf-8-sig") as fh:
        for row in csv.DictReader(fh):
            for cell in ("ftd_dom", "expiry_dom"):
                if row[cell].strip():
                    dates.add(Date(int(row["year"]), int(row["month"]), int(row[cell])))
    return frozenset(dates)


def _calendar(rng: random.Random, first: Date, last: Date, holiday_rate: float,
              keep: frozenset[Date] = frozenset()) -> list[Date]:
    """Weekdays minus a fixed share of random holidays, plus every date in ``keep``."""
    candidates = [d for d in _weekdays(first, last) if d not in keep]
    holidays = set(rng.sample(candidates, round(holiday_rate * len(candidates))))
    kept = {d for d in keep if first <= d <= last}
    return sorted(kept.union(d for d in candidates if d not in holidays))


def grid_csv(seed: int) -> str:
    """``date,close`` rows, oldest first, 2002-12 to 2024-12 with 5% holidays."""
    rng = random.Random(f"perfbench.grid:{seed}")
    days = _calendar(rng, GRID_FIRST, GRID_LAST, 0.05)
    lines = ["date,close"]
    lines += [f"{d.isoformat()},{c:.2f}" for d, c in zip(days, _walk(rng, len(days)))]
    return "\n".join(lines) + "\n"


def long_csv(seed: int, schedule_csv: str) -> str:
    """A downloaded-style OHLCV file, newest first, 1990 to 2024 with 2.5% holidays.

    Every date of the override table is a trading day, so a schedule built
    from it has no anomalies.
    """
    rng = random.Random(f"perfbench.long:{seed}")
    days = _calendar(rng, LONG_FIRST, LONG_LAST, 0.025, override_dates(schedule_csv))
    closes = _walk(rng, len(days))
    rows = []
    prev = closes[0]
    for d, close in zip(days, closes):
        spread = 1.0 + 0.01 * rng.random()
        high, low = max(prev, close) * spread, min(prev, close) / spread
        volume = rng.randrange(100_000, 5_000_000)
        rows.append(f"{d.isoformat()},{prev:.2f},{high:.2f},{low:.2f},{close:.2f},{volume}")
        prev = close
    rows.reverse()
    return "Date,Open,High,Low,Close,Volume\n" + "\n".join(rows) + "\n"
