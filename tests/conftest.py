"""Shared fixtures: reference window samples and synthetic series."""

import csv
import datetime
import functools
import math
import os
import random
from pathlib import Path

import pytest

from sipcraft.cli import main
from sipcraft.schedule import MonthKey, build_schedule
from sipcraft.stats.paired import PairedSample
from sipcraft.synth import generate_series
from sipcraft.timeseries import IndexSeries

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
# an override table on weekdays, which a walk series without holidays trades on
OVERRIDES = "year,month,ftd_dom,expiry_dom\n2010,1,4,27\n"
# pyproject's pythonpath puts src/, scripts/ and perfbench/ on the path of
# this process only; the interpreters that tests start find the package
# through PYTHONPATH
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                                          os.environ.get("PYTHONPATH"))))


def load_reference_sample(duration: int) -> PairedSample:
    """Per-window CAGR pairs for one duration from the frozen results table."""
    ftd, exp = [], []
    with open(DATA / "reference_windows.csv", newline="") as fh:
        for rec in csv.DictReader(fh):
            if int(rec["years"]) == duration:
                ftd.append(float(rec["cagr_ftd"]))
                exp.append(float(rec["cagr_exp"]))
    if not ftd:
        raise ValueError(f"no reference rows for duration {duration}")
    return PairedSample(exp, ftd)


def stdlib_bootstrap_picks(diffs, count: int, seed: int) -> list:
    """The bootstrap's picks, rebuilt one 32-bit word at a time.

    getrandbits(32) returns the generator's next output, so this walks the
    same stream as the package's block draws without sharing its code. For
    n <= 256 the word's four little-endian bytes are four candidates, each
    kept as b % n when b < 256 - 256 % n; above that the whole word is one,
    kept as w % n when w < 2**32 - 2**32 % n.
    """
    n = len(diffs)
    rng = random.Random(seed)
    picks = []
    while len(picks) < count:
        w = rng.getrandbits(32)
        candidates, limit = ((w.to_bytes(4, "little"), 256 - 256 % n) if n <= 256
                             else ((w,), 2 ** 32 - 2 ** 32 % n))
        picks += [diffs[c % n] for c in candidates if c < limit]
    return picks[:count]


def stdlib_bootstrap_means(diffs, resamples: int, seed: int) -> list[float]:
    """The bootstrap's resample means, from the word-at-a-time picks."""
    n = len(diffs)
    picks = stdlib_bootstrap_picks(diffs, resamples * n, seed)
    return [math.fsum(picks[r * n:(r + 1) * n]) / n for r in range(resamples)]


# the points at which mpmath checks the distribution functions
NORMAL_X = [
    -8.0, -5.0, -3.5, -2.575829, -1.959964, -1.644854, -1.0, -0.5,
    -0.1234, 0.0, 0.1234, 0.5, 1.0, 1.281552, 1.644854, 1.959964,
    2.326348, 3.0, 4.417, 6.0,
]
# (t, df) pairs: tiny and huge statistics, low and high df, both signs
STUDENT_T = [
    (0.0, 1), (0.5, 1), (1.0, 1), (2.0, 2), (-2.0, 2),
    (0.25, 3), (1.5, 4), (2.2281, 10), (-1.3, 5), (3.276278640051376, 21),
    (2.8288891275138033, 6),
    (8.87796045374068, 3), (0.7, 7), (1.9, 12), (-0.9, 15),
    (2.5, 25), (4.0, 30), (-3.1, 40), (1.1, 60), (0.05, 100),
]
PPF_P = [
    0.0001, 0.001, 0.025, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.975,
    0.99, 0.999, 0.9999, 0.9999999, 1 - 1e-10,
    # the smallest subnormal, a deeper subnormal, the smallest normal and 1 - 2^-53
    5e-324, 1e-310, 2.2250738585072014e-308, 1 - 2**-53,
]


@functools.cache
def mpmath_reference() -> dict[str, dict]:
    """mpmath's normal CDF at NORMAL_X, Student t tail at STUDENT_T and normal
    quantile at PPF_P, worked to 30 significant digits and rounded to floats,
    each keyed by its point. mpmath is imported on the first call."""
    from mpmath import betainc, erfc, erfinv, mp, mpf, sqrt

    def t_sf(t, df):
        t = mpf(t)
        tail = betainc(mpf(df) / 2, mpf("0.5"), 0, df / (df + t * t), regularized=True) / 2
        return tail if t >= 0 else 1 - tail

    def ppf(p):
        # 2p - 1 keeps p's digits only with as many more digits as p has leading zeros
        with mp.workdps(mp.dps + max(0, -int(mp.log10(p)))):
            return sqrt(2) * erfinv(2 * mpf(p) - 1)

    with mp.workdps(30):
        return {"normal_cdf": {x: float(erfc(-mpf(x) / sqrt(2)) / 2) for x in NORMAL_X},
                "student_t_sf": {(t, df): float(t_sf(t, df)) for t, df in STUDENT_T},
                "normal_ppf": {p: float(ppf(p)) for p in PPF_P}}


@pytest.fixture(scope="session")
def one_year_sample() -> PairedSample:
    return load_reference_sample(1)


@pytest.fixture(scope="session")
def three_year_sample() -> PairedSample:
    return load_reference_sample(3)


@pytest.fixture(scope="session")
def five_year_sample() -> PairedSample:
    return load_reference_sample(5)


def weekday_series(start: datetime.date, end: datetime.date, close) -> IndexSeries:
    """Mon-Fri series over [start, end]; close is a constant or date -> price."""
    closes = {}
    for offset in range((end - start).days + 1):  # forms no date past end, which may be 9999-12-31
        d = start + datetime.timedelta(days=offset)
        if d.weekday() < 5:
            closes[d] = float(close(d) if callable(close) else close)
    return IndexSeries(closes)


def anchor_prices(series: IndexSeries, table, ftd: bool, start_year: int, years: int):
    """The plan's 12N installment closes and its terminal close, read from
    the schedule table and the series without the engine."""
    prices = []
    for year in range(start_year, start_year + years):
        for month in range(1, 13):
            key = MonthKey(year, month)
            anchor = (table.get(key).first_trading_day if ftd
                      else table.get(key.prev()).expiry_day)
            prices.append(series.close_on(anchor))
    # the latest trading day of the final year, found one calendar day at a time
    terminal = datetime.date(start_year + years - 1, 12, 31)
    while terminal not in series:
        terminal -= datetime.timedelta(days=1)
    return prices, series.close_on(terminal)


def ledger_cagr(prices, terminal_close: float, years: int, amount: float) -> float:
    """CAGR in percent from a left-to-right ledger of ``amount / price`` units."""
    units = 0.0
    for price in prices:
        units += amount / price
    final = terminal_close * units
    return ((final / (12.0 * amount * years)) ** (1.0 / years) - 1.0) * 100.0


@pytest.fixture
def flat_year_series() -> IndexSeries:
    """Constant-100 weekday series covering Dec 2019 through Dec 2020."""
    return weekday_series(datetime.date(2019, 12, 2), datetime.date(2020, 12, 31), 100.0)


@pytest.fixture(scope="session")
def long_series() -> IndexSeries:
    """Random-walk series covering the full window grid, Dec 2002 - Dec 2024."""
    return generate_series("walk", 2003, 22, seed=11)


@pytest.fixture(scope="session")
def walk_csv(tmp_path_factory) -> Path:
    """The file `fixtures --kind walk --start-year 2003 --years 22 --seed 11` writes."""
    path = tmp_path_factory.mktemp("data") / "walk.csv"
    assert main(["fixtures", "--kind", "walk", "--start-year", "2003", "--years", "22",
                 "--seed", "11", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="session")
def long_table(long_series):
    table, anomalies = build_schedule(long_series, {}, MonthKey(2002, 12), MonthKey(2024, 12))
    assert not anomalies
    return table
