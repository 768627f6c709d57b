"""Bias-corrected and accelerated (BCa) bootstrap for the mean difference.

One stdlib generator, ``random.Random(seed)``, draws the resamples. Its
MT19937 outputs are read as little-endian 32-bit words in order. For
n <= 256 each byte b of a word is one candidate, kept as index ``b % n``
when ``b < 256 - 256 % n``; for larger n each word w is one candidate,
kept as ``w % n`` when ``w < 2**32 - 2**32 % n``. Either rule keeps every
index exactly uniform. Resample r is picks [r*n, (r+1)*n) and its mean is
``fsum(picks) / n``. The interval is therefore a pure function of the
sample, B, alpha and the seed. Efron (1987) describes the BCa method."""

from __future__ import annotations

import math
import random
import struct
from bisect import bisect_left
from itertools import chain, islice
from typing import Iterator, NamedTuple

from .paired import PairedSample
from .special import normal_cdf, normal_ppf, quantile_sorted

__all__ = ["BatteryConfig", "BootstrapCI", "bootstrap_bca"]

MIN_RESAMPLES = 1000
# 100 times the paper's B, bounded for run time: at this B, 70 one-year
# windows take about 3.6 s on a 2-core machine
MAX_RESAMPLES = 1_000_000
# at or below 2**-53, 1 - alpha/2 rounds to 1 and the upper z is infinite
MIN_ALPHA = 2.0 ** -53
# 32-bit words per getrandbits call; whole words, so the size cannot change the stream
BLOCK_WORDS = 4096
# the docstring's stream rule, as bundle provenance records it; _index_blocks draws it
STREAM_RULE = ("random.Random(seed) little-endian 32-bit words; n <= 256: diffs[b % n] for each "
               "byte b < 256 - 256 % n, else diffs[w % n] for each word w < 2**32 - 2**32 % n; "
               "row-major; fsum means")


class BatteryConfig(NamedTuple):
    """Battery settings, all three the bootstrap's; the field names are the
    JSON keys, so ``_asdict()`` is the JSON form. Nothing here checks them:
    ``cli.resolve_settings``, where the flags and SIPCRAFT_SEED enter, keeps
    B in MIN_RESAMPLES..MAX_RESAMPLES, alpha in (MIN_ALPHA, 1) and the seed
    non-negative."""

    B: int = 10000
    alpha: float = 0.05
    seed: int = 42


class BootstrapCI(NamedTuple):
    point_estimate: float
    lower: float
    upper: float
    resamples: int
    seed: int
    alpha: float
    z0: float
    acceleration: float
    degenerate: bool = False


def _index_blocks(n: int, rng: random.Random) -> Iterator[bytes | list[int]]:
    """Indices drawn uniformly from ``range(n)``, without end: the accepted
    candidates of each block of ``BLOCK_WORDS`` generator words in turn."""
    fold = bytes(b % n for b in range(256))
    reject = bytes(range(256 - 256 % n, 256))
    limit = 2 ** 32 - 2 ** 32 % n
    while True:
        raw = rng.getrandbits(32 * BLOCK_WORDS).to_bytes(4 * BLOCK_WORDS, "little")
        yield (raw.translate(fold, reject) if n <= 256
               else [w % n for w in struct.unpack(f"<{BLOCK_WORDS}I", raw) if w < limit])


def _bca_level(z: float, z0: float, accel: float) -> float:
    """The BCa-adjusted level of normal quantile ``z``. Past the pole, where
    ``1 - accel * (z0 + z) <= 0``, the formula wraps round, so take its limit
    at the pole instead: 1 for accel > 0, 0 for accel < 0."""
    denom = 1.0 - accel * (z0 + z)
    if denom <= 0.0:
        return 1.0 if accel > 0.0 else 0.0
    return normal_cdf(z0 + (z0 + z) / denom)


def bootstrap_bca(s: PairedSample, config: BatteryConfig = BatteryConfig()) -> BootstrapCI:
    """BCa interval for the mean of n >= 3 paired differences, drawn with
    the config's B resamples, alpha and seed.

    z0 comes from the fraction of bootstrap means strictly below the
    observed mean (clamped away from 0 and 1 by half a resample weight),
    the acceleration from jackknife-mean skewness.
    """
    resamples, alpha, seed = config

    diffs = s.diffs
    n = len(diffs)
    # fsum is correctly rounded, so a resample that permutes the sample
    # has exactly this mean and the z0 count below cannot depend on order
    total = math.fsum(diffs)
    theta = total / n
    if all(d == diffs[0] for d in diffs):
        return BootstrapCI(point_estimate=theta, lower=theta, upper=theta,
                           resamples=resamples, seed=seed, alpha=alpha,
                           z0=0.0, acceleration=0.0, degenerate=True)

    # picks stream into the means, so memory is O(resamples); a list's
    # __getitem__ is a method wrapper, a tuple's a slower slot wrapper
    picks = map(list(diffs).__getitem__,
                chain.from_iterable(_index_blocks(n, random.Random(seed))))
    sums = map(math.fsum, islice(zip(*[picks] * n), resamples))
    boot = sorted([row_sum / n for row_sum in sums])

    frac = bisect_left(boot, theta) / resamples  # share of means below theta
    frac = min(max(frac, 0.5 / resamples), 1.0 - 0.5 / resamples)
    z0 = normal_ppf(frac)

    jack = [(total - d) / (n - 1) for d in diffs]  # leave-one-out means
    jack_mean = math.fsum(jack) / n
    resid = [jack_mean - j for j in jack]
    denom = math.fsum(r * r for r in resid) ** 1.5
    accel = math.fsum(r ** 3 for r in resid) / (6.0 * denom) if denom > 0.0 else 0.0

    z_lo = normal_ppf(alpha / 2.0)
    z_hi = normal_ppf(1.0 - alpha / 2.0)
    lower = quantile_sorted(boot, _bca_level(z_lo, z0, accel))
    upper = quantile_sorted(boot, _bca_level(z_hi, z0, accel))
    # a resample of n equal picks d has mean fsum(n * [d]) / n, which can
    # round one ulp past d, so a bound can fall just outside the sample
    lo, hi = min(diffs), max(diffs)
    lower, upper = min(max(lower, lo), hi), min(max(upper, lo), hi)
    return BootstrapCI(point_estimate=theta, lower=lower, upper=upper,
                       resamples=resamples, seed=seed, alpha=alpha,
                       z0=z0, acceleration=accel, degenerate=False)
