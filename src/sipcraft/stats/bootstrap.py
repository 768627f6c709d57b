"""Bias-corrected and accelerated (BCa) bootstrap for the mean difference.

One stdlib generator, ``random.Random(seed)``, draws the resamples. Its
MT19937 outputs are read as unsigned 32-bit words in order; a word w below
``2**32 - 2**32 % n`` picks ``diffs[w % n]`` and any other word is skipped,
so every index is exactly uniform. Resample r is picks [r*n, (r+1)*n) and
its mean is ``fsum(picks) / n``. The interval is therefore a pure function
of the sample, B, alpha and the seed. Efron (1987) describes the BCa method.

For n <= 64 the residues come from byte operations instead of a loop over
words: byte k of a word contributes ``(b << 8k) % n``, looked up with
``bytes.translate``; the four lane sums, at most 4(n - 1) <= 252, add as
big integers without a carry crossing into the next word, and one more
table folds each sum below n. Larger samples take the word loop."""

from __future__ import annotations

import math
import random
import sys
from array import array
from bisect import bisect_left
from typing import NamedTuple, Sequence

from ..errors import InsufficientDataError
from .paired import PairedSample
from .special import normal_cdf, normal_ppf, quantile_sorted

__all__ = ["BootstrapCI", "bootstrap_bca"]

MIN_RESAMPLES = 1000
# at or below 2**-53, 1 - alpha/2 rounds to 1 and the upper z is infinite
MIN_ALPHA = 2.0 ** -53
# one getrandbits call draws 32 bits per pick and takes at most 2**31 - 1 bits
MAX_PICKS = (2 ** 31 - 1) // 32

_WORDS = 1 << 32
_WORD_TYPECODE = next(c for c in "IL" if array(c).itemsize == 4)
_LANE_MAX_N = 64  # largest n whose four byte-lane residues sum below 256


def check_alpha(alpha: float) -> None:
    if not MIN_ALPHA < alpha < 1.0:
        raise ValueError(f"alpha must be in (2**-53, 1), got {alpha}")


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


def _accept_limit(n: int) -> int:
    """Largest multiple of n that fits in a word: w < limit keeps w % n uniform."""
    return _WORDS - _WORDS % n


def _rejected(raw: bytes, limit: int) -> list[int]:
    """Positions of the little-endian words in ``raw`` at or above ``limit``.

    Needs ``limit > 2**32 - 256``: a rejected word then has bytes 1-3 all
    0xff, so only a run of three 0xff starting at offset 1 mod 4 can mark
    one, and its low byte decides.
    """
    if limit == _WORDS:
        return []
    low = limit & 0xFF
    found = []
    pos = raw.find(b"\xff\xff\xff")
    while pos >= 0:
        if pos % 4 == 1 and raw[pos - 1] >= low:
            found.append(pos // 4)
        pos = raw.find(b"\xff\xff\xff", pos + 1)
    return found


def _draw(diffs: Sequence[float], count: int, rng: random.Random) -> list[float]:
    """``count`` values drawn uniformly with replacement from ``diffs``.

    Each refill takes one ``getrandbits`` call for every pick still missing;
    word i of it is the i-th 32-bit output of the generator.
    """
    n = len(diffs)
    limit = _accept_limit(n)
    if n > _LANE_MAX_N:
        picks: list[float] = []
        while len(picks) < count:
            need = count - len(picks)
            words = array(_WORD_TYPECODE, rng.getrandbits(32 * need).to_bytes(4 * need, "little"))
            if sys.byteorder == "big":
                words.byteswap()
            picks += [diffs[w % n] for w in words if w < limit]
        return picks

    lanes = [bytes((b << 8 * k) % n for b in range(256)) for k in range(4)]
    fold = bytes(v % n for v in range(256))
    idx = bytearray()
    while len(idx) < count:
        need = count - len(idx)
        raw = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        lane_sum = sum(int.from_bytes(raw[k::4].translate(lanes[k]), "little") for k in range(4))
        got = bytearray(lane_sum.to_bytes(need, "little").translate(fold))
        for i in reversed(_rejected(raw, limit)):
            del got[i]
        idx += got
    return [diffs[i] for i in idx]


def bootstrap_bca(
    s: PairedSample,
    resamples: int = 10000,
    alpha: float = 0.05,
    seed: int = 42,
) -> BootstrapCI:
    """BCa interval for the mean of the paired differences.

    z0 comes from the fraction of bootstrap means strictly below the
    observed mean (clamped away from 0 and 1 by half a resample weight),
    the acceleration from jackknife-mean skewness.
    """
    if s.n < 3:
        raise InsufficientDataError(f"BCa bootstrap needs n >= 3, got n={s.n}")
    if resamples < MIN_RESAMPLES:
        raise ValueError(f"resamples must be >= {MIN_RESAMPLES}, got {resamples}")
    check_alpha(alpha)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if s.n * resamples > MAX_PICKS:
        raise ValueError(f"n * resamples must be <= {MAX_PICKS}, got {s.n} * {resamples}")

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

    picks = _draw(diffs, resamples * n, random.Random(seed))
    boot = sorted([row_sum / n for row_sum in map(math.fsum, zip(*[iter(picks)] * n))])

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
    q_lo = normal_cdf(z0 + (z0 + z_lo) / (1.0 - accel * (z0 + z_lo)))
    q_hi = normal_cdf(z0 + (z0 + z_hi) / (1.0 - accel * (z0 + z_hi)))

    lower = quantile_sorted(boot, q_lo)
    upper = quantile_sorted(boot, q_hi)
    return BootstrapCI(point_estimate=theta, lower=lower, upper=upper,
                       resamples=resamples, seed=seed, alpha=alpha,
                       z0=z0, acceleration=accel, degenerate=False)
