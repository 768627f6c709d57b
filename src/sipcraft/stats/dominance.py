"""ECDFs, the two-sample KS statistic, and empirical dominance verdicts.

Dominance here is the empirical, descriptive notion: pointwise ordering of
the two ECDFs (first order) or of their running integrals (second order)
over the pooled support. No asymptotic dominance inference is attempted at
these sample sizes.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from ..errors import InsufficientDataError
from .paired import PairedSample

__all__ = [
    "Ecdf",
    "ecdf",
    "KsResult",
    "ks_two_sample",
    "DominanceSide",
    "DominanceVerdict",
    "check_fsd",
    "check_ssd",
]


class DominanceSide(Enum):
    EXP = "exp_dominates"
    FTD = "ftd_dominates"
    NONE = "none"


@dataclass(frozen=True)
class Ecdf:
    """Right-continuous step function: F(x) = (#values <= x) / n."""

    support: tuple[float, ...]
    probs: tuple[float, ...]

    def __call__(self, x: float) -> float:
        idx = bisect_right(self.support, x)
        return 0.0 if idx == 0 else self.probs[idx - 1]


def ecdf(values: Sequence[float]) -> Ecdf:
    if len(values) == 0:
        raise InsufficientDataError("ecdf needs a non-empty sample")
    n = len(values)
    ordered = sorted(float(v) for v in values)
    support: list[float] = []
    probs: list[float] = []
    for i, v in enumerate(ordered):
        if i + 1 < n and ordered[i + 1] == v:
            continue  # collapse tied values into one step
        support.append(v)
        probs.append((i + 1) / n)
    return Ecdf(tuple(support), tuple(probs))


@dataclass(frozen=True)
class KsResult:
    statistic: float
    p_value: float


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> KsResult:
    """Two-sample KS distance with an asymptotic tail probability.

    D is the two-sided supremum of |F_a - F_b| over the pooled support. The
    p-value is the single-term asymptotic tail exp(-2 * lam^2) evaluated at
    lam = (sqrt(ne) + 0.12 + 0.11/sqrt(ne)) * D with effective size
    ne = n_a*n_b/(n_a+n_b); the finite-size factor is Stephens'. The full
    alternating Kolmogorov series is available as special.kolmogorov_sf.
    """
    if len(a) == 0 or len(b) == 0:
        raise InsufficientDataError("ks_two_sample needs two non-empty samples")
    fa = ecdf(a)
    fb = ecdf(b)
    grid = sorted(set(fa.support) | set(fb.support))
    d = max(abs(fa(x) - fb(x)) for x in grid)
    ne = len(a) * len(b) / (len(a) + len(b))
    lam = (math.sqrt(ne) + 0.12 + 0.11 / math.sqrt(ne)) * d
    p = min(1.0, math.exp(-2.0 * lam * lam))
    return KsResult(statistic=d, p_value=p)


def _pooled_gaps(s: PairedSample) -> tuple[list[float], list[int]]:
    """Pooled support and per-point gaps n * (F_ftd(x) - F_exp(x)).

    The gaps are exact integers, so a nonzero gap times a positive interval
    width never underflows to zero, however narrow the interval.
    """
    exp = sorted(s.exp_values)
    ftd = sorted(s.ftd_values)
    grid = sorted(set(exp) | set(ftd))
    gaps = [bisect_right(ftd, x) - bisect_right(exp, x) for x in grid]
    return grid, gaps


def _require_pairs(s: PairedSample, what: str) -> None:
    if s.n < 2:
        raise InsufficientDataError(f"{what} needs at least 2 pairs, got n={s.n}")


def check_fsd(s: PairedSample) -> DominanceSide:
    """First-order verdict: one ECDF never above the other, strictly below somewhere."""
    _require_pairs(s, "check_fsd")
    _, gaps = _pooled_gaps(s)
    # gap > 0 means F_exp < F_ftd at that point, i.e. EXP mass sits higher
    if all(g >= 0 for g in gaps) and any(g > 0 for g in gaps):
        return DominanceSide.EXP
    if all(g <= 0 for g in gaps) and any(g < 0 for g in gaps):
        return DominanceSide.FTD
    return DominanceSide.NONE


def check_ssd(s: PairedSample) -> DominanceSide:
    """Second-order verdict via exact step-function integration.

    Integrates the ECDF gap over the pooled support (the integrand is
    constant between support points, so the accumulation is exact up to
    float rounding and uses no grid discretization). Accumulating the gap
    directly, rather than two separate integrals, keeps every term of a
    first-order-dominant sample non-negative, which makes the FSD => SSD
    implication structural.
    """
    _require_pairs(s, "check_ssd")
    grid, gaps = _pooled_gaps(s)
    running = 0.0
    integrals = []  # n * integral of (F_ftd - F_exp) up to each support point
    for i in range(1, len(grid)):
        running += gaps[i - 1] * (grid[i] - grid[i - 1])
        integrals.append(running)
    if not integrals:  # single pooled point: identical constant samples
        return DominanceSide.NONE
    if all(v >= 0.0 for v in integrals) and any(v > 0.0 for v in integrals):
        return DominanceSide.EXP
    if all(v <= 0.0 for v in integrals) and any(v < 0.0 for v in integrals):
        return DominanceSide.FTD
    return DominanceSide.NONE


@dataclass(frozen=True)
class DominanceVerdict:
    fsd: DominanceSide
    ssd: DominanceSide
    ks_statistic: float
    ks_p: float

    def __post_init__(self) -> None:
        # first-order dominance implies second-order dominance
        if self.fsd is not DominanceSide.NONE and self.ssd is not self.fsd:
            raise ValueError(f"inconsistent verdict: fsd={self.fsd.value} but ssd={self.ssd.value}")
