"""The two-sample KS statistic and empirical dominance verdicts.

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
    "KsResult",
    "ks_two_sample",
    "DominanceSide",
    "check_fsd",
    "check_ssd",
]


class DominanceSide(Enum):
    EXP = "exp_dominates"
    FTD = "ftd_dominates"
    NONE = "none"


@dataclass(frozen=True)
class KsResult:
    statistic: float
    p_value: float


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> KsResult:
    """Two-sample KS distance with an asymptotic tail probability.

    D is the two-sided supremum of |F_a - F_b| over the pooled support. The
    p-value is the single-term asymptotic tail exp(-2 * lam^2) evaluated at
    lam = (sqrt(ne) + 0.12 + 0.11/sqrt(ne)) * D with effective size
    ne = n_a*n_b/(n_a+n_b); the finite-size factor is Stephens'.
    """
    if len(a) == 0 or len(b) == 0:
        raise InsufficientDataError("ks_two_sample needs two non-empty samples")
    sa = sorted(float(v) for v in a)
    sb = sorted(float(v) for v in b)
    d = max(abs(bisect_right(sa, x) / len(sa) - bisect_right(sb, x) / len(sb))
            for x in set(sa) | set(sb))
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
