"""The two-sample KS statistic and empirical dominance verdicts.

Dominance here is the empirical, descriptive notion: pointwise ordering of
the two ECDFs (first order) or of their running integrals (second order)
over the pooled support. No asymptotic dominance inference is attempted at
these sample sizes.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import NamedTuple

from .paired import PairedSample


class KsResult(NamedTuple):
    statistic: float
    p: float


def ks_two_sample(s: PairedSample) -> KsResult:
    """Two-sample KS distance with an asymptotic tail probability.

    D is the largest integer gap n * |F_ftd - F_exp| over the pooled support
    (the gaps the dominance checks read) over n, so it is k/n correctly
    rounded. The p-value is the single-term asymptotic tail exp(-2 * lam^2)
    at lam = (sqrt(ne) + 0.12 + 0.11/sqrt(ne)) * D with effective size
    ne = n*n/(n+n) = n/2; the finite-size factor is Stephens'.
    """
    d = max(map(abs, _pooled_gaps(s)[1])) / s.n
    ne = s.n / 2
    lam = (math.sqrt(ne) + 0.12 + 0.11 / math.sqrt(ne)) * d
    p = min(1.0, math.exp(-2.0 * lam * lam))
    return KsResult(statistic=d, p=p)


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


def _side(values: list[int]) -> str:
    """Verdict "exp_dominates" if no value is negative and one is positive,
    "ftd_dominates" if the reverse, else (an empty list included) "none"."""
    if all(v >= 0 for v in values) and any(v > 0 for v in values):
        return "exp_dominates"
    if all(v <= 0 for v in values) and any(v < 0 for v in values):
        return "ftd_dominates"
    return "none"


def check_fsd(s: PairedSample) -> str:
    """First-order verdict: one ECDF never above the other, strictly below somewhere."""
    # gap > 0 means F_exp < F_ftd at that point, i.e. EXP mass sits higher
    return _side(_pooled_gaps(s)[1])


def check_ssd(s: PairedSample) -> str:
    """Second-order verdict via exact step-function integration.

    Integrates the ECDF gap over the pooled support. The integrand is
    constant between support points, and every float is an integer over a
    power of two, so scaling the support by the largest such denominator
    makes it exact integers and the running integral exact integer
    arithmetic: no rounding and no grid discretization can flip a sign.
    Accumulating the gap directly, rather than two separate integrals,
    keeps every term of a first-order-dominant sample non-negative, which
    makes the FSD => SSD implication structural.
    """
    grid, gaps = _pooled_gaps(s)
    ratios = [x.as_integer_ratio() for x in grid]
    scale = max(den for _, den in ratios)
    ticks = [num * (scale // den) for num, den in ratios]  # grid[i] * scale, exactly
    running = 0
    integrals = []  # n * scale * integral of (F_ftd - F_exp) up to each support point
    for i in range(1, len(grid)):
        running += gaps[i - 1] * (ticks[i] - ticks[i - 1])
        integrals.append(running)
    # a single pooled point (identical constant samples) leaves no integral: "none"
    return _side(integrals)
