"""Paired-sample container, location tests, and effect sizes.

Every test is one-sided with the alternative "EXP outperforms FTD", i.e.
positive location of the differences exp - ftd. No function here checks
its sample: each takes what ``battery._not_applicable`` lets through.
Every statistic needs n >= 2 and a nonzero difference; the t-test and
Cohen's d also need two distinct differences, and Hedges' g needs n >= 3.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from .special import normal_cdf, student_t_sf

__all__ = [
    "PairedSample",
    "TestResult",
    "WilcoxonResult",
    "paired_t_one_tailed",
    "wilcoxon_signed_rank",
    "cohens_d",
    "hedges_g",
    "classify_effect",
    "WILCOXON_EXACT_LIMIT",
]

# beyond this many nonzero differences the exact null distribution is
# replaced by the tie-corrected normal approximation
WILCOXON_EXACT_LIMIT = 25


class PairedSample:
    """Aligned per-window CAGR vectors for the two strategies, of one
    nonzero length, as the engine builds them.

    Differences are always exp - ftd, computed from the stored vectors so
    they can never drift out of sync with them.
    """

    __slots__ = ("_exp", "_ftd", "_diffs")

    def __init__(self, exp_values: Iterable[float], ftd_values: Iterable[float]):
        exp = tuple(float(v) for v in exp_values)
        ftd = tuple(float(v) for v in ftd_values)
        self._exp = exp
        self._ftd = ftd
        self._diffs = tuple(e - f for e, f in zip(exp, ftd))

    @property
    def exp_values(self) -> tuple[float, ...]:
        return self._exp

    @property
    def ftd_values(self) -> tuple[float, ...]:
        return self._ftd

    @property
    def diffs(self) -> tuple[float, ...]:
        return self._diffs

    @property
    def n(self) -> int:
        return len(self._diffs)


class TestResult(NamedTuple):
    statistic: float
    p: float
    df: int


def _mean_sd(diffs: Sequence[float]) -> tuple[float, float]:
    """Mean and sample sd of ``diffs``, both multiplied by one power of two.

    Callers use only their ratio. The scale puts the largest |d| in
    [0.5, 1), so the squared deviations neither go subnormal nor overflow;
    a power of two is exact in the normal range, so the ratio is the
    unscaled one wherever that one lost nothing.
    """
    n = len(diffs)
    shift = -math.frexp(max(map(abs, diffs)))[1]
    diffs = [math.ldexp(d, shift) for d in diffs]
    mean = math.fsum(diffs) / n
    ss = math.fsum((d - mean) ** 2 for d in diffs)
    sd = math.sqrt(ss / (n - 1))  # sample standard deviation, n-1 denominator
    return mean, sd


def paired_t_one_tailed(s: PairedSample) -> TestResult:
    """One-tailed paired t-test; p is the upper tail at df = n - 1."""
    mean, sd = _mean_sd(s.diffs)
    t = mean / (sd / math.sqrt(s.n))
    return TestResult(statistic=t, p=student_t_sf(t, s.n - 1), df=s.n - 1)


def _doubled_signed_ranks(diffs: Sequence[float]) -> tuple[list[int], list[bool], int]:
    """Average ranks of |diffs| after dropping zeros, doubled to stay integer.

    Average ranks are half-integers at worst, so twice the rank is exact
    integer arithmetic; returns (doubled ranks, is_positive flags, the sum
    of t**3 - t over the groups of t tied |diffs|).
    """
    nonzero = [d for d in diffs if d != 0.0]
    order = sorted(range(len(nonzero)), key=lambda i: abs(nonzero[i]))
    doubled = [0] * len(nonzero)
    ties = 0
    i = 0
    while i < len(nonzero):
        j = i
        while j + 1 < len(nonzero) and abs(nonzero[order[j + 1]]) == abs(nonzero[order[i]]):
            j += 1
        # ranks i+1 .. j+1 share the average; doubled average = (i+1) + (j+1)
        for k in range(i, j + 1):
            doubled[order[k]] = i + j + 2
        ties += (j - i + 1) ** 3 - (j - i + 1)
        i = j + 1
    return doubled, [d > 0.0 for d in nonzero], ties


def _wilcoxon_exact_p(doubled_ranks: Sequence[int], doubled_w: int) -> float:
    """P(W+ >= w) by dynamic programming over the doubled-rank-sum distribution.

    Enumerates the null (all 2^n sign assignments equally likely) without
    materializing the subsets: counts[s] is the number of assignments whose
    positive doubled-rank sum equals s.
    """
    total = sum(doubled_ranks)
    counts = [0] * (total + 1)
    counts[0] = 1
    for r in doubled_ranks:
        for s in range(total - r, -1, -1):
            if counts[s]:
                counts[s + r] += counts[s]
    favorable = sum(counts[doubled_w:])
    return favorable / (1 << len(doubled_ranks))


class WilcoxonResult(NamedTuple):
    statistic: float  # W+
    p: float  # p_exact where there is one, else p_normal
    method: str  # "exact" or "normal_approx", naming the path of p
    p_exact: float | None  # None above WILCOXON_EXACT_LIMIT nonzero differences
    p_normal: float


def wilcoxon_signed_rank(s: PairedSample) -> WilcoxonResult:
    """One-sided Wilcoxon signed-rank test for median(diff) > 0.

    Zero differences are dropped before ranking; ties get average ranks.
    One ranking gives W+, the exact p by full null enumeration (up to
    WILCOXON_EXACT_LIMIT nonzero differences) and the continuity and tie
    corrected normal-approximation p. The headline p is the exact one where
    there is one; both paths are informative at these sample sizes, so an
    exact p keeps its normal approximation next to it.
    """
    doubled, positive, ties = _doubled_signed_ranks(s.diffs)
    n = len(doubled)
    doubled_w = sum(r for r, pos in zip(doubled, positive) if pos)
    w_plus = doubled_w / 2.0

    mean_w = n * (n + 1) / 4.0
    # ties <= n**3 - n, so var_w >= n(n+1)**2 / 16 > 0
    var_w = n * (n + 1) * (2 * n + 1) / 24.0 - ties / 48.0
    z = (w_plus - mean_w - 0.5) / math.sqrt(var_w)  # 0.5 = continuity correction
    p_normal = normal_cdf(-z)
    if n <= WILCOXON_EXACT_LIMIT:
        p_exact = _wilcoxon_exact_p(doubled, doubled_w)
        return WilcoxonResult(w_plus, p_exact, "exact", p_exact, p_normal)
    return WilcoxonResult(w_plus, p_normal, "normal_approx", None, p_normal)


def cohens_d(s: PairedSample) -> float:
    """Paired Cohen's d: mean of differences over their sample sd."""
    mean, sd = _mean_sd(s.diffs)
    return mean / sd


def hedges_g(d: float, n: int) -> tuple[float, float]:
    """Small-sample corrected effect sizes for n >= 3, where both
    denominators are positive; the standard and the paper's:

    standard: g = d * (1 - 3 / (4(n-1) - 1))
    paper:    g = d * (1 - 3 / (4n - 9))
    """
    return d * (1.0 - 3.0 / (4 * (n - 1) - 1)), d * (1.0 - 3.0 / (4 * n - 9))


def classify_effect(d: float) -> str:
    """Thresholds 0.2 / 0.5 / 0.8 on |d|; boundary values take the higher class."""
    a = abs(d)
    if a >= 0.8:
        return "large"
    if a >= 0.5:
        return "substantial"
    if a >= 0.2:
        return "meaningful"
    return "negligible"
