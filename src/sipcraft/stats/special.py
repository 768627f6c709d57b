"""Scalar distribution functions and the sample quantile behind the statistics.

Hand-built on the standard library so the statistical core carries no external
dependency. Each function states its domain and its accuracy against mpmath.
"""

from __future__ import annotations

import math

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# quantile_sorted's convention, as bundle provenance records it
QUANTILE_CONVENTION = "linear interpolation (type 7)"


def normal_cdf(x: float) -> float:
    """Standard normal CDF via erfc; a value in [0, 1] for every float, NaN for NaN.

    The absolute error was below 1.2e-16; the relative error grows in the lower
    tail to 2e-13 at x = -37.5, below which the result is subnormal, then 0.
    """
    return 0.5 * math.erfc(-x / _SQRT2)


# Acklam's rational minimax coefficients for the initial inverse-CDF guess.
_PPF_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
          1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_PPF_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
          6.680131188771972e+01, -1.328068155288572e+01)
_PPF_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
          -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_PPF_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
          3.754408661907416e+00)
_PPF_LOW = 0.02425


def normal_ppf(p: float) -> float:
    """Standard normal quantile on [0, 1]; Acklam's approximation plus one Halley step.

    It is ±inf at 0 and 1, finite between, and raises ValueError elsewhere. Above
    1 - 0.02425 it returns -normal_ppf(1 - p), where 1 - p is exact, so the Halley
    step never differences a CDF that rounds near 1. Against mpmath it was within 2
    ulps in both outer tails (subnormal p and 1 - 2^-53 included), 1.2e-15 between.
    """
    if math.isnan(p) or p < 0.0 or p > 1.0:
        raise ValueError(f"p must be in [0, 1], got {p!r}")
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    if p > 1.0 - _PPF_LOW:
        return -normal_ppf(1.0 - p)

    a, b, c, d = _PPF_A, _PPF_B, _PPF_C, _PPF_D
    if p < _PPF_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    else:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)

    if p < 2.0 ** -1022:  # Φ(x) is subnormal and exp(x²/2) overflows: a Newton step on log Φ
        r = 1.0 / (x * x)  # Φ(x) = φ(x) s / -x, s the Mills ratio series, cut below 2e-17
        s = 1 - r * (1 - 3 * r * (1 - 5 * r * (1 - 7 * r * (1 - 9 * r * (1 - 11 * r)))))
        return x + (-0.5 * x * x - math.log(p) - math.log(-x * _SQRT_2PI / s)) * s / x

    # Halley refinement against the erfc-based CDF lifts the ~1e-9 raw
    # approximation error to full double precision.
    err = normal_cdf(x) - p
    u = err * _SQRT_2PI * math.exp(0.5 * x * x)
    return x - u / (1.0 + 0.5 * x * u)


def student_t_sf(t: float, df: int) -> float:
    """Upper tail P(T > t) of Student's t with an integer ``df`` >= 1.

    A value in [0, 1] for every float t (NaN for NaN); any other df raises
    ValueError. Against mpmath the relative error was at most 2e-14 for
    df <= 200 and |t| <= 40 (p down to 1e-95), and 1.7e-12 for df <= 20000.

    With x = df/(df + t²) and y = t²/(df + t²), P(|T| < |t|) is a sum of
    df // 2 terms of the positive series of Abramowitz and Stegun (1964),
    26.7.3/26.7.4, whose full sum is 1. Where the tail is below 1/16 it is
    summed as that series' remainder, since 1 minus the head would cancel.
    The remainder takes about 37/y terms, at most about 15·df near the
    switch (|t| about 1.5). With CPython 3.11 on one x86 core a call took
    1-80 µs at df <= 21 (the paper's windows), up to 0.8 ms at df = 200 and
    2-70 ms at df = 20000. The remainder stops before its first subnormal
    term, which can round back to itself and never shrink, so a p below
    about 1e-290 loses relative accuracy.
    """
    if type(df) is not int or df < 1:
        raise ValueError(f"degrees of freedom must be a positive int, got {df!r}")
    if math.isnan(t):
        return math.nan
    tt = t * t
    if tt == math.inf:
        return 0.0 if t > 0 else 1.0
    x, y = df / (df + tt), tt / (df + tt)
    odd = df % 2
    # P(|T| < |t|) is scale times the sum of c_k x^k over k < df // 2, plus
    # 2θ/π for an odd df; c_0 = 1 and c_k+1 / c_k = (2k+1+odd) / (2k+2+odd)
    scale = 2.0 * math.sqrt(x * y) / math.pi if odd else math.sqrt(y)
    head, term = 0.0, 1.0
    for k in range(df // 2):
        head += term
        term *= x * (2 * k + 1 + odd) / (2 * k + 2 + odd)
    theta = math.atan2(abs(t), math.sqrt(df)) if odd else 0.0
    p_abs = 1.0 - 2.0 * theta / math.pi - scale * head  # P(|T| > |t|)
    if p_abs < 0.125:
        # what is left after a term is below term / y
        tail, k = 0.0, df // 2
        while term > 2.0 ** -54 * y * tail and term >= 2.0 ** -1022:
            tail += term
            term *= x * (2 * k + 1 + odd) / (2 * k + 2 + odd)
            k += 1
        p_abs = scale * tail
    return 0.5 * p_abs if t >= 0.0 else 1.0 - 0.5 * p_abs


def quantile_sorted(xs, q: float) -> float:
    """Type-7 quantile (Hyndman & Fan 1996) of the ascending sequence ``xs``.

    Defined for a non-empty ``xs`` and q in [0, 1]; any other q raises ValueError.
    Where xs[-1] - xs[0] is finite, the result lies in [xs[0], xs[-1]].

    Performs numpy's ``linear`` method operation for operation, so the result
    equals ``np.quantile(xs, q)`` bit for bit. Only the sign of a zero can
    differ, where numpy's partition reorders a run of tied -0.0 and 0.0.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q!r}")
    n = len(xs)
    v = (n - 1) * q
    if v >= n - 1:
        # numpy takes both neighbours from the last element with weight
        # v + 1, which turns a trailing -0.0 into +0.0 when n > 1
        lo, hi, g = -1, -1, v + 1
    else:
        lo = math.floor(v)
        hi, g = lo + 1, v - lo
    a, b = float(xs[lo]), float(xs[hi])
    d = b - a
    return b - d * (1 - g) if g >= 0.5 else a + d * g
