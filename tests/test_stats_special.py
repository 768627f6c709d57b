"""Accuracy of the hand-rolled distribution functions against frozen references.

The fixture values were tabulated at 30 significant digits (see
scripts/make_cdf_reference.py); the functions must agree to 1e-10. The
Student t tail is also held to a relative error bound against mpmath.
"""

import json
import math
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sipcraft.stats.special import (
    normal_cdf,
    normal_ppf,
    quantile_sorted,
    student_t_sf,
)

from conftest import FIXTURES

with open(FIXTURES / "cdf_reference.json") as fh:
    REFERENCE = json.load(fh)

TOL = 1e-10


@pytest.mark.parametrize("row", REFERENCE["normal_cdf"], ids=lambda r: r["x"])
def test_normal_cdf_reference(row):
    assert normal_cdf(float(row["x"])) == pytest.approx(float(row["value"]), abs=TOL)


@pytest.mark.parametrize("row", REFERENCE["student_t_sf"],
                         ids=lambda r: f"t={r['t']},df={r['df']}")
def test_student_t_sf_reference(row):
    got = student_t_sf(float(row["t"]), row["df"])
    assert got == pytest.approx(float(row["value"]), abs=TOL)


@pytest.mark.parametrize("row", REFERENCE["normal_ppf"], ids=lambda r: r["p"])
def test_normal_ppf_reference(row):
    assert normal_ppf(float(row["p"])) == pytest.approx(float(row["value"]), abs=1e-9)


@pytest.mark.parametrize("row", REFERENCE["normal_ppf"], ids=lambda r: r["p"])
def test_normal_ppf_within_its_stated_accuracy(row):
    # the docstring's bounds: 2 ulps in the outer tails, 1.2e-15 absolute between
    p, expected = float(row["p"]), float(row["value"])
    bound = 1.2e-15 if 0.02425 <= p <= 0.97575 else 2 * math.ulp(expected)
    assert abs(normal_ppf(p) - expected) <= bound


def test_reference_has_twenty_points_per_cdf():
    assert len(REFERENCE["normal_cdf"]) == 20
    assert len(REFERENCE["student_t_sf"]) == 20


def test_quantile_point_975():
    # the conventional 1.96 rounds the true quantile; at 6 decimals the cdf
    # is 0.975 only to ~1e-9, which the reference fixture resolves exactly
    assert normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-8)
    assert normal_ppf(0.975) == pytest.approx(1.959963984540054, abs=1e-9)


def test_normal_cdf_basics():
    assert normal_cdf(0.0) == 0.5
    assert normal_cdf(40.0) == 1.0
    assert normal_cdf(-40.0) == 0.0


@given(st.floats(min_value=-8.0, max_value=8.0, allow_nan=False))
def test_normal_cdf_symmetry(x):
    assert normal_cdf(-x) == pytest.approx(1.0 - normal_cdf(x), abs=1e-14)


@given(st.floats(min_value=-4.0, max_value=4.0, allow_nan=False))
def test_normal_ppf_round_trip(x):
    # beyond |x| ~ 4 the round trip is limited by the spacing of doubles
    # near cdf values of 1, not by the quantile routine itself
    assert normal_ppf(normal_cdf(x)) == pytest.approx(x, abs=1e-9)


@given(st.floats(min_value=1e-12, max_value=1.0 - 1e-12,
                 allow_nan=False, exclude_max=True))
def test_normal_ppf_forward_accuracy(p):
    assert normal_cdf(normal_ppf(p)) == pytest.approx(p, abs=1e-12)


def test_normal_ppf_domain():
    assert normal_ppf(0.0) == -math.inf
    assert normal_ppf(1.0) == math.inf
    for bad in (-0.1, 1.1, math.nan):
        with pytest.raises(ValueError):
            normal_ppf(bad)


@given(st.integers(min_value=1, max_value=100))
def test_student_t_sf_at_zero(df):
    assert student_t_sf(0.0, df) == pytest.approx(0.5, abs=1e-14)


@given(st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
       st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
       st.integers(min_value=1, max_value=50))
def test_student_t_sf_monotone_decreasing(t, step, df):
    assert student_t_sf(t + step, df) < student_t_sf(t, df)


def test_student_t_df_validation():
    # only an int df >= 1 has the finite series; a bool is not a count
    for df in (0, -3, 1.5, 2.0, True):
        with pytest.raises(ValueError):
            student_t_sf(1.0, df)


@pytest.mark.parametrize("df", [1, 2, 9, 21])
def test_student_t_sf_at_infinities_and_nan(df):
    assert student_t_sf(math.inf, df) == 0.0
    assert student_t_sf(-math.inf, df) == 1.0
    assert student_t_sf(1e200, df) == 0.0
    assert student_t_sf(-1e200, df) == 1.0
    assert math.isnan(student_t_sf(math.nan, df))


def test_student_t_sf_ends_where_the_series_goes_subnormal():
    # here the terms reach 2^-1074 while x times their ratio is above 1/2,
    # so a term rounds back to itself and a sum that waited for it to shrink
    # would run for about 2^54 passes; a fresh interpreter bounds the wait
    points = [(50.0, 5000), (-50.0, 5000), (40.0, 20000), (-40.0, 20000)]
    probe = ("from sipcraft.stats.special import student_t_sf\n"
             f"print([student_t_sf(t, df) for t, df in {points!r}])\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0.0, 1.0, 0.0, 1.0]"


def _t_grid(seed, n, df_lo, df_hi, t_max):
    rng = random.Random(seed)
    return [(rng.uniform(-t_max, t_max), rng.randint(df_lo, df_hi)) for _ in range(n)]


# each grid must reach p below `deepest`, where 1 minus the head sum cancels
@pytest.mark.parametrize("grid, bound, deepest", [
    (_t_grid(1, 1500, 1, 200, 40.0), 1e-13, 1e-50),
    # large df, and df = 20000 near the switch to the remainder (|t| ~ 1.5),
    # where a call sums the most terms
    (_t_grid(2, 40, 201, 20000, 12.0)
     + [(t, 20000) for t in (-12.0, -1.535, 0.3, 1.535, 1.6, 4.0, 12.0)], 1e-11, 1e-20),
], ids=["df<=200", "df<=20000"])
def test_student_t_sf_relative_error_against_mpmath(grid, bound, deepest):
    mpmath = pytest.importorskip("mpmath")
    worst, smallest = 0.0, 1.0
    with mpmath.workdps(50):
        for t, df in grid:
            x = mpmath.mpf(df) / (df + mpmath.mpf(t) ** 2)
            upper = mpmath.betainc(mpmath.mpf(df) / 2, 0.5, 0, x, regularized=True) / 2
            ref = upper if t >= 0 else 1 - upper
            worst = max(worst, float(abs(student_t_sf(t, df) - ref) / ref))
            smallest = min(smallest, float(ref))
    assert worst < bound
    assert smallest < deepest


# a few distinct values per sample, repeated, so most neighbours tie; both
# zeros and subnormals sit next to magnitudes from 1e-10 to 1e10
_ATOMS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-10, -1e-10, 1e10, -1e10]),
    st.floats(min_value=-1e10, max_value=1e10, allow_nan=False),
)


@st.composite
def _tie_heavy_sorted(draw):
    atoms = draw(st.lists(_ATOMS, min_size=1, max_size=6))
    return sorted(draw(st.lists(st.sampled_from(atoms), min_size=1, max_size=40)))


@settings(max_examples=500)
@given(_tie_heavy_sorted(),
       st.one_of(st.sampled_from([0.0, 1.0, 0.25, 0.5, 0.75, 0.025, 0.975]),
                 st.floats(min_value=0.0, max_value=1.0)))
def test_quantile_sorted_matches_numpy(xs, q):
    got = quantile_sorted(xs, q)
    expected = float(np.quantile(np.asarray(xs), q))
    assert got == expected
    # hex() tells -0.0 from 0.0. numpy's partition may reorder a run of tied
    # -0.0 and 0.0, so the sign is pinned where the sample has one kind of zero
    if len({math.copysign(1.0, x) for x in xs if x == 0.0}) <= 1:
        assert got.hex() == expected.hex()


# float extremes: both zeros, subnormals, the smallest normal, ±max, ±inf,
# NaN, the float just below 1 and a few ordinary values
_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.0 ** -1022, -(2.0 ** -1022),
             1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan,
             1 - 2.0 ** -53, 0.5, -1.0, 1.0, 2.0, 40.0, -40.0]


def _in_range_or_value_error(call, *args, lo=0.0, hi=1.0, nan=False):
    """The call's float result lies in [lo, hi], or is NaN where ``nan`` allows
    it; or the call raises ValueError. Any other exception fails the test."""
    try:
        got = call(*args)
    except ValueError:
        return None
    assert type(got) is float, (call.__name__, args, got)
    assert lo <= got <= hi or (nan and math.isnan(got)), (call.__name__, args, got)
    return got


def test_special_functions_hold_their_domains_on_float_extremes():
    rng = random.Random(31)
    dfs = [1, 2, 3, 2000, 20000] + [rng.randint(1, 2000) for _ in range(20)]
    for x in _EXTREMES:
        # both are total on the floats
        assert _in_range_or_value_error(normal_cdf, x, nan=math.isnan(x)) is not None
        got = _in_range_or_value_error(normal_ppf, x, lo=-math.inf, hi=math.inf)
        if 0.0 < x < 1.0:
            assert math.isfinite(got), x
        elif x in (0.0, 1.0):
            assert got == math.copysign(math.inf, x - 0.5), x
        else:
            assert got is None, x
        for df in dfs:
            assert _in_range_or_value_error(student_t_sf, x, df, nan=math.isnan(x)) is not None
    # a NaN sample is not ascending, so NaN goes in as q only
    ordered = [x for x in _EXTREMES if not math.isnan(x)]
    for _ in range(2000):
        xs = sorted(rng.choices(ordered, k=rng.randint(1, 6)))
        q = rng.choice(_EXTREMES)
        if math.isfinite(xs[-1] - xs[0]):
            got = _in_range_or_value_error(quantile_sorted, xs, q, lo=xs[0], hi=xs[-1])
        else:
            got = _in_range_or_value_error(quantile_sorted, xs, q, lo=-math.inf, hi=math.inf,
                                           nan=True)
        assert (got is None) == (not 0.0 <= q <= 1.0), (xs, q)


def test_quantile_sorted_domain():
    for bad in (-0.1, 1.1, math.nan):
        with pytest.raises(ValueError):
            quantile_sorted([1.0, 2.0], bad)
