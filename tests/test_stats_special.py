"""Accuracy of the hand-rolled distribution functions against frozen references.

The fixture values were tabulated at 30 significant digits (see
scripts/make_cdf_reference.py); the functions must agree to 1e-10.
"""

import json
import math

import pytest
from hypothesis import given, strategies as st

from sipcraft.stats.special import normal_cdf, normal_ppf, normal_sf, student_t_sf

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
    assert normal_sf(0.0) == 0.5
    assert normal_cdf(40.0) == 1.0
    assert normal_cdf(-40.0) == 0.0


@given(st.floats(min_value=-8.0, max_value=8.0, allow_nan=False))
def test_normal_cdf_symmetry(x):
    assert normal_cdf(-x) == pytest.approx(1.0 - normal_cdf(x), abs=1e-14)
    assert normal_sf(x) == pytest.approx(normal_cdf(-x), abs=1e-14)


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
    with pytest.raises(ValueError):
        student_t_sf(1.0, 0)
    with pytest.raises(ValueError):
        student_t_sf(1.0, -3)
