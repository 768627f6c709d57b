"""Paired tests, effect sizes, bootstrap, dominance checks, and the battery."""

import importlib.util
import itertools
import json
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from sipcraft.errors import DegenerateSampleError, InsufficientDataError
from sipcraft.stats import (
    BatteryConfig,
    DominanceSide,
    PairedSample,
    bootstrap_bca,
    check_fsd,
    check_ssd,
    classify_effect,
    cohens_d,
    hedges_g,
    ks_two_sample,
    paired_t_one_tailed,
    run_battery,
    wilcoxon_signed_rank,
)

diff_lists = st.lists(
    st.floats(min_value=-100.0, max_value=100.0,
              allow_nan=False, allow_infinity=False),
    min_size=2, max_size=30)


def sample_from_diffs(diffs):
    return PairedSample([d for d in diffs], [0.0] * len(diffs))


# ---------------------------------------------------------------- PairedSample

def test_paired_sample_validation():
    with pytest.raises(ValueError):
        PairedSample([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        PairedSample([], [])
    s = PairedSample([3.0, 4.0], [1.0, 1.5])
    assert s.n == 2
    assert s.diffs == (2.0, 2.5)


# ------------------------------------------------------------------- paired t

def test_t_symmetric_sample():
    r = paired_t_one_tailed(sample_from_diffs([1.0, -1.0]))
    assert r.statistic == 0.0
    assert r.p_value == pytest.approx(0.5, abs=1e-12)
    assert r.df == 1


def test_t_three_year_column(three_year_sample):
    r = paired_t_one_tailed(three_year_sample)
    assert round(r.statistic, 3) == pytest.approx(2.833, abs=0.005)
    assert r.p_value == pytest.approx(0.0149, abs=0.0005)
    assert r.df == 6


def test_t_errors():
    with pytest.raises(InsufficientDataError):
        paired_t_one_tailed(sample_from_diffs([1.0]))
    with pytest.raises(DegenerateSampleError):
        paired_t_one_tailed(sample_from_diffs([2.0, 2.0, 2.0]))


@given(diff_lists)
def test_t_sign_matches_mean(diffs):
    s = sample_from_diffs(diffs)
    try:
        r = paired_t_one_tailed(s)
    except DegenerateSampleError:
        return
    mean = sum(diffs) / len(diffs)
    assert math.copysign(1.0, r.statistic) == math.copysign(1.0, mean) or mean == 0.0


def test_t_p_decreasing_in_statistic():
    from sipcraft.stats.special import student_t_sf
    grid = [student_t_sf(t / 4.0, 9) for t in range(-20, 21)]
    assert all(a > b for a, b in zip(grid, grid[1:]))


# ------------------------------------------------------------------- wilcoxon

def test_wilcoxon_five_year_exact(five_year_sample):
    r = wilcoxon_signed_rank(five_year_sample)
    assert r.method == "exact"
    assert r.p_value == 1.0 / 16.0


def test_wilcoxon_three_year_exact(three_year_sample):
    r = wilcoxon_signed_rank(three_year_sample)
    assert r.method == "exact"
    assert r.p_value == 3.0 / 128.0


def test_wilcoxon_one_year_both_paths(one_year_sample):
    exact = wilcoxon_signed_rank(one_year_sample, mode="exact")
    approx = wilcoxon_signed_rank(one_year_sample, mode="normal_approx")
    assert approx.p_value == pytest.approx(0.0035, abs=0.0005)
    assert exact.p_value == pytest.approx(0.00257468, abs=1e-6)
    auto = wilcoxon_signed_rank(one_year_sample, mode="auto")
    assert auto.method == "exact"
    assert auto.p_value == exact.p_value


def test_wilcoxon_drops_zero_diffs():
    r = wilcoxon_signed_rank(sample_from_diffs([0.0, 0.0, 1.0, 2.0]))
    assert r.p_value == wilcoxon_signed_rank(sample_from_diffs([1.0, 2.0])).p_value


def test_wilcoxon_all_zero_degenerate():
    with pytest.raises(DegenerateSampleError):
        wilcoxon_signed_rank(sample_from_diffs([0.0, 0.0]))


def test_wilcoxon_mode_validation():
    with pytest.raises(ValueError):
        wilcoxon_signed_rank(sample_from_diffs([1.0, 2.0]), mode="bogus")


def brute_force_wilcoxon_p(diffs):
    """Independent oracle: enumerate all sign assignments directly."""
    nonzero = [d for d in diffs if d != 0.0]
    n = len(nonzero)
    # average ranks over |diffs| as doubled integers to stay exact
    order = sorted(range(n), key=lambda i: abs(nonzero[i]))
    doubled = [0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and abs(nonzero[order[j + 1]]) == abs(nonzero[order[i]]):
            j += 1
        for k in range(i, j + 1):
            doubled[order[k]] = i + j + 2  # 2 * average of ranks i+1..j+1
        i = j + 1
    observed = sum(r for r, d in zip(doubled, nonzero) if d > 0.0)
    favorable = 0
    for signs in itertools.product((False, True), repeat=n):
        w = sum(r for r, pos in zip(doubled, signs) if pos)
        if w >= observed:
            favorable += 1
    return favorable / 2.0 ** n


def test_wilcoxon_exact_matches_brute_force():
    rng = random.Random(1729)
    for _ in range(120):
        n = rng.randint(1, 10)
        diffs = [round(rng.uniform(-3, 3), 1) for _ in range(n)]
        if all(d == 0.0 for d in diffs):
            diffs[0] = 1.0
        got = wilcoxon_signed_rank(sample_from_diffs(diffs), mode="exact").p_value
        assert got == brute_force_wilcoxon_p(diffs), diffs


# --------------------------------------------------------------- effect sizes

def test_cohens_d_examples(one_year_sample, three_year_sample):
    assert cohens_d(one_year_sample) == pytest.approx(0.697, abs=0.003)
    assert cohens_d(three_year_sample) == pytest.approx(1.071, abs=0.005)
    assert cohens_d(sample_from_diffs([-1.0, 1.0])) == 0.0


def test_cohens_d_errors():
    with pytest.raises(InsufficientDataError):
        cohens_d(sample_from_diffs([1.0]))
    with pytest.raises(DegenerateSampleError):
        cohens_d(sample_from_diffs([1.0, 1.0]))


def test_hedges_g_variants():
    assert hedges_g(1.071, 7, "paper_compat") == pytest.approx(1.071 * (1 - 3 / 19), abs=1e-12)
    assert round(hedges_g(1.071, 7, "paper_compat"), 3) == 0.902
    assert round(hedges_g(4.069, 4, "paper_compat"), 3) == 2.325
    assert hedges_g(0.0, 10, "standard") == 0.0
    assert hedges_g(0.0, 10, "paper_compat") == 0.0
    # standard correction uses 4(n-1) - 1 in the denominator
    assert hedges_g(1.0, 7, "standard") == pytest.approx(1 - 3 / 23, abs=1e-12)


def test_hedges_g_validation():
    with pytest.raises(ValueError):
        hedges_g(1.0, 7, "bogus")
    with pytest.raises(InsufficientDataError):
        hedges_g(1.0, 2, "paper_compat")
    with pytest.raises(InsufficientDataError):
        hedges_g(1.0, 2, "standard")


def test_classify_effect_boundaries():
    assert classify_effect(0.19) == "negligible"
    assert classify_effect(0.2) == "meaningful"
    assert classify_effect(0.49) == "meaningful"
    assert classify_effect(0.5) == "substantial"
    assert classify_effect(0.697) == "substantial"
    assert classify_effect(0.8) == "large"
    assert classify_effect(4.069) == "large"
    assert classify_effect(-0.6) == "substantial"  # classification is by |d|
    assert classify_effect(0.0) == "negligible"


@given(st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
       st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
def test_classify_effect_monotone(a, b):
    order = ["negligible", "meaningful", "substantial", "large"]
    lo, hi = sorted((a, b))
    assert order.index(classify_effect(lo)) <= order.index(classify_effect(hi))


# ------------------------------------------------------------------ bootstrap

def test_bootstrap_degenerate_sample():
    ci = bootstrap_bca(sample_from_diffs([2.5] * 5))
    assert ci.degenerate
    assert ci.lower == ci.upper == ci.point_estimate == 2.5


def test_bootstrap_seed_determinism(three_year_sample):
    a = bootstrap_bca(three_year_sample, resamples=2000, seed=7)
    b = bootstrap_bca(three_year_sample, resamples=2000, seed=7)
    assert (a.lower, a.upper) == (b.lower, b.upper)
    c = bootstrap_bca(three_year_sample, resamples=2000, seed=8)
    assert (a.lower, a.upper) != (c.lower, c.upper)


def test_bootstrap_forced_percentile_equality():
    import numpy as np

    diffs = [-3.0, -1.0, -0.5, 0.5, 1.0, 3.0]
    s = sample_from_diffs(diffs)
    ci = bootstrap_bca(s, resamples=2000, seed=5, z0_override=0.0, accel_override=0.0)
    idx = np.random.default_rng(5).integers(0, s.n, size=(2000, s.n))
    boot = np.asarray(diffs)[idx].mean(axis=1)
    lo, hi = np.quantile(boot, [0.025, 0.975])
    assert ci.lower == lo
    assert ci.upper == hi


def test_bootstrap_validation(three_year_sample):
    with pytest.raises(InsufficientDataError):
        bootstrap_bca(sample_from_diffs([1.0, 2.0]))
    with pytest.raises(ValueError):
        bootstrap_bca(three_year_sample, resamples=10)
    with pytest.raises(ValueError):
        bootstrap_bca(three_year_sample, alpha=0.0)
    with pytest.raises(ValueError):
        bootstrap_bca(three_year_sample, alpha=1.0)
    with pytest.raises(ValueError):
        bootstrap_bca(three_year_sample, seed=-1)


def test_bootstrap_brackets_point_estimate(three_year_sample):
    ci = bootstrap_bca(three_year_sample)
    assert ci.lower <= ci.point_estimate <= ci.upper
    assert ci.resamples == 10000
    assert ci.alpha == 0.05


def test_bootstrap_matches_scipy_bca(one_year_sample, three_year_sample):
    # independent oracle: scipy's BCa on its own stream (seed 0, not ours),
    # so the two intervals agree only to Monte Carlo error at B=10000
    import numpy as np
    stats = pytest.importorskip("scipy.stats")

    gen = np.random.default_rng(2024)
    samples = [one_year_sample.diffs, three_year_sample.diffs]
    for _ in range(20):
        n = int(gen.integers(7, 31))  # at n < 7 ties and scipy's mid-rank z0 dominate
        samples.append(tuple(gen.normal(0.5, 1.0, size=n).tolist()))

    for diffs in samples:
        ci = bootstrap_bca(sample_from_diffs(diffs), resamples=10000)
        ref = stats.bootstrap((np.asarray(diffs),), np.mean, n_resamples=10000,
                              method="BCa", rng=np.random.default_rng(0)).confidence_interval
        tol = 0.03 * (max(diffs) - min(diffs))
        assert abs(ci.lower - ref.low) <= tol, (len(diffs), ci.lower, ref.low)
        assert abs(ci.upper - ref.high) <= tol, (len(diffs), ci.upper, ref.high)


# ------------------------------------------------------------------------- ks

def test_ks_identical_samples():
    r = ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert r.statistic == 0.0
    assert r.p_value == 1.0


def test_ks_disjoint_supports():
    r = ks_two_sample([0.0, 0.0], [1.0, 1.0])
    assert r.statistic == 1.0
    assert r.p_value < 0.5


def test_ks_published_values(one_year_sample, three_year_sample, five_year_sample):
    for s, want in ((one_year_sample, 0.6391),
                    (three_year_sample, 0.8424),
                    (five_year_sample, 0.7227)):
        r = ks_two_sample(s.exp_values, s.ftd_values)
        assert r.p_value == pytest.approx(want, abs=0.02)


def test_ks_empty_input():
    with pytest.raises(InsufficientDataError):
        ks_two_sample([], [1.0])


tie_heavy = st.lists(st.sampled_from((-2.5, -1.0, 0.0, 0.5, 1.0, 3.0)), min_size=1, max_size=30)


@pytest.mark.skipif(importlib.util.find_spec("scipy") is None, reason="scipy is the oracle")
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # scipy's p-value at n=1; unused here
@settings(max_examples=300, deadline=None)
@given(tie_heavy, tie_heavy)
def test_ks_statistic_matches_scipy(a, b):
    from scipy.stats import ks_2samp

    want = ks_2samp(a, b, method="asymp").statistic
    assert ks_two_sample(a, b).statistic == pytest.approx(want, abs=1e-12)


# ------------------------------------------------------------------ dominance

def test_fsd_shift_dominance():
    a = [1.0, 2.0, 5.0]
    b = [x + 1.0 for x in a]
    s = PairedSample(b, a)  # exp shifted up
    assert check_fsd(s) is DominanceSide.EXP
    assert check_ssd(s) is DominanceSide.EXP
    flipped = PairedSample(a, b)
    assert check_fsd(flipped) is DominanceSide.FTD


def test_fsd_crossing_none():
    s = PairedSample([0.0, 3.0], [1.0, 2.0])
    assert check_fsd(s) is DominanceSide.NONE


def test_identical_samples_no_dominance():
    s = PairedSample([1.0, 2.0], [1.0, 2.0])
    assert check_fsd(s) is DominanceSide.NONE
    assert check_ssd(s) is DominanceSide.NONE


def test_ssd_published_verdicts(one_year_sample, three_year_sample, five_year_sample):
    for s in (one_year_sample, three_year_sample, five_year_sample):
        assert check_ssd(s) is DominanceSide.EXP
    assert check_fsd(one_year_sample) is DominanceSide.NONE
    assert check_fsd(three_year_sample) is DominanceSide.NONE


@settings(max_examples=300)
@given(st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False),
                min_size=2, max_size=20),
       st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False),
                min_size=2, max_size=20))
@example([0.0, 0.0], [0.0, 5e-324])  # subnormal width: a float integral rounds to 0
def test_fsd_implies_ssd(exp_values, ftd_values):
    n = min(len(exp_values), len(ftd_values))
    s = PairedSample(exp_values[:n], ftd_values[:n])
    fsd, ssd = check_fsd(s), check_ssd(s)
    if fsd is not DominanceSide.NONE:
        assert ssd is fsd


# -------------------------------------------------------------------- battery

def test_battery_flat_sample_all_na():
    report = run_battery(PairedSample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),
                         BatteryConfig(), label="flat")
    cells = ("t", "wilcoxon", "cohens_d", "hedges_g", "bootstrap", "ks", "fsd", "ssd")
    for cell in cells:
        assert "degenerate" in report.not_applicable[cell]
    assert report.mean_diff == 0.0
    assert report.t_statistic is None
    assert report.ci is None


def test_battery_single_pair_all_na():
    report = run_battery(PairedSample([5.0], [4.0]))
    assert set(report.not_applicable) == {
        "t", "wilcoxon", "cohens_d", "hedges_g", "bootstrap", "ks", "fsd", "ssd"}
    assert all("n too small" in r for r in report.not_applicable.values())
    assert report.mean_diff == 1.0


def test_battery_hedges_na_at_n2():
    report = run_battery(PairedSample([2.0, 4.0], [1.0, 1.0]))
    assert report.cohens_d is not None
    assert "hedges_g" in report.not_applicable
    assert "bootstrap" in report.not_applicable
    assert report.ks_statistic is not None


def test_battery_respects_config(three_year_sample):
    cfg = BatteryConfig(resamples=2000, seed=9, wilcoxon_mode="normal_approx",
                        hedges_variant="paper_compat")
    report = run_battery(three_year_sample, cfg)
    assert report.wilcoxon_method == "normal_approx"
    assert report.wilcoxon_p == report.wilcoxon_p_normal
    assert report.wilcoxon_p_exact == 3.0 / 128.0  # still reported alongside
    assert report.hedges_variant == "paper_compat"
    assert report.ci.resamples == 2000
    assert report.ci.seed == 9


def test_battery_report_round_trips_json(one_year_sample):
    report = run_battery(one_year_sample, label="1y")
    blob = json.dumps(report.to_json_dict())
    again = json.loads(blob)
    assert again["label"] == "1y"
    assert again["t"]["statistic"] == report.t_statistic
    assert again["bootstrap"]["lower"] == report.ci.lower
    assert again["fsd"] == "none"
    assert again["ssd"] == "exp_dominates"


# --------------------------------------------------------------------- config

def test_battery_config_defaults():
    cfg = BatteryConfig()
    assert (cfg.resamples, cfg.alpha, cfg.seed) == (10000, 0.05, 42)
    assert cfg.wilcoxon_mode == "auto"
    assert cfg.hedges_variant == "standard"


def test_battery_config_from_json():
    cfg = BatteryConfig.from_json(
        '{"B": 5000, "alpha": 0.1, "seed": 3, '
        '"wilcoxon_mode": "exact", "hedges_variant": "paper_compat"}')
    assert cfg.resamples == 5000
    assert cfg.alpha == 0.1
    assert cfg.seed == 3
    assert cfg.wilcoxon_mode == "exact"
    assert cfg.hedges_variant == "paper_compat"
    # partial configs keep defaults for the rest
    assert BatteryConfig.from_json('{"B": 2000}').alpha == 0.05


def test_battery_config_rejects_unknown_and_invalid():
    with pytest.raises(ValueError):
        BatteryConfig.from_json('{"bee": 1}')
    with pytest.raises(ValueError):
        BatteryConfig.from_json('[1, 2]')
    with pytest.raises(ValueError):
        BatteryConfig(resamples=10)
    with pytest.raises(ValueError):
        BatteryConfig(alpha=1.5)
    with pytest.raises(ValueError):
        BatteryConfig(wilcoxon_mode="sometimes")
    with pytest.raises(ValueError):
        BatteryConfig(hedges_variant="other")


def test_battery_config_json_round_trip():
    cfg = BatteryConfig(resamples=2000, seed=1, hedges_variant="paper_compat")
    again = BatteryConfig.from_dict(cfg.to_json_dict())
    assert again == cfg
