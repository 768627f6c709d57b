"""Paired tests, effect sizes, bootstrap, dominance checks, and the battery."""

import importlib.util
import itertools
import json
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from sipcraft.stats.battery import CELLS, run_battery
from sipcraft.stats import bootstrap
from sipcraft.stats.bootstrap import BatteryConfig, _index_blocks, bootstrap_bca
from sipcraft.stats.dominance import check_fsd, check_ssd, ks_two_sample
from sipcraft.stats.paired import (
    WILCOXON_EXACT_LIMIT,
    PairedSample,
    classify_effect,
    cohens_d,
    hedges_g,
    paired_t_one_tailed,
    wilcoxon_signed_rank,
)
from sipcraft.stats.special import normal_ppf

from conftest import ROOT, load_reference_sample, stdlib_bootstrap_means, stdlib_bootstrap_picks

diff_lists = st.lists(
    st.floats(min_value=-100.0, max_value=100.0,
              allow_nan=False, allow_infinity=False),
    min_size=2, max_size=30)


def sample_from_diffs(diffs):
    return PairedSample([d for d in diffs], [0.0] * len(diffs))


# ---------------------------------------------------------------- PairedSample

def test_paired_sample_validation():
    s = PairedSample([3.0, 4.0], [1.0, 1.5])
    assert s.n == 2
    assert s.diffs == (2.0, 2.5)


# ------------------------------------------------------------------- paired t

def test_t_symmetric_sample():
    r = paired_t_one_tailed(sample_from_diffs([1.0, -1.0]))
    assert r.statistic == 0.0
    assert r.p == pytest.approx(0.5, abs=1e-12)
    assert r.df == 1


@given(diff_lists)
def test_t_sign_matches_mean(diffs):
    if len(set(diffs)) == 1:
        return  # no spread: the battery never runs t on it
    r = paired_t_one_tailed(sample_from_diffs(diffs))
    mean = sum(diffs) / len(diffs)
    assert math.copysign(1.0, r.statistic) == math.copysign(1.0, mean) or mean == 0.0


def test_t_p_decreasing_in_statistic():
    from sipcraft.stats.special import student_t_sf
    grid = [student_t_sf(t / 4.0, 9) for t in range(-20, 21)]
    assert all(a > b for a, b in zip(grid, grid[1:]))


# ------------------------------------------------------------------- wilcoxon

def test_wilcoxon_drops_zero_diffs():
    r = wilcoxon_signed_rank(sample_from_diffs([0.0, 0.0, 1.0, 2.0]))
    assert r == wilcoxon_signed_rank(sample_from_diffs([1.0, 2.0]))


# CAGR-like differences (percent, two decimals) with frequent ties among |d|
# and zeros; below ~1e-150 scipy's squares go subnormal and lose digits
tied_values = (st.sampled_from((-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0))
               | st.integers(-5000, 5000).map(lambda k: k / 100))
tied_diffs = st.lists(tied_values, min_size=2, max_size=30)
needs_scipy = pytest.mark.skipif(importlib.util.find_spec("scipy") is None,
                                 reason="scipy is the oracle")


@needs_scipy
@settings(max_examples=200, deadline=None)
@given(tied_diffs)
def test_t_matches_scipy_ttest_rel(diffs):
    from scipy.stats import ttest_rel

    if len(set(diffs)) == 1:
        return  # no spread: the battery never runs t on it
    s = sample_from_diffs(diffs)  # exact diffs: distinct values differ by >= 0.01
    got = paired_t_one_tailed(s)
    want = ttest_rel(s.exp_values, s.ftd_values, alternative="greater")
    assert got.statistic == pytest.approx(want.statistic, rel=1e-9)
    assert got.p == pytest.approx(want.pvalue, rel=1e-9, abs=1e-15)


@needs_scipy
@settings(max_examples=100, deadline=None)
@given(st.lists(tied_values, min_size=2, max_size=10))  # scipy enumerates 2^n sign flips
def test_wilcoxon_matches_scipy(diffs):
    from scipy.stats import PermutationMethod, wilcoxon

    nonzero = [abs(d) for d in diffs if d != 0.0]
    if not nonzero:
        return
    s = sample_from_diffs(diffs)
    common = dict(zero_method="wilcox", correction=True, alternative="greater")
    got = wilcoxon_signed_rank(s)
    # scipy's "exact" uses the tie-free null; a full sign-flip enumeration
    # is its exact test for tied ranks
    enumerated = wilcoxon(diffs, method=PermutationMethod(n_resamples=math.inf), **common)
    assert got.p_exact == pytest.approx(enumerated.pvalue, rel=1e-12)
    if len(set(nonzero)) == len(nonzero):
        want = wilcoxon(diffs, method="exact", **common)
        assert got.statistic == want.statistic
        assert got.p_exact == pytest.approx(want.pvalue, rel=1e-12)
    want = wilcoxon(diffs, method="approx", **common)
    assert got.statistic == want.statistic
    assert got.p_normal == pytest.approx(want.pvalue, rel=1e-9, abs=1e-15)


@pytest.mark.parametrize("diffs, t, d", [
    ([1.03e-159, 0.0, 0.0], 1.0, 1 / math.sqrt(3)),  # squared deviations go subnormal
    ([5e-324, 0.0, 0.0], 1.0, 1 / math.sqrt(3)),
    ([1e300, -1e300, 5e299], 1 / math.sqrt(13), 1 / math.sqrt(39)),  # squares overflow
], ids=["tiny", "subnormal", "huge"])
def test_t_and_d_do_not_depend_on_scale(diffs, t, d):
    s = sample_from_diffs(diffs)
    assert paired_t_one_tailed(s).statistic == pytest.approx(t, rel=1e-12)
    assert cohens_d(s) == pytest.approx(d, rel=1e-12)


# --------------------------------------------------------------- effect sizes

def test_cohens_d_examples(one_year_sample, three_year_sample):
    assert cohens_d(one_year_sample) == pytest.approx(0.697, abs=0.003)
    assert cohens_d(three_year_sample) == pytest.approx(1.071, abs=0.005)
    assert cohens_d(sample_from_diffs([-1.0, 1.0])) == 0.0


def test_hedges_g_variants():
    # (standard, paper's): the paper's correction uses 4n - 9 in the denominator
    assert hedges_g(1.071, 7)[1] == pytest.approx(1.071 * (1 - 3 / 19), abs=1e-12)
    assert round(hedges_g(1.071, 7)[1], 3) == 0.902
    assert round(hedges_g(4.069, 4)[1], 3) == 2.325
    assert hedges_g(0.0, 10) == (0.0, 0.0)
    # the standard correction uses 4(n-1) - 1
    assert hedges_g(1.0, 7)[0] == pytest.approx(1 - 3 / 23, abs=1e-12)


def test_hedges_g_validation():
    # hedges_g does not check n itself: the battery's gate keys its cell
    # below n = 3, with one reason for both corrections
    short = run_battery(sample_from_diffs([1.0, 3.0]))
    assert short.not_applicable["hedges_g"] == "Hedges' g needs n >= 3, got n=2"
    assert short.effect["hedges_g"] is short.effect["hedges_g_paper"] is None
    # at n = 3 both denominators are positive and the cell is filled
    full = run_battery(sample_from_diffs([1.0, 3.0, 4.0]))
    assert "hedges_g" not in full.not_applicable
    assert (full.effect["hedges_g"], full.effect["hedges_g_paper"]) == hedges_g(full.effect["cohens_d"], 3)
    assert all(math.isfinite(g) for g in hedges_g(full.effect["cohens_d"], 3))


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
    a = bootstrap_bca(three_year_sample, BatteryConfig(B=2000, seed=7))
    b = bootstrap_bca(three_year_sample, BatteryConfig(B=2000, seed=7))
    assert (a.lower, a.upper) == (b.lower, b.upper)
    c = bootstrap_bca(three_year_sample, BatteryConfig(B=2000, seed=8))
    assert (a.lower, a.upper) != (c.lower, c.upper)


def test_bootstrap_z0_counts_permuted_resamples_as_ties():
    # a plain left-to-right sum puts the mean one ulp above the correctly
    # rounded one, which would count the 6/27 permutation rows as below it
    diffs = [0.1, 0.2, 0.3]
    theta = math.fsum(diffs) / 3
    assert sum(diffs) / 3 > theta
    ci = bootstrap_bca(sample_from_diffs(diffs), BatteryConfig(B=1000, seed=3))
    below = sum(b < theta for b in stdlib_bootstrap_means(diffs, 1000, 3))
    assert ci.point_estimate == theta
    assert ci.z0 == normal_ppf(below / 1000)


def test_bootstrap_validation(three_year_sample):
    # an alpha just above 2**-53, the least the config takes, still gives finite bounds
    ci = bootstrap_bca(three_year_sample, BatteryConfig(B=1000, alpha=1.2e-16))
    assert math.isfinite(ci.lower) and math.isfinite(ci.upper)


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
        ci = bootstrap_bca(sample_from_diffs(diffs), BatteryConfig(B=10000))
        ref = stats.bootstrap((np.asarray(diffs),), np.mean, n_resamples=10000,
                              method="BCa", rng=np.random.default_rng(0)).confidence_interval
        tol = 0.03 * (max(diffs) - min(diffs))
        assert abs(ci.lower - ref.low) <= tol, (len(diffs), ci.lower, ref.low)
        assert abs(ci.upper - ref.high) <= tol, (len(diffs), ci.upper, ref.high)


def test_bootstrap_bounds_past_the_acceleration_pole():
    # one window in 22 gains a point: the acceleration is about 0.155, so at
    # alpha 1e-15 the upper z passes the pole 1 - a(z0 + z) = 0, where the
    # adjusted level once wrapped round to 0 and gave [0, 0] around 0.045
    diffs = [1.0] + [0.0] * 21
    ci = bootstrap_bca(sample_from_diffs(diffs), BatteryConfig(alpha=1e-15))
    assert ci.acceleration * (ci.z0 + normal_ppf(1.0 - 1e-15 / 2)) > 1.0
    assert ci.lower == 0.0
    assert ci.upper == max(stdlib_bootstrap_means(diffs, 10000, 42))
    assert ci.lower < ci.point_estimate < ci.upper


def test_bootstrap_bounds_stay_inside_the_sample():
    # fsum(3 * [d]) / 3 rounds one ulp above this d, and at alpha 1e-3 the
    # upper level reaches the resample of three equal maxima
    diffs = [0.12548152073901495, 0.9553496923196699, 3.4387392693187744]
    assert math.fsum(3 * [diffs[2]]) / 3 > diffs[2]
    ci = bootstrap_bca(sample_from_diffs(diffs), BatteryConfig(B=1000, alpha=1e-3))
    assert ci.upper == diffs[2]
    rng = random.Random(2024)
    for seed in range(400):  # skewed samples, where the extreme resamples decide a bound
        diffs = [rng.lognormvariate(0.0, 1.0) for _ in range(rng.randint(3, 6))]
        ci = bootstrap_bca(sample_from_diffs(diffs), BatteryConfig(B=1000, seed=seed))
        assert min(diffs) <= ci.lower <= ci.upper <= max(diffs), (seed, diffs)


def picks_of(diffs, count, rng):
    """The first ``count`` picks of the bootstrap's index stream."""
    indices = itertools.chain.from_iterable(_index_blocks(len(diffs), rng))
    return [diffs[i] for i in itertools.islice(indices, count)]


def test_bootstrap_stream_known_answer():
    # the first picks at the default seed; a change to CPython's
    # getrandbits or to the byte or word order breaks every stored interval
    assert picks_of(list(range(22)), 8, random.Random(42)) == [3, 11, 1, 9, 17, 5, 18, 6]
    # above 256 a word is one candidate, so this stream is the word stream
    # of the former per-word draw, which gave these picks
    assert picks_of(list(range(300)), 8, random.Random(42)) == \
        [213, 227, 269, 163, 43, 112, 146, 225]


@pytest.mark.parametrize("n", [3, 4, 7, 22, 63, 64, 65, 100, 255, 256, 257, 300])
def test_draw_matches_word_at_a_time_rebuild(n):
    # n <= 256 takes one candidate per byte, larger n one per word
    diffs = [math.sin(i) for i in range(n)]
    for seed in (0, 5, 42):
        for count in (1, n + 1, 250 * n + n // 2 + 1):  # never a multiple of n
            assert picks_of(diffs, count, random.Random(seed)) == \
                stdlib_bootstrap_picks(diffs, count, seed), (seed, count)


@pytest.mark.parametrize("n", [3, 22, 300])
def test_block_size_does_not_change_the_stream(n, monkeypatch):
    diffs = list(range(n))
    count = 20 * n + 7
    want = picks_of(diffs, count, random.Random(42))
    for words in (1, 3):
        monkeypatch.setattr(bootstrap, "BLOCK_WORDS", words)
        assert picks_of(diffs, count, random.Random(42)) == want, words


class WordStub:
    """Serves fixed 32-bit words through getrandbits, least significant first."""

    def __init__(self, words):
        self.words = list(words)
        self.calls = []

    def getrandbits(self, k):
        self.calls.append(k)
        chunk, self.words = self.words[:k // 32], self.words[k // 32:]
        return sum(w << (32 * i) for i, w in enumerate(chunk))


def test_bootstrap_accept_limit_is_unbiased(monkeypatch):
    # one block holds each byte once, from 255 down to 0: exactly the bytes
    # below 256 - 256 % n are kept, and every residue gets as many of them
    monkeypatch.setattr(bootstrap, "BLOCK_WORDS", 64)
    block = bytes(range(255, -1, -1))
    words = [int.from_bytes(block[i:i + 4], "little") for i in range(0, 256, 4)]
    for n in range(3, 257):
        keep = 256 - 256 % n
        indices = next(_index_blocks(n, WordStub(words)))
        assert list(indices) == [b % n for b in range(keep - 1, -1, -1)], n
        assert Counter(indices) == dict.fromkeys(range(n), keep // n), n


def test_bootstrap_rejected_word_is_skipped_and_refilled(monkeypatch):
    # above 256 a word at or above 2**32 - 2**32 % n is skipped
    monkeypatch.setattr(bootstrap, "BLOCK_WORDS", 2)
    limit = 2 ** 32 - 2 ** 32 % 300
    rng = WordStub([limit, limit - 1, 2 ** 32 - 1, 5, 7, 4])
    assert picks_of(list(range(300)), 3, rng) == [(limit - 1) % 300, 5, 7]
    assert rng.calls == [64, 64, 64]


def test_bootstrap_memory_is_bounded_by_the_resamples():
    # the picks stream into the means: at n=22 and B=50000 the former draw
    # held all 1.1 million picks at once, a peak of about 17 MB
    s = sample_from_diffs([math.sin(i) for i in range(22)])
    tracemalloc.start()
    try:
        bootstrap_bca(s, BatteryConfig(B=50000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


# ------------------------------------------------------------------------- ks

def test_ks_identical_samples():
    r = ks_two_sample(PairedSample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]))
    assert r.statistic == 0.0
    assert r.p == 1.0


def test_ks_disjoint_supports():
    r = ks_two_sample(PairedSample([0.0, 0.0], [1.0, 1.0]))
    assert r.statistic == 1.0
    assert r.p < 0.5


def test_ks_published_values(one_year_sample, three_year_sample, five_year_sample):
    for s, want in ((one_year_sample, 0.6391),
                    (three_year_sample, 0.8424),
                    (five_year_sample, 0.7227)):
        r = ks_two_sample(s)
        assert r.p == pytest.approx(want, abs=0.02)
        # D is k/n correctly rounded, for an integer k
        assert r.statistic == round(r.statistic * s.n) / s.n


tie_heavy = st.lists(st.tuples(*[st.sampled_from((-2.5, -1.0, 0.0, 0.5, 1.0, 3.0))] * 2),
                     min_size=1, max_size=30)


@pytest.mark.skipif(importlib.util.find_spec("scipy") is None, reason="scipy is the oracle")
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # scipy's p-value at n=1; unused here
@settings(max_examples=300, deadline=None)
@given(tie_heavy)
def test_ks_statistic_matches_scipy(pairs):
    from scipy.stats import ks_2samp

    a, b = zip(*pairs)
    want = ks_2samp(a, b, method="asymp").statistic
    assert ks_two_sample(PairedSample(a, b)).statistic == pytest.approx(want, abs=1e-12)


# ------------------------------------------------------------------ dominance

def test_fsd_shift_dominance():
    a = [1.0, 2.0, 5.0]
    b = [x + 1.0 for x in a]
    s = PairedSample(b, a)  # exp shifted up
    assert check_fsd(s) == "exp_dominates"
    assert check_ssd(s) == "exp_dominates"
    flipped = PairedSample(a, b)
    assert check_fsd(flipped) == "ftd_dominates"


def test_fsd_crossing_none():
    s = PairedSample([0.0, 3.0], [1.0, 2.0])
    assert check_fsd(s) == "none"


def test_dominance_verdicts_are_the_schema_strings():
    # the bundle schema is the one list of verdicts: an EXP-dominant sample,
    # its flipped FTD-dominant twin and a crossing sample give each of them
    a = [1.0, 2.0, 5.0]
    b = [x + 1.0 for x in a]
    samples = (PairedSample(b, a), PairedSample(a, b), PairedSample([0.0, 3.0], [1.0, 2.0]))
    verdicts = {check(s) for s in samples for check in (check_fsd, check_ssd)}
    with open(ROOT / "docs" / "report_schema.json", encoding="utf-8") as fh:
        one_of = json.load(fh)["$defs"]["dominance_verdict"]["oneOf"]
    assert verdicts == {v for branch in one_of for v in branch.get("enum", ())}


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
    if fsd != "none":
        assert ssd == fsd


def fraction_ssd(exp_values, ftd_values):
    """Independent oracle: integrate F_ftd - F_exp in exact rationals."""
    n = len(exp_values)
    grid = sorted(set(exp_values) | set(ftd_values))
    area, areas = Fraction(0), []
    for lo, hi in zip(grid, grid[1:]):
        below_ftd = sum(v <= lo for v in ftd_values)
        below_exp = sum(v <= lo for v in exp_values)
        area += Fraction(below_ftd - below_exp, n) * (Fraction(hi) - Fraction(lo))
        areas.append(area)
    if areas and min(areas) >= 0 and max(areas) > 0:
        return "exp_dominates"
    if areas and max(areas) <= 0 and min(areas) < 0:
        return "ftd_dominates"
    return "none"


extreme_atoms = st.sampled_from((-1e16, -2.0, -1e-300, 0.0, 1e-300, 0.5, 1.0, 2.0, 1e16))


@settings(max_examples=500)
@given(st.lists(st.tuples(extreme_atoms | st.floats(-1e3, 1e3), extreme_atoms),
                min_size=2, max_size=8))
@example([(0.5, 1.0), (2.0, 1e-300), (0.5, 2.0)])  # a float running sum absorbs -1e-300
def test_ssd_matches_fraction_reference(pairs):
    exp_values = [e for e, _ in pairs]
    ftd_values = [f for _, f in pairs]
    assert check_ssd(PairedSample(exp_values, ftd_values)) == fraction_ssd(exp_values, ftd_values)


# -------------------------------------------------------------------- battery

def test_battery_flat_sample_all_na():
    report = run_battery(PairedSample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),
                         BatteryConfig(), label="flat")
    cells = ("t", "wilcoxon", "cohens_d", "hedges_g", "bootstrap", "ks", "fsd", "ssd")
    for cell in cells:
        assert "degenerate" in report.not_applicable[cell]
    assert report.mean_diff == 0.0
    assert report.t == {"statistic": None, "p": None, "df": None}
    assert report.bootstrap is None


def test_battery_single_pair_all_na():
    report = run_battery(PairedSample([5.0], [4.0]))
    assert set(report.not_applicable) == {
        "t", "wilcoxon", "cohens_d", "hedges_g", "bootstrap", "ks", "fsd", "ssd"}
    assert all("n too small" in r for r in report.not_applicable.values())
    assert report.mean_diff == 1.0
    # the bundle's metrics entry, key order included: every cell None and
    # the reasons sorted by cell name
    reason = "n too small for inference (n=1)"
    assert json.dumps(report._asdict()) == json.dumps({
        "label": "", "n": 1, "mean_diff": 1.0,
        "t": {"statistic": None, "p": None, "df": None},
        "wilcoxon": {"statistic": None, "p": None, "method": None, "p_exact": None,
                     "p_normal": None},
        "effect": {"cohens_d": None, "label": None, "hedges_g": None, "hedges_g_paper": None},
        "bootstrap": None, "ks": {"statistic": None, "p": None}, "fsd": None, "ssd": None,
        "not_applicable": {cell: reason for cell in ("bootstrap", "cohens_d", "fsd", "hedges_g",
                                                     "ks", "ssd", "t", "wilcoxon")}})


def test_battery_hedges_na_at_n2():
    report = run_battery(PairedSample([2.0, 4.0], [1.0, 1.0]))
    assert report.effect["cohens_d"] is not None
    # one reason for both corrections, since the battery's cell holds both
    assert report.not_applicable == {"bootstrap": "BCa bootstrap needs n >= 3, got n=2",
                                     "hedges_g": "Hedges' g needs n >= 3, got n=2"}
    assert report.effect["hedges_g"] is report.effect["hedges_g_paper"] is report.bootstrap is None
    assert report.ks["statistic"] is not None


T_UNDEFINED = "all differences are identical, t is undefined"
D_UNDEFINED = "all differences are identical, d is undefined"


@pytest.mark.parametrize("diffs, na", [
    ([2.0] * 3, {}),
    ([23.21] * 3, {}),  # fsum([23.21] * 3) / 3 != 23.21, so t would see a spread
    ([0.7] * 3, {}),
    ([1.0, 1.0], {"bootstrap": "BCa bootstrap needs n >= 3, got n=2"}),
], ids=["2.0x3", "23.21x3", "0.7x3", "1.0x2"])
def test_battery_t_and_d_need_two_distinct_differences(diffs, na):
    report = run_battery(sample_from_diffs(diffs), BatteryConfig(B=1000))
    na = {**na, "cohens_d": D_UNDEFINED, "hedges_g": D_UNDEFINED, "t": T_UNDEFINED}
    assert report.not_applicable == dict(sorted(na.items()))
    assert report.t["statistic"] is report.effect["cohens_d"] is report.effect["hedges_g"] is None
    assert report.wilcoxon["p"] is not None
    assert report.bootstrap is None or report.bootstrap["degenerate"]


tied_atoms = extreme_atoms | st.sampled_from((23.21, 0.7))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 30).flatmap(lambda n: st.lists(tied_atoms, min_size=n, max_size=n)
                                  | tied_atoms.map(lambda atom: [atom] * n)))
def test_battery_gate_is_every_statistics_precondition(diffs):
    # zeros, constants and extreme atoms: the battery calls a statistic only
    # on what the gate lets through, and that statistic takes it without
    # raising; every cell is either filled or keyed, never both
    report = run_battery(sample_from_diffs(diffs), BatteryConfig(B=1000))
    values = {"t": report.t["statistic"], "wilcoxon": report.wilcoxon["p"],
              "cohens_d": report.effect["cohens_d"], "hedges_g": report.effect["hedges_g"],
              "bootstrap": report.bootstrap, "ks": report.ks["statistic"],
              "fsd": report.fsd, "ssd": report.ssd}
    assert set(values) == set(CELLS)
    for cell, value in values.items():
        assert (value is None) == (cell in report.not_applicable), (cell, diffs)
    assert set(report.not_applicable) <= set(CELLS)
    assert list(report.not_applicable) == sorted(report.not_applicable)


def test_battery_respects_config(three_year_sample):
    report = run_battery(three_year_sample, BatteryConfig(B=2000, seed=9))
    assert report.bootstrap["B"] == 2000
    assert report.bootstrap["seed"] == 9


@pytest.mark.parametrize("duration", [1, 3, 5])
def test_battery_reports_both_hedges_corrections(duration):
    sample = load_reference_sample(duration)
    effect = run_battery(sample, BatteryConfig(B=1000)).effect
    assert (effect["hedges_g"], effect["hedges_g_paper"]) == hedges_g(effect["cohens_d"], sample.n)


def test_battery_reports_both_wilcoxon_p_values(three_year_sample):
    w = run_battery(three_year_sample, BatteryConfig(B=1000)).wilcoxon
    assert w["method"] == "exact"
    assert w["p"] == w["p_exact"] == 3.0 / 128.0
    assert w["p_normal"] == wilcoxon_signed_rank(three_year_sample).p_normal


def test_battery_wilcoxon_beyond_the_exact_limit_has_no_exact_p():
    # at the limit and below it the p is exact; the limit counts nonzero
    # differences, so a zero difference does not cross it
    for nonzero, zeros, method in ((WILCOXON_EXACT_LIMIT + 1, 0, "normal_approx"),
                                   (WILCOXON_EXACT_LIMIT, 0, "exact"),
                                   (WILCOXON_EXACT_LIMIT, 1, "exact")):
        diffs = [0.1 * (i + 1) * (-1) ** (i % 3 == 0) for i in range(nonzero)] + [0.0] * zeros
        w = run_battery(sample_from_diffs(diffs), BatteryConfig(B=1000)).wilcoxon
        assert w["method"] == method, (nonzero, zeros)
        assert (w["p_exact"] is None) == (method == "normal_approx"), (nonzero, zeros)
        assert w["p"] == (w["p_exact"] if method == "exact" else w["p_normal"]), (nonzero, zeros)


def test_battery_report_round_trips_json(one_year_sample):
    report = run_battery(one_year_sample, label="1y")
    blob = json.dumps(report._asdict())
    again = json.loads(blob)
    assert again == report._asdict()
    assert again["label"] == "1y"
    assert again["t"]["statistic"] == report.t["statistic"]
    assert again["bootstrap"]["lower"] == report.bootstrap["lower"]
    assert again["fsd"] == "none"
    assert again["ssd"] == "exp_dominates"


# --------------------------------------------------------------------- config

def test_battery_config_defaults():
    cfg = BatteryConfig()
    assert BatteryConfig._fields == ("B", "alpha", "seed")
    assert (cfg.B, cfg.alpha, cfg.seed) == (10000, 0.05, 42)
