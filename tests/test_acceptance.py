"""Acceptance battery: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. The
criteria pin the statistics layer to the frozen reference results at their
stated tolerances and exercise the structural guarantees (amount invariance,
exact-test oracles, bootstrap determinism, dominance logic, CDF accuracy).
Criterion 10 pins the abstract's claims as ``compare`` reads them off the
frozen window table.
"""

import itertools
import json
import math
import os
import random
import time
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

from sipcraft.engine import Window, enumerate_windows, paired_run, simulate
from sipcraft.errors import SimulationError
from sipcraft.schedule import MonthKey, build_schedule, load_schedule_overrides
from sipcraft.stats.battery import run_battery
from sipcraft.stats.bootstrap import BatteryConfig, bootstrap_bca
from sipcraft.stats.dominance import check_fsd, check_ssd
from sipcraft.stats.paired import PairedSample, wilcoxon_signed_rank
from sipcraft.stats.special import normal_cdf, normal_ppf, student_t_sf
from sipcraft.synth import generate_series
from sipcraft.timeseries import parse_series

from conftest import (
    DATA,
    FIXTURES,
    anchor_prices,
    ledger_cagr,
    load_reference_sample,
    stdlib_bootstrap_means,
)


def report(name: str, failures: list[str]) -> None:
    print(f"{'PASS' if not failures else 'FAIL'} {name}")
    assert not failures, f"{name}: " + "; ".join(failures)


def checker(failures: list[str]):
    def check(condition: bool, message: str) -> None:
        if not condition:
            failures.append(message)
    return check


def test_criterion_1_one_year_battery_golden():
    failures = []
    check = checker(failures)
    sample = load_reference_sample(1)

    start = time.perf_counter()
    r = run_battery(sample, BatteryConfig(), label="1y")
    elapsed = time.perf_counter() - start
    t, w, eff, ci = r.t, r.wilcoxon, r.effect, r.bootstrap

    check(abs(round(t['statistic'], 3) - 3.271) <= 0.005,
          f"t={t['statistic']:.6f} outside 3.271 +/- 0.005 at report precision")
    check(abs(t['p'] - 0.0018) <= 0.0003, f"t p={t['p']:.6f} outside 0.0018 +/- 0.0003")
    check(abs(eff['cohens_d'] - 0.697) <= 0.003, f"d={eff['cohens_d']:.6f} outside 0.697 +/- 0.003")
    check(abs(eff['hedges_g_paper'] - 0.671) <= 0.003,
          f"paper g={eff['hedges_g_paper']:.6f} outside 0.671 +/- 0.003")
    check(abs(r.mean_diff - 0.770) <= 0.001, f"mean={r.mean_diff:.6f} outside 0.770 +/- 0.001")
    check(abs(ci['lower'] - 0.301) <= 0.05, f"CI lower {ci['lower']:.4f} not within 0.05 of 0.301")
    check(abs(ci['upper'] - 1.203) <= 0.05, f"CI upper {ci['upper']:.4f} not within 0.05 of 1.203")
    check(ci['B'] == 10000 and ci['seed'] == 42, "CI not run at B=10000 with the fixed seed")
    # at n=22 the normal-approximation path lands on the quoted value; the
    # exact enumeration gives 0.00257 and is reported alongside
    check(abs(w['p_normal'] - 0.0035) <= 0.0005,
          f"wilcoxon normal p={w['p_normal']:.6f} outside 0.0035 +/- 0.0005")
    check(abs(w['p_exact'] - 0.00257468) <= 1e-6,
          f"wilcoxon exact p={w['p_exact']:.8f} moved off 0.00257468")
    check(r.ssd == "exp_dominates", f"SSD verdict {r.ssd} is not exp_dominates")
    check(r.fsd == "none", f"FSD verdict {r.fsd} is not none")
    check(elapsed < 5.0, f"battery took {elapsed:.2f}s, limit is 5s")

    report("criterion 1: one-year battery golden values", failures)


def test_criterion_2_three_year_column():
    failures = []
    check = checker(failures)
    sample = load_reference_sample(3)
    diffs = [round(d, 2) for d in sample.diffs]
    check(diffs == [0.49, 0.04, 0.17, 0.63, 0.27, -0.09, 0.38],
          f"three-year diffs {diffs} are not the expected column")

    r = run_battery(sample, BatteryConfig(), label="3y")
    t, w, eff, ci = r.t, r.wilcoxon, r.effect, r.bootstrap
    check(abs(t['statistic'] - 2.833) <= 0.005, f"t={t['statistic']:.6f} outside 2.833 +/- 0.005")
    check(abs(t['p'] - 0.0149) <= 0.0005, f"p={t['p']:.6f} outside 0.0149 +/- 0.0005")
    check(abs(eff['cohens_d'] - 1.071) <= 0.005, f"d={eff['cohens_d']:.6f} outside 1.071 +/- 0.005")
    check(abs(eff['hedges_g_paper'] - 0.902) <= 0.003,
          f"paper g={eff['hedges_g_paper']:.6f} outside 0.902 +/- 0.003")
    check(w['p_exact'] == 3.0 / 128.0, f"exact wilcoxon p={w['p_exact']!r} != 3/128")
    check(abs(ci['lower'] - 0.099) <= 0.05, f"CI lower {ci['lower']:.4f} not within 0.05 of 0.099")
    check(abs(ci['upper'] - 0.443) <= 0.05, f"CI upper {ci['upper']:.4f} not within 0.05 of 0.443")
    check(r.ssd == "exp_dominates", f"SSD verdict {r.ssd} is not exp_dominates")

    report("criterion 2: three-year battery column", failures)


def test_criterion_3_five_year_column():
    failures = []
    check = checker(failures)
    sample = load_reference_sample(5)
    diffs = [round(d, 2) for d in sample.diffs]
    check(diffs == [0.13, 0.16, 0.13, 0.09],
          f"five-year diffs {diffs} are not the expected column")

    r = run_battery(sample, BatteryConfig(), label="5y")
    t, w, eff = r.t, r.wilcoxon, r.effect
    check(w['p_exact'] == 1.0 / 16.0, f"exact wilcoxon p={w['p_exact']!r} != 1/16")
    check(r.ssd == "exp_dominates", f"SSD verdict {r.ssd} is not exp_dominates")
    check(eff['cohens_d'] > 0.8, f"d={eff['cohens_d']:.4f} not above 0.8")
    check(eff['label'] == "large", f"effect label {eff['label']!r} is not large")
    # the full-precision source data implies d 4.069 and t 8.138; those are
    # unrecoverable from the 2-decimal table, which itself yields ~4.44/~8.88,
    # so the bands below pin the 2-decimal-input values
    check(abs(eff['cohens_d'] - 4.44) <= 0.02, f"d={eff['cohens_d']:.6f} outside 4.44 +/- 0.02")
    check(abs(t['statistic'] - 8.88) <= 0.02, f"t={t['statistic']:.6f} outside 8.88 +/- 0.02")

    report("criterion 3: five-year battery column", failures)


def test_criterion_4_amount_invariance_and_lemma():
    failures = []
    check = checker(failures)
    rng = random.Random(20240817)
    runs = 0
    amount_mismatches = 0
    worst_ledger = 0.0
    while runs < 1000:
        kind = rng.choice(("flat", "growth", "walk"))
        start_year = rng.randint(1996, 2028)
        years = rng.choice((1, 1, 1, 2, 2, 3))
        seed = rng.getrandbits(48)
        strategy = rng.choice(("ftd", "exp"))
        m1 = rng.uniform(0.01, 1e6)
        m2 = rng.uniform(0.01, 1e6)

        series = generate_series(kind, start_year, years, seed=seed,
                                 holiday_rate=rng.uniform(0.0, 0.2))
        table, anomalies = build_schedule(
            series, None, MonthKey(start_year - 1, 12),
            MonthKey(start_year + years - 1, 12))
        if anomalies:
            continue  # a hostile holiday draw can empty a month; not this suite's target
        window = Window(start_year, start_year + years - 1)
        a = simulate(strategy, window, m1, series, table)["cagr_percent"]
        b = simulate(strategy, window, m2, series, table)["cagr_percent"]
        # the amount-free CAGR against a test-local ledger of m1 / price units
        prices, terminal_close = anchor_prices(series, table, strategy == "ftd",
                                               start_year, years)
        ledger = ledger_cagr(prices, terminal_close, years, m1)
        scale = max(abs(a), 1.0)  # CAGR is in percent; flat series sit at 0 +/- fp noise
        amount_mismatches += a != b
        worst_ledger = max(worst_ledger, abs(a - ledger) / scale)
        runs += 1

    check(runs >= 1000, f"only {runs} randomized runs completed")
    check(amount_mismatches == 0, f"amount invariance broke in {amount_mismatches} runs")
    check(worst_ledger <= 1e-9, f"amount-free identity broke: rel err {worst_ledger:.3e}")

    report("criterion 4: amount invariance and amount-free identity (1000 runs)", failures)


def brute_force_wilcoxon_p(diffs):
    nonzero = [d for d in diffs if d != 0.0]
    n = len(nonzero)
    order = sorted(range(n), key=lambda i: abs(nonzero[i]))
    doubled = [0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and abs(nonzero[order[j + 1]]) == abs(nonzero[order[i]]):
            j += 1
        for k in range(i, j + 1):
            doubled[order[k]] = i + j + 2
        i = j + 1
    observed = sum(r for r, d in zip(doubled, nonzero) if d > 0.0)
    favorable = sum(
        1 for signs in itertools.product((False, True), repeat=n)
        if sum(r for r, pos in zip(doubled, signs) if pos) >= observed
    )
    return favorable / 2.0 ** n


def test_criterion_5_wilcoxon_exact_oracle():
    failures = []
    check = checker(failures)
    rng = random.Random(8128)
    mismatches = 0
    for _ in range(500):
        n = rng.randint(1, 12)
        diffs = [round(rng.uniform(-2, 2), rng.choice((0, 1))) for _ in range(n)]
        if all(d == 0.0 for d in diffs):
            diffs[rng.randrange(n)] = rng.choice((-1.0, 1.0))
        sample = PairedSample(diffs, [0.0] * n)
        got = wilcoxon_signed_rank(sample).p_exact
        want = brute_force_wilcoxon_p(diffs)
        if got != want:
            mismatches += 1
            if mismatches <= 3:
                failures.append(f"exact {got!r} != brute force {want!r} for {diffs}")
    check(mismatches == 0, f"{mismatches} of 500 samples disagreed with enumeration")

    report("criterion 5: exact signed-rank test equals brute-force enumeration", failures)


def test_criterion_6_bootstrap_sanity():
    failures = []
    check = checker(failures)

    # asymmetric and irregular: the resample means fall on no common lattice,
    # so both percentiles move with any change to the stream
    diffs = [-4.1, -1.3, -0.2, 0.7, 2.6, 9.4]
    n, B = len(diffs), 2000
    ci = bootstrap_bca(PairedSample(diffs, [0.0] * n), BatteryConfig(B=B, seed=5))
    boot = stdlib_bootstrap_means(diffs, B, 5)
    # the BCa levels at the returned z0 and acceleration, then numpy's quantiles
    levels = [normal_cdf(ci.z0 + (ci.z0 + z) / (1.0 - ci.acceleration * (ci.z0 + z)))
              for z in (normal_ppf(0.025), normal_ppf(0.975))]
    lo, hi = np.quantile(boot, levels)
    check(ci.lower == lo, f"BCa lower {ci.lower!r} != {lo!r}")
    check(ci.upper == hi, f"BCa upper {ci.upper!r} != {hi!r}")

    # z0 from the share of means below the estimate, the acceleration from a jackknife
    theta = math.fsum(diffs) / n
    share = min(max(sum(m < theta for m in boot) / B, 0.5 / B), 1.0 - 0.5 / B)
    jack = (sum(diffs) - np.array(diffs)) / (n - 1)
    resid = jack.mean() - jack
    accel = (resid ** 3).sum() / (6.0 * (resid ** 2).sum() ** 1.5)
    # the stdlib's inverse normal CDF, independent of the package's normal_ppf
    z0 = NormalDist().inv_cdf(share)
    check(ci.z0 == pytest.approx(z0, rel=1e-12, abs=1e-15),
          f"z0 {ci.z0!r} != NormalDist().inv_cdf({share!r}) = {z0!r}")
    check(ci.acceleration == pytest.approx(accel, rel=1e-9),
          f"acceleration {ci.acceleration!r} != jackknife {accel!r}")

    three = load_reference_sample(3)
    a = bootstrap_bca(three, BatteryConfig(B=5000, seed=123))
    b = bootstrap_bca(three, BatteryConfig(B=5000, seed=123))
    check((a.lower, a.upper) == (b.lower, b.upper), "same seed gave different intervals")

    report("criterion 6: bootstrap BCa interval/determinism", failures)


def test_criterion_7_dominance_logic():
    failures = []
    check = checker(failures)
    rng = random.Random(424242)

    implication_breaks = 0
    for _ in range(1000):
        n = rng.randint(2, 15)
        exp_vals = [rng.uniform(-30, 30) for _ in range(n)]
        if rng.random() < 0.3:
            shift = rng.uniform(0.0, 2.0)
            ftd_vals = [v - shift for v in exp_vals]
        else:
            ftd_vals = [rng.uniform(-30, 30) for _ in range(n)]
        s = PairedSample(exp_vals, ftd_vals)
        fsd, ssd = check_fsd(s), check_ssd(s)
        if fsd != "none" and ssd != fsd:
            implication_breaks += 1
    check(implication_breaks == 0,
          f"first-order dominance failed to imply second-order in {implication_breaks} samples")

    for _ in range(50):
        n = rng.randint(2, 10)
        base = [rng.uniform(-10, 10) for _ in range(n)]
        c = rng.uniform(1e-6, 5.0)
        shifted = PairedSample([x + c for x in base], base)
        if check_fsd(shifted) != "exp_dominates" or check_ssd(shifted) != "exp_dominates":
            failures.append(f"shift dominance missed for c={c}")
            break

    same = PairedSample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    check(check_fsd(same) == "none", "identical samples produced a first-order verdict")
    check(check_ssd(same) == "none", "identical samples produced a second-order verdict")

    report("criterion 7: dominance implication, shift dominance, identity", failures)


def _real_data_path() -> Path | None:
    env = os.environ.get("SIPCRAFT_NIFTY_CSV")
    if env:
        return Path(env)
    default = DATA / "nifty_daily.csv"
    return default if default.exists() else None


def test_criterion_8_real_data_reproduction():
    path = _real_data_path()
    if path is None or not path.exists():
        print("SKIP criterion 8: real index data not present "
              "(set SIPCRAFT_NIFTY_CSV or add data/nifty_daily.csv)")
        pytest.skip("needs the real daily-close file; see README data section")

    failures = []
    check = checker(failures)
    with open(path, encoding="utf-8-sig", newline="") as fh:
        series = parse_series(fh)
    with open(DATA / "schedule_overrides.csv", encoding="utf-8-sig", newline="") as fh:
        overrides = load_schedule_overrides(fh)
    table, anomalies = build_schedule(series, overrides, MonthKey(2002, 12), MonthKey(2024, 12))
    for a in anomalies:
        print(f"  anomaly: {a['month']} {a['field']} {a['date']} ({a['reason']})")

    import csv as _csv
    reference = {}
    with open(DATA / "reference_windows.csv", newline="") as fh:
        for rec in _csv.DictReader(fh):
            key = (int(rec["from_year"]), int(rec["to_year"]))
            reference[key] = (float(rec["cagr_ftd"]), float(rec["cagr_exp"]))

    checked = 0
    for duration in (1, 3, 5, 10, 20):
        try:
            _, outcomes = paired_run(duration, series, table)
        except SimulationError as exc:
            failures.append(f"{duration}y simulation failed: {exc}")
            continue
        for out in outcomes:
            want_f, want_e = reference[(out.window.from_year, out.window.to_year)]
            check(abs(out.cagr_ftd - want_f) <= 0.02,
                  f"{out.window.from_year}-{out.window.to_year} ftd {out.cagr_ftd:.4f} vs {want_f}")
            check(abs(out.cagr_exp - want_e) <= 0.02,
                  f"{out.window.from_year}-{out.window.to_year} exp {out.cagr_exp:.4f} vs {want_e}")
            checked += 1
    check(checked == 36, f"expected 36 windows, checked {checked}")

    report("criterion 8: full window-table reproduction from raw data", failures)


def test_criterion_9_cdf_reference_accuracy():
    failures = []
    check = checker(failures)
    with open(FIXTURES / "cdf_reference.json") as fh:
        ref = json.load(fh)

    normal_rows = ref["normal_cdf"]
    t_rows = ref["student_t_sf"]
    check(len(normal_rows) == 20, f"normal table has {len(normal_rows)} points, wanted 20")
    check(len(t_rows) == 20, f"t table has {len(t_rows)} points, wanted 20")

    worst = 0.0
    for row in normal_rows:
        err = abs(normal_cdf(float(row["x"])) - float(row["value"]))
        worst = max(worst, err)
        if err > 1e-10:
            failures.append(f"normal cdf at {row['x']}: err {err:.2e}")
    for row in t_rows:
        err = abs(student_t_sf(float(row["t"]), row["df"]) - float(row["value"]))
        worst = max(worst, err)
        if err > 1e-10:
            failures.append(f"t sf at t={row['t']}, df={row['df']}: err {err:.2e}")
    print(f"  worst distribution-function error: {worst:.3e}")

    report("criterion 9: distribution functions at 1e-10 against frozen references", failures)


def test_criterion_10_abstract_reading(tmp_path):
    """The abstract's claims as ``compare`` reads them off the frozen window table."""
    from sipcraft.cli import main

    failures = []
    check = checker(failures)
    out = tmp_path / "bundle.json"
    code = main(["compare", "--data", str(DATA / "reference_windows.csv"), "--format", "json",
                 "--out", str(out)])
    assert code == 0
    bundle = json.loads(out.read_text())
    metrics = {m["label"]: m for m in bundle["metrics"]}

    twenty = bundle["windows"]["20y"]
    check([(w["cagr_ftd"], w["cagr_exp"]) for w in twenty] == [(6.65, 6.68)],
          f"20y CAGRs {twenty} are not 6.65 (FTD) and 6.68 (EXP)")
    for label in ("1y", "3y", "5y", "10y"):
        check(metrics[label]["ssd"] == "exp_dominates",
              f"{label} SSD verdict {metrics[label]['ssd']} is not exp_dominates")
    for label, fsd in (("1y", "none"), ("3y", "none"),
                       ("5y", "exp_dominates"), ("10y", "exp_dominates")):
        check(metrics[label]["fsd"] == fsd,
              f"{label} FSD verdict {metrics[label]['fsd']} is not {fsd}")
    means = [metrics[label]["mean_diff"] for label in ("1y", "3y", "5y", "10y", "20y")]
    check([round(m, 2) for m in means] == [0.77, 0.27, 0.13, 0.06, 0.03],
          f"mean gaps {means} do not round to 0.77, 0.27, 0.13, 0.06, 0.03")
    check(all(a > b for a, b in zip(means, means[1:])), f"mean gaps {means} do not fall strictly")
    # "0.5-2.5% annually over 1-5 years" holds for the 1y mean only
    check(0.5 <= means[0] <= 2.5, f"1y mean gap {means[0]} is outside [0.5, 2.5]")
    check(means[1] < 0.5 and means[2] < 0.5, f"3y and 5y mean gaps {means[1:3]} reach 0.5")

    report("criterion 10: the abstract's reading of the window table", failures)
