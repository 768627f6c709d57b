"""The full comparison battery over one paired sample.

One call produces every metric for a horizon: paired t, Wilcoxon signed
rank (both the exact and the normal-approximation path are reported),
Cohen's d, Hedges' g (both the standard and the paper's small-sample
correction are reported), the BCa interval, the KS statistic, and
dominance verdicts. ``_not_applicable`` alone decides which cells apply to
a sample: a cell it keys holds its reason instead of a value, and no
statistic checks the sample again.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .bootstrap import BatteryConfig, bootstrap_bca
from .dominance import KsResult, check_fsd, check_ssd, ks_two_sample
from .paired import (
    PairedSample,
    TestResult,
    WilcoxonResult,
    classify_effect,
    cohens_d,
    hedges_g,
    paired_t_one_tailed,
    wilcoxon_signed_rank,
)

__all__ = ["ComparisonReport", "run_battery"]

# battery cells that can individually degrade to "not applicable"
CELLS = ("t", "wilcoxon", "cohens_d", "hedges_g", "bootstrap", "ks", "fsd", "ssd")


class ComparisonReport(NamedTuple):
    """Battery output for one horizon; one column of the metrics table.

    The fields are the keys of a bundle's metrics entry, in order, holding
    its values, so ``_asdict()`` is that entry. A cell undefined for the
    sample holds ``None`` values, and ``not_applicable`` maps its name to
    the reason, sorted by name; a cell is either populated or keyed there,
    never both.
    """

    label: str
    n: int
    mean_diff: float
    t: dict  # the TestResult under its field names
    wilcoxon: dict  # the WilcoxonResult under its field names
    effect: dict  # cohens_d, label, hedges_g, hedges_g_paper
    bootstrap: dict | None  # the BootstrapCI under the bundle's keys
    ks: dict  # the KsResult under its field names
    fsd: str | None  # a dominance_verdict of the bundle schema
    ssd: str | None
    not_applicable: dict


def _not_applicable(s: PairedSample) -> dict[str, str]:
    """Each cell undefined for the sample, mapped to its reason and sorted by
    name: the one precondition of every statistic ``run_battery`` calls."""
    if s.n < 2:
        return dict.fromkeys(sorted(CELLS), f"n too small for inference (n={s.n})")
    if all(v == 0.0 for v in s.diffs):
        return dict.fromkeys(sorted(CELLS), "degenerate sample (all differences zero)")
    na: dict[str, str] = {}
    if all(v == s.diffs[0] for v in s.diffs):  # no spread to divide by
        na["t"] = "all differences are identical, t is undefined"
        na["cohens_d"] = na["hedges_g"] = "all differences are identical, d is undefined"
    if s.n < 3:  # both Hedges denominators and the jackknife need n >= 3
        na.setdefault("hedges_g", f"Hedges' g needs n >= 3, got n={s.n}")
        na["bootstrap"] = f"BCa bootstrap needs n >= 3, got n={s.n}"
    return dict(sorted(na.items()))


def run_battery(s: PairedSample, config: BatteryConfig = BatteryConfig(), label: str = "") -> ComparisonReport:
    """Run every comparison metric on the sample under one configuration.

    Cells that are undefined for the sample (too few pairs, no variation)
    are reported as not applicable with a reason. The mean difference is
    descriptive and always present.
    """
    mean_diff = math.fsum(s.diffs) / s.n
    na = _not_applicable(s)
    t = dict.fromkeys(TestResult._fields)
    wilcoxon = dict.fromkeys(WilcoxonResult._fields)
    ks = dict.fromkeys(KsResult._fields)
    d = effect_label = g = g_paper = bootstrap = fsd = ssd = None
    if "t" not in na:
        t = paired_t_one_tailed(s)._asdict()
    if "wilcoxon" not in na:  # n >= 2 with a nonzero difference: KS and dominance apply too
        wilcoxon = wilcoxon_signed_rank(s)._asdict()
        ks = ks_two_sample(s)._asdict()
        fsd, ssd = check_fsd(s), check_ssd(s)
    if "cohens_d" not in na:
        d = cohens_d(s)
        effect_label = classify_effect(d)
    if "hedges_g" not in na:  # keyed whenever cohens_d is
        g, g_paper = hedges_g(d, s.n)
    if "bootstrap" not in na:
        ci = bootstrap_bca(s, config)
        bootstrap = {"point": ci.point_estimate, "lower": ci.lower, "upper": ci.upper,
                     "B": ci.resamples, "seed": ci.seed, "alpha": ci.alpha, "z0": ci.z0,
                     "acceleration": ci.acceleration, "degenerate": ci.degenerate}

    effect = {"cohens_d": d, "label": effect_label, "hedges_g": g, "hedges_g_paper": g_paper}
    return ComparisonReport(label, s.n, mean_diff, t, wilcoxon, effect, bootstrap, ks, fsd, ssd, na)
