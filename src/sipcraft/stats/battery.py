"""The full comparison battery over one paired sample.

One call produces every metric for a horizon: paired t, Wilcoxon signed
rank (both the exact and the normal-approximation path are reported),
Cohen's d, Hedges' g (both the standard and the paper's small-sample
correction are reported), the BCa interval, the KS statistic, and
dominance verdicts. Anything undefined for the given sample degrades to a
per-cell "not applicable" note instead of aborting the battery.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ..errors import DegenerateSampleError
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


def run_battery(s: PairedSample, config: BatteryConfig = BatteryConfig(), label: str = "") -> ComparisonReport:
    """Run every comparison metric on the sample under one configuration.

    Cells that are undefined for the sample (too few pairs, no variation)
    are reported as not applicable with a reason. The mean difference is
    descriptive and always present.
    """
    mean_diff = math.fsum(s.diffs) / s.n
    t = dict.fromkeys(TestResult._fields)
    wilcoxon = dict.fromkeys(WilcoxonResult._fields)
    ks = dict.fromkeys(KsResult._fields)
    d = effect_label = g = g_paper = bootstrap = fsd = ssd = None
    na: dict[str, str] = {}

    if s.n < 2 or all(v == 0.0 for v in s.diffs):
        reason = (f"n too small for inference (n={s.n})" if s.n < 2
                  else "degenerate sample (all differences zero)")
        na = dict.fromkeys(CELLS, reason)
    else:
        try:
            t = paired_t_one_tailed(s)._asdict()
        except DegenerateSampleError as exc:
            na["t"] = str(exc)

        # n >= 2 pairs and a nonzero difference from here on, so the Wilcoxon,
        # KS and dominance cells are always defined
        wilcoxon = wilcoxon_signed_rank(s)._asdict()

        try:
            d = cohens_d(s)
            effect_label = classify_effect(d)
        except DegenerateSampleError as exc:
            na["cohens_d"] = na["hedges_g"] = str(exc)
        if d is not None:
            try:
                g, g_paper = hedges_g(d, s.n)
            except DegenerateSampleError as exc:
                na["hedges_g"] = str(exc)

        try:
            ci = bootstrap_bca(s, config)
            bootstrap = {"point": ci.point_estimate, "lower": ci.lower, "upper": ci.upper,
                         "B": ci.resamples, "seed": ci.seed, "alpha": ci.alpha, "z0": ci.z0,
                         "acceleration": ci.acceleration, "degenerate": ci.degenerate}
        except DegenerateSampleError as exc:
            na["bootstrap"] = str(exc)

        ks = ks_two_sample(s)._asdict()
        fsd, ssd = check_fsd(s), check_ssd(s)

    effect = {"cohens_d": d, "label": effect_label, "hedges_g": g, "hedges_g_paper": g_paper}
    return ComparisonReport(label, s.n, mean_diff, t, wilcoxon, effect, bootstrap, ks, fsd, ssd,
                            dict(sorted(na.items())))
