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

from ..errors import DegenerateSampleError, InsufficientDataError
from .bootstrap import MIN_RESAMPLES, bootstrap_bca, check_alpha
from .dominance import check_fsd, check_ssd, ks_two_sample
from .paired import (
    PairedSample,
    classify_effect,
    cohens_d,
    hedges_g,
    paired_t_one_tailed,
    wilcoxon_signed_rank,
)

__all__ = ["BatteryConfig", "ComparisonReport", "run_battery"]

# battery cells that can individually degrade to "not applicable"
CELLS = ("t", "wilcoxon", "cohens_d", "hedges_g", "bootstrap", "ks", "fsd", "ssd")
# 100 times the paper's B, bounded for run time: at this B, 70 one-year
# windows take about 3.6 s on a 2-core machine
MAX_RESAMPLES = 1_000_000


class _BatteryConfig(NamedTuple):
    B: int = 10000
    alpha: float = 0.05
    seed: int = 42


class BatteryConfig(_BatteryConfig):
    """Battery settings; the field names are the JSON keys, so ``_asdict()`` is the JSON form."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> BatteryConfig:
        self = super().__new__(cls, *args, **kwargs)
        for key, value in (("B", self.B), ("seed", self.seed)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{key} must be an integer, got {value!r}")
        if isinstance(self.alpha, bool) or not isinstance(self.alpha, (int, float)):
            raise ValueError(f"alpha must be a real number, got {self.alpha!r}")
        if self.B < MIN_RESAMPLES:
            raise ValueError(f"B must be >= {MIN_RESAMPLES}, got {self.B}")
        if self.B > MAX_RESAMPLES:
            raise ValueError(f"B must be <= {MAX_RESAMPLES}, got {self.B}")
        check_alpha(self.alpha)
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        return self

    @classmethod
    def from_dict(cls, data: dict) -> "BatteryConfig":
        unknown = set(data) - set(cls._fields)
        if unknown:
            raise ValueError(f"unknown battery config keys: {sorted(unknown)}")
        return cls(**data)


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
    t: dict  # statistic, p, df
    wilcoxon: dict  # statistic, p, method, p_exact, p_normal
    effect: dict  # cohens_d, label, hedges_g, hedges_g_paper
    bootstrap: dict | None  # the BootstrapCI under the bundle's keys
    ks: dict  # statistic, p
    fsd: str | None  # a DominanceSide value
    ssd: str | None
    not_applicable: dict


def run_battery(s: PairedSample, config: BatteryConfig | None = None, label: str = "") -> ComparisonReport:
    """Run every comparison metric on the sample under one configuration.

    Cells that are undefined for the sample (too few pairs, no variation)
    are reported as not applicable with a reason. The mean difference is
    descriptive and always present.
    """
    config = config or BatteryConfig()
    mean_diff = math.fsum(s.diffs) / s.n
    t = dict.fromkeys(("statistic", "p", "df"))
    wilcoxon = dict.fromkeys(("statistic", "p", "method", "p_exact", "p_normal"))
    ks = dict.fromkeys(("statistic", "p"))
    d = effect_label = g = g_paper = bootstrap = fsd = ssd = None
    na: dict[str, str] = {}

    if s.n < 2 or all(v == 0.0 for v in s.diffs):
        reason = (f"n too small for inference (n={s.n})" if s.n < 2
                  else "degenerate sample (all differences zero)")
        na = dict.fromkeys(CELLS, reason)
    else:
        try:
            tr = paired_t_one_tailed(s)
            t = {"statistic": tr.statistic, "p": tr.p_value, "df": tr.df}
        except DegenerateSampleError as exc:
            na["t"] = str(exc)

        # n >= 2 pairs and a nonzero difference from here on, so the Wilcoxon,
        # KS and dominance cells are always defined
        w = wilcoxon_signed_rank(s)
        # exact up to WILCOXON_EXACT_LIMIT nonzero differences; both paths are
        # informative at these sample sizes, so an exact p gets its normal
        # approximation reported next to it
        exact = w.p_exact is not None
        wilcoxon = {"statistic": w.statistic, "p": w.p_exact if exact else w.p_normal,
                    "method": "exact" if exact else "normal_approx",
                    "p_exact": w.p_exact, "p_normal": w.p_normal}

        try:
            d = cohens_d(s)
            effect_label = classify_effect(d)
        except DegenerateSampleError as exc:
            na["cohens_d"] = na["hedges_g"] = str(exc)
        if d is not None:
            try:
                g, g_paper = hedges_g(d, s.n)
            except InsufficientDataError as exc:
                na["hedges_g"] = str(exc)

        try:
            ci = bootstrap_bca(s, resamples=config.B, alpha=config.alpha, seed=config.seed)
            bootstrap = {"point": ci.point_estimate, "lower": ci.lower, "upper": ci.upper,
                         "B": ci.resamples, "seed": ci.seed, "alpha": ci.alpha, "z0": ci.z0,
                         "acceleration": ci.acceleration, "degenerate": ci.degenerate}
        except InsufficientDataError as exc:
            na["bootstrap"] = str(exc)

        kr = ks_two_sample(s)
        ks = {"statistic": kr.statistic, "p": kr.p_value}
        fsd, ssd = check_fsd(s).value, check_ssd(s).value

    effect = {"cohens_d": d, "label": effect_label, "hedges_g": g, "hedges_g_paper": g_paper}
    return ComparisonReport(label, s.n, mean_diff, t, wilcoxon, effect, bootstrap, ks, fsd, ssd,
                            dict(sorted(na.items())))
