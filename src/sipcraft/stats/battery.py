"""The full comparison battery over one paired sample.

One call produces every metric for a horizon: paired t, Wilcoxon signed
rank (both the exact and the normal-approximation path are reported),
effect sizes, the BCa interval, the KS statistic, and dominance verdicts.
Anything undefined for the given sample degrades to a per-cell
"not applicable" note instead of aborting the battery.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ..errors import DegenerateSampleError, InsufficientDataError
from .bootstrap import bootstrap_bca, check_alpha
from .dominance import check_fsd, check_ssd, ks_two_sample
from .paired import (
    WILCOXON_EXACT_LIMIT,
    PairedSample,
    classify_effect,
    cohens_d,
    hedges_g,
    paired_t_one_tailed,
    wilcoxon_signed_rank,
)

__all__ = ["BatteryConfig", "ComparisonReport", "run_battery"]

WILCOXON_MODES = ("auto", "exact", "normal_approx")
HEDGES_VARIANTS = ("standard", "paper_compat")

# battery cells that can individually degrade to "not applicable"
CELLS = ("t", "wilcoxon", "cohens_d", "hedges_g", "bootstrap", "ks", "fsd", "ssd")
# 100 times the paper's B; the CLI's samples (n <= 22) stay inside the
# n * B bound of bootstrap_bca, a longer window table may not
MAX_RESAMPLES = 1_000_000


class _BatteryConfig(NamedTuple):
    resamples: int = 10000
    alpha: float = 0.05
    seed: int = 42
    wilcoxon_mode: str = "auto"
    hedges_variant: str = "standard"


class BatteryConfig(_BatteryConfig):
    """Battery knobs; the JSON form uses keys B, alpha, seed, wilcoxon_mode, hedges_variant."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> BatteryConfig:
        self = super().__new__(cls, *args, **kwargs)
        for key, value in (("B", self.resamples), ("seed", self.seed)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{key} must be an integer, got {value!r}")
        if isinstance(self.alpha, bool) or not isinstance(self.alpha, (int, float)):
            raise ValueError(f"alpha must be a real number, got {self.alpha!r}")
        if self.resamples < 1000:
            raise ValueError(f"B must be >= 1000, got {self.resamples}")
        if self.resamples > MAX_RESAMPLES:
            raise ValueError(f"B must be <= {MAX_RESAMPLES}, got {self.resamples}")
        check_alpha(self.alpha)
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.wilcoxon_mode not in WILCOXON_MODES:
            raise ValueError(f"wilcoxon_mode must be one of {WILCOXON_MODES}, got {self.wilcoxon_mode!r}")
        if self.hedges_variant not in HEDGES_VARIANTS:
            raise ValueError(f"hedges_variant must be one of {HEDGES_VARIANTS}, got {self.hedges_variant!r}")
        return self

    @classmethod
    def from_dict(cls, data: dict) -> "BatteryConfig":
        known = {"B": "resamples", "alpha": "alpha", "seed": "seed",
                 "wilcoxon_mode": "wilcoxon_mode", "hedges_variant": "hedges_variant"}
        unknown = set(data) - set(known)
        if unknown:
            raise ValueError(f"unknown battery config keys: {sorted(unknown)}")
        kwargs = {known[k]: v for k, v in data.items()}
        return cls(**kwargs)

    def to_json_dict(self) -> dict:
        return {
            "B": self.resamples,
            "alpha": self.alpha,
            "seed": self.seed,
            "wilcoxon_mode": self.wilcoxon_mode,
            "hedges_variant": self.hedges_variant,
        }


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
    effect: dict  # cohens_d, label, hedges_g, hedges_variant
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
    d = effect_label = g = hedges_variant = bootstrap = fsd = ssd = None
    na: dict[str, str] = {}

    if s.n < 2 or all(v == 0.0 for v in s.diffs):
        reason = (f"n too small for inference (n={s.n})" if s.n < 2
                  else "degenerate sample (all differences zero)")
        na = dict.fromkeys(CELLS, reason)
    else:
        try:
            tr = paired_t_one_tailed(s)
            t = {"statistic": tr.statistic, "p": tr.p_value, "df": tr.df}
        except (DegenerateSampleError, InsufficientDataError) as exc:
            na["t"] = str(exc)

        try:
            w = wilcoxon_signed_rank(s, mode=config.wilcoxon_mode)
            # both inference paths are informative at these sample sizes, so
            # report whichever ones are computable alongside the configured mode
            p_exact = None
            if w.method == "exact":
                p_exact = w.p_value
            elif sum(1 for v in s.diffs if v != 0.0) <= WILCOXON_EXACT_LIMIT:
                p_exact = wilcoxon_signed_rank(s, mode="exact").p_value
            if w.method == "normal_approx":
                p_normal = w.p_value
            else:
                p_normal = wilcoxon_signed_rank(s, mode="normal_approx").p_value
            wilcoxon = {"statistic": w.statistic, "p": w.p_value, "method": w.method,
                        "p_exact": p_exact, "p_normal": p_normal}
        except (DegenerateSampleError, InsufficientDataError) as exc:
            na["wilcoxon"] = str(exc)

        try:
            d = cohens_d(s)
            effect_label = classify_effect(d)
        except (DegenerateSampleError, InsufficientDataError) as exc:
            na["cohens_d"] = na["hedges_g"] = str(exc)
        if d is not None:
            try:
                g = hedges_g(d, s.n, config.hedges_variant)
                hedges_variant = config.hedges_variant
            except InsufficientDataError as exc:
                na["hedges_g"] = str(exc)

        try:
            ci = bootstrap_bca(s, resamples=config.resamples, alpha=config.alpha, seed=config.seed)
            bootstrap = {"point": ci.point_estimate, "lower": ci.lower, "upper": ci.upper,
                         "B": ci.resamples, "seed": ci.seed, "alpha": ci.alpha, "z0": ci.z0,
                         "acceleration": ci.acceleration, "degenerate": ci.degenerate}
        except (DegenerateSampleError, InsufficientDataError) as exc:
            na["bootstrap"] = str(exc)

        try:
            kr = ks_two_sample(s.exp_values, s.ftd_values)
            ks = {"statistic": kr.statistic, "p": kr.p_value}
        except InsufficientDataError as exc:
            na["ks"] = str(exc)

        try:
            fsd, ssd = check_fsd(s).value, check_ssd(s).value
        except InsufficientDataError as exc:
            na["fsd"] = na["ssd"] = str(exc)

    effect = {"cohens_d": d, "label": effect_label, "hedges_g": g, "hedges_variant": hedges_variant}
    return ComparisonReport(label, s.n, mean_diff, t, wilcoxon, effect, bootstrap, ks, fsd, ssd,
                            dict(sorted(na.items())))
