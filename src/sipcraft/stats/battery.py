"""The full comparison battery over one paired sample.

One call produces every metric for a horizon: paired t, Wilcoxon signed
rank (both the exact and the normal-approximation path are reported),
effect sizes, the BCa interval, the KS statistic, and dominance verdicts.
Anything undefined for the given sample degrades to a per-cell
"not applicable" note instead of aborting the battery.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from ..errors import DegenerateSampleError, InsufficientDataError
from .bootstrap import BootstrapCI, bootstrap_bca
from .dominance import DominanceSide, check_fsd, check_ssd, ks_two_sample
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


@dataclass(frozen=True)
class BatteryConfig:
    """Battery knobs; the JSON form uses keys B, alpha, seed, wilcoxon_mode, hedges_variant."""

    resamples: int = 10000
    alpha: float = 0.05
    seed: int = 42
    wilcoxon_mode: str = "auto"
    hedges_variant: str = "standard"

    def __post_init__(self) -> None:
        for key, value in (("B", self.resamples), ("seed", self.seed)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{key} must be an integer, got {value!r}")
        if isinstance(self.alpha, bool) or not isinstance(self.alpha, (int, float)):
            raise ValueError(f"alpha must be a real number, got {self.alpha!r}")
        if self.resamples < 1000:
            raise ValueError(f"B must be >= 1000, got {self.resamples}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.wilcoxon_mode not in WILCOXON_MODES:
            raise ValueError(f"wilcoxon_mode must be one of {WILCOXON_MODES}, got {self.wilcoxon_mode!r}")
        if self.hedges_variant not in HEDGES_VARIANTS:
            raise ValueError(f"hedges_variant must be one of {HEDGES_VARIANTS}, got {self.hedges_variant!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "BatteryConfig":
        known = {"B": "resamples", "alpha": "alpha", "seed": "seed",
                 "wilcoxon_mode": "wilcoxon_mode", "hedges_variant": "hedges_variant"}
        unknown = set(data) - set(known)
        if unknown:
            raise ValueError(f"unknown battery config keys: {sorted(unknown)}")
        kwargs = {known[k]: v for k, v in data.items()}
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "BatteryConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("battery config JSON must be an object")
        return cls.from_dict(data)

    def to_json_dict(self) -> dict:
        return {
            "B": self.resamples,
            "alpha": self.alpha,
            "seed": self.seed,
            "wilcoxon_mode": self.wilcoxon_mode,
            "hedges_variant": self.hedges_variant,
        }


@dataclass
class ComparisonReport:
    """Battery output for one horizon; one column of the metrics table.

    ``not_applicable`` maps a cell name to the reason it is undefined for
    this sample; a cell is either populated or keyed there, never both.
    """

    label: str
    n: int
    mean_diff: float | None = None
    t_statistic: float | None = None
    t_p: float | None = None
    t_df: float | None = None
    wilcoxon_statistic: float | None = None
    wilcoxon_p: float | None = None
    wilcoxon_method: str | None = None
    wilcoxon_p_exact: float | None = None
    wilcoxon_p_normal: float | None = None
    cohens_d: float | None = None
    effect_label: str | None = None
    hedges_g: float | None = None
    hedges_variant: str | None = None
    ci: BootstrapCI | None = None
    ks_statistic: float | None = None
    ks_p: float | None = None
    fsd: DominanceSide | None = None
    ssd: DominanceSide | None = None
    not_applicable: dict[str, str] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        ci = None
        if self.ci is not None:
            ci = {
                "point": self.ci.point_estimate,
                "lower": self.ci.lower,
                "upper": self.ci.upper,
                "B": self.ci.resamples,
                "seed": self.ci.seed,
                "alpha": self.ci.alpha,
                "z0": self.ci.z0,
                "acceleration": self.ci.acceleration,
                "degenerate": self.ci.degenerate,
            }
        return {
            "label": self.label,
            "n": self.n,
            "mean_diff": self.mean_diff,
            "t": {"statistic": self.t_statistic, "p": self.t_p, "df": self.t_df},
            "wilcoxon": {
                "statistic": self.wilcoxon_statistic,
                "p": self.wilcoxon_p,
                "method": self.wilcoxon_method,
                "p_exact": self.wilcoxon_p_exact,
                "p_normal": self.wilcoxon_p_normal,
            },
            "effect": {
                "cohens_d": self.cohens_d,
                "label": self.effect_label,
                "hedges_g": self.hedges_g,
                "hedges_variant": self.hedges_variant,
            },
            "bootstrap": ci,
            "ks": {"statistic": self.ks_statistic, "p": self.ks_p},
            "fsd": self.fsd.value if self.fsd is not None else None,
            "ssd": self.ssd.value if self.ssd is not None else None,
            "not_applicable": dict(sorted(self.not_applicable.items())),
        }


def run_battery(s: PairedSample, config: BatteryConfig | None = None, label: str = "") -> ComparisonReport:
    """Run every comparison metric on the sample under one configuration.

    Cells that are undefined for the sample (too few pairs, no variation)
    are reported as not applicable with a reason. The mean difference is
    descriptive and always present.
    """
    config = config or BatteryConfig()
    report = ComparisonReport(label=label, n=s.n)
    report.mean_diff = math.fsum(s.diffs) / s.n

    if s.n < 2:
        reason = f"n too small for inference (n={s.n})"
        for cell in CELLS:
            report.not_applicable[cell] = reason
        return report

    if all(d == 0.0 for d in s.diffs):
        reason = "degenerate sample (all differences zero)"
        for cell in CELLS:
            report.not_applicable[cell] = reason
        return report

    try:
        t = paired_t_one_tailed(s)
        report.t_statistic, report.t_p, report.t_df = t.statistic, t.p_value, t.df
    except (DegenerateSampleError, InsufficientDataError) as exc:
        report.not_applicable["t"] = str(exc)

    try:
        w = wilcoxon_signed_rank(s, mode=config.wilcoxon_mode)
        report.wilcoxon_statistic = w.statistic
        report.wilcoxon_p = w.p_value
        report.wilcoxon_method = w.method
        # both inference paths are informative at these sample sizes, so
        # report whichever ones are computable alongside the configured mode
        n_nonzero = sum(1 for d in s.diffs if d != 0.0)
        if w.method == "exact":
            report.wilcoxon_p_exact = w.p_value
        elif n_nonzero <= WILCOXON_EXACT_LIMIT:
            report.wilcoxon_p_exact = wilcoxon_signed_rank(s, mode="exact").p_value
        if w.method == "normal_approx":
            report.wilcoxon_p_normal = w.p_value
        else:
            report.wilcoxon_p_normal = wilcoxon_signed_rank(s, mode="normal_approx").p_value
    except (DegenerateSampleError, InsufficientDataError) as exc:
        report.not_applicable["wilcoxon"] = str(exc)

    d_value: float | None = None
    try:
        d_value = cohens_d(s)
        report.cohens_d = d_value
        report.effect_label = classify_effect(d_value)
    except (DegenerateSampleError, InsufficientDataError) as exc:
        report.not_applicable["cohens_d"] = str(exc)

    if d_value is None:
        report.not_applicable["hedges_g"] = report.not_applicable["cohens_d"]
    else:
        try:
            report.hedges_g = hedges_g(d_value, s.n, config.hedges_variant)
            report.hedges_variant = config.hedges_variant
        except InsufficientDataError as exc:
            report.not_applicable["hedges_g"] = str(exc)

    try:
        report.ci = bootstrap_bca(s, resamples=config.resamples, alpha=config.alpha, seed=config.seed)
    except (DegenerateSampleError, InsufficientDataError) as exc:
        report.not_applicable["bootstrap"] = str(exc)

    try:
        ks = ks_two_sample(s.exp_values, s.ftd_values)
        report.ks_statistic, report.ks_p = ks.statistic, ks.p_value
    except InsufficientDataError as exc:
        report.not_applicable["ks"] = str(exc)

    try:
        report.fsd = check_fsd(s)
        report.ssd = check_ssd(s)
    except InsufficientDataError as exc:
        report.not_applicable["fsd"] = str(exc)
        report.not_applicable["ssd"] = str(exc)
        report.fsd = None
        report.ssd = None

    return report
