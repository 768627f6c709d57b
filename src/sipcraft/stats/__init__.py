"""Statistical battery: paired tests, effect sizes, bootstrap, dominance."""

from .battery import BatteryConfig, ComparisonReport, run_battery
from .bootstrap import BootstrapCI, bootstrap_bca
from .dominance import (
    DominanceSide,
    KsResult,
    check_fsd,
    check_ssd,
    ks_two_sample,
)
from .paired import (
    PairedSample,
    TestResult,
    classify_effect,
    cohens_d,
    hedges_g,
    paired_t_one_tailed,
    wilcoxon_signed_rank,
)

__all__ = [
    "BatteryConfig",
    "ComparisonReport",
    "run_battery",
    "BootstrapCI",
    "bootstrap_bca",
    "DominanceSide",
    "KsResult",
    "check_fsd",
    "check_ssd",
    "ks_two_sample",
    "PairedSample",
    "TestResult",
    "classify_effect",
    "cohens_d",
    "hedges_g",
    "paired_t_one_tailed",
    "wilcoxon_signed_rank",
]
