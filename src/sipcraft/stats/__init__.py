"""Statistical battery: paired tests, effect sizes, bootstrap, dominance.

The re-exports below import their submodule on first access (PEP 562), so
importing one submodule, as the engine does with ``paired``, loads no
other.
"""

from .. import _lazy_exports

# submodule -> the names this package re-exports from it
_EXPORTS = {
    "battery": ("BatteryConfig", "ComparisonReport", "run_battery"),
    "bootstrap": ("BootstrapCI", "bootstrap_bca"),
    "dominance": ("DominanceSide", "KsResult", "check_fsd", "check_ssd", "ks_two_sample"),
    "paired": (
        "PairedSample",
        "TestResult",
        "WilcoxonResult",
        "classify_effect",
        "cohens_d",
        "hedges_g",
        "paired_t_one_tailed",
        "wilcoxon_signed_rank",
    ),
}
__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
