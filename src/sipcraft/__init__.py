"""sipcraft: monthly SIP backtesting against a daily index series, with a
statistical battery comparing first-trading-day vs previous-month-expiry
execution schedules.

The re-exports below import their submodule on first access (PEP 562), so
``import sipcraft`` loads no layer until one of its names is used, and a
command that never runs the battery never imports it.
"""

import importlib

from ._version import VERSION as __version__


def _lazy_exports(namespace: dict, exports: dict[str, tuple[str, ...]]):
    """PEP 562 ``__getattr__`` and ``__dir__`` for a package's re-exports.

    ``namespace`` is the package's ``globals()`` and ``exports`` maps each
    submodule to the names re-exported from it. A name imports its
    submodule on first access. Returns the two hooks and the names.
    """
    module_of = {name: module for module, names in exports.items() for name in names}
    package = namespace["__name__"]

    def __getattr__(name: str):
        module = module_of.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f".{module}", package), name)
        namespace[name] = value  # later lookups skip this hook
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *namespace["__all__"]})

    return __getattr__, __dir__, list(module_of)


# submodule -> the names this package re-exports from it
_EXPORTS = {
    "engine": (
        "SipPlan",
        "Window",
        "WindowOutcome",
        "cagr",
        "enumerate_windows",
        "paired_run",
        "simulate",
    ),
    "schedule": (
        "MonthKey",
        "MonthSchedule",
        "Strategy",
        "build_schedule",
        "compute_expiry",
        "load_schedule_overrides",
        "resolve_first_trading_day",
    ),
    "stats": ("BatteryConfig", "ComparisonReport", "PairedSample", "run_battery"),
    "timeseries": ("IndexSeries", "parse_series", "serialize_series"),
}
__getattr__, __dir__, _names = _lazy_exports(globals(), _EXPORTS)
__all__ = ["__version__", *_names]
