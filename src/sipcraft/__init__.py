"""sipcraft: monthly SIP backtesting against a daily index series, with a
statistical battery comparing first-trading-day vs previous-month-expiry
execution schedules.

The re-exports below import their submodule on first access (PEP 562), so
``import sipcraft`` loads no layer until one of its names is used, and a
command that never runs the battery never imports it.
"""

import importlib

from ._version import VERSION as __version__

# submodule -> the names this package re-exports from it
_EXPORTS = {
    "engine": (
        "SipPlan",
        "SipResult",
        "Window",
        "WindowOutcome",
        "cagr",
        "cagr_via_lemma",
        "enumerate_windows",
        "paired_run",
        "simulate",
    ),
    "schedule": (
        "MonthKey",
        "MonthSchedule",
        "ScheduleTable",
        "Strategy",
        "build_schedule",
        "compute_expiry",
        "execution_date",
        "load_schedule_overrides",
        "resolve_first_trading_day",
    ),
    "stats": ("BatteryConfig", "ComparisonReport", "PairedSample", "run_battery"),
    "timeseries": ("IndexSeries", "TradingDay", "parse_series", "serialize_series"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
