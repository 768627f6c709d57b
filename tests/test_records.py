"""The package's records are immutable tuples with named fields."""

import datetime
import importlib
import pkgutil

import pytest

import sipcraft
from sipcraft.cli import Settings
from sipcraft.engine import Window, WindowOutcome
from sipcraft.schedule import MonthKey, MonthSchedule
from sipcraft.stats.battery import run_battery
from sipcraft.stats.bootstrap import BatteryConfig, BootstrapCI
from sipcraft.stats.dominance import KsResult
from sipcraft.stats.paired import PairedSample, TestResult as PairedTestResult, WilcoxonResult

DAY = datetime.date(2003, 1, 2)

# one instance of every record the package defines
EXAMPLES = [
    MonthKey(2003, 1),
    MonthSchedule(DAY, None, "computed", None),
    Window(2003, 2005),
    WindowOutcome(Window(2003, 2003), 1.0, 2.0),
    PairedTestResult(1.0, 0.5, 21),
    WilcoxonResult(10.0, 0.5, "exact", 0.5, 0.4),
    BootstrapCI(0.1, -0.2, 0.4, 1000, 42, 0.05, 0.0, 0.0),
    KsResult(0.25, 0.9),
    BatteryConfig(),
    run_battery(PairedSample([5.0], [4.0]), label="20y"),
    Settings("series.csv", None, "json", 10_000.0, [1], "ftd", 2003, 1, {"B": 1000}),
]


def test_examples_cover_every_record():
    modules = [importlib.import_module(m.name)
               for m in pkgutil.walk_packages(sipcraft.__path__, "sipcraft.")]
    records = {obj for module in modules for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, tuple)
               and hasattr(obj, "_fields") and obj.__module__ == module.__name__
               and not obj.__name__.startswith("_")}
    assert records == {type(r) for r in EXAMPLES}


@pytest.mark.parametrize("record", EXAMPLES, ids=lambda r: type(r).__name__)
def test_record_is_immutable(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])
    with pytest.raises(AttributeError):
        record.extra = 1  # no instance __dict__ to put it in
    # a record unpacks, indexes and compares like the plain tuple of its values
    assert record == tuple(record) and record[0] == getattr(record, record._fields[0])
