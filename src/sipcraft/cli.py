"""Command-line interface binding ingestion, scheduling, simulation,
statistics, and reporting into reproducible runs.

Subcommands: validate, simulate, compare, fixtures. Settings resolve as
flags > config file > SIPCRAFT_SEED environment fallback (seed only) >
defaults, and every effective value is echoed in output provenance.
Exit codes: 0 success, 1 validation anomalies, 2 I/O or config errors.
"""

from __future__ import annotations

import argparse
import importlib
import io
import os
import sys
from typing import NamedTuple

from ._version import VERSION


def _deferred(module: str, name: str):
    """Stand-in for ``module.name`` that imports ``module`` on its first call.

    Every layer is imported only by the handlers that run it, so
    ``--version`` loads no sipcraft module beyond the package, ``_version``
    and this one, ``validate`` loads no engine and no ``synth``, and
    ``fixtures`` no schedule. The functions the handlers call in the
    timeseries, schedule, engine, battery and report layers stay attributes
    of this module all the same: ``perfbench/trace_child.py`` times each
    layer by wrapping them here, so the handlers must look them up in this
    module's globals.
    """
    def call(*args, **kwargs):
        return getattr(importlib.import_module(module, __package__), name)(*args, **kwargs)

    return call


parse_series = _deferred(".timeseries", "parse_series")
load_schedule_overrides = _deferred(".schedule", "load_schedule_overrides")
build_schedule = _deferred(".schedule", "build_schedule")
paired_run = _deferred(".engine", "paired_run")
run_battery = _deferred(".stats.battery", "run_battery")
boxplot_summary = _deferred(".report", "boxplot_summary")
render_bundle = _deferred(".report", "render_bundle")
file_sha256 = _deferred(".report", "file_sha256")

EXIT_OK = 0
EXIT_ANOMALIES = 1
EXIT_ERROR = 2

ENV_SEED = "SIPCRAFT_SEED"

CONFIG_KEYS = ("data", "schedule", "format", "amount", "durations", "strategy",
               "start_year", "years", "stats")
FORMATS = ("markdown", "csv", "json")
# schedule.Strategy's values, synth.KINDS and engine.SUPPORTED_DURATIONS,
# repeated here so that building the parser and resolving settings load none
# of those modules; a test keeps them equal
STRATEGIES = ("ftd", "exp")
KINDS = ("flat", "growth", "walk")
DEFAULT_DURATIONS = (1, 3, 5, 10, 20)
# the amount cancels out of every CAGR, so its default is arbitrary
DEFAULT_AMOUNT = 10_000.0


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose help, version and usage text raise the
    ``OSError`` of a stream that cannot be written, where argparse drops it.
    Subparsers are built from the same class."""

    def _print_message(self, message: str, file=None) -> None:
        if message:
            (file or sys.stderr).write(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sipcraft",
        description="Monthly SIP backtesting under first-trading-day vs expiry-day execution.",
    )
    parser.add_argument("--version", action="version", version=f"sipcraft {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)
    p_val = sub.add_parser("validate", help="check the series and schedule anchors, report anomalies")
    p_sim = sub.add_parser("simulate", help="run one plan and print its execution ledger")
    p_cmp = sub.add_parser("compare", help="simulate the window grid and run the full battery")
    p_fix = sub.add_parser("fixtures", help="generate a synthetic daily series CSV")
    for p in (p_val, p_sim, p_cmp):
        p.add_argument("--data", help="daily close CSV (date,close; extra columns ignored)"
                       + (", or a per-window CAGR table" if p is p_cmp else ""))
        p.add_argument("--schedule", help="schedule override CSV (year,month,ftd_dom,expiry_dom)")
        p.add_argument("--config", help="JSON config file; command-line flags win")
    for p, handler in ((p_val, cmd_validate), (p_sim, cmd_simulate), (p_cmp, cmd_compare),
                       (p_fix, cmd_fixtures)):
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.set_defaults(handler=handler)

    p_sim.add_argument("--strategy", choices=STRATEGIES)
    p_sim.add_argument("--start-year", type=int)
    p_sim.add_argument("--years", type=int)
    p_sim.add_argument("--amount", type=float)
    p_sim.add_argument("--format", choices=FORMATS)
    p_cmp.add_argument("--durations", help="comma-separated subset of 1,3,5,10,20")
    p_cmp.add_argument("--seed", type=int)
    p_cmp.add_argument("--resamples", type=int)
    p_cmp.add_argument("--alpha", type=float)
    p_cmp.add_argument("--format", choices=FORMATS)

    p_fix.add_argument("--kind", choices=KINDS, default="flat")
    p_fix.add_argument("--start-year", type=int, default=2003)
    p_fix.add_argument("--years", type=int, default=1)
    p_fix.add_argument("--seed", type=int, default=0)
    p_fix.add_argument("--base", type=float, default=1000.0)
    p_fix.add_argument("--holiday-rate", type=float, default=0.0)
    return parser


class Settings(NamedTuple):
    """One run's settings, built by ``resolve_settings``."""

    data: str | None
    schedule: str | None
    format: str
    amount: float
    durations: list[int]
    strategy: str | None
    start_year: int | None
    years: int | None
    battery: dict  # BatteryConfig.from_dict input: stats, flags and SIPCRAFT_SEED merged


def _bad(key: str, what: str, value) -> ValueError:
    return ValueError(f"{key} must be {what}, got {value!r}")


def _durations(raw) -> list[int]:
    if raw is None:
        return list(DEFAULT_DURATIONS)
    if isinstance(raw, str):
        try:
            raw = [int(part) for part in raw.split(",") if part.strip()]
        except ValueError:
            raise _bad("durations", "comma-separated integers", raw) from None
    if not isinstance(raw, list) or any(type(v) is not int for v in raw):
        raise _bad("durations", "integers", raw)
    if not raw:
        raise ValueError("durations list is empty")
    bad = [v for v in raw if v not in DEFAULT_DURATIONS]
    if bad:
        raise ValueError(f"unsupported durations {bad}, expected a subset of {list(DEFAULT_DURATIONS)}")
    return sorted(set(raw))


def resolve_settings(args) -> Settings:
    """Resolve and check every setting: flag > config file > SIPCRAFT_SEED
    (seed only) > default. A config key given as null counts as given.
    BatteryConfig checks the stats keys when ``compare`` builds it.
    """
    from datetime import MAXYEAR, MINYEAR

    cfg = {}
    if getattr(args, "config", None):
        import json

        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                cfg = json.load(fh)
            except RecursionError:
                raise ValueError("config file nests too deeply") from None
        if not isinstance(cfg, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(cfg) - set(CONFIG_KEYS))
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")

    def pick(key: str, default=None):
        flag = getattr(args, key, None)
        return cfg.get(key, default) if flag is None else flag

    data, schedule = pick("data"), pick("schedule")
    for key, path in (("data", data), ("schedule", schedule)):
        # open() would take a config number as a file descriptor
        if path is not None and not isinstance(path, str):
            raise _bad(key, "a path string", path)
    fmt = pick("format", "markdown")
    if fmt not in FORMATS:
        raise _bad("format", f"one of {FORMATS}", fmt)
    strategy = pick("strategy")
    if strategy is not None and strategy not in STRATEGIES:
        raise _bad("strategy", f"one of {STRATEGIES}", strategy)
    amount = pick("amount", DEFAULT_AMOUNT)
    if type(amount) not in (int, float):
        raise _bad("amount", "a number", amount)
    try:
        amount = float(amount)
    except OverflowError:
        raise _bad("amount", "a number in float range", amount) from None
    # compare never uses the amount, but one config serves every command
    if not 0.0 < amount < float("inf"):
        raise _bad("amount", "positive and finite", amount)

    # a plan or a fixture spans December of start_year - 1 through December
    # of its last year, and every one of those dates must be a datetime.date
    start_year, years = pick("start_year"), pick("years")
    if start_year is not None and not (type(start_year) is int and MINYEAR < start_year <= MAXYEAR):
        raise _bad("start_year", f"an integer in {MINYEAR + 1}..{MAXYEAR}", start_year)
    most = MAXYEAR + 1 - (start_year or MINYEAR + 1)
    if years is not None and not (type(years) is int and 1 <= years <= most):
        raise _bad("years", f"an integer in 1..{most}", years)

    battery = cfg.get("stats", {})
    if not isinstance(battery, dict):
        raise _bad("stats", "a JSON object", battery)
    env_seed = os.environ.get(ENV_SEED)
    if env_seed is not None and "seed" not in battery and getattr(args, "seed", None) is None:
        try:
            battery["seed"] = int(env_seed)
            if battery["seed"] < 0:
                raise ValueError
        except ValueError:
            raise ValueError(f"{ENV_SEED} must be a non-negative integer, got {env_seed!r}") from None
    for key, flag in (("B", "resamples"), ("alpha", "alpha"), ("seed", "seed")):
        if getattr(args, flag, None) is not None:
            battery[key] = getattr(args, flag)
    return Settings(data, schedule, fmt, amount, _durations(pick("durations")),
                    strategy, start_year, years, battery)


def _write_out(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read(path: str) -> tuple[bytes, io.TextIOWrapper]:
    """An input file's bytes, read once, and its lines decoded from them:
    the parser reads the lines and ``compare`` hashes the bytes, so a pipe's
    provenance is what it carried. The lines decode as a file opened with
    utf-8-sig and newline="" decodes itself, chunk by chunk, so a decode
    error names the same position."""
    with open(path, "rb") as fh:
        raw = fh.read()
    return raw, io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline="")


def _load_inputs(settings: Settings, durations: list[int] | None = None):
    """The daily close series, the schedule overrides and the bytes of both
    files (None for no schedule). Given durations, as ``compare`` gives
    them, a data file whose header names both CAGR columns is a per-window
    CAGR table instead: its runs by duration come back in place of the
    series, and no overrides."""
    if not settings.data:
        raise ValueError("no data file given (use --data or the config file)")
    data, fh = _read(settings.data)
    with fh:
        if durations is not None:
            from .engine import is_window_table, load_windows

            header = fh.readline()
            fh.seek(0)
            if is_window_table(header):
                if settings.schedule:
                    raise ValueError("a schedule file does not apply to a per-window CAGR table")
                return load_windows(fh, durations), None, (data, None)
        series = parse_series(fh)
    overrides = schedule = None
    if settings.schedule:
        schedule, fh = _read(settings.schedule)
        with fh:
            overrides = load_schedule_overrides(fh)
    return series, overrides, (data, schedule)


def cmd_validate(settings: Settings, args) -> int:
    import json

    from .schedule import MonthKey

    series, overrides, _ = _load_inputs(settings)
    start = MonthKey(series.first_date.year, series.first_date.month)
    end = MonthKey(series.last_date.year, series.last_date.month)
    table, anomalies = build_schedule(series, overrides, start, end)
    payload = {
        "data": settings.data,
        "schedule": settings.schedule,
        "rows": len(series),
        "coverage": {"first": series.first_date.isoformat(), "last": series.last_date.isoformat()},
        "months_checked": len(table),
        "anomalies": anomalies,
    }
    _write_out(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_ANOMALIES if anomalies else EXIT_OK


def cmd_simulate(settings: Settings, args) -> int:
    from .engine import Window, simulate
    from .report import render_simulation
    from .schedule import MonthKey, Strategy

    series, overrides, _ = _load_inputs(settings)
    if settings.strategy is None or settings.start_year is None or settings.years is None:
        raise ValueError("simulate needs --strategy, --start-year and --years")

    window = Window(settings.start_year, settings.start_year + settings.years - 1)
    table, _ = build_schedule(series, overrides,
                              MonthKey(window.from_year - 1, 12), MonthKey(window.to_year, 12))
    ledger = simulate(Strategy(settings.strategy), window, settings.amount, series, table)
    _write_out(render_simulation(ledger, settings.format), args.out)
    return EXIT_OK


def cmd_compare(settings: Settings, args) -> int:
    from .engine import enumerate_windows
    from .report import tool_provenance, window_row
    from .schedule import MonthKey
    from .stats.bootstrap import BatteryConfig

    series, overrides, (data, schedule) = _load_inputs(settings, settings.durations)
    battery_config = BatteryConfig.from_dict(settings.battery)

    runs = series if isinstance(series, dict) else None  # a window table's runs by duration
    if runs:
        source, anomalies = "windows", []
    else:
        source = "overrides+computed" if settings.schedule else "computed"
        windows = [w for d in settings.durations for w in enumerate_windows(d)]
        first_year = min(w.from_year for w in windows)
        last_year = max(w.to_year for w in windows)
        table, anomalies = build_schedule(series, overrides,
                                          MonthKey(first_year - 1, 12), MonthKey(last_year, 12))

    window_tables: dict[str, list[dict]] = {}
    metrics: list[dict] = []
    boxplots: dict[str, dict] = {}
    for duration in settings.durations:
        sample, outcomes = runs[duration] if runs else paired_run(duration, series, table)
        window_tables[f"{duration}y"] = [window_row(o) for o in outcomes]
        # the 20-year horizon has a single window, so the battery reduces to
        # descriptive cells by construction (n=1 keeps every test cell n/a)
        metrics.append(run_battery(sample, battery_config, label=f"{duration}y")._asdict())
        boxplots[f"{duration}y"] = {"ftd": boxplot_summary(sample.ftd_values),
                                    "exp": boxplot_summary(sample.exp_values)}

    provenance = tool_provenance()
    provenance.update({
        "data_path": settings.data,
        "data_sha256": file_sha256(data),
        "schedule_path": settings.schedule,
        "schedule_sha256": file_sha256(schedule) if schedule is not None else None,
        "schedule_source": source,
        "durations": settings.durations,
        "battery_config": battery_config._asdict(),
        "anomaly_count": len(anomalies),
    })
    bundle = {
        "provenance": provenance,
        "anomalies": anomalies,
        "windows": window_tables,
        "metrics": metrics,
        "boxplots": boxplots,
    }
    _write_out(render_bundle(bundle, settings.format), args.out)
    return EXIT_OK


def cmd_fixtures(settings: Settings, args) -> int:
    from .synth import generate_series
    from .timeseries import serialize_series

    series = generate_series(kind=args.kind, start_year=settings.start_year, years=settings.years,
                             seed=args.seed, base=args.base, holiday_rate=args.holiday_rate)
    _write_out(serialize_series(series), args.out)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(resolve_settings(args), args)
    except (OSError, ValueError) as exc:  # every sipcraft error is a ValueError
        print(f"sipcraft: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
