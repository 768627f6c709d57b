"""Command-line interface binding ingestion, scheduling, simulation,
statistics, and reporting into reproducible runs.

Subcommands: validate, simulate, compare, fixtures. Every setting is a
flag, and ``@FILE`` reads more flags from FILE, one argument per line.
compare's seed resolves as --seed > the SIPCRAFT_SEED environment variable
> default, and compare echoes every effective value in its bundle's
provenance.
Exit codes: 0 success, 1 validation anomalies, 2 I/O, usage or input errors.
"""

from __future__ import annotations

import argparse
import importlib
import io
import os
import sys

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

FORMATS = ("markdown", "csv", "json")
# the names the engine takes and the ledger prints; --strategy's choices check them
STRATEGIES = ("ftd", "exp")
# the series kinds synth.generate_series draws; --kind's choices are their only check
KINDS = ("flat", "growth", "walk")
MAX_HOLIDAY_RATE = 0.3
# the amount cancels out of every CAGR, so its default is arbitrary
DEFAULT_AMOUNT = 10_000.0


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose help and version text raise the
    ``OSError`` of a stream that cannot be written, where argparse drops it,
    and whose rejections raise ``ValueError``, so that ``main`` reports them
    on its one error line. Subparsers are built from the same class."""

    def error(self, message: str):
        raise ValueError(message)

    def _print_message(self, message: str, file=None) -> None:
        if message:
            (file or sys.stderr).write(message)

    def _get_values(self, action: argparse.Action, arg_strings: list[str]):
        # before Python 3.13 argparse drops the "--" of --years=--, and the
        # empty list left in its place skips type= and choices=
        if action.option_strings and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sipcraft",
        description="Monthly SIP backtesting under first-trading-day vs expiry-day execution.",
        # @FILE stands for the arguments FILE holds, one per line
        fromfile_prefix_chars="@",
    )
    parser.add_argument("--version", action="version", version=f"sipcraft {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)
    p_val = sub.add_parser("validate", help="check the series and schedule anchors, report anomalies")
    p_sim = sub.add_parser("simulate", help="run one plan and print its execution ledger")
    p_cmp = sub.add_parser("compare", help="simulate the window grid and run the full battery")
    p_fix = sub.add_parser("fixtures", help="generate a synthetic daily series CSV")
    for p in (p_val, p_sim, p_cmp):
        p.add_argument("--data", required=True,
                       help="daily close CSV (date,close; extra columns ignored)"
                       + (", or a per-window CAGR table" if p is p_cmp else ""))
        p.add_argument("--schedule", help="schedule override CSV (year,month,ftd_dom,expiry_dom)")
    for p, handler in ((p_val, cmd_validate), (p_sim, cmd_simulate), (p_cmp, cmd_compare),
                       (p_fix, cmd_fixtures)):
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.set_defaults(handler=handler)

    p_sim.add_argument("--strategy", choices=STRATEGIES, required=True)
    p_sim.add_argument("--start-year", type=int, required=True)
    p_sim.add_argument("--years", type=int, required=True)
    p_sim.add_argument("--amount", type=float, default=DEFAULT_AMOUNT)
    p_sim.add_argument("--format", choices=FORMATS, default="markdown")
    p_cmp.add_argument("--durations", help="comma-separated subset of 1,3,5,10,20")
    p_cmp.add_argument("--seed", type=int)
    p_cmp.add_argument("--resamples", type=int)
    p_cmp.add_argument("--alpha", type=float)
    p_cmp.add_argument("--format", choices=FORMATS, default="markdown")

    p_fix.add_argument("--kind", choices=KINDS, default="flat")
    p_fix.add_argument("--start-year", type=int, default=2003)
    p_fix.add_argument("--years", type=int, default=1)
    p_fix.add_argument("--seed", type=int, default=0)
    p_fix.add_argument("--base", type=float, default=1000.0)
    p_fix.add_argument("--holiday-rate", type=float, default=0.0)
    return parser


def _durations(raw: str | None) -> list[int]:
    from .engine import SUPPORTED_DURATIONS

    if raw is None:
        return list(SUPPORTED_DURATIONS)
    try:
        durations = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"durations must be comma-separated integers, got {raw!r}") from None
    if not durations:
        raise ValueError("durations list is empty")
    bad = [v for v in durations if v not in SUPPORTED_DURATIONS]
    if bad:
        raise ValueError(f"unsupported durations {bad}, expected a subset of {list(SUPPORTED_DURATIONS)}")
    return sorted(set(durations))


def resolve_settings(args: argparse.Namespace) -> argparse.Namespace:
    """Check every value argparse cannot: the amount, the years, fixtures'
    base and holiday rate, compare's durations and battery, and the seed.
    No layer checks these again. For ``compare``, the checked durations
    replace the flag on ``args``, and ``battery`` is the ``BatteryConfig``
    of the battery flags given, with the seed from --seed, else
    SIPCRAFT_SEED, else the default. ``args`` comes back.
    """
    from datetime import MAXYEAR, MINYEAR

    if "amount" in args and not 0.0 < args.amount < float("inf"):
        raise ValueError(f"amount must be positive and finite, got {args.amount!r}")
    # a plan or a fixture spans December of start_year - 1 through December
    # of its last year, and every one of those dates must be a datetime.date
    if "years" in args:
        if not MINYEAR < args.start_year <= MAXYEAR:
            raise ValueError(f"start_year must be an integer in {MINYEAR + 1}..{MAXYEAR}, "
                             f"got {args.start_year!r}")
        most = MAXYEAR + 1 - args.start_year
        if not 1 <= args.years <= most:
            raise ValueError(f"years must be an integer in 1..{most}, got {args.years!r}")

    if args.command == "fixtures":
        if not 0.0 < args.base < float("inf"):
            raise ValueError(f"base must be positive and finite, got {args.base}")
        if not 0.0 <= args.holiday_rate <= MAX_HOLIDAY_RATE:
            raise ValueError(f"holiday_rate must be in [0, {MAX_HOLIDAY_RATE}], got {args.holiday_rate}")
    elif args.command == "compare":
        from .stats.bootstrap import MAX_RESAMPLES, MIN_ALPHA, MIN_RESAMPLES, BatteryConfig

        env_seed = os.environ.get(ENV_SEED)
        if env_seed is not None and args.seed is None:
            try:
                args.seed = int(env_seed)
                if args.seed < 0:
                    raise ValueError
            except ValueError:
                raise ValueError(f"{ENV_SEED} must be a non-negative integer, got {env_seed!r}") from None
        args.durations = _durations(args.durations)
        B, alpha, _ = args.battery = BatteryConfig(**{key: value for key, value in (
            ("B", args.resamples), ("alpha", args.alpha), ("seed", args.seed)) if value is not None})
        if B < MIN_RESAMPLES:
            raise ValueError(f"B must be >= {MIN_RESAMPLES}, got {B}")
        if B > MAX_RESAMPLES:
            raise ValueError(f"B must be <= {MAX_RESAMPLES}, got {B}")
        if not MIN_ALPHA < alpha < 1.0:
            raise ValueError(f"alpha must be in (2**-53, 1), got {alpha}")
    # random.Random seeds with abs(seed), so -4 would repeat seed 4
    if "seed" in args and args.seed is not None and args.seed < 0:
        raise ValueError(f"seed must be non-negative, got {args.seed}")
    return args


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


def _load_inputs(args: argparse.Namespace):
    """The daily close series, the schedule overrides and the bytes of both
    files (None for no schedule). For ``compare``, a data file whose header
    names both CAGR columns is a per-window CAGR table instead: its runs by
    duration come back in place of the series, and no overrides."""
    data, fh = _read(args.data)
    with fh:
        if args.command == "compare":
            from .engine import is_window_table, load_windows

            header = fh.readline()
            fh.seek(0)
            if is_window_table(header):
                if args.schedule:
                    raise ValueError("a schedule file does not apply to a per-window CAGR table")
                return load_windows(fh, args.durations), None, (data, None)
        series = parse_series(fh)
    overrides = schedule = None
    if args.schedule:
        schedule, fh = _read(args.schedule)
        with fh:
            overrides = load_schedule_overrides(fh)
    return series, overrides, (data, schedule)


def cmd_validate(args: argparse.Namespace) -> int:
    import json

    from .schedule import MonthKey

    series, overrides, _ = _load_inputs(args)
    start = MonthKey(series.first_date.year, series.first_date.month)
    end = MonthKey(series.last_date.year, series.last_date.month)
    table, anomalies = build_schedule(series, overrides, start, end)
    payload = {
        "data": args.data,
        "schedule": args.schedule,
        "rows": len(series),
        "coverage": {"first": series.first_date.isoformat(), "last": series.last_date.isoformat()},
        "months_checked": len(table),
        "anomalies": anomalies,
    }
    _write_out(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_ANOMALIES if anomalies else EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    from .engine import Window, simulate
    from .report import render_simulation
    from .schedule import MonthKey

    series, overrides, _ = _load_inputs(args)
    window = Window(args.start_year, args.start_year + args.years - 1)
    table, _ = build_schedule(series, overrides,
                              MonthKey(window.from_year - 1, 12), MonthKey(window.to_year, 12))
    ledger = simulate(args.strategy, window, args.amount, series, table)
    _write_out(render_simulation(ledger, args.format), args.out)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    from .engine import enumerate_windows
    from .report import window_row
    from .schedule import MonthKey
    from .stats.bootstrap import STREAM_RULE
    from .stats.special import QUANTILE_CONVENTION

    series, overrides, (data, schedule) = _load_inputs(args)

    runs = series if isinstance(series, dict) else None  # a window table's runs by duration
    if runs:
        source, anomalies = "windows", []
    else:
        source = "overrides+computed" if args.schedule else "computed"
        windows = [w for d in args.durations for w in enumerate_windows(d)]
        first_year = min(w.from_year for w in windows)
        last_year = max(w.to_year for w in windows)
        table, anomalies = build_schedule(series, overrides,
                                          MonthKey(first_year - 1, 12), MonthKey(last_year, 12))

    window_tables: dict[str, list[dict]] = {}
    metrics: list[dict] = []
    boxplots: dict[str, dict] = {}
    for duration in args.durations:
        sample, outcomes = runs[duration] if runs else paired_run(duration, series, table)
        window_tables[f"{duration}y"] = [window_row(o) for o in outcomes]
        # the 20-year horizon has a single window, so the battery reduces to
        # descriptive cells by construction (n=1 keeps every test cell n/a)
        metrics.append(run_battery(sample, args.battery, label=f"{duration}y")._asdict())
        boxplots[f"{duration}y"] = {"ftd": boxplot_summary(sample.ftd_values),
                                    "exp": boxplot_summary(sample.exp_values)}

    provenance = {
        "tool": "sipcraft", "version": VERSION, "quantile_convention": QUANTILE_CONVENTION,
        "bootstrap_stream": STREAM_RULE,
        "data_path": args.data,
        "data_sha256": file_sha256(data),
        "schedule_path": args.schedule,
        "schedule_sha256": file_sha256(schedule) if schedule is not None else None,
        "schedule_source": source,
        "durations": args.durations,
        "battery_config": args.battery._asdict(),
        "anomaly_count": len(anomalies),
    }
    bundle = {
        "provenance": provenance,
        "anomalies": anomalies,
        "windows": window_tables,
        "metrics": metrics,
        "boxplots": boxplots,
    }
    _write_out(render_bundle(bundle, args.format), args.out)
    return EXIT_OK


def cmd_fixtures(args: argparse.Namespace) -> int:
    from .synth import generate_series
    from .timeseries import serialize_series

    series = generate_series(kind=args.kind, start_year=args.start_year, years=args.years,
                             seed=args.seed, base=args.base, holiday_rate=args.holiday_rate)
    _write_out(serialize_series(series), args.out)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(resolve_settings(args))
    except (OSError, ValueError) as exc:  # every sipcraft error is a ValueError
        print(f"sipcraft: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
