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
import json
import os
import sys

from ._version import VERSION
from .errors import SipcraftError
from .schedule import MonthKey, Strategy, build_schedule, load_schedule_overrides
from .synth import KINDS, generate_series
from .timeseries import parse_series


def _deferred(module: str, name: str):
    """Stand-in for ``module.name`` that imports ``module`` on its first call.

    The engine, battery and report layers are imported only by the handlers
    that run them, so ``--version``, ``validate`` and ``fixtures`` never load
    them. The functions ``cmd_compare`` calls stay attributes of this module
    all the same: ``perfbench/trace_child.py`` times each layer by wrapping
    them here, so ``cmd_compare`` must look them up in this module's globals.
    """
    def call(*args, **kwargs):
        return getattr(importlib.import_module(module, __package__), name)(*args, **kwargs)

    return call


paired_run = _deferred(".engine", "paired_run")
run_battery = _deferred(".stats.battery", "run_battery")
boxplot_summary = _deferred(".report", "boxplot_summary")
render_bundle = _deferred(".report", "render_bundle")
file_sha256 = _deferred(".report", "file_sha256")

EXIT_OK = 0
EXIT_ANOMALIES = 1
EXIT_ERROR = 2

ENV_SEED = "SIPCRAFT_SEED"

DEFAULT_DURATIONS = (1, 3, 5, 10, 20)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sipcraft",
        description="Monthly SIP backtesting under first-trading-day vs expiry-day execution.",
    )
    parser.add_argument("--version", action="version", version=f"sipcraft {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, data: bool = True) -> None:
        if data:
            p.add_argument("--data", help="daily close CSV (date,close; extra columns ignored)")
            p.add_argument("--schedule", help="schedule override CSV (year,month,ftd_dom,expiry_dom)")
        p.add_argument("--config", help="JSON config file; command-line flags win")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p_val = sub.add_parser("validate", help="check the series and schedule anchors, report anomalies")
    add_common(p_val)

    p_sim = sub.add_parser("simulate", help="run one plan and print its execution ledger")
    add_common(p_sim)
    p_sim.add_argument("--strategy", choices=[s.value for s in Strategy])
    p_sim.add_argument("--start-year", type=int)
    p_sim.add_argument("--years", type=int)
    p_sim.add_argument("--amount", type=float)
    p_sim.add_argument("--format", choices=["markdown", "csv", "json"])

    p_cmp = sub.add_parser("compare", help="simulate the window grid and run the full battery")
    add_common(p_cmp)
    p_cmp.add_argument("--durations", help="comma-separated subset of 1,3,5,10,20")
    p_cmp.add_argument("--amount", type=float)
    p_cmp.add_argument("--seed", type=int)
    p_cmp.add_argument("--resamples", type=int)
    p_cmp.add_argument("--alpha", type=float)
    p_cmp.add_argument("--format", choices=["markdown", "csv", "json"])

    p_fix = sub.add_parser("fixtures", help="generate a synthetic daily series CSV")
    add_common(p_fix, data=False)
    p_fix.add_argument("--kind", choices=list(KINDS), default="flat")
    p_fix.add_argument("--start-year", type=int, default=2003)
    p_fix.add_argument("--years", type=int, default=1)
    p_fix.add_argument("--seed", type=int, default=0)
    p_fix.add_argument("--base", type=float, default=1000.0)
    p_fix.add_argument("--holiday-rate", type=float, default=0.0)

    return parser


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("config file nests too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def _effective_battery(args, cfg: dict):
    """Battery settings: flags > config file 'stats' object > env seed > defaults."""
    from .stats.battery import BatteryConfig

    stats = cfg.get("stats", {})
    if not isinstance(stats, dict):
        raise ValueError(f"config 'stats' must be a JSON object, got {stats!r}")
    base = BatteryConfig.from_dict(stats) if stats else BatteryConfig()

    seed = base.seed
    if "seed" not in stats:
        env_seed = os.environ.get(ENV_SEED)
        if env_seed is not None:
            try:
                seed = int(env_seed)
                if seed < 0:
                    raise ValueError
            except ValueError:
                raise ValueError(f"{ENV_SEED} must be a non-negative integer, "
                                 f"got {env_seed!r}") from None
    if getattr(args, "seed", None) is not None:
        seed = args.seed
    resamples = args.resamples if getattr(args, "resamples", None) is not None else base.resamples
    alpha = args.alpha if getattr(args, "alpha", None) is not None else base.alpha
    return BatteryConfig(resamples=resamples, alpha=alpha, seed=seed,
                         wilcoxon_mode=base.wilcoxon_mode, hedges_variant=base.hedges_variant)


def _pick(args, cfg: dict, flag: str, key: str, default=None):
    value = getattr(args, flag, None)
    if value is not None:
        return value
    return cfg.get(key, default)


def _amount(args, cfg: dict) -> float:
    from .engine import DEFAULT_MONTHLY_AMOUNT

    amount = _pick(args, cfg, "amount", "amount", DEFAULT_MONTHLY_AMOUNT)
    if isinstance(amount, bool) or not isinstance(amount, (int, float)):
        raise ValueError(f"amount must be a number, got {amount!r}")
    return float(amount)


def _write_out(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _path(args, cfg: dict, key: str) -> str | None:
    # open() takes an int as a file descriptor, so a config number must not
    # reach it
    path = _pick(args, cfg, key, key)
    if path is not None and not isinstance(path, str):
        raise ValueError(f"{key} must be a path string, got {path!r}")
    return path


def _load_inputs(args, cfg: dict):
    data_path = _path(args, cfg, "data")
    if not data_path:
        raise SipcraftError("no data file given (use --data or the config file)")
    with open(data_path, "r", encoding="utf-8-sig", newline="") as fh:
        series = parse_series(fh)
    schedule_path = _path(args, cfg, "schedule")
    overrides = None
    if schedule_path:
        with open(schedule_path, "r", encoding="utf-8-sig", newline="") as fh:
            overrides = load_schedule_overrides(fh)
    return data_path, series, schedule_path, overrides


def cmd_validate(args) -> int:
    cfg = _load_config_file(args.config)
    data_path, series, schedule_path, overrides = _load_inputs(args, cfg)
    start = MonthKey(series.first_date.year, series.first_date.month)
    end = MonthKey(series.last_date.year, series.last_date.month)
    _, anomalies = build_schedule(series, overrides, start, end)
    months_checked = (end.year - start.year) * 12 + end.month - start.month + 1
    payload = {
        "data": data_path,
        "schedule": schedule_path,
        "rows": len(series),
        "coverage": {"first": series.first_date.isoformat(), "last": series.last_date.isoformat()},
        "months_checked": months_checked,
        "anomalies": [a.to_json_dict() for a in anomalies],
    }
    _write_out(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_ANOMALIES if anomalies else EXIT_OK


def cmd_simulate(args) -> int:
    from .engine import SipPlan, simulate
    from .report import _check_format

    cfg = _load_config_file(args.config)
    data_path, series, schedule_path, overrides = _load_inputs(args, cfg)
    strategy_name = _pick(args, cfg, "strategy", "strategy")
    start_year = _pick(args, cfg, "start_year", "start_year")
    years = _pick(args, cfg, "years", "years")
    if strategy_name is None or start_year is None or years is None:
        raise SipcraftError("simulate needs --strategy, --start-year and --years")
    for key, value in (("start_year", start_year), ("years", years)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{key} must be an integer, got {value!r}")
    amount = _amount(args, cfg)
    fmt = _pick(args, cfg, "format", "format", "markdown")
    _check_format(fmt)

    plan = SipPlan(Strategy(strategy_name), start_year, years, amount)
    table, _ = build_schedule(series, overrides,
                              MonthKey(plan.start_year - 1, 12), MonthKey(plan.final_year, 12))
    result = simulate(plan, series, table)

    if fmt == "json":
        payload = {
            "plan": {"strategy": plan.strategy.value, "start_year": plan.start_year,
                     "years": plan.years, "monthly_amount": plan.monthly_amount},
            "executions": [
                {"month": str(e.month), "date": e.date.isoformat(), "price": e.price, "units": e.units}
                for e in result.executions
            ],
            "units": result.units,
            "invested": result.invested,
            "terminal_date": result.terminal_date.isoformat(),
            "terminal_close": result.terminal_close,
            "final_value": result.final_value,
            "cagr_percent": result.cagr_percent,
        }
        text = json.dumps(payload, indent=2) + "\n"
    elif fmt == "csv":
        lines = ["month,date,price,units"]
        for e in result.executions:
            lines.append(f"{e.month},{e.date.isoformat()},{e.price!r},{e.units!r}")
        text = "\n".join(lines) + "\n"
    else:
        lines = [
            f"Plan: {plan.strategy.value} {plan.start_year}..{plan.final_year} "
            f"({plan.years}y, {plan.monthly_amount:g}/month)",
            "",
            "| Month | Date | Price | Units |",
            "|-------|------|-------|-------|",
        ]
        for e in result.executions:
            lines.append(f"| {e.month} | {e.date.isoformat()} | {e.price:.4f} | {e.units:.6f} |")
        lines += [
            "",
            f"Units: {result.units:.6f}",
            f"Invested: {result.invested:.2f}",
            f"Terminal: {result.terminal_date.isoformat()} at close {result.terminal_close:.4f}",
            f"Final value: {result.final_value:.2f}",
            f"CAGR: {result.cagr_percent:.2f}%",
        ]
        text = "\n".join(lines) + "\n"
    _write_out(text, args.out)
    return EXIT_OK


def _parse_durations(raw) -> list[int]:
    if raw is None:
        return list(DEFAULT_DURATIONS)
    if isinstance(raw, (list, tuple)):
        if any(isinstance(v, bool) or not isinstance(v, int) for v in raw):
            raise ValueError(f"durations must be integers, got {raw!r}")
        values = list(raw)
    else:
        values = [int(part) for part in str(raw).split(",") if part.strip()]
    if not values:
        raise SipcraftError("durations list is empty")
    bad = [v for v in values if v not in DEFAULT_DURATIONS]
    if bad:
        raise SipcraftError(f"unsupported durations {bad}, expected a subset of {list(DEFAULT_DURATIONS)}")
    return sorted(set(values))


def cmd_compare(args) -> int:
    from .engine import enumerate_windows
    from .report import WindowRow, tool_provenance

    cfg = _load_config_file(args.config)
    data_path, series, schedule_path, overrides = _load_inputs(args, cfg)
    durations = _parse_durations(_pick(args, cfg, "durations", "durations"))
    amount = _amount(args, cfg)
    fmt = _pick(args, cfg, "format", "format", "markdown")
    battery_config = _effective_battery(args, cfg)

    windows = [w for d in durations for w in enumerate_windows(d)]
    first_year = min(w.from_year for w in windows)
    last_year = max(w.to_year for w in windows)
    table, anomalies = build_schedule(series, overrides,
                                      MonthKey(first_year - 1, 12), MonthKey(last_year, 12))

    window_tables: dict[str, list[dict]] = {}
    metrics = []
    boxplots: dict[str, dict] = {}
    for duration in durations:
        sample, outcomes = paired_run(duration, series, table, amount)
        window_tables[f"{duration}y"] = [WindowRow.from_outcome(o).to_json_dict() for o in outcomes]
        # the 20-year horizon has a single window, so the battery reduces to
        # descriptive cells by construction (n=1 keeps every test cell n/a)
        metrics.append(run_battery(sample, battery_config, label=f"{duration}y"))
        boxplots[f"{duration}y"] = {
            "ftd": boxplot_summary(sample.ftd_values).to_json_dict(),
            "exp": boxplot_summary(sample.exp_values).to_json_dict(),
        }

    provenance = tool_provenance()
    provenance.update({
        "data_path": data_path,
        "data_sha256": file_sha256(data_path),
        "schedule_path": schedule_path,
        "schedule_sha256": file_sha256(schedule_path) if schedule_path else None,
        "schedule_source": "overrides+computed" if schedule_path else "computed",
        "durations": durations,
        "amount": amount,
        "battery_config": battery_config.to_json_dict(),
        "anomaly_count": len(anomalies),
    })
    bundle = {
        "provenance": provenance,
        "anomalies": [a.to_json_dict() for a in anomalies],
        "windows": window_tables,
        "metrics": [m.to_json_dict() for m in metrics],
        "boxplots": boxplots,
    }
    _write_out(render_bundle(bundle, fmt), args.out)
    return EXIT_OK


def cmd_fixtures(args) -> int:
    series = generate_series(
        kind=args.kind,
        start_year=args.start_year,
        years=args.years,
        seed=args.seed,
        base=args.base,
        holiday_rate=args.holiday_rate,
    )
    _write_out(series.to_csv(), args.out)
    return EXIT_OK


_HANDLERS = {
    "validate": cmd_validate,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "fixtures": cmd_fixtures,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (SipcraftError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"sipcraft: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
