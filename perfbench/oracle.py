"""Output checks that do not reuse sipcraft code.

CAGRs are recomputed in plain Python from the input CSV with the rules of
the paper: FTD buys on the month's first trading day, EXP buys on the
previous month's last Thursday stepped back over holidays, an override
table wins wherever it has a value, and the units are valued at the last
trading day of the final year. The window grid comes from the frozen
paper table ``data/reference_windows.csv``. Test statistics are compared
with scipy, which is used here only as an oracle. Every check returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import calendar
import csv
import json
import math
import statistics
from bisect import bisect_left, bisect_right
from datetime import date as Date, timedelta

CAGR_TOL = 0.005 + 1e-9  # half a unit of the bundle's 2-decimal rounding
STAT_TOL = 1e-6


def _month_range(first: tuple[int, int], last: tuple[int, int]):
    y, m = first
    while (y, m) <= last:
        yield y, m
        y, m = (y + 1, 1) if m == 12 else (y, m + 1)


def load_overrides(path: str) -> dict[tuple[int, int], tuple[Date | None, Date | None]]:
    table = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for row in csv.DictReader(fh):
            y, m = int(row["year"]), int(row["month"])
            table[y, m] = tuple(Date(y, m, int(row[c])) if row[c].strip() else None
                                for c in ("ftd_dom", "expiry_dom"))
    return table


def load_grid(path: str) -> dict[int, list[tuple[int, int]]]:
    """Window grid of the paper's table: years -> [(from_year, to_year)]."""
    grid: dict[int, list[tuple[int, int]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            grid.setdefault(int(row["years"]), []).append((int(row["from_year"]), int(row["to_year"])))
    return {years: sorted(windows) for years, windows in sorted(grid.items())}


class Calendar:
    """Trading days and closes of one input CSV, with the paper's anchor rules."""

    def __init__(self, csv_text: str, overrides: dict | None = None):
        reader = csv.reader(csv_text.splitlines())
        names = [c.strip().lower() for c in next(reader)]
        di, ci = names.index("date"), names.index("close")
        self.close = {Date.fromisoformat(r[di]): float(r[ci]) for r in reader if r}
        self.dates = sorted(self.close)
        self.overrides = overrides or {}

    def _in_month(self, y: int, m: int) -> list[Date]:
        lo = bisect_left(self.dates, Date(y, m, 1))
        hi = bisect_right(self.dates, Date(y, m, calendar.monthrange(y, m)[1]))
        return self.dates[lo:hi]

    def ftd(self, y: int, m: int) -> tuple[Date | None, str]:
        override = self.overrides.get((y, m), (None, None))[0]
        if override is not None:
            return override, "override"
        days = self._in_month(y, m)
        return (days[0] if days else None), "computed"

    def expiry(self, y: int, m: int) -> tuple[Date | None, str]:
        override = self.overrides.get((y, m), (None, None))[1]
        if override is not None:
            return override, "override"
        d = Date(y, m, calendar.monthrange(y, m)[1])
        while d.weekday() != calendar.THURSDAY:
            d -= timedelta(days=1)
        while d.month == m and d not in self.close:
            d -= timedelta(days=1)
        return (d if d.month == m else None), "computed"

    def cagr(self, strategy: str, from_year: int, to_year: int) -> float:
        """Amount-free CAGR in percent: ((P_T * sum(1/p_i)) / 12N)^(1/N) - 1."""
        years = to_year - from_year + 1
        inv = 0.0
        for y, m in _month_range((from_year, 1), (to_year, 12)):
            if strategy == "ftd":
                day = self.ftd(y, m)[0]
            else:
                day = self.expiry(*((y - 1, 12) if m == 1 else (y, m - 1)))[0]
            inv += 1.0 / self.close[day]
        terminal = self.dates[bisect_right(self.dates, Date(to_year, 12, 31)) - 1]
        if terminal.year != to_year:
            raise ValueError(f"input has no trading day in {to_year}")
        return ((self.close[terminal] * inv / (12 * years)) ** (1.0 / years) - 1.0) * 100.0

    def schedule(self, first: tuple[int, int], last: tuple[int, int]) -> dict:
        """Anchor sources and anomalies over a month range, as build_schedule should see them."""
        counts = {"months": 0, "override": 0, "computed": 0, "anomalies": []}
        for y, m in _month_range(first, last):
            counts["months"] += 1
            anchors = {}
            for field, (day, source) in (("first_trading_day", self.ftd(y, m)),
                                         ("expiry_day", self.expiry(y, m))):
                anchors[field] = day
                if day is None:
                    counts["anomalies"].append((f"{y:04d}-{m:02d}", field))
                    continue
                counts[source] += 1
                if source == "override" and day not in self.close:
                    counts["anomalies"].append((f"{y:04d}-{m:02d}", field))
            ftd, exp = anchors["first_trading_day"], anchors["expiry_day"]
            if ftd is not None and exp is not None and exp < ftd:
                counts["anomalies"].append((f"{y:04d}-{m:02d}", "expiry_day"))
        return counts


def expected_counts(cal: Calendar, grid: dict, command: str, resamples: int) -> dict[str, int]:
    """Work counts the traced layers must report for one command."""
    if command == "validate":
        first, last = cal.dates[0], cal.dates[-1]
        sched = cal.schedule((first.year, first.month), (last.year, last.month))
    else:
        years = [y for windows in grid.values() for w in windows for y in w]
        sched = cal.schedule((min(years) - 1, 12), (max(years), 12))
    counts = {
        "timeseries.rows": len(cal.dates),
        "schedule.months": sched["months"],
        "schedule.anchors_override": sched["override"],
        "schedule.anchors_computed": sched["computed"],
        "schedule.anomalies": len(sched["anomalies"]),
    }
    if command == "compare":
        windows = [w for ws in grid.values() for w in ws]
        counts["engine.windows"] = len(windows)
        counts["engine.installments"] = sum(24 * (b - a + 1) for a, b in windows)
        counts["stats.bootstrap.resamples"] = resamples * sum(len(ws) >= 3 for ws in grid.values())
    return counts


def check_invocation(rc: int, expected_rc: int, stderr: bytes, out: bytes, reference: bytes) -> list[str]:
    """One timed invocation: exit code, silent stderr, bytes equal to the checked reference."""
    problems = []
    if rc != expected_rc:
        problems.append(f"exit code {rc}, expected {expected_rc}")
    if stderr:
        problems.append(f"stderr not empty: {stderr[:200]!r}")
    if out != reference:
        problems.append("output differs from the first invocation")
    return problems


def check_validate(out: bytes, cal: Calendar) -> list[str]:
    report = json.loads(out)
    first, last = cal.dates[0], cal.dates[-1]
    sched = cal.schedule((first.year, first.month), (last.year, last.month))
    problems = []
    expected = {
        "rows": len(cal.dates),
        "coverage": {"first": first.isoformat(), "last": last.isoformat()},
        "months_checked": sched["months"],
        "anomalies": sorted(sched["anomalies"]),
    }
    got = dict(report, anomalies=sorted((a["month"], a["field"]) for a in report["anomalies"]))
    for key, value in expected.items():
        if got.get(key) != value:
            problems.append(f"validate {key}: {got.get(key)!r} != oracle {value!r}")
    return problems


def check_bundle(out: bytes, cal: Calendar, grid: dict, schema: dict, resamples: int) -> list[str]:
    """A ``compare --format json`` bundle against the schema, the CAGR oracle and scipy."""
    import jsonschema
    from scipy import stats as sps

    bundle = json.loads(out)
    problems = [f"schema: {e.message}" for e in jsonschema.Draft202012Validator(schema).iter_errors(bundle)]
    if problems:
        return problems
    if bundle["provenance"]["battery_config"]["B"] != resamples:
        problems.append(f"B is {bundle['provenance']['battery_config']['B']}, expected {resamples}")
    metrics = {m["label"]: m for m in bundle["metrics"]}
    if sorted(bundle["windows"]) != sorted(f"{y}y" for y in grid):
        problems.append(f"horizons {sorted(bundle['windows'])} != grid {sorted(grid)}")
        return problems
    for years, windows in grid.items():
        label = f"{years}y"
        rows = bundle["windows"][label]
        if [(r["from_year"], r["to_year"]) for r in rows] != windows:
            problems.append(f"{label}: windows differ from the paper grid")
            continue
        exp_v, ftd_v = [], []
        for r, (a, b) in zip(rows, windows):
            f, e = cal.cagr("ftd", a, b), cal.cagr("exp", a, b)
            ftd_v.append(f)
            exp_v.append(e)
            for name, got, want in (("cagr_ftd", r["cagr_ftd"], f), ("cagr_exp", r["cagr_exp"], e),
                                    ("difference", r["difference"], e - f)):
                if not abs(got - want) <= CAGR_TOL:
                    problems.append(f"{label} {a}-{b} {name}: {got} vs oracle {want:.6f}")
        problems += _check_battery(label, metrics.get(label), exp_v, ftd_v, resamples, sps)
    return problems


def _check_battery(label, m, exp_v, ftd_v, resamples, sps) -> list[str]:
    if m is None:
        return [f"{label}: no metrics column"]
    diffs = [e - f for e, f in zip(exp_v, ftd_v)]
    n = len(diffs)
    problems = []

    def close(name, got, want):
        if got is None or not abs(got - want) <= STAT_TOL:
            problems.append(f"{label} {name}: {got} vs oracle {want}")

    if m["n"] != n:
        return [f"{label}: n={m['n']}, expected {n}"]
    close("mean_diff", m["mean_diff"], statistics.fmean(diffs))
    if n < 2:
        return problems
    close("t.p", m["t"]["p"], float(sps.ttest_1samp(diffs, 0.0, alternative="greater").pvalue))
    close("wilcoxon.p_exact", m["wilcoxon"]["p_exact"],
          float(sps.wilcoxon(diffs, alternative="greater", method="exact").pvalue))
    close("ks.statistic", m["ks"]["statistic"], float(sps.ks_2samp(exp_v, ftd_v, method="asymp").statistic))
    ci = m["bootstrap"]
    if n >= 3:
        if ci is None or ci["B"] != resamples:
            problems.append(f"{label}: bootstrap missing or B != {resamples}")
        elif not (math.isfinite(ci["lower"]) and math.isfinite(ci["upper"])
                  and min(diffs) - STAT_TOL <= ci["lower"] <= ci["upper"] <= max(diffs) + STAT_TOL):
            problems.append(f"{label}: BCa [{ci['lower']}, {ci['upper']}] not ordered inside "
                            f"[{min(diffs)}, {max(diffs)}]")
    return problems


def check_markdown(out: bytes, bundle_json: bytes) -> list[str]:
    """The markdown rendering shows the same window rows as its JSON twin."""
    text = out.decode("utf-8")
    bundle = json.loads(bundle_json)
    problems = []
    for label, rows in bundle["windows"].items():
        if f"## Windows: {label}" not in text:
            problems.append(f"markdown: no section for {label}")
        for r in rows:
            cells = (f"| {r['from_year']} | {r['to_year']} | {r['years']} | {r['cagr_ftd']:.2f} "
                     f"| {r['cagr_exp']:.2f} | {r['difference']:.2f}")
            if cells not in text:
                problems.append(f"markdown: no row {cells}")
    return problems
