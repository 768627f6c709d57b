"""Rendering: the window, metrics and ledger tables, boxplot summaries.

All output is deterministic byte for byte: no timestamps, no environment
leakage, stable ordering everywhere. CAGRs are rounded to 2 decimals only
here, at the reporting boundary; the difference column is always the
rounded difference of the full-precision CAGRs, and whenever subtracting
the already-rounded columns would give a different value, that alternative
is surfaced alongside rather than papered over. Every table goes through
one CSV writer and one markdown writer.
"""

from __future__ import annotations

import csv
import io
import json

from ._version import VERSION
from .engine import WindowOutcome
from .errors import InsufficientDataError
from .stats.special import quantile_sorted

__all__ = [
    "window_row",
    "boxplot_summary",
    "file_sha256",
    "render_bundle",
    "render_simulation",
]

WINDOW_FIELDS = ("from_year", "to_year", "years", "cagr_ftd", "cagr_exp",
                 "difference", "difference_of_rounded")
WINDOW_HEADER = ("From", "To", "Years", "CAGR (F)", "CAGR (E)", "Difference")
WINDOW_RULE = (6, 6, 7, 10, 10, 12)  # the To column is wider than its header


def window_row(outcome: WindowOutcome) -> dict:
    """One window of the results table, at reporting (2-decimal) precision.

    ``difference_of_rounded`` is set only when rounding the CAGR columns
    first disagrees with the rounded full-precision difference.
    """
    f2 = round(outcome.cagr_ftd, 2)
    e2 = round(outcome.cagr_exp, 2)
    diff = round(outcome.difference, 2)
    diff_of_rounded = round(e2 - f2, 2)
    return {
        "from_year": outcome.window.from_year,
        "to_year": outcome.window.to_year,
        "years": outcome.window.years,
        "cagr_ftd": f2,
        "cagr_exp": e2,
        "difference": diff,
        "difference_of_rounded": diff_of_rounded if diff_of_rounded != diff else None,
    }


def _csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _markdown(header, rows, widths=None) -> list[str]:
    """A markdown table's lines: the header, the rule, one line per row. Each
    rule cell is two dashes wider than its header unless ``widths`` gives
    the dash counts."""
    widths = widths or [len(h) + 2 for h in header]
    return ["| " + " | ".join(header) + " |", "|" + "|".join("-" * w for w in widths) + "|",
            *("| " + " | ".join(map(str, row)) + " |" for row in rows)]


def _window_cells(r: dict) -> list:
    """A window row's CSV cells, one per ``WINDOW_FIELDS`` entry."""
    rounded = r["difference_of_rounded"]
    return [r["from_year"], r["to_year"], r["years"], f"{r['cagr_ftd']:.2f}",
            f"{r['cagr_exp']:.2f}", f"{r['difference']:.2f}",
            "" if rounded is None else f"{rounded:.2f}"]


def _window_markdown(rows: list[dict]) -> list[str]:
    """The window table with a marker on, and a footnote for, each row whose
    rounded columns subtract to another difference."""
    cells = [_window_cells(r) for r in rows]
    lines = _markdown(WINDOW_HEADER, [[*c[:5], c[5] + (" *" if c[6] else "")] for c in cells],
                      WINDOW_RULE)
    lines += ["", "Difference = full-precision CAGR(E) - CAGR(F), rounded to 2 decimals."]
    lines += [f"* {c[0]}-{c[1]}: subtracting the rounded columns gives {c[6]} instead."
              for c in cells if c[6]]
    return lines


def _na(report_dict: dict, cell: str) -> str | None:
    reason = report_dict["not_applicable"].get(cell)
    return f"not applicable: {reason}" if reason is not None else None


def _metrics_table(report_dicts: list[dict], first: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of the battery metrics, one column per horizon of
    ``ComparisonReport._asdict()`` dictionaries; ``first`` heads the
    metric-name column."""

    def fmt(value, pattern="{:.4f}"):
        return "" if value is None else pattern.format(value)

    rows: list[list[str]] = []

    def add(label: str, cell_of) -> None:
        rows.append([label, *(cell_of(d) for d in report_dicts)])

    add("n", lambda d: str(d["n"]))
    add("Mean difference", lambda d: fmt(d["mean_diff"]))
    add("t-statistic", lambda d: _na(d, "t") or fmt(d["t"]["statistic"]))
    add("Paired t-test p (one-sided)", lambda d: _na(d, "t") or fmt(d["t"]["p"]))
    add("Wilcoxon signed-rank p (one-sided)", lambda d: _na(d, "wilcoxon") or
        "{:.4f} ({})".format(d["wilcoxon"]["p"], d["wilcoxon"]["method"].replace("_", " ")))
    add("Wilcoxon p, exact / normal approx", lambda d: _na(d, "wilcoxon") or "{} / {}".format(
        fmt(d["wilcoxon"]["p_exact"]) or "n/a", fmt(d["wilcoxon"]["p_normal"]) or "n/a"))
    add("Cohen's d", lambda d: _na(d, "cohens_d") or
        f"{d['effect']['cohens_d']:.4f} ({d['effect']['label']})")
    add("Hedges' g, standard / paper", lambda d: _na(d, "hedges_g") or
        f"{d['effect']['hedges_g']:.4f} / {d['effect']['hedges_g_paper']:.4f}")

    def ci(b):
        tag = " (degenerate)" if b["degenerate"] else ""
        return f"[{b['lower']:.4f}, {b['upper']:.4f}] ({(1.0 - b['alpha']) * 100:g}%, B={b['B']}){tag}"

    add("Bootstrap CI (mean diff)", lambda d: _na(d, "bootstrap") or ci(d["bootstrap"]))
    add("KS statistic (D)", lambda d: _na(d, "ks") or fmt(d["ks"]["statistic"]))
    add("KS p", lambda d: _na(d, "ks") or fmt(d["ks"]["p"]))
    add("FSD verdict", lambda d: _na(d, "fsd") or d["fsd"])
    add("SSD verdict", lambda d: _na(d, "ssd") or d["ssd"])
    labels = [d["label"] or f"horizon {i + 1}" for i, d in enumerate(report_dicts)]
    return [first, *labels], rows


def boxplot_summary(values) -> dict:
    """Plot-ready five-number summary, as the bundle stores it. Quartiles
    by linear interpolation (type 7); whiskers at the most extreme data
    points within 1.5 IQR of the box."""
    if len(values) == 0:
        raise InsufficientDataError("boxplot summary needs a non-empty sample")
    xs = sorted(float(v) for v in values)
    q1, median, q3 = (quantile_sorted(xs, q) for q in (0.25, 0.5, 0.75))
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    inside = [v for v in xs if lo_fence <= v <= hi_fence]
    return {
        "min": xs[0],
        "q1": q1,
        "median": median,
        "q3": q3,
        "max": xs[-1],
        "whisker_low": inside[0],
        "whisker_high": inside[-1],
        "outliers": [v for v in xs if v < lo_fence or v > hi_fence],
    }


def file_sha256(data: bytes) -> str:
    """Hex SHA-256 of an input file's bytes, as the parser read them."""
    import hashlib  # only compare hashes its inputs, so simulate loads no OpenSSL

    return hashlib.sha256(data).hexdigest()


def tool_provenance() -> dict:
    return {"tool": "sipcraft", "version": VERSION,
            "quantile_convention": "linear interpolation (type 7)",
            "bootstrap_stream": ("random.Random(seed) little-endian 32-bit words; n <= 256: "
                                 "diffs[b % n] for each byte b < 256 - 256 % n, else "
                                 "diffs[w % n] for each word w < 2**32 - 2**32 % n; "
                                 "row-major; fsum means")}


def _unknown(format: str) -> ValueError:
    return ValueError(f"format must be markdown, csv or json, got {format!r}")


def render_bundle(bundle: dict, format: str = "markdown") -> str:
    """Render a full comparison bundle (as assembled by the CLI)."""
    if format == "json":
        return json.dumps(bundle, indent=2) + "\n"
    if format == "csv":
        # CSV cannot hold heterogeneous tables in one stream, so sections are
        # separated by comment lines; each section body is plain CSV
        parts = []
        for years, rows in bundle["windows"].items():
            parts += [f"# windows {years}\n", _csv(WINDOW_FIELDS, map(_window_cells, rows))]
        parts += ["# metrics\n", _csv(*_metrics_table(bundle["metrics"], "metric"))]
        return "".join(parts)
    if format != "markdown":
        raise _unknown(format)

    prov = bundle["provenance"]
    lines = ["# SIP schedule comparison", "", "## Provenance", ""]
    lines += [f"- {key}: {json.dumps(prov[key])}" for key in sorted(prov)]
    lines.append("")
    if bundle.get("anomalies"):
        lines += ["## Schedule anomalies", ""]
        lines += [f"- {a['month']} {a['field']} {a['date']}: {a['reason']}"
                  for a in bundle["anomalies"]]
        lines.append("")
    for years, rows in bundle["windows"].items():
        lines += [f"## Windows: {years}", "", *_window_markdown(rows), ""]
    lines += ["## Comparison metrics", "",
              *_markdown(*_metrics_table(bundle["metrics"], "Metric")), "",
              "## Boxplot summaries", ""]
    for years, sides in bundle["boxplots"].items():
        for side in ("ftd", "exp"):
            b = sides[side]
            outl = ", ".join(f"{v:.2f}" for v in b["outliers"]) or "none"
            lines.append(
                f"- {years} {side}: min {b['min']:.2f}, q1 {b['q1']:.2f}, "
                f"median {b['median']:.2f}, q3 {b['q3']:.2f}, max {b['max']:.2f}, "
                f"whiskers [{b['whisker_low']:.2f}, {b['whisker_high']:.2f}], outliers: {outl}"
            )
    return "\n".join(lines) + "\n"


def render_simulation(ledger: dict, format: str = "markdown") -> str:
    """One plan's ledger from ``engine.simulate``, as ``simulate`` prints it."""
    if format == "json":
        return json.dumps(ledger, indent=2) + "\n"
    executions = ledger["executions"]
    if format == "csv":
        return _csv(("month", "date", "price", "units"), (e.values() for e in executions))
    if format != "markdown":
        raise _unknown(format)
    plan = ledger["plan"]
    lines = [
        f"Plan: {plan['strategy']} {plan['start_year']}..{plan['start_year'] + plan['years'] - 1} "
        f"({plan['years']}y, {plan['monthly_amount']:.15g}/month)",
        "",
        *_markdown(("Month", "Date", "Price", "Units"),
                   ((e["month"], e["date"], f"{e['price']:.4f}", f"{e['units']:.6f}")
                    for e in executions)),
        "",
        f"Units: {ledger['units']:.6f}",
        f"Invested: {ledger['invested']:.2f}",
        f"Terminal: {ledger['terminal_date']} at close {ledger['terminal_close']:.4f}",
        f"Final value: {ledger['final_value']:.2f}",
        f"CAGR: {ledger['cagr_percent']:.2f}%",
    ]
    return "\n".join(lines) + "\n"
