"""Rendering: window tables, the metrics battery table, boxplot summaries.

All output is deterministic byte for byte: no timestamps, no environment
leakage, stable ordering everywhere. CAGRs are rounded to 2 decimals only
here, at the reporting boundary; the difference column is always the
rounded difference of the full-precision CAGRs, and whenever subtracting
the already-rounded columns would give a different value, that alternative
is surfaced alongside rather than papered over.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from typing import NamedTuple

from ._version import VERSION
from .engine import WindowOutcome
from .errors import InsufficientDataError
from .stats.special import quantile_sorted

__all__ = [
    "WindowRow",
    "BoxplotSummary",
    "render_window_table",
    "render_metrics_table",
    "boxplot_summary",
    "file_sha256",
    "render_bundle",
]

FORMATS = ("markdown", "csv", "json")

WINDOW_FIELDS = ("from_year", "to_year", "years", "cagr_ftd", "cagr_exp",
                 "difference", "difference_of_rounded")


class WindowRow(NamedTuple):
    """One window of the results table, at reporting (2-decimal) precision."""

    from_year: int
    to_year: int
    years: int
    cagr_f: float
    cagr_e: float
    difference: float
    # set only when rounding the CAGR columns first disagrees with the
    # rounded full-precision difference
    difference_of_rounded: float | None = None

    @classmethod
    def from_outcome(cls, outcome: WindowOutcome) -> "WindowRow":
        f2 = round(outcome.cagr_ftd, 2)
        e2 = round(outcome.cagr_exp, 2)
        diff = round(outcome.difference, 2)
        diff_of_rounded = round(e2 - f2, 2)
        return cls(
            from_year=outcome.window.from_year,
            to_year=outcome.window.to_year,
            years=outcome.window.years,
            cagr_f=f2,
            cagr_e=e2,
            difference=diff,
            difference_of_rounded=diff_of_rounded if diff_of_rounded != diff else None,
        )

    def to_json_dict(self) -> dict:
        return {
            "from_year": self.from_year,
            "to_year": self.to_year,
            "years": self.years,
            "cagr_ftd": self.cagr_f,
            "cagr_exp": self.cagr_e,
            "difference": self.difference,
            "difference_of_rounded": self.difference_of_rounded,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "WindowRow":
        return cls(
            from_year=int(data["from_year"]),
            to_year=int(data["to_year"]),
            years=int(data["years"]),
            cagr_f=float(data["cagr_ftd"]),
            cagr_e=float(data["cagr_exp"]),
            difference=float(data["difference"]),
            difference_of_rounded=(None if data.get("difference_of_rounded") is None
                                   else float(data["difference_of_rounded"])),
        )


def _check_format(format: str) -> None:
    if format not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {format!r}")


def render_window_table(rows: list[WindowRow], format: str = "markdown") -> str:
    """Stable-order window table; markdown, csv, or json."""
    _check_format(format)
    if not rows:
        raise ValueError("window table needs at least one row")

    if format == "json":
        return json.dumps([r.to_json_dict() for r in rows], indent=2) + "\n"

    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(WINDOW_FIELDS)
        for r in rows:
            writer.writerow([
                r.from_year, r.to_year, r.years,
                f"{r.cagr_f:.2f}", f"{r.cagr_e:.2f}", f"{r.difference:.2f}",
                "" if r.difference_of_rounded is None else f"{r.difference_of_rounded:.2f}",
            ])
        return buf.getvalue()

    lines = [
        "| From | To | Years | CAGR (F) | CAGR (E) | Difference |",
        "|------|------|-------|----------|----------|------------|",
    ]
    flagged: list[WindowRow] = []
    for r in rows:
        marker = ""
        if r.difference_of_rounded is not None:
            marker = " *"
            flagged.append(r)
        lines.append(
            f"| {r.from_year} | {r.to_year} | {r.years} "
            f"| {r.cagr_f:.2f} | {r.cagr_e:.2f} | {r.difference:.2f}{marker} |"
        )
    lines.append("")
    lines.append("Difference = full-precision CAGR(E) - CAGR(F), rounded to 2 decimals.")
    for r in flagged:
        lines.append(
            f"* {r.from_year}-{r.to_year}: subtracting the rounded columns "
            f"gives {r.difference_of_rounded:.2f} instead."
        )
    return "\n".join(lines) + "\n"


def _na(report_dict: dict, cell: str) -> str | None:
    reason = report_dict["not_applicable"].get(cell)
    return f"not applicable: {reason}" if reason is not None else None


def _metric_rows(report_dicts: list[dict]) -> list[tuple[str, list[str]]]:
    """The fixed metric-row layout shared by the markdown and csv renderers."""

    def fmt(value, pattern="{:.4f}"):
        return "" if value is None else pattern.format(value)

    rows: list[tuple[str, list[str]]] = []

    def add(label: str, cell_of) -> None:
        rows.append((label, [cell_of(d) for d in report_dicts]))

    add("n", lambda d: str(d["n"]))
    add("Mean difference", lambda d: fmt(d["mean_diff"]))
    add("t-statistic", lambda d: _na(d, "t") or fmt(d["t"]["statistic"]))
    add("Paired t-test p (one-sided)", lambda d: _na(d, "t") or fmt(d["t"]["p"]))

    def wilcoxon_primary(d):
        na = _na(d, "wilcoxon")
        if na:
            return na
        method = d["wilcoxon"]["method"].replace("_", " ")
        return f"{d['wilcoxon']['p']:.4f} ({method})"

    def wilcoxon_both(d):
        na = _na(d, "wilcoxon")
        if na:
            return na
        exact = fmt(d["wilcoxon"]["p_exact"]) or "n/a"
        normal = fmt(d["wilcoxon"]["p_normal"]) or "n/a"
        return f"{exact} / {normal}"

    add("Wilcoxon signed-rank p (one-sided)", wilcoxon_primary)
    add("Wilcoxon p, exact / normal approx", wilcoxon_both)

    def effect(d):
        na = _na(d, "cohens_d")
        if na:
            return na
        return f"{d['effect']['cohens_d']:.4f} ({d['effect']['label']})"

    def hedges(d):
        na = _na(d, "hedges_g")
        if na:
            return na
        return f"{d['effect']['hedges_g']:.4f} ({d['effect']['hedges_variant']})"

    add("Cohen's d", effect)
    add("Hedges' g", hedges)

    def ci(d):
        na = _na(d, "bootstrap")
        if na:
            return na
        b = d["bootstrap"]
        pct = round((1.0 - b["alpha"]) * 100)
        tag = " (degenerate)" if b["degenerate"] else ""
        return f"[{b['lower']:.4f}, {b['upper']:.4f}] ({pct}%, B={b['B']}){tag}"

    add("Bootstrap CI (mean diff)", ci)
    add("KS statistic (D)", lambda d: _na(d, "ks") or fmt(d["ks"]["statistic"]))
    add("KS p", lambda d: _na(d, "ks") or fmt(d["ks"]["p"]))
    add("FSD verdict", lambda d: _na(d, "fsd") or d["fsd"])
    add("SSD verdict", lambda d: _na(d, "ssd") or d["ssd"])
    return rows


def _as_dicts(reports: list) -> list[dict]:
    # imported here: simulate imports this module and runs no battery
    from .stats.battery import ComparisonReport

    return [r.to_json_dict() if isinstance(r, ComparisonReport) else dict(r) for r in reports]


def render_metrics_table(reports: list, format: str = "markdown") -> str:
    """Battery metrics, one column per horizon.

    Accepts ComparisonReport objects or their JSON dictionaries, so a parsed
    JSON table re-renders to the identical bytes (render, parse, render is a
    fixed point).
    """
    _check_format(format)
    if not reports:
        raise ValueError("metrics table needs at least one report")
    dicts = _as_dicts(reports)

    if format == "json":
        return json.dumps({"horizons": dicts}, indent=2) + "\n"

    labels = [d["label"] or f"horizon {i + 1}" for i, d in enumerate(dicts)]
    rows = _metric_rows(dicts)

    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["metric", *labels])
        for name, cells in rows:
            writer.writerow([name, *cells])
        return buf.getvalue()

    header = "| Metric | " + " | ".join(labels) + " |"
    sep = "|--------|" + "|".join("-" * (len(l) + 2) for l in labels) + "|"
    lines = [header, sep]
    for name, cells in rows:
        lines.append("| " + name + " | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


class BoxplotSummary(NamedTuple):
    """Plot-ready five-number summary with 1.5 IQR whiskers."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    whisker_low: float
    whisker_high: float
    outliers: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {
            "min": self.minimum,
            "q1": self.q1,
            "median": self.median,
            "q3": self.q3,
            "max": self.maximum,
            "whisker_low": self.whisker_low,
            "whisker_high": self.whisker_high,
            "outliers": list(self.outliers),
        }


def boxplot_summary(values) -> BoxplotSummary:
    """Quartiles by linear interpolation (type 7); whiskers at the most
    extreme data points within 1.5 IQR of the box."""
    if len(values) == 0:
        raise InsufficientDataError("boxplot summary needs a non-empty sample")
    xs = sorted(float(v) for v in values)
    q1, median, q3 = (quantile_sorted(xs, q) for q in (0.25, 0.5, 0.75))
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    inside = [v for v in xs if lo_fence <= v <= hi_fence]
    return BoxplotSummary(
        minimum=xs[0],
        q1=q1,
        median=median,
        q3=q3,
        maximum=xs[-1],
        whisker_low=inside[0],
        whisker_high=inside[-1],
        outliers=tuple(v for v in xs if v < lo_fence or v > hi_fence),
    )


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def tool_provenance() -> dict:
    return {"tool": "sipcraft", "version": VERSION,
            "quantile_convention": "linear interpolation (type 7)",
            "bootstrap_stream": ("random.Random(seed) 32-bit words, diffs[w % n] for "
                                 "w < 2**32 - 2**32 % n, row-major; fsum means")}


def render_bundle(bundle: dict, format: str = "markdown") -> str:
    """Render a full comparison bundle (as assembled by the CLI)."""
    if format == "json":
        return json.dumps(bundle, indent=2) + "\n"
    if format not in ("markdown", "csv"):
        raise ValueError(f"bundle format must be markdown, csv or json, got {format!r}")

    if format == "csv":
        # CSV cannot hold heterogeneous tables in one stream, so sections are
        # separated by comment lines; each section body is plain CSV
        parts = []
        for years, rows in bundle["windows"].items():
            parts.append(f"# windows {years}")
            parts.append(render_window_table(
                [WindowRow.from_json_dict(d) for d in rows], "csv").rstrip("\n"))
        parts.append("# metrics")
        parts.append(render_metrics_table(bundle["metrics"], "csv").rstrip("\n"))
        return "\n".join(parts) + "\n"

    lines = ["# SIP schedule comparison", ""]
    prov = bundle["provenance"]
    lines.append("## Provenance")
    lines.append("")
    for key in sorted(prov):
        lines.append(f"- {key}: {json.dumps(prov[key])}")
    lines.append("")
    if bundle.get("anomalies"):
        lines.append("## Schedule anomalies")
        lines.append("")
        for a in bundle["anomalies"]:
            lines.append(f"- {a['month']} {a['field']} {a['date']}: {a['reason']}")
        lines.append("")
    for years, rows in bundle["windows"].items():
        lines.append(f"## Windows: {years}")
        lines.append("")
        lines.append(render_window_table(
            [WindowRow.from_json_dict(d) for d in rows], "markdown").rstrip("\n"))
        lines.append("")
    lines.append("## Comparison metrics")
    lines.append("")
    lines.append(render_metrics_table(bundle["metrics"], "markdown").rstrip("\n"))
    lines.append("")
    lines.append("## Boxplot summaries")
    lines.append("")
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
