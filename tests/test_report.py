"""Reporting layer: rounding rules, table round-trips, boxplots, provenance."""

import csv
import io
import json

import jsonschema
import pytest

from sipcraft.engine import Window, WindowOutcome
from sipcraft.errors import InsufficientDataError
from sipcraft.report import (
    BoxplotSummary,
    WindowRow,
    boxplot_summary,
    file_sha256,
    render_bundle,
    render_metrics_table,
    render_window_table,
    tool_provenance,
)
from sipcraft.stats import BatteryConfig, PairedSample, run_battery

from conftest import ROOT


def parse_window_table(text: str, format: str) -> list[WindowRow]:
    """Inverse of render_window_table for csv and json."""
    if format == "json":
        return [WindowRow.from_json_dict(d) for d in json.loads(text)]
    return [WindowRow(
        from_year=int(rec["from_year"]),
        to_year=int(rec["to_year"]),
        years=int(rec["years"]),
        cagr_f=float(rec["cagr_ftd"]),
        cagr_e=float(rec["cagr_exp"]),
        difference=float(rec["difference"]),
        difference_of_rounded=(float(rec["difference_of_rounded"])
                               if rec["difference_of_rounded"] else None),
    ) for rec in csv.DictReader(io.StringIO(text))]


def parse_metrics_table(text: str) -> list[dict]:
    """Inverse of the JSON metrics rendering; returns the horizon dictionaries."""
    return json.loads(text)["horizons"]


def outcome(f, e, from_year=2003, to_year=2003):
    return WindowOutcome(Window(from_year, to_year), cagr_ftd=f, cagr_exp=e)


def test_window_row_rounding_agreement():
    row = WindowRow.from_outcome(outcome(10.124, 11.126))
    assert row.cagr_f == 10.12
    assert row.cagr_e == 11.13
    # full-precision diff 1.002 rounds to 1.00; rounded columns differ by 1.01
    assert row.difference == 1.0
    assert row.difference_of_rounded == 1.01


def test_window_row_rounding_consistent_case():
    row = WindowRow.from_outcome(outcome(10.10, 11.20))
    assert row.difference == 1.1
    assert row.difference_of_rounded is None


def test_window_table_markdown_flags_divergent_rows():
    rows = [WindowRow.from_outcome(outcome(10.124, 11.126)),
            WindowRow.from_outcome(outcome(10.0, 11.0, 2004, 2004))]
    text = render_window_table(rows, "markdown")
    assert "| 1.00 * |" in text
    assert "* 2003-2003: subtracting the rounded columns gives 1.01 instead." in text
    assert text.count("*") == 2  # one cell marker, one footnote bullet


def test_window_table_round_trips():
    rows = [WindowRow.from_outcome(outcome(10.124, 11.126)),
            WindowRow.from_outcome(outcome(-3.5, -2.25, 2004, 2004))]
    for fmt in ("csv", "json"):
        text = render_window_table(rows, fmt)
        assert parse_window_table(text, fmt) == rows


def test_window_table_rejects_empty_and_bad_format():
    with pytest.raises(ValueError):
        render_window_table([], "csv")
    with pytest.raises(ValueError):
        render_window_table([WindowRow.from_outcome(outcome(1, 2))], "yaml")


def test_metrics_json_round_trip_is_fixed_point(three_year_sample):
    reports = [run_battery(three_year_sample, BatteryConfig(), label="3y")]
    text = render_metrics_table(reports, "json")
    parsed = parse_metrics_table(text)
    assert render_metrics_table(parsed, "json") == text


def test_metrics_markdown_same_from_objects_and_dicts(three_year_sample):
    reports = [run_battery(three_year_sample, BatteryConfig(), label="3y")]
    md_objects = render_metrics_table(reports, "markdown")
    md_dicts = render_metrics_table([r.to_json_dict() for r in reports], "markdown")
    assert md_objects == md_dicts
    assert "| 3y |" in md_objects.splitlines()[0] or "| Metric | 3y |" == md_objects.splitlines()[0]


def test_metrics_table_shows_na_reasons():
    report = run_battery(PairedSample([5.0], [4.0]), label="20y")
    text = render_metrics_table([report], "markdown")
    assert "not applicable: n too small for inference (n=1)" in text
    csv_text = render_metrics_table([report], "csv")
    assert "not applicable" in csv_text


def test_metrics_rendering_deterministic(one_year_sample):
    reports = [run_battery(one_year_sample, BatteryConfig(), label="1y")]
    assert render_metrics_table(reports, "markdown") == render_metrics_table(
        reports, "markdown")
    assert render_metrics_table(reports, "csv") == render_metrics_table(
        reports, "csv")


def test_boxplot_five_numbers_and_outliers():
    b = boxplot_summary([1.0, 2.0, 3.0, 4.0, 100.0])
    assert b.q1 == 2.0
    assert b.median == 3.0
    assert b.q3 == 4.0
    assert b.minimum == 1.0
    assert b.maximum == 100.0
    # fences at q1 - 1.5 IQR = -1 and q3 + 1.5 IQR = 7
    assert b.whisker_low == 1.0
    assert b.whisker_high == 4.0
    assert b.outliers == (100.0,)


def test_boxplot_no_outliers_whiskers_at_extremes():
    b = boxplot_summary([10.0, 12.0, 14.0, 16.0])
    assert b.whisker_low == 10.0
    assert b.whisker_high == 16.0
    assert b.outliers == ()


def test_boxplot_singleton_and_empty():
    b = boxplot_summary([7.0])
    assert b == BoxplotSummary(7.0, 7.0, 7.0, 7.0, 7.0, 7.0, 7.0, ())
    with pytest.raises(InsufficientDataError):
        boxplot_summary([])


def test_tool_provenance_is_static():
    p = tool_provenance()
    assert p["tool"] == "sipcraft"
    assert "version" in p
    assert p == tool_provenance()  # no timestamps or other drift


def test_file_sha256_known_value(tmp_path):
    target = tmp_path / "blob.txt"
    target.write_bytes(b"abc")
    assert file_sha256(str(target)) == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")


def make_bundle(three_year_sample):
    report = run_battery(three_year_sample, BatteryConfig(), label="3y")
    rows = [WindowRow.from_outcome(outcome(20.53, 21.02, 2004, 2006))]
    prov = tool_provenance()
    prov.update({
        "data_path": "series.csv",
        "data_sha256": "0" * 64,
        "schedule_path": None,
        "schedule_sha256": None,
        "schedule_source": "computed",
        "durations": [3],
        "amount": 10000.0,
        "battery_config": BatteryConfig().to_json_dict(),
        "anomaly_count": 0,
    })
    return {
        "provenance": prov,
        "anomalies": [],
        "windows": {"3y": [r.to_json_dict() for r in rows]},
        "metrics": [report.to_json_dict()],
        "boxplots": {"3y": {
            "ftd": boxplot_summary(three_year_sample.ftd_values).to_json_dict(),
            "exp": boxplot_summary(three_year_sample.exp_values).to_json_dict(),
        }},
    }


def test_bundle_json_validates_against_schema(three_year_sample):
    bundle = make_bundle(three_year_sample)
    text = render_bundle(bundle, "json")
    with open(ROOT / "docs" / "report_schema.json") as fh:
        schema = json.load(fh)
    jsonschema.validate(json.loads(text), schema)


def test_bundle_markdown_sections(three_year_sample):
    text = render_bundle(make_bundle(three_year_sample), "markdown")
    for heading in ("# SIP schedule comparison", "## Provenance",
                    "## Windows: 3y", "## Comparison metrics",
                    "## Boxplot summaries"):
        assert heading in text


def test_bundle_csv_sections(three_year_sample):
    text = render_bundle(make_bundle(three_year_sample), "csv")
    assert "# windows 3y" in text
    assert "# metrics" in text
    assert "from_year,to_year,years" in text


def test_bundle_rejects_unknown_format(three_year_sample):
    with pytest.raises(ValueError):
        render_bundle(make_bundle(three_year_sample), "xml")
