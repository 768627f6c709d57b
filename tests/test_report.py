"""Reporting layer: rounding rules, table round-trips, boxplots, provenance."""

import csv
import datetime
import io
import json

import jsonschema
import pytest

from sipcraft.engine import Window, WindowOutcome, simulate
from sipcraft.errors import InsufficientDataError
from sipcraft.report import (
    boxplot_summary,
    file_sha256,
    render_bundle,
    render_simulation,
    tool_provenance,
    window_row,
)
from sipcraft.schedule import MonthKey, Strategy, build_schedule
from sipcraft.stats.battery import run_battery
from sipcraft.stats.bootstrap import BatteryConfig
from sipcraft.stats.paired import PairedSample

from conftest import ROOT, weekday_series


def csv_sections(text: str) -> dict[str, str]:
    """A CSV bundle's section bodies by the titles of their comment lines."""
    sections: dict[str, str] = {}
    for line in text.splitlines(keepends=True):
        if line.startswith("# "):
            title = line[2:].rstrip("\n")
            sections[title] = ""
        else:
            sections[title] += line
    return sections


def markdown_section(text: str, heading: str) -> str:
    """The body of one ``## `` section of a markdown bundle."""
    return text.split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]


def parse_window_table(text: str) -> list[dict]:
    """Inverse of a CSV bundle's window section: its row dictionaries."""
    return [{
        "from_year": int(rec["from_year"]),
        "to_year": int(rec["to_year"]),
        "years": int(rec["years"]),
        "cagr_ftd": float(rec["cagr_ftd"]),
        "cagr_exp": float(rec["cagr_exp"]),
        "difference": float(rec["difference"]),
        "difference_of_rounded": (float(rec["difference_of_rounded"])
                                  if rec["difference_of_rounded"] else None),
    } for rec in csv.DictReader(io.StringIO(text))]


def row(f, e, from_year=2003, to_year=2003) -> dict:
    return window_row(outcome(f, e, from_year, to_year))


def outcome(f, e, from_year=2003, to_year=2003):
    return WindowOutcome(Window(from_year, to_year), cagr_ftd=f, cagr_exp=e)


@pytest.fixture(scope="module")
def ledger():
    """A one-year FTD plan over closes with many significant digits."""
    series = weekday_series(datetime.date(2019, 12, 1), datetime.date(2020, 12, 31),
                            lambda d: 100.0 + d.toordinal() % 37 / 3)
    table, _ = build_schedule(series, None, MonthKey(2019, 12), MonthKey(2020, 12))
    return simulate(Strategy.FTD, Window(2020, 2020), 10_000.0, series, table)


def test_window_row_rounding_agreement():
    r = row(10.124, 11.126)
    assert r["cagr_ftd"] == 10.12
    assert r["cagr_exp"] == 11.13
    # full-precision diff 1.002 rounds to 1.00; rounded columns differ by 1.01
    assert r["difference"] == 1.0
    assert r["difference_of_rounded"] == 1.01


def test_window_row_rounding_consistent_case():
    r = row(10.10, 11.20)
    assert r["difference"] == 1.1
    assert r["difference_of_rounded"] is None


def test_window_table_markdown_flags_divergent_rows(three_year_sample):
    rows = [row(10.124, 11.126), row(10.0, 11.0, 2004, 2004)]
    text = render_bundle(make_bundle(three_year_sample, rows), "markdown")
    section = markdown_section(text, "Windows: 3y")
    assert "| 1.00 * |" in section
    assert "* 2003-2003: subtracting the rounded columns gives 1.01 instead." in section
    assert section.count("*") == 2  # one cell marker, one footnote bullet


def test_window_table_round_trips(three_year_sample):
    rows = [row(10.124, 11.126), row(-3.5, -2.25, 2004, 2004)]
    text = render_bundle(make_bundle(three_year_sample, rows), "csv")
    assert parse_window_table(csv_sections(text)["windows 3y"]) == rows


def test_simulation_rejects_unknown_format(ledger):
    with pytest.raises(ValueError, match="^format must be markdown, csv or json, got 'yaml'$"):
        render_simulation(ledger, "yaml")


def test_simulation_json_is_the_ledger(ledger):
    assert render_simulation(ledger, "json") == json.dumps(ledger, indent=2) + "\n"
    assert list(ledger) == ["plan", "executions", "units", "invested", "terminal_date",
                            "terminal_close", "final_value", "cagr_percent"]


def test_simulation_csv_round_trips(ledger):
    records = list(csv.DictReader(io.StringIO(render_simulation(ledger, "csv"))))
    assert [(r["month"], r["date"], float(r["price"]), float(r["units"])) for r in records] == [
        (e["month"], e["date"], e["price"], e["units"]) for e in ledger["executions"]]


@pytest.mark.parametrize("amount, shown", [(12345.67, "12345.67"), (1234567.0, "1234567"),
                                           (2500.5, "2500.5"), (1.0, "1")])
def test_simulation_plan_line_shows_the_whole_amount(ledger, amount, shown):
    text = render_simulation(dict(ledger, plan=dict(ledger["plan"], monthly_amount=amount)))
    assert text.splitlines()[0] == f"Plan: ftd 2020..2020 (1y, {shown}/month)"


def test_metrics_markdown_header_names_each_horizon(three_year_sample):
    text = render_bundle(make_bundle(three_year_sample), "markdown")
    assert markdown_section(text, "Comparison metrics").splitlines()[1] == "| Metric | 3y |"


def test_metrics_table_shows_na_reasons():
    bundle = make_bundle(PairedSample([5.0], [4.0]), label="20y")
    text = render_bundle(bundle, "markdown")
    assert "not applicable: n too small for inference (n=1)" in markdown_section(
        text, "Comparison metrics")
    assert "not applicable" in csv_sections(render_bundle(bundle, "csv"))["metrics"]


@pytest.mark.parametrize("alpha, level", [(0.05, "95"), (0.1, "90"), (0.025, "97.5"),
                                          (0.005, "99.5")])
def test_metrics_tables_show_the_interval_level_unrounded(three_year_sample, alpha, level):
    bundle = make_bundle(three_year_sample, config=BatteryConfig(B=1000, alpha=alpha))
    shown = f"({level}%, B=1000)"
    assert shown in markdown_section(render_bundle(bundle, "markdown"), "Comparison metrics")
    assert shown in csv_sections(render_bundle(bundle, "csv"))["metrics"]


def test_metrics_rendering_deterministic(one_year_sample):
    for fmt in ("markdown", "csv"):
        assert render_bundle(make_bundle(one_year_sample, label="1y"), fmt) == render_bundle(
            make_bundle(one_year_sample, label="1y"), fmt)


def test_boxplot_five_numbers_and_outliers():
    b = boxplot_summary([1.0, 2.0, 3.0, 4.0, 100.0])
    assert b["q1"] == 2.0
    assert b["median"] == 3.0
    assert b["q3"] == 4.0
    assert b["min"] == 1.0
    assert b["max"] == 100.0
    # fences at q1 - 1.5 IQR = -1 and q3 + 1.5 IQR = 7
    assert b["whisker_low"] == 1.0
    assert b["whisker_high"] == 4.0
    assert b["outliers"] == [100.0]


def test_boxplot_no_outliers_whiskers_at_extremes():
    b = boxplot_summary([10.0, 12.0, 14.0, 16.0])
    assert b["whisker_low"] == 10.0
    assert b["whisker_high"] == 16.0
    assert b["outliers"] == []


def test_boxplot_singleton_and_empty():
    b = boxplot_summary([7.0])
    assert b == {"min": 7.0, "q1": 7.0, "median": 7.0, "q3": 7.0, "max": 7.0,
                 "whisker_low": 7.0, "whisker_high": 7.0, "outliers": []}
    with pytest.raises(InsufficientDataError):
        boxplot_summary([])


def test_tool_provenance_is_static():
    p = tool_provenance()
    assert p["tool"] == "sipcraft"
    assert "version" in p
    assert p == tool_provenance()  # no timestamps or other drift


def test_file_sha256_known_value():
    assert file_sha256(b"abc") == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")


def make_bundle(sample, rows=None, label="3y", config=BatteryConfig()):
    report = run_battery(sample, config, label=label)
    prov = tool_provenance()
    prov.update({
        "data_path": "series.csv",
        "data_sha256": "0" * 64,
        "schedule_path": None,
        "schedule_sha256": None,
        "schedule_source": "computed",
        "durations": [3],
        "battery_config": config._asdict(),
        "anomaly_count": 0,
    })
    return {
        "provenance": prov,
        "anomalies": [],
        "windows": {label: rows or [row(20.53, 21.02, 2004, 2006)]},
        "metrics": [report._asdict()],
        "boxplots": {label: {
            "ftd": boxplot_summary(sample.ftd_values),
            "exp": boxplot_summary(sample.exp_values),
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
