"""The CLI behaviour that the golden corpus cannot see.

``tests/test_golden.py`` pins every corpus command's exit code and output
bytes, and holds each exit-2 entry to one error line and no output. This
file keeps what a corpus entry cannot hold: a bundle checked against the
JSON schema, input from a pipe, the modules a command imports in a fresh
interpreter, settings resolution and ``@file`` arguments, and the error
branches and overflow values that no entry runs."""

import datetime
import hashlib
import json
import os
import random
import subprocess
import sys

import jsonschema
import pytest

from sipcraft.cli import (
    ENV_SEED,
    EXIT_ANOMALIES,
    EXIT_ERROR,
    EXIT_OK,
    build_parser,
    main,
    resolve_settings,
)
from sipcraft.stats.bootstrap import BatteryConfig
from sipcraft.timeseries import serialize_series

from conftest import DATA, OVERRIDES, ROOT, weekday_series


@pytest.fixture(scope="module")
def flat_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "flat.csv"
    rc = main(["fixtures", "--kind", "flat", "--start-year", "2020",
               "--years", "1", "--out", str(path)])
    assert rc == EXIT_OK
    return path


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_fixtures_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["fixtures", "--kind", "walk", "--seed", "4", "--out", str(a)])
    main(["fixtures", "--kind", "walk", "--seed", "4", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    main(["fixtures", "--kind", "walk", "--seed", "5", "--out", str(c)])
    assert a.read_bytes() != c.read_bytes()


def test_fixtures_output_is_parseable(walk_csv):
    from sipcraft.timeseries import parse_series

    with open(walk_csv) as fh:
        series = parse_series(fh)
    assert series.first_date.year == 2002  # prior December included
    assert series.last_date.year == 2024


def test_validate_and_simulate_december_9999(tmp_path, capsys):
    # the last month's upper bound once named year 10000 and exited 2
    data = tmp_path / "y9999.csv"
    data.write_text(serialize_series(weekday_series(
        datetime.date(9998, 12, 1), datetime.date(datetime.MAXYEAR, 12, 31), 100.0)))
    assert main(["validate", "--data", str(data)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["months_checked"] == 13
    for strategy in ("ftd", "exp"):
        assert main(["simulate", "--data", str(data), "--strategy", strategy,
                     "--start-year", "9999", "--years", "1"]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_simulate_flat_series_zero_cagr(flat_csv, tmp_path):
    out = tmp_path / "sim.json"
    rc = main(["simulate", "--data", str(flat_csv), "--strategy", "ftd",
               "--start-year", "2020", "--years", "1", "--amount", "100",
               "--format", "json", "--out", str(out)])
    assert rc == EXIT_OK
    payload = read_json(out)
    assert payload["units"] == pytest.approx(12.0 * 100 / 1000.0)
    assert payload["cagr_percent"] == pytest.approx(0.0, abs=1e-9)
    assert len(payload["executions"]) == 12


def test_simulate_requires_plan_flags(flat_csv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--data", str(flat_csv)])
    assert exc.value.code == EXIT_ERROR
    assert capsys.readouterr().err.endswith(
        "error: the following arguments are required: --strategy, --start-year, --years\n")


def test_compare_json_bundle_validates(walk_csv, tmp_path):
    out = tmp_path / "bundle.json"
    rc = main(["compare", "--data", str(walk_csv), "--durations", "1,3,20",
               "--resamples", "2000", "--format", "json", "--out", str(out)])
    assert rc == EXIT_OK
    bundle = read_json(out)
    with open(ROOT / "docs" / "report_schema.json") as fh:
        jsonschema.validate(bundle, json.load(fh))
    assert [m["label"] for m in bundle["metrics"]] == ["1y", "3y", "20y"]
    assert len(bundle["windows"]["1y"]) == 22
    assert len(bundle["windows"]["20y"]) == 1
    twenty = bundle["metrics"][-1]
    assert twenty["not_applicable"]["t"] == "n too small for inference (n=1)"
    assert bundle["provenance"]["battery_config"]["B"] == 2000


def test_compare_reads_a_window_table(tmp_path):
    out = tmp_path / "bundle.json"
    assert main(["compare", "--data", str(DATA / "reference_windows.csv"), "--durations", "3,20",
                 "--resamples", "1000", "--format", "json", "--out", str(out)]) == EXIT_OK
    bundle = read_json(out)
    with open(ROOT / "docs" / "report_schema.json") as fh:
        jsonschema.validate(bundle, json.load(fh))
    prov = bundle["provenance"]
    assert (prov["schedule_source"], prov["schedule_path"], prov["anomaly_count"]) == (
        "windows", None, 0)
    assert prov["data_path"] == str(DATA / "reference_windows.csv")
    assert bundle["anomalies"] == []
    assert [m["label"] for m in bundle["metrics"]] == ["3y", "20y"]
    assert [(w["from_year"], w["cagr_ftd"]) for w in bundle["windows"]["20y"]] == [(2005, 6.65)]
    assert [w["from_year"] for w in bundle["windows"]["3y"]] == list(range(2004, 2023, 3))


def test_compare_runs_at_the_cagr_bounds(tmp_path, capsys):
    # the widest differences MAX_CAGR admits leave every statistic finite
    table = tmp_path / "table.csv"
    table.write_text(_TABLE + "".join(f"{y},{y},1,-100,{1e100 if y % 3 else 0}\n"
                                      for y in range(2003, 2025)))
    assert main(["compare", "--data", str(table), "--durations", "1", "--resamples", "1000",
                 "--format", "json"]) == EXIT_OK
    json.loads(capsys.readouterr().out, parse_constant=pytest.fail)


def test_compare_window_table_header_is_normalized(tmp_path, capsys):
    # rows out of order and a BOM, upper-case header with extra columns
    table = tmp_path / "table.csv"
    table.write_text("\ufeffNote,CAGR_EXP,To_Year,From_Year,cagr_ftd\n"
                     "b,3.0,2004,2004,2.5\na,2.0,2003,2003,1.0\n", encoding="utf-8")
    assert main(["compare", "--data", str(table), "--durations", "1", "--resamples", "1000",
                 "--format", "csv"]) == EXIT_OK
    assert capsys.readouterr().out.startswith(
        "# windows 1y\nfrom_year,to_year,years,cagr_ftd,cagr_exp,difference,"
        "difference_of_rounded\n2003,2003,1,1.00,2.00,1.00,\n2004,2004,1,2.50,3.00,0.50,\n")


@pytest.mark.parametrize("name", ["reference_windows.csv", "series", "schedule"])
def test_compare_reads_data_from_a_pipe(walk_csv, name):
    # the header check reads ahead without seeking, which a pipe cannot, and
    # the provenance hashes the bytes the pipe carried: reopening /dev/stdin
    # after the parse would hash nothing
    if name == "schedule":
        flag, piped = "--schedule", OVERRIDES.encode()
    else:
        flag, piped = "--data", (walk_csv if name == "series" else DATA / name).read_bytes()
    paths = {"--data": str(walk_csv), flag: "/dev/stdin"}
    argv = ["compare", *[a for item in paths.items() for a in item], "--durations", "1",
            "--resamples", "1000", "--format", "json"]
    proc = subprocess.run([sys.executable, "-m", "sipcraft", *argv], input=piped,
                          capture_output=True)
    assert proc.returncode == EXIT_OK, proc.stderr
    bundle = json.loads(proc.stdout)
    assert len(bundle["windows"]["1y"]) == 22
    key = "data_sha256" if flag == "--data" else "schedule_sha256"
    assert bundle["provenance"][key] == hashlib.sha256(piped).hexdigest()


@pytest.mark.parametrize("argv, position", [
    (["validate", "--data", "{data}"], 930),
    (["compare", "--data", "{data}"], 930),
    (["validate", "--data", "{flat}", "--schedule", "{schedule}"], 39),
], ids=["validate", "compare", "schedule"])
def test_non_utf8_input_exits_2(flat_csv, tmp_path, capsys, argv, position):
    # the data file's 0xff lies past the first 8192-byte decode chunk, and
    # the position counts from that chunk, as decoding a file read does
    start = datetime.date(2003, 1, 1)
    rows = "".join(f"{start + datetime.timedelta(days=i)},1\n" for i in range(700))
    data, schedule = tmp_path / "data.csv", tmp_path / "schedule.csv"
    data.write_bytes(b"date,close\n" + rows.encode() + b"2010-01-04,\xff\n")
    schedule.write_bytes(b"year,month,ftd_dom,expiry_dom\n2010,1,4,\xff\n")
    paths = {"data": str(data), "flat": str(flat_csv), "schedule": str(schedule)}
    assert main([a.format(**paths) for a in argv]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("sipcraft: error: 'utf-8' codec can't decode byte 0xff in "
                            f"position {position}: invalid start byte\n")


_TABLE = "from_year,to_year,years,cagr_ftd,cagr_exp\n"


# window tables that no error-windows-* entry of the golden corpus matches:
# each takes a branch, a value or a layout of its own; a missing CAGR column
# makes a daily close series of the file, whose header then lacks date and close
@pytest.mark.parametrize("table, argv, message", [
    ("from_year,to_year,years,cagr_ftd\n2003,2003,1,1.0\n", [],
     "line 1: input header lacks ['date', 'close'], got "
     "['from_year', 'to_year', 'years', 'cagr_ftd']"),
    (_TABLE + "2003,2003,1,nan,2.0\n", [], "line 2: cagr_ftd must be a finite number, got 'nan'"),
    (_TABLE + "2003,2003,1,-100.5,2.0\n", ["--durations", "1"],
     "line 2: cagr_ftd -100.5 lies outside [-100, 1e+100]"),
    (_TABLE + "2003,2003,1.5,1.0,2.0\n", [], "line 2: years must be an integer, got '1.5'"),
    (_TABLE + "2003,2003,1,1.0\n", [], "line 2: row has 4 columns, expected at least 5"),
    # math.isfinite on a year too large for a float raised OverflowError
    (_TABLE + f"{10**400},2003,0,1.0,2.0\n", [],
     f"line 2: window ends before it starts: {10**400}..2003"),
    (_TABLE + "2003,2003,1,1.0,2.0\n\n2003,2003,1,1.5,2.5\n", [],
     "line 4: duplicate window 2003..2003 (first seen at line 2)"),
], ids=["missing-column", "non-finite", "below-total-loss", "fractional-years", "short-row",
        "huge-year", "duplicate"])
def test_compare_bad_window_table_exits_2(tmp_path, capsys, table, argv, message):
    (tmp_path / "table.csv").write_text(table)
    assert main(["compare", "--data", str(tmp_path / "table.csv"), *argv]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"sipcraft: error: {message}\n"


# compare reads the header itself to tell a window table from a series, and
# must then report an empty file as validate and simulate do
@pytest.mark.parametrize("text, message", [
    ("", "line 1: input is empty, expected a header row"),
    ("\n", "line 1: input header lacks ['date', 'close'], got []"),
], ids=["empty", "blank-first-line"])
@pytest.mark.parametrize("argv", [
    ["validate"], ["simulate", "--strategy", "ftd", "--start-year", "2003", "--years", "1"],
    ["compare"],
], ids=["validate", "simulate", "compare"])
def test_empty_data_file_exits_2_alike(tmp_path, capsys, argv, text, message):
    (tmp_path / "empty.csv").write_text(text)
    assert main([*argv, "--data", str(tmp_path / "empty.csv")]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"sipcraft: error: {message}\n"


@pytest.mark.parametrize("flag", ["--data", "--schedule"])
def test_compare_unreadable_file_exits_2(flat_csv, tmp_path, monkeypatch, capsys, flag):
    monkeypatch.chdir(tmp_path)
    argv = ["compare", flag, "absent"]
    if flag == "--schedule":
        argv += ["--data", str(flat_csv)]
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "sipcraft: error: [Errno 2] No such file or directory: 'absent'\n"


def test_compare_seed_precedence(walk_csv, tmp_path, monkeypatch):
    def bundle_seed(argv):
        out = tmp_path / "p.json"
        rc = main(argv + ["--format", "json", "--out", str(out)])
        assert rc == EXIT_OK
        return read_json(out)["provenance"]["battery_config"]["seed"]

    base = ["compare", "--data", str(walk_csv), "--durations", "1",
            "--resamples", "1000"]

    assert bundle_seed(base) == 42  # default

    monkeypatch.setenv("SIPCRAFT_SEED", "7")
    assert bundle_seed(base) == 7  # env beats default

    args = tmp_path / "args.txt"
    args.write_text("--seed=13\n")
    assert bundle_seed(base + [f"@{args}"]) == 13  # a flag from a file beats env

    assert bundle_seed(base + [f"@{args}", "--seed", "99"]) == 99  # a later flag wins


@pytest.mark.parametrize("value", ["x", "1.5"])
def test_compare_rejects_bad_env_seed(walk_csv, monkeypatch, capsys, value):
    monkeypatch.setenv("SIPCRAFT_SEED", value)
    rc = main(["compare", "--data", str(walk_csv), "--durations", "1",
               "--resamples", "1000"])
    assert rc == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("sipcraft: error: SIPCRAFT_SEED must be a non-negative "
                            f"integer, got {value!r}\n")


@pytest.mark.parametrize("argv", [
    ["validate"], ["simulate", "--strategy", "ftd", "--start-year", "2003", "--years", "1"],
], ids=["validate", "simulate"])
def test_env_seed_is_read_by_compare_only(walk_csv, monkeypatch, capsys, argv):
    # neither command draws a bootstrap, so a malformed seed must not stop it
    argv = argv[:1] + ["--data", str(walk_csv)] + argv[1:]
    monkeypatch.delenv("SIPCRAFT_SEED", raising=False)
    expected = main(argv), capsys.readouterr().out
    assert expected[0] == EXIT_OK
    monkeypatch.setenv("SIPCRAFT_SEED", "x")
    assert (main(argv), capsys.readouterr().out) == expected


# every setting: the command, the flag and its value, the line of an @file
# that sets it, how to read the resolved value, the flag's and the file's
# value as resolved, and the default (REQUIRED where argparse asks for the flag)
def _battery(field):
    return lambda s: getattr(s.battery, field)


REQUIRED = object()
# the flags each command requires; a case leaves out the one it sets
REQUIRED_FLAGS = {"validate": {"--data": "d.csv"}, "compare": {"--data": "d.csv"},
                  "simulate": {"--data": "d.csv", "--strategy": "ftd", "--start-year": "2010",
                               "--years": "3"}}


@pytest.mark.parametrize("command, flag, line, read, from_flag, from_file, default", [
    ("validate", ["--data", "a.csv"], "--data=b.csv", lambda s: s.data, "a.csv", "b.csv",
     REQUIRED),
    ("validate", ["--schedule", "a.csv"], "--schedule=b.csv", lambda s: s.schedule,
     "a.csv", "b.csv", None),
    ("simulate", ["--format", "csv"], "--format=json", lambda s: s.format,
     "csv", "json", "markdown"),
    ("simulate", ["--amount", "5"], "--amount=7", lambda s: s.amount, 5.0, 7.0, 10_000.0),
    ("compare", ["--durations", "3,1"], "--durations=5", lambda s: s.durations,
     [1, 3], [5], [1, 3, 5, 10, 20]),
    ("simulate", ["--strategy", "exp"], "--strategy=ftd", lambda s: s.strategy,
     "exp", "ftd", REQUIRED),
    ("simulate", ["--start-year", "2012"], "--start-year=2011", lambda s: s.start_year,
     2012, 2011, REQUIRED),
    ("simulate", ["--years", "3"], "--years=4", lambda s: s.years, 3, 4, REQUIRED),
    ("compare", ["--seed", "5"], "--seed=6", _battery("seed"), 5, 6, 42),
    ("compare", ["--resamples", "2000"], "--resamples=3000", _battery("B"), 2000, 3000, 10000),
    ("compare", ["--alpha", "0.1"], "--alpha=0.2", _battery("alpha"), 0.1, 0.2, 0.05),
], ids=["data", "schedule", "format", "amount", "durations", "strategy", "start_year", "years",
        "seed", "resamples", "alpha"])
def test_settings_precedence(tmp_path, monkeypatch, command, flag, line, read,
                             from_flag, from_file, default):
    args = tmp_path / "args.txt"
    args.write_text(line + "\n")
    base = [a for item in REQUIRED_FLAGS[command].items() if item[0] != flag[0] for a in item]

    def resolve(argv, env_seed=None):
        if env_seed is None:
            monkeypatch.delenv(ENV_SEED, raising=False)
        else:
            monkeypatch.setenv(ENV_SEED, env_seed)
        return read(resolve_settings(build_parser().parse_args([command, *base, *argv])))

    if default is REQUIRED:
        with pytest.raises(SystemExit):
            resolve([])
    else:
        assert resolve([]) == default
    assert resolve([f"@{args}"]) == from_file
    assert resolve([f"@{args}", *flag]) == from_flag
    if flag[0] == "--seed":
        # the environment sits between the flags and the default
        assert resolve([], env_seed="9") == 9
        assert resolve([f"@{args}"], env_seed="9") == from_file
        assert resolve(flag, env_seed="9") == from_flag


def test_argfile_flags_resolve_in_command_line_order(tmp_path):
    # an @file stands for its lines where it appears, so the later value wins
    (tmp_path / "args.txt").write_text("--seed=5\n--resamples=1000\n")
    args = f"@{tmp_path / 'args.txt'}"

    def battery(*argv):
        return resolve_settings(build_parser().parse_args(["compare", "--data", "d.csv", *argv])
                                ).battery

    assert battery(args) == BatteryConfig(B=1000, seed=5)
    assert battery(args, "--seed", "6") == BatteryConfig(B=1000, seed=6)
    assert battery("--seed", "6", args) == BatteryConfig(B=1000, seed=5)


@pytest.mark.parametrize("line", ["--seed 5", ""], ids=["spaced", "blank"])
def test_argfile_takes_one_argument_per_line(tmp_path, capsys, line):
    (tmp_path / "args.txt").write_text(f"--resamples=1000\n{line}\n")
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--data", "d.csv", f"@{tmp_path / 'args.txt'}"])
    assert exc.value.code == EXIT_ERROR
    assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {line}\n")


def test_missing_argfile_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["compare", "@missing.txt"])
    assert exc.value.code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("usage: sipcraft ") and "Traceback" not in err
    assert err.splitlines()[-1] == (
        "sipcraft: error: [Errno 2] No such file or directory: 'missing.txt'")


def test_data_path_starting_with_at(tmp_path, monkeypatch, capsys):
    # only an argument that starts with @ names an args file, so a path that
    # starts with one is given in the flag's own argument
    monkeypatch.chdir(tmp_path)
    (tmp_path / "@w.csv").write_bytes((DATA / "reference_windows.csv").read_bytes())
    assert main(["compare", "--data=@w.csv", "--durations", "1", "--resamples", "1000",
                 "--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["provenance"]["data_path"] == "@w.csv"
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--data", "@w.csv"])
    assert exc.value.code == EXIT_ERROR
    assert capsys.readouterr().err.endswith(
        "sipcraft: error: [Errno 2] No such file or directory: 'w.csv'\n")


# numbers outside their flag's range; the first five each overflowed a C
# long or a float and ended in a traceback
@pytest.mark.parametrize("argv, message", [
    (["simulate", "--data", "{data}", "--strategy", "ftd", "--start-year", str(10**20),
      "--years", "1"], f"start_year must be an integer in 2..9999, got {10**20}"),
    (["fixtures", "--years", str(10**20)], f"years must be an integer in 1..7997, got {10**20}"),
    (["fixtures", "--start-year", str(10**20)],
     f"start_year must be an integer in 2..9999, got {10**20}"),
    (["fixtures", "--base", "inf"], "base must be positive and finite, got inf"),
    (["fixtures", "--kind", "walk", "--base", "1.7e308", "--seed", "3"],
     "level on 2002-12-31 is not a finite positive float, got inf"),
    (["fixtures", "--base", "nan"], "base must be positive and finite, got nan"),
    (["fixtures", "--holiday-rate", "-0.1"], "holiday_rate must be in [0, 0.3], got -0.1"),
    (["fixtures", "--holiday-rate", "nan"], "holiday_rate must be in [0, 0.3], got nan"),
], ids=["simulate-start_year", "fixtures-years", "fixtures-start_year", "fixtures-base",
        "fixtures-overflow", "fixtures-base-nan", "fixtures-holiday_rate-negative",
        "fixtures-holiday_rate-nan"])
def test_out_of_range_numbers_exit_2(flat_csv, capsys, argv, message):
    argv = [a.format(data=flat_csv) for a in argv]
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"sipcraft: error: {message}\n"


# alpha at or below 2**-53 made the upper z infinite, and a B this large
# overflowed getrandbits; each ended in a nan quantile or a traceback
@pytest.mark.parametrize("key, flag, value, message", [
    ("alpha", "--alpha", "1e-16", "alpha must be in (2**-53, 1), got 1e-16"),
    ("alpha", "--alpha", "1e-310", "alpha must be in (2**-53, 1), got 1e-310"),
    ("B", "--resamples", "3000000000", "B must be <= 1000000, got 3000000000"),
    ("B", "--resamples", "10", "B must be >= 1000, got 10"),
    ("alpha", "--alpha", "0", "alpha must be in (2**-53, 1), got 0.0"),
    ("alpha", "--alpha", "1", "alpha must be in (2**-53, 1), got 1.0"),
    ("alpha", "--alpha", "nan", "alpha must be in (2**-53, 1), got nan"),
    ("alpha", "--alpha", "1.1102230246251565e-16",
     "alpha must be in (2**-53, 1), got 1.1102230246251565e-16"),
    ("seed", "--seed", "-1", "seed must be non-negative, got -1"),
], ids=["alpha-1e-16", "alpha-subnormal", "B", "B-small", "alpha-0", "alpha-1", "alpha-nan",
        "alpha-2-53", "seed"])
@pytest.mark.parametrize("source", ["flag", "argfile"])
def test_unusable_battery_numbers_exit_2(walk_csv, tmp_path, capsys, key, flag, value,
                                         message, source):
    # a flag read from an @file meets the same checks
    argv = ["compare", "--data", str(walk_csv), "--durations", "1"]
    if key == "alpha":
        argv += ["--resamples", "1000"]
    if source == "flag":
        argv += [flag, value]
    else:
        (tmp_path / "args.txt").write_text(f"{flag}={value}\n")
        argv += [f"@{tmp_path / 'args.txt'}"]
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"sipcraft: error: {message}\n"


def test_largest_usable_resamples_resolve():
    # resolving draws nothing, so the bound itself is cheap to check
    args = build_parser().parse_args(["compare", "--data", "d.csv", "--resamples", "1000000"])
    assert resolve_settings(args).battery.B == 1_000_000


def test_smallest_usable_alpha_runs(walk_csv, capsys):
    assert main(["compare", "--data", str(walk_csv), "--durations", "1", "--resamples", "1000",
                 "--alpha", "1.2e-16", "--format", "json"]) == EXIT_OK
    ci = json.loads(capsys.readouterr().out)["metrics"][0]["bootstrap"]
    assert ci["alpha"] == 1.2e-16
    assert ci["lower"] <= ci["point"] <= ci["upper"]


@pytest.mark.parametrize("argv", [
    ["validate", "--data", "d.csv"],
    ["simulate", "--data", "d.csv", "--strategy", "ftd", "--start-year", "2010", "--years", "1"],
    ["compare", "--data", "d.csv"], ["fixtures"],
], ids=["validate", "simulate", "compare", "fixtures"])
def test_no_command_takes_a_config_flag(capsys, argv):
    # every setting is a flag; settings kept in a file are passed as @FILE
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", "cfg.json"])
    assert exc.value.code == EXIT_ERROR
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --config cfg.json\n")


# before Python 3.13 argparse drops the "--" of --flag=--, and the empty list
# left in its place skipped type= and choices=: fixtures --kind=-- drew a
# series, and --seed=--, --years=-- and --amount=-- ended in a traceback
@pytest.mark.parametrize("argv, message", [
    (["fixtures", "--kind=--"], "argument --kind: invalid choice: '--'"),
    (["fixtures", "--seed=--"], "argument --seed: invalid int value: '--'"),
    (["simulate", "--data", "d.csv", "--strategy", "ftd", "--start-year", "2010", "--years=--"],
     "argument --years: invalid int value: '--'"),
    (["simulate", "--data", "d.csv", "--strategy", "ftd", "--start-year", "2010", "--years", "1",
      "--amount=--"], "argument --amount: invalid float value: '--'"),
], ids=["kind", "seed", "years", "amount"])
def test_double_dash_value_meets_the_flags_check(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_ERROR
    assert message in capsys.readouterr().err


def test_fixtures_rejects_an_unknown_kind(capsys):
    # --kind's choices are the only check of the kind synth draws
    with pytest.raises(SystemExit) as exc:
        main(["fixtures", "--kind", "garch"])
    assert exc.value.code == EXIT_ERROR
    assert "argument --kind: invalid choice: 'garch'" in capsys.readouterr().err


SIMULATE_2010 = ["simulate", "--strategy", "ftd", "--start-year", "2010", "--years", "3",
                 "--format", "json"]


def test_tiny_normal_amount_keeps_the_cagr(walk_csv, capsys):
    def cagr(*amount):
        assert main(SIMULATE_2010 + ["--data", str(walk_csv), *amount]) == EXIT_OK
        return json.loads(capsys.readouterr().out)["cagr_percent"]

    assert cagr("--amount", "1e-300") == cagr()


def test_compare_takes_no_amount(walk_csv, capsys):
    # the amount cancels out of every CAGR, so compare has no flag for it
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--data", str(walk_csv), "--amount", "5"])
    assert exc.value.code == EXIT_ERROR
    assert "unrecognized arguments: --amount" in capsys.readouterr().err


@pytest.mark.parametrize("close, terminal_close, message", [
    (1e-300, 1e300, "value ratio inf is out of float range"),
    (1e300, 1e-300, "value ratio 0.0 is out of float range"),
    # 1/price is subnormal for a close above about 4.49e307
    (1e308, 1e308, "1/price 1e-308 in one installment is out of float range"),
], ids=["overflow", "underflow", "subnormal-inverse"])
def test_compare_rejects_prices_out_of_float_range(tmp_path, capsys, close, terminal_close,
                                                   message):
    # every close but the last of 2024 is `close`; the 20y window spans 2005..2024
    def price(d):
        return terminal_close if d == datetime.date(2024, 12, 31) else close
    data = tmp_path / "extreme.csv"
    data.write_text(serialize_series(
        weekday_series(datetime.date(2004, 12, 1), datetime.date(2024, 12, 31), price)))
    assert main(["compare", "--data", str(data), "--durations", "20"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"sipcraft: error: plan 2005..2024 (ftd): {message}\n"


@pytest.mark.parametrize("argv, start, close, message", [
    # a finite CAGR above MAX_CAGR overflowed the bootstrap's jackknife
    (["compare", "--durations", "1", "--resamples", "1000"], 2002,
     lambda d: 10.0 ** random.Random(d.toordinal()).randint(0, 150),
     "plan 2004..2004 (ftd): CAGR 8.333333333333333e+113 lies outside [-100, 1e+100]"),
], ids=["compare-beyond-max"])
def test_cagr_beyond_max_exits_2(tmp_path, capsys, argv, start, close, message):
    data = tmp_path / "extreme.csv"
    data.write_text(serialize_series(
        weekday_series(datetime.date(start, 12, 1), datetime.date(2024, 12, 31), close)))
    assert main(argv + ["--data", str(data)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"sipcraft: error: {message}\n"


# the sipcraft modules every command loads: argparse needs nothing else
START = ("sipcraft", "sipcraft._version", "sipcraft.cli")
# the input layers that validate, simulate and compare read through
INPUTS = ("sipcraft.schedule", "sipcraft.timeseries")
# the engine and the one statistics module it builds its sample with
ENGINE = ("sipcraft.engine", "sipcraft.stats", "sipcraft.stats.paired", "sipcraft.stats.special")
# the battery layers only compare runs; simulate renders through report too
BATTERY = ("sipcraft.report", "sipcraft.stats.battery", "sipcraft.stats.bootstrap",
           "sipcraft.stats.dominance")
# stdlib modules --version has no use for
UNUSED_AT_START = ("json", "csv", "datetime", "hashlib")


@pytest.mark.parametrize("argv, rc, layers", [
    (["--version"], EXIT_OK, ()),
    # override dates the walk series does not trade on are anomalies
    (["validate", "--data", "{data}", "--schedule", "{schedule}"], EXIT_ANOMALIES, INPUTS),
    (["validate", "--data", "{data}"], EXIT_OK, INPUTS),
    (["fixtures", "--kind", "walk", "--holiday-rate", "0.05", "--out", "{out}"], EXIT_OK,
     ("sipcraft.synth", "sipcraft.timeseries")),
    (["simulate", "--data", "{data}", "--strategy", "exp", "--start-year", "2010",
      "--years", "3", "--out", "{out}"], EXIT_OK, INPUTS + ENGINE + ("sipcraft.report",)),
    (["compare", "--data", "{data}", "--resamples", "1000", "--out", "{out}"], EXIT_OK,
     INPUTS + ENGINE + BATTERY),
], ids=["version", "validate-overrides", "validate", "fixtures", "simulate", "compare"])
def test_each_command_imports_only_its_layers(walk_csv, tmp_path, argv, rc, layers):
    paths = {"data": str(walk_csv), "schedule": str(DATA / "schedule_overrides.csv"),
             "out": str(tmp_path / "out")}
    argv = [a.format(**paths) for a in argv]
    # a fresh interpreter per command; sipcraft's own modules are pinned
    # exactly, while of the stdlib only what the probe loads after its first
    # line counts, since the interpreter's site hooks and Python version load
    # their own; the records are NamedTuples, so no command needs dataclasses
    # (which loads inspect and ast); the runtime needs the stdlib only, and
    # numpy is a test-suite oracle
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from sipcraft.cli import main\n"
        "try:\n"
        f"    rc = main({argv!r})\n"
        "except SystemExit as exc:\n"
        "    rc = exc.code\n"
        "after = set(sys.modules)\n"
        "import json\n"
        "print(json.dumps([rc, sorted(m for m in after if m.split('.')[0] == 'sipcraft'),\n"
        "                  sorted(after - before), 'dataclasses' in after]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    got_rc, modules, loaded, dataclasses_loaded = json.loads(proc.stdout.splitlines()[-1])
    assert got_rc == rc, proc.stderr
    assert not dataclasses_loaded
    assert "numpy" not in loaded
    assert modules == sorted(START + layers)
    if argv == ["--version"]:
        assert not set(UNUSED_AT_START) & set(loaded)
    if argv[0] == "simulate":  # the ledger renderer hashes nothing
        assert "hashlib" not in loaded


@pytest.mark.parametrize("preset, runs", [(None, 1), ("2", 2)])
def test_compare_pays_only_for_the_numpy_it_uses(walk_csv, tmp_path, preset, runs):
    # compare uses no numpy, so it starts no OpenBLAS pool and leaves the
    # caller's OPENBLAS_NUM_THREADS as it was, set or unset, however often
    # it runs in one interpreter
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    argv = ["compare", "--data", str(walk_csv), "--resamples", "1000",
            "--out", str(tmp_path / "bundle.md")]
    probe = (
        "import json, os, sys\n"
        "from sipcraft.cli import main\n"
        f"rcs = [main({argv!r}) for _ in range({runs})]\n"
        "task = '/proc/self/task'\n"
        "print(json.dumps({'rcs': rcs, 'numpy': 'numpy' in sys.modules,\n"
        "                  'numpy_ma': 'numpy.ma' in sys.modules,\n"
        "                  'blas': os.environ.get('OPENBLAS_NUM_THREADS'),\n"
        "                  'threads': len(os.listdir(task)) if os.path.isdir(task) else None}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["rcs"] == [EXIT_OK] * runs
    assert not got["numpy"] and not got["numpy_ma"]
    assert got["blas"] == preset
    if got["threads"] is None:
        pytest.skip("/proc/self/task is absent, so threads cannot be counted")
    assert got["threads"] == 1
