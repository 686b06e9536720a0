"""Command-line interface: reports, formats, exit codes."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import irwinsums.cli as cli
import irwinsums.summation as summation


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSumCommand:
    def test_report_lines(self, capsys):
        code, out, _ = run(capsys, "sum", "--digits", "9", "--counts", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "sum = 23.026040265961244"
        assert lines[1] == "sum for all 3 'at most' conditions = 68.991003965973242"
        assert lines[2] == "sum for 0 occurrences = 22.920676619264150"
        assert lines[3] == "sum for 1 occurrences = 23.044287080747848"
        assert lines[4] == "sum for 2 occurrences = 23.026040265961244"

    def test_bare_value_at_verbosity_zero(self, capsys):
        code, out, _ = run(capsys, "sum", "--digits", "9", "--counts", "0", "-v", "0")
        assert code == 0
        assert out.strip() == "22.920676619264150"

    def test_at_most_mode_headline(self, capsys):
        code, out, _ = run(
            capsys, "sum", "--digits", "9", "--counts", "2", "--mode", "at-most", "-v", "0"
        )
        assert code == 0
        assert out.strip() == "68.991003965973242"

    def test_json_schema_and_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "sum", "--digits", "9,3", "--counts", "2,1", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["base"] == 10
        assert report["digits"] == [9, 3]
        assert report["counts"] == [2, 1]
        assert report["mode"] == "exact"
        assert report["decimals"] == 15
        assert Decimal(report["sum"]) == Decimal("4.169026439566082")
        assert Decimal(report["at_most_sum"]) == Decimal("34.282119242240692")
        assert report["per_count_sums"] is None
        assert report["termination"] == "Converged"
        assert report["digits_processed"] > 0
        # printed decimals re-parse to the identical fixed-point value
        assert format(Decimal(report["sum"]), "f") == report["sum"]

    def test_grouped_format(self, capsys):
        code, out, _ = run(
            capsys,
            "sum", "--digits", "3,1,4", "--counts", "1,1,1",
            "--decimals", "20", "--format", "grouped", "-v", "0",
        )
        assert code == 0
        assert out.strip() == "1.69447 98991 79790 92497"

    def test_validation_failure_exits_2(self, capsys):
        code, _, err = run(capsys, "sum", "--digits", "9,9", "--counts", "1,2")
        assert code == 2
        assert "duplicated" in err

    def test_threads_belongs_to_oracle_only(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sum", "--digits", "9", "--counts", "0", "--threads", "2"])
        assert exc.value.code == 2
        code, out, _ = run(
            capsys,
            "oracle", "--digits", "9", "--counts", "0", "--limit", "1000",
            "--threads", "2",
        )
        assert code == 0
        assert out.startswith("oracle sum (n < 1000) = ")

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "sum", "--digits", "9", "--counts", "0", "--output", str(path)
        )
        assert code == 0
        assert "sum = " in out  # text still printed
        report = json.loads(path.read_text())
        assert Decimal(report["sum"]) == Decimal("22.920676619264150")

    def test_unwritable_output_exits_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code, out, err = run(
            capsys, "sum", "--digits", "9", "--counts", "0", "--output", str(path)
        )
        assert code == 2
        assert "sum = " in out  # the result was printed before the write failed
        assert err.startswith("error: ") and str(path) in err
        assert not path.exists()

    def test_plan_line_at_verbosity_two(self, capsys):
        code, _, err = run(capsys, "sum", "--digits", "9", "--counts", "1", "-v", "2")
        assert code == 0
        assert err.splitlines() == [
            "decimals = 15, working = 23, max power = 11, direct digits = 3"
        ]

    def test_run_plans_once(self, capsys, monkeypatch):
        # the -v 2 line and the -v 3 scale read the plan the run carries
        calls = []
        original = summation.build_plan

        def counting(*args):
            calls.append(args)
            return original(*args)

        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("irwinsums")
                    and getattr(module, "build_plan", None) is original):
                monkeypatch.setattr(module, "build_plan", counting)
        code, _, err = run(capsys, "sum", "--digits", "9", "--counts", "1", "-v", "3")
        assert code == 0
        assert len(calls) == 1
        assert err.splitlines()[0] == (
            "decimals = 15, working = 23, max power = 11, direct digits = 3"
        )

    def test_refused_table_prints_no_plan(self, capsys):
        # the budget refuses the run before it has a result, so there is no plan
        code, out, err = run(
            capsys, "sum", "--digits", "1,2,3,4,5,6,7,8", "--counts", "6,6,6,6,6,6,6,6",
            "-v", "2",
        )
        assert code == 5
        assert out == ""
        assert err.splitlines() == [
            "error: 5764801 cells x 11 powers exceed the table budget of 4000000"
        ]

    def test_oversized_table_exits_5(self, capsys, monkeypatch):
        # the budget is checked before any table is allocated
        monkeypatch.setattr(summation, "TABLE_CELL_LIMIT", 10)
        code, out, err = run(capsys, "sum", "--digits", "9,3", "--counts", "1,1")
        assert code == 5
        assert out == ""
        assert "table budget of 10" in err

    def test_decimals_above_cap_exit_5(self, capsys):
        code, out, err = run(
            capsys, "sum", "--digits", "9", "--counts", "0", "--decimals", "1001"
        )
        assert code == 5
        assert out == ""
        assert "cap of 1000" in err

    def test_progress_lines_on_stderr(self, capsys):
        code, out, err = run(
            capsys, "sum", "--digits", "9", "--counts", "0", "-v", "3"
        )
        assert code == 0
        # full sums of infinite series report each enumerated digit length
        assert "partial sum for 1 digits" in err
        assert "partial sum for 3 digits" in err
        assert "partial sum for 4 digits" not in err
        assert "sum = 22.920676619264150" in out

    def test_progress_past_the_walks_end(self, capsys):
        # the walk ends at length 91; lengths 92..101 repeat its last level
        code, out, err = run(
            capsys, "sum", "--digits", "0,1", "--counts", "100,1", "--base", "2",
            "-v", "4",
        )
        assert code == 0
        assert err.splitlines()[101] == (
            "partial sum for 101 digits = 0.0000000000, total = 0.0000000000, "
            "active powers = 2"
        )
        assert hashlib.sha256((err + out).encode()).hexdigest() == (
            "6545cd1f3fb8c45ac66dc8aaed171020651db2708459a8b328258c873a3bf562"
        )

    def test_per_cell_lines_for_multiple_conditions(self, capsys):
        code, out, _ = run(
            capsys, "sum", "--digits", "9,3", "--counts", "1,1", "-v", "4"
        )
        assert code == 0
        assert "sum for occurrences (0, 0) = " in out
        assert "sum for occurrences (1, 1) = " in out


class TestPartialCommand:
    def test_report(self, capsys):
        code, out, _ = run(
            capsys, "partial", "--digits", "9", "--counts", "0", "--power", "30"
        )
        assert code == 0
        assert out.strip() == "partial sum through 30 digits = 21.971055078178619"

    def test_base_annotation(self, capsys):
        code, out, _ = run(
            capsys,
            "partial", "--digits", "1", "--counts", "1", "--base", "2", "--power", "6",
        )
        assert code == 0
        assert out.strip() == (
            "partial sum through 6 (base 2) digits = 1.968750000000000"
        )

    def test_json_carries_power_and_termination(self, capsys):
        code, out, _ = run(
            capsys,
            "partial", "--digits", "0", "--counts", "10", "--power", "63",
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["power"] == 63
        assert report["termination"] == "PartialRequested"
        assert report["digits_processed"] == 63
        assert Decimal(report["sum"]) == Decimal("1.099295133607324")

    def test_invalid_power(self, capsys):
        code, _, err = run(
            capsys, "partial", "--digits", "9", "--counts", "0", "--power", "0"
        )
        assert code == 2

    def test_power_above_maxsize(self, capsys):
        code, out, err = run(
            capsys, "partial", "--digits", "9", "--counts", "0",
            "--power", "100000000000000000000", "-v", "0",
        )
        assert (code, out.strip(), err) == (0, "22.920676619264150", "")


class TestThresholdCommand:
    def test_bracket_report(self, capsys):
        code, out, _ = run(
            capsys, "threshold", "--digits", "9", "--counts", "1", "--threshold", "23"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "threshold 23 is first reached with 81-digit denominators"
        assert lines[1] == "partial sum through 80 digits = 22.995762680948152"
        assert lines[2] == "partial sum through 81 digits = 23.000125707332644"

    def test_insufficient_accuracy_exits_3(self, capsys):
        code, _, err = run(
            capsys,
            "threshold", "--digits", "9", "--counts", "1",
            "--threshold", "23.044287080747",
        )
        assert code == 3
        assert "more threshold digits" in err

    def test_declared_decimals_recover(self, capsys):
        code, out, _ = run(
            capsys,
            "threshold", "--digits", "9", "--counts", "1",
            "--threshold", "23.044287080747", "--threshold-decimals", "25",
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert (report["digits_low"], report["digits_high"]) == (327, 328)

    def test_crossing_after_thousands_of_lengths(self, capsys):
        code, out, _ = run(
            capsys,
            "threshold", "--digits", "0", "--counts", "400", "--threshold", "5",
            "--decimals", "5",
        )
        assert code == 0
        assert out.splitlines() == [
            "threshold 5 is first reached with 3860-digit denominators",
            "partial sum through 3859 digits = 4.97860",
            "partial sum through 3860 digits = 5.01517",
        ]

    def test_above_total_exits_3(self, capsys):
        code, _, err = run(
            capsys, "threshold", "--digits", "9", "--counts", "0", "--threshold", "23"
        )
        assert code == 3
        assert "exceeds" in err

    def test_negative_threshold_decimals_exit_2(self, capsys):
        code, _, err = run(
            capsys,
            "threshold", "--digits", "9", "--counts", "1", "--threshold", "23",
            "--threshold-decimals", "-1",
        )
        assert code == 2
        assert err == "error: threshold_decimals must be >= 0\n"


class TestTableCommand:
    def test_single_row_grouped(self, capsys):
        code, out, _ = run(capsys, "table", "--row", "9")
        assert code == 0
        row = out.splitlines()[1]
        assert row.startswith("9")
        assert "22.92067 66192 64150 34816" in row
        assert "23.04428 70807 47848 31968" in row
        assert "23.02604 02659 61243 78845" in row

    def test_zero_row_grouped(self, capsys):
        code, out, _ = run(capsys, "table", "--row", "0")
        assert code == 0
        row = out.splitlines()[1]
        assert "23.10344 79094 20541 61603" in row
        assert "23.02673 53415 69126 96109" in row
        assert "23.02586 06827 35519 97642" in row

    def test_full_grid_json(self, capsys):
        code, out, _ = run(
            capsys, "table", "--base", "2", "--decimals", "20", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert len(report["rows"]) == 2
        zero_row = report["rows"][0]
        assert zero_row["digit"] == 0
        assert Decimal(zero_row["sums"][0]) == Decimal("1.60669515241529176378")


class TestOracleCommand:
    def test_compare(self, capsys):
        code, out, _ = run(
            capsys,
            "oracle", "--digits", "9", "--counts", "0", "--limit", "1000", "--compare",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("oracle sum (n < 1000) = ")
        assert lines[1].startswith("engine partial sum through 3 digits = ")
        value = lines[2].split("=")[1].strip()
        assert abs(Decimal(value)) < Decimal("1e-13")

    def test_compare_requires_power_of_base(self, capsys):
        # refused before the oracle enumerates, so nothing reaches stdout
        code, out, err = run(
            capsys,
            "oracle", "--digits", "9", "--counts", "0", "--limit", "999", "--compare",
        )
        assert code == 2
        assert "power of 10" in err
        assert out == ""

    def test_compare_requires_a_digit_length(self, capsys):
        # limit 1 = 10**0 leaves the engine no digit length to walk
        code, out, err = run(
            capsys,
            "oracle", "--digits", "9", "--counts", "0", "--limit", "1", "--compare",
        )
        assert code == 2
        assert "power of 10" in err
        assert out == ""

    def test_compare_requires_exact_mode(self, capsys):
        code, out, err = run(
            capsys,
            "oracle", "--digits", "9", "--counts", "0", "--limit", "100", "--compare",
            "--mode", "at-most",
        )
        assert code == 2
        assert "exact mode" in err
        assert out == ""

    def test_refused_engine_leaves_stdout_empty(self, capsys):
        # the oracle succeeds, the engine's table is refused: no partial report
        code, out, err = run(
            capsys,
            "oracle", "--digits", "0,1,2,3,4,5,6,7,8,9",
            "--counts", "5,5,5,5,5,5,5,5,5,5", "--limit", "1000", "--compare",
        )
        assert code == 5
        assert out == ""
        assert "table budget" in err

    def test_budget_exits_5(self, capsys):
        code, _, err = run(
            capsys,
            "oracle", "--digits", "9", "--counts", "0", "--limit", "200000000",
        )
        assert code == 5

    @pytest.mark.parametrize("limit", ["0", "-5"])
    def test_limit_below_one_exits_2(self, capsys, limit):
        code, out, err = run(
            capsys, "oracle", "--digits", "9", "--counts", "1", "--limit", limit,
        )
        assert code == 2
        assert out == ""
        assert f"limit must be at least 1, got {limit}" in err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exits_2(self, capsys, threads):
        code, out, err = run(
            capsys,
            "oracle", "--digits", "9", "--counts", "0", "--limit", "1000",
            "--threads", threads,
        )
        assert code == 2
        assert out == ""
        assert f"--threads must be at least 1, got {threads}" in err

    def test_decimals_below_minimum_raised_to_5(self, capsys):
        code, out, err = run(
            capsys,
            "oracle", "--digits", "9", "--counts", "0", "--limit", "10",
            "--decimals", "-3", "--format", "json",
        )
        assert code == 0
        assert err == ""
        report = json.loads(out)
        assert report["decimals"] == 5
        # 1/1 + ... + 1/8 = 761/280
        assert report["oracle_sum"] == "2.71786"

    def test_decimals_above_cap_exit_5(self, capsys):
        code, out, err = run(
            capsys,
            "oracle", "--digits", "9", "--counts", "0", "--limit", "10",
            "--decimals", "1001",
        )
        assert code == 5
        assert out == ""
        assert "cap of 1000" in err

    def test_mode_at_most(self, capsys):
        code, out, _ = run(
            capsys,
            "oracle", "--digits", "0", "--counts", "0", "--limit", "10",
            "--mode", "at-most", "--decimals", "12",
        )
        assert code == 0
        # 1/1 + ... + 1/9: no one-digit number contains a zero
        assert "2.828968253968" in out


_SUM_KEYS = [
    "base", "digits", "counts", "mode", "decimals", "sum", "at_most_sum",
    "per_count_sums", "digits_processed", "termination",
]

# name: (argv, what to read from stdout, stderr and the --output file, expected)
_CONTRACT = {
    "table header": (
        ["table", "--row", "9"],
        lambda out, err, path: out.splitlines()[0],
        "d  zero occurrences            one occurrence              two occurrences",
    ),
    "active powers at -v 4": (
        ["sum", "--digits", "9", "--counts", "0", "-v", "4"],
        lambda out, err, path: err.splitlines()[1],
        "partial sum for 1 digits = 2.7178571429, total = 2.7178571429, "
        "active powers = 11",
    ),
    "finite-series note": (
        ["sum", "--digits", "0,1", "--counts", "2,1", "--base", "2"],
        lambda out, err, path: err.splitlines(),
        ["this is a finite series that terminates after 3 digits"],
    ),
    "sum keys": (
        ["sum", "--digits", "9", "--counts", "1", "--format", "json"],
        lambda out, err, path: list(json.loads(out)),
        _SUM_KEYS,
    ),
    "partial keys": (
        ["partial", "--digits", "9", "--counts", "0", "--power", "3", "--format", "json"],
        lambda out, err, path: list(json.loads(out)),
        _SUM_KEYS + ["power"],
    ),
    "threshold keys": (
        ["threshold", "--digits", "9", "--counts", "1", "--threshold", "23",
         "--format", "json"],
        lambda out, err, path: list(json.loads(out)),
        ["base", "digits", "counts", "decimals", "threshold", "digits_low", "sum_low",
         "digits_high", "sum_high"],
    ),
    "table keys": (
        ["table", "--row", "9", "--format", "json"],
        lambda out, err, path: list(json.loads(out)),
        ["base", "decimals", "rows"],
    ),
    "oracle --compare keys": (
        ["oracle", "--digits", "9", "--counts", "0", "--limit", "1000", "--compare",
         "--format", "json"],
        lambda out, err, path: list(json.loads(out)),
        ["base", "digits", "counts", "mode", "decimals", "limit", "oracle_sum",
         "engine_sum", "difference"],
    ),
    "output file matches json stdout": (
        ["sum", "--digits", "9", "--counts", "2", "--format", "json", "--output", "FILE"],
        lambda out, err, path: json.loads(path.read_text()) == json.loads(out),
        True,
    ),
}


@pytest.mark.parametrize(
    "argv, read, expected", list(_CONTRACT.values()), ids=list(_CONTRACT)
)
def test_cli_contract(capsys, tmp_path, argv, read, expected):
    path = tmp_path / "report.json"
    code, out, err = run(capsys, *[str(path) if a == "FILE" else a for a in argv])
    assert code == 0
    assert read(out, err, path) == expected


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stdout_ends_quietly(tmp_path, unbuffered):
    # the pipe's read end is closed before the child starts, so its first
    # write to stdout fails: at the print when unbuffered, else at the flush
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    path = tmp_path / "report.json"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, irwinsums.cli as c; sys.exit(c.main())",
             "table", "--row", "9", "--output", str(path)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(path.read_text())["rows"][0]["digit"] == 9


@pytest.mark.parametrize(
    "argv, code, out",
    [
        (["partial", "--digits", "0", "--counts", "100", "--power", "853", "-v", "3"],
         0, "partial sum through 853 digits = 1.016695244353383\n"),
        (["partial", "--digits", "9", "--counts", "0", "--power", "0"], 2, ""),
    ],
    ids=["result", "error"],
)
def test_closed_stderr_keeps_the_result(argv, code, out):
    # with stderr's read end closed, the first diagnostic line fails; the
    # rest of stderr is dropped and stdout and the exit code stand
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, irwinsums.cli as c; sys.exit(c.main())",
             *argv],
            stdout=subprocess.PIPE, stderr=write_end, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stdout) == (code, out)
