"""CLI contract: flags, output formats, and the exit-code guarantees."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from frobkit import cli
from frobkit.cli import main
from frobkit.semigroup import TABLE_CAP_ENV, p_frobenius_scan, p_sylvester_count


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_golden_agreement(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--a", "5", "--b", "2", "--c", "19", "--n", "3", "--p", "0"
        )
        assert code == 0
        assert "947" in out
        assert "agreement: ok" in out

    def test_quad_out_of_range_is_not_a_mismatch(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compute", "--a", "2", "--b", "3", "--c", "37", "--n", "3",
            "--vars", "4", "--p", "3", "--method", "both",
        )
        assert code == 0
        assert "OutOfValidityRange" in out
        assert "3075" in out

    def test_gcd_failure_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "compute", "--a", "2", "--b", "2", "--c", "2", "--n", "1", "--p", "0"
        )
        assert code == 2
        assert "gcd" in err

    def test_closed_method_falls_back_to_oracle(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compute", "--a", "1", "--b", "3", "--c", "-100", "--n", "1",
            "--p", "0", "--method", "closed",
        )
        assert code == 0
        assert "oracle-fallback" in out
        assert "3290" in out

    def test_case_line_for_negative_shift(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--a", "4", "--b", "3", "--c", "-1", "--n", "1", "--p", "1"
        )
        assert code == 0
        assert "case: 2" in out
        assert "425" in out

    def test_sylvester_quantity(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compute", "--a", "5", "--b", "2", "--c", "19", "--n", "3",
            "--p", "0", "--quantity", "sylvester",
        )
        assert code == 0
        assert "474" in out

    def test_json_numbers_are_strings_and_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compute", "--a", "5", "--b", "2", "--c", "19", "--n", "3",
            "--p", "0", "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["closed"] == "947"
        assert obj["generators"] == ["21", "61", "141"]
        once = json.dumps(json.loads(out))
        assert json.dumps(json.loads(once)) == once

    def test_redundancy_check_past_cap_exits_3_before_output(self, capsys, monkeypatch):
        # gens (997, 9997, 99997): the closed form is cheap, the redundancy
        # check would need a 99998-entry table
        monkeypatch.setenv(TABLE_CAP_ENV, "1000")
        code, out, err = run_cli(
            capsys,
            "compute", "--a", "1", "--b", "10", "--c", "3", "--n", "3",
            "--p", "0", "--method", "closed",
        )
        assert code == 3
        assert out == ""
        assert "cap" in err

    def test_memory_error_exits_3(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "p_frobenius_scan", exhausted)
        code, _, err = run_cli(
            capsys,
            "compute", "--a", "5", "--b", "2", "--c", "19", "--n", "3",
            "--p", "0", "--method", "oracle",
        )
        assert code == 3
        assert "memory" in err


class TestApery:
    def test_plain_generator_list(self, capsys):
        code, out, _ = run_cli(capsys, "apery", "--gens", "2,3", "--p", "1")
        assert code == 0
        assert "0: 6" in out
        assert "1: 9" in out

    def test_grid_golden(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "apery", "--a", "5", "--b", "2", "--c", "19", "--n", "3",
            "--p", "0", "--grid",
        )
        assert code == 0
        assert "max entry: 968" in out
        assert out.count("->") == 21
        assert "match the generic Apery set" in out

    def test_cap_breach_exits_3(self, capsys, monkeypatch):
        monkeypatch.setenv(TABLE_CAP_ENV, "4")
        code, _, err = run_cli(capsys, "apery", "--gens", "2,3", "--p", "1")
        assert code == 3
        assert "cap" in err

    def test_min_generator_at_cap_exits_3(self, capsys, monkeypatch):
        monkeypatch.setenv(TABLE_CAP_ENV, "1000")
        code, out, err = run_cli(capsys, "apery", "--gens", "2000003,2000004", "--p", "0")
        assert (code, out) == (3, "")
        assert err == (
            "error: Apery scan for p=0 exceeded table cap 1000 "
            "(1/2000003 residue classes filled)\n"
        )

    def test_missing_input_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "apery", "--p", "1")
        assert code == 2
        assert "--gens" in err


class TestVerify:
    def test_default_small_ranges_pass(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--a-range", "1..2", "--b-range", "2..3",
            "--c-range", "1..6", "--n-range", "1..1",
        )
        assert code == 0
        assert "mismatched=0" in out

    def test_negative_c_range(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--a-range", "1..2", "--b-range", "2..3",
            "--c-range", "-6..-1", "--n-range", "1..1",
        )
        assert code == 0
        assert "mismatched=0" in out

    def test_b_range_below_two_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--b-range", "1..1")
        assert code == 2
        assert "b_range" in err

    def test_malformed_range_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--c-range", "1..2..3")
        assert code == 2
        assert "malformed" in err

    def test_json_report_schema(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--a-range", "5..5", "--b-range", "2..2",
            "--c-range", "19..19", "--n-range", "3..3", "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert set(obj) == {"summary", "points"}
        for key in ("total", "matched", "mismatched", "skipped_gcd", "no_case", "out_of_range"):
            assert isinstance(obj["summary"][key], int)
        point = obj["points"][0]
        assert point["a"] == "5" and point["oracle"] == "947"
        assert point["match"] is True

    def test_text_summary_counts_add_up_under_cap(self, capsys, monkeypatch):
        monkeypatch.setenv(TABLE_CAP_ENV, "200")
        code, out, _ = run_cli(
            capsys,
            "verify", "--a-range", "1..2", "--b-range", "2..3",
            "--c-range", "1..5", "--n-range", "1..2",
        )
        assert code == 0
        lines = out.splitlines()
        fields = dict(part.split("=") for part in lines[0].split())
        assert int(fields["resource_limit"]) > 0
        total = int(fields.pop("total"))
        assert sum(map(int, fields.values())) == total
        assert lines[1:] == []  # no point was counted as mismatched
        assert "oracle=None" not in out

    def test_negative_limit_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--limit", "-1")
        assert code == 2
        assert "sample_limit" in err

    def test_workers_below_one_exits_2(self, capsys):
        for workers in ("0", "-3"):
            code, out, err = run_cli(capsys, "verify", "--workers", workers)
            assert code == 2
            assert out == ""
            assert "workers" in err

    def test_csv_report(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--a-range", "5..5", "--b-range", "2..2",
            "--c-range", "19..19", "--n-range", "3..3", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:5] == ["a", "b", "c", "n", "p"]
        assert len(rows) == 9  # header + p = 0..7


class TestTable:
    def test_golden_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "table", "--a", "5", "--b", "2", "--c", "19", "--n", "3",
            "--p-max", "7", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["p", "g", "g_method", "n", "n_method"]
        g_col = [int(r[1]) for r in rows[1:]]
        n_col = [int(r[3]) for r in rows[1:]]
        assert g_col == [141 * p + 947 for p in range(8)]
        assert n_col == [3 * (158 + 60 * p - p * p) for p in range(8)]
        assert all(r[2] == "closed" and r[4] == "closed" for r in rows[1:])

    def test_negative_shift_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "table", "--a", "4", "--b", "3", "--c", "-1", "--n", "1",
            "--p-max", "3", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert [int(r[1]) for r in rows[1:]] == [316, 425, 534, 643]
        assert all(r[4] == "oracle" for r in rows[1:])  # no closed genus form

    def test_p_max_zero_single_row(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "table", "--a", "5", "--b", "2", "--c", "19", "--n", "3",
            "--p-max", "0", "--format", "csv",
        )
        assert code == 0
        assert len(list(csv.reader(io.StringIO(out)))) == 2

    def test_negative_p_max_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys,
            "table", "--a", "5", "--b", "2", "--c", "19", "--n", "3", "--p-max", "-1",
        )
        assert code == 2
        assert out == ""
        assert "--p-max" in err

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "table", "--a", "5", "--b", "2", "--c", "19", "--n", "3",
            "--p-max", "2", "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["rows"][2]["g"] == "1229"
        once = json.dumps(json.loads(out))
        assert json.dumps(json.loads(once)) == once

    def test_negative_shift_quad_rows_come_from_the_oracle(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "table", "--a", "2", "--b", "3", "--c", "-5", "--n", "2", "--vars", "4",
            "--p-max", "3", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        gens = (23, 59, 167, 491)
        assert [[int(r[0]), int(r[1]), int(r[3])] for r in rows] == [
            [p, p_frobenius_scan(gens, p), p_sylvester_count(gens, p)] for p in range(4)
        ]
        assert all(r[2] == r[4] == "oracle" for r in rows)

    def test_row_past_cap_exits_3_with_no_output(self, capsys, monkeypatch):
        # gens (13, 37, 109), g_p = 316 + 109 p: the n_p column needs the
        # oracle at every p, and the window of p = 6 ends past 600 entries
        monkeypatch.setenv(TABLE_CAP_ENV, "600")
        code, out, err = run_cli(
            capsys,
            "table", "--a", "4", "--b", "3", "--c", "-1", "--n", "1", "--p-max", "6",
        )
        assert code == 3
        assert out == ""
        assert "p=3" in err

    def test_huge_p_max_stops_at_the_first_capped_oracle_row(self, capsys, monkeypatch):
        # gens (21, 61, 141): the closed forms hold for p <= q = 7, and a
        # 20-entry cap stops every oracle row, so p = 8 ends the table
        calls = []
        real = cli.closed_value

        def counting(params, quantity, p):
            calls.append(p)
            return real(params, quantity, p)

        monkeypatch.setattr(cli, "closed_value", counting)
        monkeypatch.setenv(TABLE_CAP_ENV, "20")
        code, out, err = run_cli(
            capsys,
            "table", "--a", "5", "--b", "2", "--c", "19", "--n", "3",
            "--p-max", "2000000",
        )
        assert (code, out) == (3, "")
        assert err == "error: forward scan for p=8 exceeded table cap 20\n"
        assert max(calls) == 8


class TestEntrypoint:
    def test_reader_closing_early_exits_141_without_traceback(self):
        # The JSON report (about 200 kB) outgrows the pipe buffer, so the
        # writer is still writing when the reader leaves after one line.
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "frobkit.cli", "verify",
                "--a-range", "1..3", "--b-range", "2..4", "--c-range=-20..20",
                "--n-range", "1..2", "--format", "json",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE == 141
        assert "Traceback" not in err
