"""CLI contract: flags, output formats, and the exit-code guarantees."""

import contextlib
import csv
import io
import itertools
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frobkit import FrobkitError, cli, families, semigroup
from frobkit.cli import main
from frobkit.semigroup import TABLE_CAP_ENV, effective_table_cap

from _cap import capped
from _naive import dp_scan


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_captured(argv):
    """main(argv)'s exit code, stdout and stderr, argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


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

        monkeypatch.setattr(cli, "apery_set", exhausted)
        code, _, err = run_cli(
            capsys,
            "compute", "--a", "5", "--b", "2", "--c", "19", "--n", "3",
            "--p", "0", "--method", "oracle",
        )
        assert code == 3
        assert "memory" in err

    @pytest.mark.parametrize("family", [("5", "2", "19", "3"), ("1", "2", "-1", "1")])
    @pytest.mark.parametrize("quantity", ["frobenius", "sylvester"])
    def test_huge_p_past_cap_exits_3_with_the_cap_message(
        self, capsys, monkeypatch, family, quantity
    ):
        # gens (21, 61, 141) have a1 above the cap, (3, 5, 9) below it; either
        # way the oracle's memory is bounded by the cap, not by p
        a, b, c, n = family
        p = "100000000000000000000"
        monkeypatch.setenv(TABLE_CAP_ENV, "20")
        code, out, err = run_cli(
            capsys,
            "compute", "--a", a, "--b", b, f"--c={c}", "--n", n, "--p", p,
            "--method", "oracle", "--quantity", quantity,
        )
        assert (code, out) == (3, "")
        assert err == f"error: forward scan for p={p} exceeded table cap 20\n"

    @pytest.mark.parametrize(
        "argv, err",
        [
            # (21, 61, 141): below the default cap there are at most
            # 1639345 * 709220 (about 1.16 * 10^12) sums, and 21 * (p + 1)
            # are needed, so 10^20 and 10^12 are out of reach
            (["compute", "--a", "5", "--b", "2", "--c", "19", "--n", "3",
              "--p", str(10**20), "--method", "oracle"],
             f"error: forward scan for p={10**20} exceeded table cap 100000000\n"),
            (["compute", "--a", "5", "--b", "2", "--c", "19", "--n", "3",
              "--p", str(10**12), "--method", "oracle"],
             f"error: forward scan for p={10**12} exceeded table cap 100000000\n"),
            # (9999997, 99999997, 999999997): 2 sums below the cap, one per
            # class of the 9999997 is needed
            (["compute", "--a", "1", "--b", "10", "--c", "3", "--n", "7", "--p", "0",
              "--method", "oracle", "--format", "json"],
             "error: forward scan for p=0 exceeded table cap 100000000\n"),
            (["apery", "--gens", "2,3", "--p", str(10**20)],
             f"error: Apery scan for p={10**20} exceeded table cap 100000000 "
             f"(at most 33333334 sums below the cap, {2 * (10**20 + 1)} needed)\n"),
        ],
        ids=["compute", "compute-1e12", "compute-n7", "apery"],
    )
    def test_unreachable_p_at_the_default_cap_exits_3_at_once(self, argv, err):
        # a pass filling classes toward p + 1 sums would not end, so run main
        # with a deadline
        result = []
        worker = threading.Thread(target=lambda: result.append(run_captured(argv)),
                                  daemon=True)
        with capped(None):
            worker.start()
            worker.join(timeout=10)
        assert not worker.is_alive(), "main did not return within 10 s"
        assert result == [(3, "", err)]


def _valid_families():
    """The (a, b, c, n, k) with a <= 5, b <= 4, 0 < |c| <= 40, n <= 2 that build."""
    out = []
    for a, b, c, n, k in itertools.product(
        range(1, 6), range(2, 5), range(-40, 41), range(1, 3), (3, 4)
    ):
        make = families.make_triple if k == 3 else families.make_quad
        try:
            make(a, b, c, n)
        except FrobkitError:
            continue
        if c:
            out.append((a, b, c, n, k))
    return out


class TestComputeReadsTheEngine:
    @given(
        st.sampled_from(_valid_families()),
        st.sampled_from(("frobenius", "sylvester")),
        st.integers(0, 8),
        st.none() | st.integers(20, 3000),
    )
    @settings(max_examples=60, deadline=None)
    @example((5, 2, 19, 3, 3), "frobenius", 8, 20)
    @example((2, 3, -5, 2, 4), "sylvester", 3, None)
    @example((4, 3, -1, 1, 3), "sylvester", 6, 600)
    def test_oracle_equals_the_forward_scan(self, family, quantity, p, cap):
        a, b, c, n, k = family
        make = families.make_triple if k == 3 else families.make_quad
        gens = make(a, b, c, n).gens
        g_p, n_p = dp_scan(gens, p)
        argv = ["compute", "--a", str(a), "--b", str(b), f"--c={c}", "--n", str(n),
                "--vars", str(k), "--p", str(p), "--quantity", quantity,
                "--method", "oracle", "--format", "json"]
        with capped(cap):
            limit = effective_table_cap()
            code, out, err = run_captured(argv)
        if g_p + gens.a1 >= limit:  # the largest p-Apery element is at the cap
            error = f"error: forward scan for p={p} exceeded table cap {limit}\n"
            assert (code, out, err) == (3, "", error)
            return
        assert (code, err) == (0, "")
        assert json.loads(out)["oracle"] == str(g_p if quantity == "frobenius" else n_p)


class TestParserCache:
    def test_one_parser_prints_what_fresh_parsers_print(self):
        calls = [
            ["compute", "--a", "5", "--b", "2", "--c", "19", "--n", "3", "--p", "0"],
            ["table", "--a", "5", "--b", "2", "--c", "19", "--n", "3", "--p-max", "2",
             "--format", "json"],
            ["compute", "--a", "5"],  # argparse rejects it
            ["verify", "--c-range", "-3..3", "--format", "csv"],
            ["apery", "--gens", "2,3", "--p", "1"],
        ]
        fresh = []
        for argv in calls:
            cli.build_parser.cache_clear()
            fresh.append(run_captured(argv))
        cli.build_parser.cache_clear()
        assert [run_captured(argv) for argv in calls] == fresh
        assert cli.build_parser.cache_info().misses == 1
        assert [code for code, _, _ in fresh] == [0, 0, 2, 0, 0]


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
            "(at most 1 sums below the cap, 2000003 needed)\n"
        )

    def test_missing_input_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "apery", "--p", "1")
        assert code == 2
        assert "--gens" in err

    def test_json_entries_and_grid(self, capsys):
        code, out, _ = run_cli(capsys, "apery", "--gens", "2,3", "--p", "1", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert (obj["entries"], obj["max_entry"]) == (["6", "9"], "9")
        code, out, _ = run_cli(
            capsys,
            "apery", "--a", "5", "--b", "2", "--c", "19", "--n", "3",
            "--p", "0", "--grid", "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert len(obj["positions"]) == 21
        assert (obj["residue_unit"], obj["max_entry"]) == ("19", "968")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--a", "5", "--b", "2", "--c", "19", "--n", "3", "--p", "20000"],
             "p=20000 exceeds validity bound q=7"),
            (["--gens", "2000003,2000004", "--p", "0"],
             "--grid requires the three-term family flags"),
            (["--a", "2", "--b", "3", "--c", "37", "--n", "3", "--vars", "4", "--p", "0"],
             "--grid requires the three-term family flags"),
            (["--a", "4", "--b", "3", "--c=-1", "--n", "1", "--p", "0"],
             "the position grid is constructed only for c > 0"),
        ],
        ids=["past-q", "gens", "quad", "negative-c"],
    )
    def test_grid_refuses_before_the_engine_runs(self, capsys, monkeypatch, argv, message):
        def engine(*args):
            raise AssertionError("the engine ran for a --grid request that must fail")

        monkeypatch.setattr(semigroup, "_residue_sums", engine)
        code, out, err = run_cli(capsys, "apery", *argv, "--grid")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_wrong_grid_exits_1_with_one_error_line(self, monkeypatch, fmt):
        # The last position repeats the first, so one residue class is missed.
        def wrong_grid(t, p):
            grid = families.apery_grid_triple(t, p)
            return grid[:-1] + grid[:1]

        monkeypatch.setattr(cli, "apery_grid_triple", wrong_grid)
        code, out, err = run_captured(
            ["apery", "--a", "5", "--b", "2", "--c", "19", "--n", "3",
             "--p", "1", "--grid", "--format", fmt]
        )
        assert (code, out, err) == (1, "", "grid/apery value mismatch\n")

    def test_valid_grid_past_cap_exits_3_before_building_the_grid(self, capsys, monkeypatch):
        # a1 = 1999999 >= cap: the Apery set stops at once, and the grid of a1
        # positions is never built.
        monkeypatch.setenv(TABLE_CAP_ENV, "1000")
        tracemalloc.start()
        try:
            code, out, err = run_cli(
                capsys,
                "apery", "--a", "1000000", "--b", "2", "--c", "1", "--n", "1",
                "--p", "0", "--grid",
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (3, "")
        assert err == (
            "error: Apery scan for p=0 exceeded table cap 1000 "
            "(at most 1 sums below the cap, 1999999 needed)\n"
        )
        assert peak < 1_000_000


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

    def test_text_summary_golden(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--a-range", "1..3", "--b-range", "2..4",
            "--c-range=-10..10", "--n-range", "1..2",
        )
        assert code == 0
        assert out == (
            "total=715 matched=448 mismatched=0 skipped_gcd=256 no_case=4 "
            "out_of_range=7 skipped_large=0 resource_limit=0\n"
        )

    def test_fixed_p_policy_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--a-range", "5..5", "--b-range", "2..2", "--c-range", "19..19",
            "--n-range", "3..3", "--p-policy", "3", "--format", "csv",
        )
        assert code == 0
        g = (947, 1088, 1229, 1370)
        assert out.splitlines() == ["a,b,c,n,p,closed,closed_error,oracle,case,match"] + [
            f"5,2,19,3,{p},{g[p]},,{g[p]},,true" for p in range(4)
        ]

    def test_malformed_p_policy_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--p-policy", "x")
        assert (code, out) == (2, "")
        assert err == "error: --p-policy must be 'theorem-range' or an integer, got 'x'\n"

    @pytest.mark.parametrize("p_policy", [sys.maxsize, 2**63])
    def test_huge_p_policy_exits_2(self, capsys, monkeypatch, p_policy):
        # One point per p would never end, and one list slot per p would
        # not fit in memory; the spec refuses such a p_policy up front.
        monkeypatch.setenv(TABLE_CAP_ENV, "20")
        code, out, err = run_cli(
            capsys,
            "verify", "--a-range", "5..5", "--b-range", "2..2", "--c-range", "19..19",
            "--n-range", "3..3", "--p-policy", str(p_policy),
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: fixed p_policy must be < {sys.maxsize}, got {p_policy}\n"
        )

    def test_p_policy_at_or_past_the_cap_exits_3_at_once(self, capsys, monkeypatch):
        # The gate bounds a report's points per tuple by the cap; 2**62 used
        # to run until memory ran out.
        monkeypatch.setenv(TABLE_CAP_ENV, "20")
        spec = ["verify", "--a-range", "5..5", "--b-range", "2..2", "--c-range", "19..19",
                "--n-range", "3..3"]
        for p_policy in (20, 2**62):
            code, out, err = run_cli(capsys, *spec, "--p-policy", str(p_policy))
            assert (code, out) == (3, "")
            assert err == f"error: fixed p_policy {p_policy} >= table cap 20\n"
        code, out, _ = run_cli(capsys, *spec, "--p-policy", "19")
        assert code == 0
        assert out == (
            "total=20 matched=0 mismatched=0 skipped_gcd=0 no_case=0 "
            "out_of_range=12 skipped_large=0 resource_limit=8\n"
        )

    def test_p_policy_gate_bounds_points_not_reach(self, capsys, monkeypatch):
        # d(m) outgrows m on (3, 5, 9): under cap 2000, row 2000 is in reach
        # (g_2000 + a1 = 733), yet a fixed p_policy 2000 is refused, as it
        # would list 2001 points per tuple.
        monkeypatch.setenv(TABLE_CAP_ENV, "2000")
        code, out, _ = run_cli(capsys, "table", "--a", "1", "--b", "2", "--c=-1", "--n", "1",
                               "--p-max", "2000", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert (len(rows), rows[-1]["p"], rows[-1]["g"]) == (2001, "2000", "730")
        assert dp_scan((3, 5, 9), 2000)[0] == 730
        code, out, err = run_cli(capsys, "verify", "--a-range", "1..1", "--b-range", "2..2",
                                 "--c-range=-1..-1", "--n-range", "1..1", "--p-policy", "2000")
        assert (code, out, err) == (3, "", "error: fixed p_policy 2000 >= table cap 2000\n")

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

    def test_text_layout(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--a", "5", "--b", "2", "--c", "19", "--n", "3", "--p-max", "2"
        )
        assert code == 0
        assert out.splitlines() == [
            "generators: 21 61 141",
            "   p            g_p   method            n_p   method",
            "   0            947   closed            474   closed",
            "   1           1088   closed            651   closed",
            "   2           1229   closed            822   closed",
        ]

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
            [p, *dp_scan(gens, p)] for p in range(4)
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
        real = families.closed_value

        def counting(params, quantity, p):
            calls.append(p)
            return real(params, quantity, p)

        monkeypatch.setattr(families, "closed_value", counting)
        monkeypatch.setenv(TABLE_CAP_ENV, "20")
        for p_max in ("2000000", "9223372036854775808"):  # 2**63 fits no list
            calls.clear()
            code, out, err = run_cli(
                capsys,
                "table", "--a", "5", "--b", "2", "--c", "19", "--n", "3",
                "--p-max", p_max,
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

    def test_import_loads_no_process_pool(self):
        # Only a sweep with workers > 1 imports the pool, and multiprocessing
        # with it; every other command runs without them.
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        probe = "import sys, frobkit.cli; print('concurrent.futures.process' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


# Values json.dumps encodes: big ints pass 64 bits, and floats include nan.
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(-(10**40), 10**40) | st.floats() | st.text()
)
# Keys the "%" layout and the "\x00" token split must survive.
JSON_KEYS = st.sampled_from(
    ["%", "%s", "%(p)d", "100%%", "\x00", "a\x00b", "", "é", "g€p", "\U0001f600"]
) | st.text()


def _records(keys: list, values) -> st.SearchStrategy[dict]:
    return st.tuples(*[values] * len(keys)).map(lambda vs: dict(zip(keys, vs)))


def record_lists(values) -> st.SearchStrategy[list]:
    """Lists of dicts over one key set, in one key order or in shuffled ones."""

    def over(keys):
        shuffled = st.permutations(keys).flatmap(lambda order: _records(order, values))
        return st.lists(_records(keys, values), max_size=4) | st.lists(shuffled, max_size=4)

    return st.lists(JSON_KEYS, unique=True, max_size=4).flatmap(over)


JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(JSON_KEYS, children, max_size=4)
        | record_lists(JSON_SCALARS)
        | record_lists(children)
    ),
    max_leaves=30,
)


class TestJsonEmitter:
    @given(JSON_VALUES)
    @example([{}, {}])
    @example({"%s": "%s", "a\x00": ["\x00", "%"], "é": [{"p": 10**50}, {"p": None}]})
    @example([{"a": "1", "b": True}, {"b": "2", "a": False}])
    @example([{"a": "1"}, "a", [{"a": "1"}], {"a": ["1"]}])
    @settings(max_examples=500, deadline=None)
    def test_equals_json_dumps_indent_2(self, obj):
        assert cli._dumps(obj) == json.dumps(obj, indent=2)

    def test_a_value_json_cannot_encode_raises_as_json_dumps_does(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli._dumps({"points": [{"p": object()}]})

    def test_a_key_that_is_not_a_str_raises(self):
        with pytest.raises(TypeError):
            cli._dumps({"points": [{1: "1"}]})

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--a", "5", "--b", "2", "--c", "19", "--n", "3", "--p", "2"],
            ["compute", "--a", "2", "--b", "3", "--c=-5", "--n", "2", "--vars", "4",
             "--p", "1", "--quantity", "sylvester"],
            ["apery", "--a", "5", "--b", "2", "--c", "19", "--n", "3", "--p", "1"],
            ["apery", "--a", "5", "--b", "2", "--c", "19", "--n", "3", "--p", "1", "--grid"],
            ["table", "--a", "2", "--b", "3", "--c=-5", "--n", "2", "--vars", "4",
             "--p-max", "4"],
            ["verify", "--c-range=-20..20", "--n-range", "1..2"],
        ],
        ids=["compute", "compute-quad", "apery", "apery-grid", "table", "verify"],
    )
    def test_reports_are_json_dumps_indent_2(self, argv):
        code, out, err = run_captured(argv + ["--format", "json"])
        assert (code, err) == (0, "")
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


DIGIT_LIMIT_ERROR = (
    f"error: a value has more than {sys.get_int_max_str_digits()} digits, "
    "Python's int-to-str limit\n"
)


class TestDigitLimit:
    """Values past Python's int-to-str limit end in exit 3, not a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--n", "5000", "--p", "0", "--method", "closed"],
            ["compute", "--n", "5000", "--p", "0", "--method", "closed",
             "--format", "json"],
            ["table", "--n", "5000", "--p-max", "0", "--format", "csv"],
            ["table", "--n", "5000", "--p-max", "0", "--format", "json"],
            # the generators fit the limit, g_0 does not
            ["table", "--n", "2500", "--p-max", "0"],
        ],
        ids=["compute-text", "compute-json", "table-csv", "table-json", "table-text"],
    )
    def test_exits_3_with_one_error_line(self, argv):
        code, out, err = run_captured(
            [argv[0], "--a", "1", "--b", "10", "--c", "3", *argv[1:]]
        )
        assert (code, out, err) == (3, "", DIGIT_LIMIT_ERROR)

    def test_an_over_long_range_bound_is_invalid_input(self):
        bound = "9" * (sys.get_int_max_str_digits() + 1)
        code, out, err = run_captured(["verify", "--a-range", f"1..{bound}"])
        assert (code, out) == (2, "")
        assert err == (
            f"error: a range bound has more than {sys.get_int_max_str_digits()} "
            "digits\n"
        )

    def test_an_unprintable_family_is_refused_before_it_is_built(self):
        # building b^n for n = 10^20 would never finish, so run main with a deadline
        big = str(10**20)
        argv = ["compute", "--a", "2", "--b", big, f"--c=-{big}", "--n", big,
                "--p", "0", "--method", "oracle"]
        result = []
        worker = threading.Thread(target=lambda: result.append(run_captured(argv)),
                                  daemon=True)
        worker.start()
        worker.join(timeout=2)
        assert not worker.is_alive(), "main did not return within 2 s"
        assert result == [(3, "", DIGIT_LIMIT_ERROR)]

    def test_a_sweep_past_the_limit_counts_skipped_tuples(self):
        # the gcd is small, but the generators of n >= 4298 have over 4300 digits
        code, out, err = run_captured(
            ["verify", "--a-range", "2..2", "--b-range", "10..10", "--c-range=-3..3",
             "--n-range", "4296..4300"]
        )
        assert (code, err) == (0, "")
        assert out.startswith("total=30 ")

    def test_other_value_errors_still_raise(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("not a digit limit")

        monkeypatch.setattr(cli, "scan_p_range", broken)
        with pytest.raises(ValueError, match="not a digit limit"):
            main(["table", "--a", "2", "--b", "3", "--c=-5", "--n", "2", "--vars", "4",
                  "--p-max", "1"])
