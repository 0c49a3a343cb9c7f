"""Core engine tests: denumerants, Apery sets, and the two oracle routes."""

import math
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frobkit import (
    AperyTable,
    FrobkitError,
    GcdNotOneError,
    GeneratorTuple,
    InvalidInputError,
    ResourceLimitError,
    SweepSpec,
    apery_set,
    denumerant,
    denumerant_table,
    discover_validity,
    gcd_of,
    make_triple,
    p_frobenius_scan,
    p_frobenius_via_apery,
    p_sylvester_count,
    p_sylvester_via_apery,
    scan_p_range,
    verify_grid,
)
from frobkit import cli, semigroup
from frobkit.semigroup import TABLE_CAP_ENV, effective_table_cap

from _naive import naive_counts, naive_denumerant, naive_g_p, naive_n_p


def small_generator_tuples() -> st.SearchStrategy[GeneratorTuple]:
    return (
        st.lists(st.integers(2, 24), min_size=2, max_size=3, unique=True)
        .filter(lambda gs: math.gcd(*gs) == 1)
        .map(lambda gs: GeneratorTuple(tuple(gs)))
    )


class TestGcdOf:
    def test_golden_triple(self):
        assert gcd_of([21, 61, 141]) == 1

    def test_single_element(self):
        assert gcd_of([7]) == 7

    def test_golden_quad(self):
        assert gcd_of([17, 125, 449, 1421]) == 1

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            gcd_of([])

    def test_nonpositive_rejected(self):
        with pytest.raises(InvalidInputError):
            gcd_of([3, 0])


class TestGeneratorTuple:
    def test_sorted_and_deduplicated(self):
        gt = GeneratorTuple((9, 4, 9, 7))
        assert gt.gens == (4, 7, 9)
        assert gt.a1 == 4

    def test_minimum_generator_must_be_at_least_two(self):
        with pytest.raises(InvalidInputError):
            GeneratorTuple((1, 3))

    def test_gcd_must_be_one(self):
        with pytest.raises(GcdNotOneError):
            GeneratorTuple((4, 6))

    def test_redundant_generator_is_allowed_and_flagged(self):
        gt = GeneratorTuple((3, 5, 9))  # 9 = 3*3
        assert gt.redundant_generators() == (9,)
        assert GeneratorTuple((3, 5)).redundant_generators() == ()

    def test_redundancy_check_respects_table_cap(self, monkeypatch):
        monkeypatch.setenv(TABLE_CAP_ENV, "9")
        assert GeneratorTuple((2, 3, 8)).redundant_generators() == (8,)
        monkeypatch.setenv(TABLE_CAP_ENV, "8")
        with pytest.raises(ResourceLimitError):
            GeneratorTuple((2, 3, 8)).redundant_generators()


class TestDenumerant:
    def test_zero_has_one_representation(self):
        assert denumerant(0, (2, 3)) == 1
        assert denumerant(0, (21, 61, 141)) == 1

    def test_six_two_three(self):
        # {(3,0), (0,2)}; value cross-checked by enumeration
        assert naive_denumerant(6, (2, 3)) == 2
        assert denumerant(6, (2, 3)) == 2

    def test_947_not_representable(self):
        assert denumerant(947, (21, 61, 141)) == 0

    def test_negative_m_rejected(self):
        with pytest.raises(InvalidInputError):
            denumerant(-1, (2, 3))


class TestDenumerantTable:
    def test_two_three_bound_seven(self):
        table = denumerant_table((2, 3), 7)
        assert list(table.counts) == [1, 0, 1, 1, 1, 1, 2, 1]
        assert list(table.counts) == naive_counts((2, 3), 7)

    def test_all_small_m_nonrepresentable(self):
        table = denumerant_table((21, 61, 141), 20)
        assert table.counts[0] == 1
        assert all(c == 0 for c in table.counts[1:])

    def test_bound_zero(self):
        assert denumerant_table((2, 3), 0).counts == (1,)

    def test_cap_breach(self):
        with pytest.raises(ResourceLimitError):
            denumerant_table((2, 3), 100, table_cap=50)

    @given(small_generator_tuples())
    @settings(max_examples=25, deadline=None)
    def test_matches_naive_enumeration(self, gt):
        bound = 2 * gt.gens[-1]
        table = denumerant_table(gt, bound)
        assert list(table.counts) == naive_counts(gt.gens, bound)


class TestTableCap:
    def test_env_var_override(self, monkeypatch):
        monkeypatch.setenv(TABLE_CAP_ENV, "123")
        assert effective_table_cap() == 123
        assert effective_table_cap(77) == 77  # explicit wins

    def test_env_var_garbage(self, monkeypatch):
        monkeypatch.setenv(TABLE_CAP_ENV, "banana")
        with pytest.raises(InvalidInputError):
            effective_table_cap()


class TestAperySet:
    def test_two_three_p0(self):
        assert apery_set((2, 3), 0).entries == (0, 3)

    def test_two_three_p1(self):
        assert apery_set((2, 3), 1).entries == (6, 9)

    def test_golden_triple_max_entry(self):
        assert apery_set((21, 61, 141), 0).max_entry() == 968

    def test_cap_breach(self):
        with pytest.raises(ResourceLimitError):
            apery_set((2, 3), 1, table_cap=4)

    @given(small_generator_tuples(), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_residue_coverage_and_least_element(self, gt, p):
        table = apery_set(gt, p)
        a1 = gt.a1
        assert sorted(e % a1 for e in table.entries) == list(range(a1))
        assert all(table.entries[j] % a1 == j for j in range(a1))
        bound = max(table.entries)
        counts = denumerant_table(gt, bound).counts
        for e in table.entries:
            assert counts[e] >= p + 1
            if e >= a1:
                assert counts[e - a1] <= p


class TestFrobeniusRoutes:
    def test_classic_two_three(self):
        assert p_frobenius_via_apery((2, 3), 0) == 1
        assert p_frobenius_scan((2, 3), 1) == 7
        assert p_frobenius_via_apery((2, 3), 1) == 7

    def test_golden_values(self):
        assert p_frobenius_via_apery((21, 61, 141), 0) == 947
        assert p_frobenius_scan((13, 37, 109), 0) == 316

    def test_seven_nine_thirteen(self):
        assert naive_g_p((7, 9, 13), 0) == 24
        assert p_frobenius_scan((7, 9, 13), 0) == 24

    @given(small_generator_tuples(), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_apery_route_equals_scan_route(self, gt, p):
        assert p_frobenius_via_apery(gt, p) == p_frobenius_scan(gt, p)

    @given(small_generator_tuples(), st.integers(0, 2))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_p(self, gt, p):
        # strictness can fail when a redundant generator skips a count level
        # (e.g. (2,3,12) has g_2 = g_3 = 13), so assert the provable <=;
        # strict growth of the closed forms is covered in test_families
        assert p_frobenius_scan(gt, p) <= p_frobenius_scan(gt, p + 1)
        assert p_sylvester_count(gt, p) <= p_sylvester_count(gt, p + 1)

    def test_strictly_monotone_without_redundancy(self):
        for gens in ((7, 9, 13), (11, 23, 47), (21, 61, 141)):
            values = [p_frobenius_scan(gens, p) for p in range(4)]
            assert all(x < y for x, y in zip(values, values[1:]))


class TestSylvesterRoutes:
    def test_classic_two_three(self):
        assert p_sylvester_via_apery((2, 3), 0) == 1
        assert p_sylvester_count((2, 3), 0) == 1

    def test_two_three_p1(self):
        # low-count values are {0,1,2,3,4,5,7}: m = 0 counts since d(0) = 1
        assert naive_n_p((2, 3), 1) == 7
        assert p_sylvester_via_apery((2, 3), 1) == 7
        assert p_sylvester_count((2, 3), 1) == 7

    def test_golden_values(self):
        assert p_sylvester_via_apery((21, 61, 141), 0) == 474
        assert p_sylvester_count((21, 61, 141), 7) == 3 * (158 + 60 * 7 - 49)

    @given(small_generator_tuples(), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_apery_route_equals_count_route(self, gt, p):
        assert p_sylvester_via_apery(gt, p) == p_sylvester_count(gt, p)


class TestScanTermination:
    @given(small_generator_tuples(), st.integers(0, 2))
    @settings(max_examples=25, deadline=None)
    def test_window_soundness(self, gt, p):
        # every value beyond the scan's answer has more than p representations
        g = p_frobenius_scan(gt, p)
        counts = denumerant_table(gt, g + 3 * gt.a1).counts
        assert counts[g] <= p
        assert all(c >= p + 1 for c in counts[g + 1 :])

    def test_two_generator_law(self):
        for a in range(2, 8):
            for b in range(a + 1, 9):
                if math.gcd(a, b) != 1:
                    continue
                for p in range(4):
                    assert p_frobenius_scan((a, b), p) == (p + 1) * a * b - a - b


def raw_generator_lists() -> st.SearchStrategy[list[int]]:
    """Unsorted generator lists with k = 2..5 values, repeats and redundancy allowed."""
    return st.lists(st.integers(2, 16), min_size=2, max_size=5).filter(
        lambda gs: math.gcd(*gs) == 1
    )


class TestRedundantGenerators:
    @given(raw_generator_lists(), st.none() | st.integers(1, 20))
    @settings(max_examples=80, deadline=None)
    @example([9, 3, 5, 3], None)
    @example([16, 2, 4, 3, 8], 9)
    def test_matches_naive_representability(self, raw, cap):
        gens = GeneratorTuple(tuple(raw)).gens
        with pytest.MonkeyPatch.context() as m:
            if cap is not None:
                m.setenv(TABLE_CAP_ENV, str(cap))
            if cap is not None and gens[-1] + 1 > cap:
                with pytest.raises(ResourceLimitError):
                    GeneratorTuple(tuple(raw)).redundant_generators()
                return
            got = GeneratorTuple(tuple(raw)).redundant_generators()
        others = {g: tuple(h for h in gens if h != g) for g in gens}
        assert got == tuple(g for g in gens if naive_denumerant(g, others[g]) > 0)

    def test_one_table_build(self, monkeypatch):
        builds = []
        real = semigroup._raw_counts

        def counting(gens, bound):
            builds.append((gens, bound))
            return real(gens, bound)

        monkeypatch.setattr(semigroup, "_raw_counts", counting)
        assert GeneratorTuple((4, 6, 9, 10, 13)).redundant_generators() == (10, 13)
        assert builds == [((4, 6, 9, 10, 13), 13)]


class TestScanPRange:
    @given(raw_generator_lists(), st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    @example([9, 3, 5, 3], 2)
    @example([16, 2, 4, 3, 8], 2)
    def test_one_pass_equals_every_route(self, raw, p_max):
        gens = GeneratorTuple(tuple(raw)).gens
        rows = scan_p_range(raw, p_max)
        assert len(rows) == p_max + 1
        for p, row in enumerate(rows):
            assert row == (p_frobenius_scan(raw, p), p_sylvester_count(raw, p))
            assert row == (p_frobenius_via_apery(raw, p), p_sylvester_via_apery(raw, p))
            assert row == (naive_g_p(gens, p), naive_n_p(gens, p))

    def test_cap_stops_high_p_only(self):
        # g_p(2, 3) = 6p + 1, whose window ends at 6p + 3; a cap of 20 entries
        # holds the windows of p <= 2 only.
        rows = scan_p_range((2, 3), 5, table_cap=20)
        assert rows[:3] == [(1, 1), (7, 7), (13, 13)]
        assert rows[3:] == [None, None, None]
        assert p_frobenius_scan((2, 3), 2, table_cap=20) == 13
        with pytest.raises(ResourceLimitError):
            p_frobenius_scan((2, 3), 3, table_cap=20)
        with pytest.raises(ResourceLimitError):
            apery_set((2, 3), 3, table_cap=20)
        with pytest.raises(ResourceLimitError):  # no per-p storage for a huge p
            p_frobenius_scan((2, 3), 10**12, table_cap=20)
        assert scan_p_range((2, 3), 0, table_cap=1) == [None]  # the table is [1]
        with pytest.raises(ResourceLimitError):
            p_sylvester_count((2, 3), 0, table_cap=1)

    def test_negative_p_max_rejected(self):
        with pytest.raises(InvalidInputError):
            scan_p_range((2, 3), -1)

    def test_min_generator_at_cap_allocates_no_class_lists(self):
        # Every sum but 0 is at least a2 > a1 >= cap, so no p is in reach.
        gens = (2000003, 2000004)
        tracemalloc.start()
        try:
            rows = scan_p_range(gens, 0, table_cap=1000)
            with pytest.raises(ResourceLimitError) as info:
                apery_set(gens, 0, table_cap=1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows == [None]
        assert str(info.value) == (
            "Apery scan for p=0 exceeded table cap 1000 "
            "(1/2000003 residue classes filled)"
        )
        assert peak < 1_000_000


def outcome(fn, *args, **kwargs):
    """A call's value, or the type and message of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except FrobkitError as exc:
        return type(exc), str(exc)


def dp_apery_reference(gens, p, table_cap):
    """apery_set's entries, or its cap error, read from a denumerant table."""
    cap = effective_table_cap(table_cap)
    a1 = gens[0]
    bound = min(cap - 1, p_frobenius_scan(gens, p) + a1)  # the largest entry
    entries: dict[int, int] = {}
    for m, cnt in enumerate(denumerant_table(gens, bound, table_cap=table_cap).counts):
        if cnt > p:
            entries.setdefault(m % a1, m)
    if len(entries) < a1:
        return ResourceLimitError, (
            f"Apery scan for p={p} exceeded table cap {cap} "
            f"({len(entries)}/{a1} residue classes filled)"
        )
    return tuple(entries[j] for j in range(a1))


class TestResidueEngineCrossRoute:
    @given(raw_generator_lists(), st.integers(0, 4), st.none() | st.integers(1, 400))
    @settings(max_examples=60, deadline=None)
    @example([9, 3, 5, 3], 4, 40)
    @example([16, 2, 4, 3, 8], 4, 1)
    @example([7, 5, 13], 3, 60)
    def test_engine_equals_dp_and_naive(self, raw, p_max, table_cap):
        gens = GeneratorTuple(tuple(raw)).gens
        cap = effective_table_cap(table_cap)
        rows = scan_p_range(raw, p_max, table_cap=table_cap)
        assert len(rows) == p_max + 1
        for p, row in enumerate(rows):
            g, n = naive_g_p(gens, p), naive_n_p(gens, p)
            # The row needs every p-Apery element, the largest being g_p + a1.
            assert row == (None if g + gens[0] >= cap else (g, n))
            for i, scan in enumerate((p_frobenius_scan, p_sylvester_count)):
                want = (
                    (ResourceLimitError, f"forward scan for p={p} exceeded table cap {cap}")
                    if row is None
                    else row[i]
                )
                assert outcome(scan, raw, p, table_cap=table_cap) == want
            got = outcome(apery_set, raw, p, table_cap=table_cap)
            got = got.entries if isinstance(got, AperyTable) else got
            assert got == dp_apery_reference(gens, p, table_cap)


class TestEngineIsTheSweepRoute:
    def test_sweep_paths_build_no_count_table(self, monkeypatch, capsys):
        builds = []
        real = semigroup._raw_counts

        def counting(gens, bound):
            builds.append((gens, bound))
            return real(gens, bound)

        monkeypatch.setattr(semigroup, "_raw_counts", counting)
        argv = ["table", "--a", "2", "--b", "3", "--c=-5", "--n", "2", "--vars", "4",
                "--p-max", "4", "--format", "json"]
        assert cli.main(argv) == 0
        assert '"oracle"' in capsys.readouterr().out  # c < 0 quads have no closed form
        assert verify_grid(SweepSpec((1, 3), (2, 4), (-10, 10), (1, 2))).passed()
        assert discover_validity(make_triple(40, 3, -7, 2), 40) == 40
        assert builds == []
        # The forward scan stays the independent second route.
        assert p_frobenius_scan((2, 3), 1) == 7
        assert builds
