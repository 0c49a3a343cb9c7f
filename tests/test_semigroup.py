"""Core engine tests: denumerants, Apery sets, and the two oracle routes."""

import copy
import inspect
import math
import pickle
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import frobkit
from frobkit import (
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

from _cap import capped
from _naive import (
    naive_counts,
    naive_denumerant,
    naive_g_p,
    naive_n_p,
    naive_residue_sums,
)


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

    def test_value_semantics(self):
        gt = GeneratorTuple((9, 4, 9, 7))
        assert gt == GeneratorTuple([7, 4, 9])
        assert hash(gt) == hash(GeneratorTuple((4, 7, 9)))
        assert gt != GeneratorTuple((4, 7)) and gt != (4, 7, 9)
        assert len({gt, GeneratorTuple((4, 7, 9)), GeneratorTuple((3, 5))}) == 2
        assert repr(gt) == "GeneratorTuple(gens=(4, 7, 9))"
        assert (tuple(gt), len(gt)) == ((4, 7, 9), 3)

    def test_refuses_assignment(self):
        gt = GeneratorTuple((3, 5))
        with pytest.raises(AttributeError):
            gt.gens = (2, 3)
        with pytest.raises(AttributeError):
            gt.other = 1
        with pytest.raises(AttributeError):
            del gt.gens
        assert gt.gens == (3, 5)

    @pytest.mark.parametrize(
        "round_trip", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy, copy.copy]
    )
    def test_pickle_and_copy_round_trip(self, round_trip):
        gt = GeneratorTuple((4, 7, 9))
        back = round_trip(gt)
        assert type(back) is GeneratorTuple and back == gt and back.gens == (4, 7, 9)

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
        assert table == (1, 0, 1, 1, 1, 1, 2, 1)
        assert list(table) == naive_counts((2, 3), 7)

    def test_all_small_m_nonrepresentable(self):
        table = denumerant_table((21, 61, 141), 20)
        assert table[0] == 1
        assert all(c == 0 for c in table[1:])

    def test_bound_zero(self):
        assert denumerant_table((2, 3), 0) == (1,)

    def test_cap_breach(self):
        with capped(50), pytest.raises(ResourceLimitError):
            denumerant_table((2, 3), 100)

    @given(small_generator_tuples())
    @settings(max_examples=25, deadline=None)
    def test_matches_naive_enumeration(self, gt):
        bound = 2 * gt.gens[-1]
        table = denumerant_table(gt, bound)
        assert list(table) == naive_counts(gt.gens, bound)


class TestTableCap:
    def test_env_var_override(self, monkeypatch):
        monkeypatch.setenv(TABLE_CAP_ENV, "123")
        assert effective_table_cap() == 123

    def test_env_var_garbage(self, monkeypatch):
        monkeypatch.setenv(TABLE_CAP_ENV, "banana")
        with pytest.raises(InvalidInputError):
            effective_table_cap()

    def test_the_variable_is_the_only_setting(self):
        # FROBKIT_TABLE_CAP is read on each call; no public function takes
        # the cap as an argument.
        assert list(inspect.signature(effective_table_cap).parameters) == []
        for name in frobkit.__all__:
            obj = getattr(frobkit, name)
            if inspect.isfunction(obj):
                assert "table_cap" not in inspect.signature(obj).parameters, name


class TestAperySet:
    def test_two_three_p0(self):
        assert apery_set((2, 3), 0) == (0, 3)

    def test_two_three_p1(self):
        assert apery_set((2, 3), 1) == (6, 9)

    def test_golden_triple_max_entry(self):
        assert max(apery_set((21, 61, 141), 0)) == 968

    def test_cap_breach(self):
        with capped(4), pytest.raises(ResourceLimitError):
            apery_set((2, 3), 1)

    @given(small_generator_tuples(), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_residue_coverage_and_least_element(self, gt, p):
        entries = apery_set(gt, p)
        a1 = gt.a1
        assert sorted(e % a1 for e in entries) == list(range(a1))
        assert all(entries[j] % a1 == j for j in range(a1))
        bound = max(entries)
        counts = denumerant_table(gt, bound)
        for e in entries:
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
        counts = denumerant_table(gt, g + 3 * gt.a1)
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
        with capped(cap):
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
        with capped(20):
            rows = scan_p_range((2, 3), 5)
            assert rows[:3] == [(1, 1), (7, 7), (13, 13)]
            assert len(rows) == 3
            assert p_frobenius_scan((2, 3), 2) == 13
            with pytest.raises(ResourceLimitError):
                p_frobenius_scan((2, 3), 3)
            with pytest.raises(ResourceLimitError):
                apery_set((2, 3), 3)
            with pytest.raises(ResourceLimitError):  # no per-p storage for a huge p
                p_frobenius_scan((2, 3), 10**12)
        with capped(1):
            assert scan_p_range((2, 3), 0) == []  # the table is [1]
            with pytest.raises(ResourceLimitError):
                p_sylvester_count((2, 3), 0)

    def test_huge_p_max_allocates_only_the_filled_rows(self):
        tracemalloc.start()
        try:
            with capped(20):
                rows = scan_p_range((2, 3), 10**7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows == [(1, 1), (7, 7), (13, 13)]
        assert peak < 1_000_000

    def test_negative_p_max_rejected(self):
        with pytest.raises(InvalidInputError):
            scan_p_range((2, 3), -1)

    def test_non_integral_n_p_is_an_error_not_a_floor(self, monkeypatch):
        # An Apery column sums to a1(a1 - 1)/2 mod a1; (0, 4) sums to 0 mod 2,
        # where 1 is due, and flooring would give n_0 = 1.
        monkeypatch.setattr(semigroup, "_residue_sums", lambda gt, p_max, cap: [[0], [4]])
        with pytest.raises(AssertionError, match="non-integral"):
            scan_p_range((2, 3), 0)

    def test_min_generator_at_cap_allocates_no_class_lists(self):
        # Every sum but 0 is at least a2 > a1 >= cap, so no p is in reach.
        gens = (2000003, 2000004)
        tracemalloc.start()
        try:
            with capped(1000):
                rows = scan_p_range(gens, 0)
                with pytest.raises(ResourceLimitError) as info:
                    apery_set(gens, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows == []
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


def dp_apery_reference(gens, p):
    """apery_set's entries, or its cap error, read from a denumerant table."""
    cap = effective_table_cap()
    a1 = gens[0]
    with capped(None):  # g_p at the default cap
        g_p = p_frobenius_scan(gens, p)
    bound = min(cap - 1, g_p + a1)  # the largest entry
    entries: dict[int, int] = {}
    for m, cnt in enumerate(denumerant_table(gens, bound)):
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
        with capped(table_cap):
            cap = effective_table_cap()
            rows = scan_p_range(raw, p_max)
            naive = [
                (naive_g_p(gens, p), naive_n_p(gens, p)) for p in range(p_max + 1)
            ]
            # A row needs every p-Apery element, the largest being g_p + a1; g_p
            # never decreases, so the rows in reach form a prefix.
            assert rows == [(g, n) for g, n in naive if g + gens[0] < cap]
            for p, row in enumerate(naive):
                for i, scan in enumerate((p_frobenius_scan, p_sylvester_count)):
                    want = (
                        (
                            ResourceLimitError,
                            f"forward scan for p={p} exceeded table cap {cap}",
                        )
                        if p >= len(rows)
                        else row[i]
                    )
                    assert outcome(scan, raw, p) == want
                got = outcome(apery_set, raw, p)
                assert got == dp_apery_reference(gens, p)


class TestResidueSumsContract:
    """The lists the engine returns, not only the rows read from them."""

    @given(
        st.lists(st.integers(2, 40), min_size=2, max_size=7).filter(
            lambda gs: math.gcd(*gs) == 1
        ),
        st.integers(0, 8),
        st.integers(1, 600),
    )
    # Heap keys are s << sh | last with sh = (k - 1).bit_length() for the k
    # generators past a1: k = 1 gives sh = mask = 0, k = 4 fills its 2-bit
    # mask, and k = 3, 5, 6 leave mask values that no index takes.
    @example([2, 3], 3, 20)
    @example([7, 12], 0, 90)
    @example([4, 5, 6, 7], 3, 90)
    @example([5, 6, 7, 8, 9], 3, 20)
    @example([5, 7, 9, 11, 13], 0, 90)
    @example([6, 7, 8, 9, 10, 11], 3, 90)
    @example([7, 8, 9, 10, 11, 12, 13], 0, 20)
    @example([7, 10, 11, 13, 15, 17, 19], 3, 90)
    @settings(max_examples=300, deadline=None)
    def test_equals_the_brute_force(self, raw, p_max, cap):
        gens = GeneratorTuple(tuple(raw))
        want = [[0], []] if gens.a1 >= cap else naive_residue_sums(gens.gens, p_max, cap)
        assert semigroup._residue_sums(gens, p_max, cap) == want

    @pytest.mark.parametrize(
        "gens, p_max, cap, want",
        [
            ((2, 3), 3, semigroup.DEFAULT_TABLE_CAP, [[0, 6, 12, 18], [3, 9, 15, 21]]),
            ((2, 3), 3, 9, [[0, 6], [3]]),  # 9 is at the cap: dropped
            ((2, 3), 3, 10, [[0, 6], [3, 9]]),  # 9 is just below it: kept
            ((5, 7), 0, 5, [[0], []]),  # a1 >= cap: class 1 stands for all
            ((5, 7), 0, 6, [[0], [], [], [], []]),
            ((3, 5, 7), 8, 12, [[0], [7, 10], [5]]),  # no class fills
            # 15 = 3+3+3+3+3 = 5+5+5 comes twice
            ((2, 3, 5), 6, 16, [[0, 6, 8, 10, 12, 14], [3, 5, 9, 11, 13, 15, 15]]),
        ],
    )
    def test_examples(self, gens, p_max, cap, want):
        assert semigroup._residue_sums(GeneratorTuple(gens), p_max, cap) == want


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
        argv = ["compute", "--a", "5", "--b", "2", "--c", "19", "--n", "3", "--p", "2",
                "--method", "both", "--format", "json"]
        assert cli.main(argv) == 0
        assert '"agreement": true' in capsys.readouterr().out
        assert verify_grid(SweepSpec((1, 3), (2, 4), (-10, 10), (1, 2))).passed()
        assert discover_validity(make_triple(40, 3, -7, 2), 40) == 40
        assert builds == []
        # The forward scan stays the independent second route.
        assert p_frobenius_scan((2, 3), 1) == 7
        assert builds
