"""Core engine tests: denumerants, Apery sets, and the engine against the DP."""

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
    g_p_two_gens,
    make_triple,
    scan_p_range,
    verify_grid,
)
from frobkit import cli, semigroup
from frobkit.semigroup import TABLE_CAP_ENV, effective_table_cap, read_apery

from _cap import capped
from _naive import (
    dp_scan,
    naive_counts,
    naive_denumerant,
    naive_g_p,
    naive_n_p,
    naive_residue_sums,
)


def apery_row(gens, p: int) -> tuple[int, int]:
    """(g_p, n_p) read from apery_set, as `compute --method oracle` reads them."""
    gt = GeneratorTuple(tuple(gens))
    return read_apery(gt, apery_set(gt, p))


def small_generator_tuples() -> st.SearchStrategy[GeneratorTuple]:
    return (
        st.lists(st.integers(2, 24), min_size=2, max_size=3, unique=True)
        .filter(lambda gs: math.gcd(*gs) == 1)
        .map(lambda gs: GeneratorTuple(tuple(gs)))
    )


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

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            GeneratorTuple(())

    def test_nonpositive_rejected(self):
        with pytest.raises(InvalidInputError):
            GeneratorTuple((3, 0))

    def test_non_integral_rejected_not_truncated(self):
        # int() would build (2, 3) from these.
        with pytest.raises(InvalidInputError, match="must be integers"):
            GeneratorTuple([2.5, 3.9])

    @pytest.mark.parametrize("gens", [(21, 61, 141), (17, 125, 449, 1421)])
    def test_golden_tuples_accepted(self, gens):
        assert GeneratorTuple(gens).gens == gens

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


class TestPublicNames:
    def test_one_oracle_api(self):
        # g_p and n_p come from scan_p_range and apery_set alone.
        assert sorted(frobkit.__all__) == [
            "DEFAULT_TABLE_CAP", "FrobkitError", "GcdNotOneError", "GeneratorTuple",
            "InvalidInputError", "NoClosedFormCaseError", "OutOfValidityRangeError",
            "PointResult", "ResourceLimitError", "ShiftedGeometricFamily", "SweepSpec",
            "SweepSummary", "UnsupportedCaseError", "VerificationReport",
            "apery_grid_triple", "apery_set", "closed_value", "denumerant",
            "denumerant_table", "discover_validity", "g_p_closed_quad",
            "g_p_closed_triple", "g_p_two_gens", "make_quad", "make_triple",
            "n_p_closed_triple", "scan_p_range", "verify_grid", "verify_point",
        ]


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

    def test_non_integral_p_rejected_before_the_cap(self):
        with pytest.raises(InvalidInputError, match="p must be an integer"):
            apery_set((2, 3), 1.5)

    def test_many_generators_keep_one_key_step_each(self):
        # 3000 generators past a1; the pass keeps one step per generator.
        tracemalloc.start()
        try:
            with capped(None):
                entries = apery_set(range(2, 3002), 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert entries == (0, 3)
        assert peak < 1024 * 1024

    @given(small_generator_tuples(), st.integers(0, 8), st.integers(1, 200))
    @settings(max_examples=200, deadline=None)
    @example(GeneratorTuple((2, 3)), 3, 20)  # 7 sums below 20, 8 needed
    @example(GeneratorTuple((5, 7)), 0, 5)  # a1 >= cap
    def test_up_front_refusal_only_where_the_pass_fails(self, gt, p, cap):
        with capped(cap):
            try:
                apery_set(gt, p)
                return
            except ResourceLimitError as exc:
                if "sums below the cap" not in str(exc):
                    return
        # The pass drops orders by the same bound, so the brute force counts
        # the classes that fill; the pass must then stop its rows before p.
        lists = naive_residue_sums(gt.gens, p, cap)
        assert sum(len(bucket) > p for bucket in lists) < gt.a1
        tops, sums, _ = semigroup._apery_pass(gt, p, cap)
        assert len(tops) == len(sums) <= p

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
        assert apery_row((2, 3), 0)[0] == 1
        assert dp_scan((2, 3), 1)[0] == 7
        assert apery_row((2, 3), 1)[0] == 7

    def test_golden_values(self):
        assert apery_row((21, 61, 141), 0)[0] == 947
        assert scan_p_range((13, 37, 109), 0)[0][0] == 316

    def test_seven_nine_thirteen(self):
        assert naive_g_p((7, 9, 13), 0) == 24
        assert dp_scan((7, 9, 13), 0)[0] == 24
        assert scan_p_range((7, 9, 13), 0)[0][0] == 24

    @given(small_generator_tuples(), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_apery_route_equals_scan_route(self, gt, p):
        assert apery_row(gt, p)[0] == dp_scan(gt, p)[0]

    @given(small_generator_tuples(), st.integers(0, 2))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_p(self, gt, p):
        # strictness can fail when a redundant generator skips a count level
        # (e.g. (2,3,12) has g_2 = g_3 = 13), so assert the provable <=;
        # strict growth of the closed forms is covered in test_families
        (g, n), (g_next, n_next) = scan_p_range(gt, p + 1)[p:]
        assert g <= g_next
        assert n <= n_next

    def test_strictly_monotone_without_redundancy(self):
        for gens in ((7, 9, 13), (11, 23, 47), (21, 61, 141)):
            values = [g for g, _ in scan_p_range(gens, 3)]
            assert all(x < y for x, y in zip(values, values[1:]))


class TestSylvesterRoutes:
    def test_classic_two_three(self):
        assert apery_row((2, 3), 0)[1] == 1
        assert dp_scan((2, 3), 0)[1] == 1

    def test_two_three_p1(self):
        # low-count values are {0,1,2,3,4,5,7}: m = 0 counts since d(0) = 1
        assert naive_n_p((2, 3), 1) == 7
        assert apery_row((2, 3), 1)[1] == 7
        assert dp_scan((2, 3), 1)[1] == 7

    def test_golden_values(self):
        assert apery_row((21, 61, 141), 0)[1] == 474
        assert scan_p_range((21, 61, 141), 7)[7][1] == 3 * (158 + 60 * 7 - 49)

    @given(small_generator_tuples(), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_apery_route_equals_count_route(self, gt, p):
        assert apery_row(gt, p)[1] == dp_scan(gt, p)[1]


class TestScanTermination:
    @given(small_generator_tuples(), st.integers(0, 2))
    @settings(max_examples=25, deadline=None)
    def test_window_soundness(self, gt, p):
        # every value beyond the engine's g_p has more than p representations
        g = scan_p_range(gt, p)[p][0]
        counts = denumerant_table(gt, g + 3 * gt.a1)
        assert counts[g] <= p
        assert all(c >= p + 1 for c in counts[g + 1 :])

    def test_two_generator_law(self):
        for a in range(2, 8):
            for b in range(a + 1, 9):
                if math.gcd(a, b) != 1:
                    continue
                for p, (g, _) in enumerate(scan_p_range((a, b), 3)):
                    assert g == (p + 1) * a * b - a - b


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
            assert row == dp_scan(raw, p)
            assert row == apery_row(raw, p)
            assert row == (naive_g_p(gens, p), naive_n_p(gens, p))

    def test_cap_stops_high_p_only(self):
        # g_p(2, 3) = 6p + 1, whose window ends at 6p + 3; a cap of 20 entries
        # holds the windows of p <= 2 only.
        with capped(20):
            rows = scan_p_range((2, 3), 5)
            assert rows[:3] == [(1, 1), (7, 7), (13, 13)]
            assert len(rows) == 3
            assert apery_row((2, 3), 2) == (13, 13)
            with pytest.raises(ResourceLimitError):
                apery_set((2, 3), 3)
            with pytest.raises(ResourceLimitError):  # no per-p storage for a huge p
                apery_set((2, 3), 10**12)
        with capped(1):
            assert scan_p_range((2, 3), 0) == []  # the table is [1]
            with pytest.raises(ResourceLimitError):
                apery_set((2, 3), 0)

    def test_a_pass_counts_at_most_cap_sums(self):
        # Far more than 400 sums of 3, 5, ..., 13 lie below 400, but a pass
        # counts 400 at most: 200 orders of the 2 classes, whatever p_max is.
        gens = (2, 3, 5, 7, 11, 13)
        with capped(400):
            rows = scan_p_range(gens, 10**6)
            with pytest.raises(ResourceLimitError) as info:
                apery_set(gens, 200)
        assert len(rows) == 200
        assert rows[-1] == dp_scan(gens, 199)
        assert str(info.value) == (
            "Apery scan for p=200 exceeded table cap 400 "
            "(at most 400 sums below the cap, 402 needed)"
        )

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

    def test_non_integral_p_max_rejected(self):
        # Used as is, 2.5 would bound the rows at p = 3.
        with pytest.raises(InvalidInputError, match="p must be an integer"):
            scan_p_range((2, 3), 2.5)

    @pytest.mark.parametrize(
        "func, args, name",
        [
            (g_p_two_gens, (2.5, 3, 0), "generators"),
            (denumerant, (2.5, (2, 3)), "m"),
            (denumerant_table, ((2, 3), 2.5), "bound"),
        ],
        ids=["g_p_two_gens", "denumerant", "denumerant_table"],
    )
    def test_non_integral_arguments_are_invalid_input(self, func, args, name):
        with pytest.raises(InvalidInputError, match=f"^{name} must be"):
            func(*args)

    def test_non_integral_n_p_is_an_error_not_a_floor(self, monkeypatch):
        # An Apery column sums to a1(a1 - 1)/2 mod a1; (0, 4) sums to 0 mod 2,
        # where 1 is due, and flooring would give n_0 = 1.
        monkeypatch.setattr(semigroup, "_apery_pass", lambda gt, p_max, cap: ([4], [4], [0, 4]))
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
            "(at most 1 sums below the cap, 2000003 needed)"
        )
        assert peak < 1_000_000

    def test_large_a1_holds_no_per_class_lists(self):
        # 171 orders of 511 classes are 87,381 Apery elements; the pass keeps
        # two ints per order and two per class.
        gens = make_triple(1, 2, 1, 9).gens  # (511, 1023, 2047)
        tracemalloc.start()
        try:
            rows = scan_p_range(gens, 170)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024
        assert len(rows) == 171
        assert rows[0] == dp_scan(gens.gens, 0) == (347479, 174080)
        assert rows[17] == (382278, 225335)
        assert rows[170] == dp_scan(gens.gens, 170) == (695469, 608600)

    def test_unfillable_classes_allocate_nothing(self):
        # Under the default cap at most 10 sums of a2 and a3 lie below it,
        # so no order fills the 1000003 classes and none is kept.
        gens = (1000003, 10000003, 100000003)
        tracemalloc.start()
        try:
            with capped(None):
                rows = scan_p_range(gens, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows == []
        assert peak < 1024 * 1024


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
    # A pass counts at most cap sums, and fewer where fewer lie below the
    # cap: there x_i <= (cap - 1) // a_i for each generator but a1.
    most = min(cap, math.prod((cap - 1) // g + 1 for g in gens[1:]))
    if a1 * (p + 1) > most:
        return ResourceLimitError, (
            f"Apery scan for p={p} exceeded table cap {cap} "
            f"(at most {most} sums below the cap, {a1 * (p + 1)} needed)"
        )
    g_p = dp_scan(gens, p)[0]
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
    # g_4 + a1 = 33 is below 34, but row 4 needs 35 counted sums
    @example([7, 8, 9, 10, 11], 4, 34)
    def test_engine_equals_dp_and_naive(self, raw, p_max, table_cap):
        gens = GeneratorTuple(tuple(raw)).gens
        with capped(table_cap):
            cap = effective_table_cap()
            rows = scan_p_range(raw, p_max)
            naive = [
                (naive_g_p(gens, p), naive_n_p(gens, p)) for p in range(p_max + 1)
            ]
            # A row needs every p-Apery element, the largest being g_p + a1,
            # and a1 * (p + 1) counted sums; g_p never decreases, so the rows
            # in reach form a prefix.
            assert rows == [
                (g, n) for p, (g, n) in enumerate(naive)
                if g + gens[0] < cap and gens[0] * (p + 1) <= cap
            ]
            for p, row in enumerate(naive):
                g_p, n_p = dp_scan(gens, p)
                assert (g_p, n_p) == row
                # The stop rule, read off the uncapped DP.
                assert (p < len(rows)) == (
                    g_p + gens[0] < cap and gens[0] * (p + 1) <= cap
                )
                got = outcome(apery_set, raw, p)
                assert got == dp_apery_reference(gens, p)


def pass_from_lists(gens: tuple[int, ...], p_max: int, cap: int):
    """What `_apery_pass` returns, read off the brute-force per-class lists.

    A class is full at need sums, the most that every class could hold below
    the cap with at most cap sums in all, and then gives its need-th sum.
    Rows run to the shortest list cut at need; row c holds the max and the
    sum of the lists' entries c.
    """
    most = min(cap, math.prod((cap - 1) // g + 1 for g in gens[1:]))
    need = min(p_max + 1, most // gens[0])
    if not need:
        return [], [], []
    lists = [bucket[:need] for bucket in naive_residue_sums(gens, p_max, cap)]
    rows = min(map(len, lists))
    tops = [max(bucket[c] for bucket in lists) for c in range(rows)]
    sums = [sum(bucket[c] for bucket in lists) for c in range(rows)]
    column = [bucket[-1] if len(bucket) == need else None for bucket in lists]
    return tops, sums, column


class TestResidueSumsContract:
    """The pass's per-order rows and column, not only the values read from them."""

    @given(
        st.lists(st.integers(2, 40), min_size=2, max_size=7).filter(
            lambda gs: math.gcd(*gs) == 1
        ),
        st.integers(0, 8),
        st.integers(1, 600),
    )
    # Sums that end in the largest generator queue in the FIFO; the heap
    # holds keys s << sh | last over the m generators strictly between a1
    # and it, sh = max(m - 1, 0).bit_length(). Two generators leave only
    # the root in the heap, three give sh = mask = 0, six fill the 2-bit
    # mask, and five and seven leave mask values that no index takes.
    @example([2, 3], 3, 20)
    @example([7, 12], 0, 90)
    @example([3, 5, 7], 4, 90)
    @example([4, 5, 6, 7], 3, 90)
    @example([5, 6, 7, 8, 9], 3, 20)
    @example([5, 7, 9, 11, 13], 0, 90)
    @example([6, 7, 8, 9, 10, 11], 3, 90)
    @example([7, 8, 9, 10, 11, 12, 13], 0, 20)
    @example([7, 10, 11, 13, 15, 17, 19], 3, 90)
    # 9 = 4 + 5 joins the FIFO at cap 10 and not at cap 9: class 0 fills or not.
    @example([3, 4, 5], 2, 10)
    @example([3, 4, 5], 2, 9)
    # 27 sums lie below 25, and a pass counts 25 at most: need is 2, not 3.
    @example([9, 10, 11, 12], 2, 25)
    @settings(max_examples=300, deadline=None)
    def test_equals_the_brute_force(self, raw, p_max, cap):
        gens = GeneratorTuple(tuple(raw))
        got = semigroup._apery_pass(gens, p_max, cap)
        assert got == pass_from_lists(gens.gens, p_max, cap)
        assert len(got[0]) <= p_max + 1

    @pytest.mark.parametrize(
        "gens, p_max, cap, want",
        [
            # lists [[0, 6, 12, 18], [3, 9, 15, 21]]
            ((2, 3), 3, semigroup.DEFAULT_TABLE_CAP, ([3, 9, 15, 21], [3, 15, 27, 39], [18, 21])),
            # 9 is at the cap, dropped: lists [[0, 6], [3]], and 3 sums fill one order
            ((2, 3), 3, 9, ([3], [3], [0, 3])),
            ((2, 3), 3, 10, ([3, 9], [3, 15], [6, 9])),  # 9 is just below it: kept
            ((5, 7), 0, 5, ([], [], [])),  # a1 >= cap: one sum, 0, lies below it
            ((5, 7), 0, 6, ([], [], [])),  # lists [[0], [], [], [], []]
            # lists [[0], [7, 10], [5]]: no class reaches p_max = 8
            ((3, 5, 7), 8, 12, ([7], [12], [None, 10, None])),
            # 15 = 3+3+3+3+3 = 5+5+5 comes twice: lists
            # [[0, 6, 8, 10, 12, 14], [3, 5, 9, 11, 13, 15, 15]]
            ((2, 3, 5), 6, 16, ([3, 6, 9, 11, 13, 15], [3, 11, 17, 21, 25, 29], [None, 15])),
        ],
    )
    def test_examples(self, gens, p_max, cap, want):
        assert semigroup._apery_pass(GeneratorTuple(gens), p_max, cap) == want
        assert pass_from_lists(gens, p_max, cap) == want


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
