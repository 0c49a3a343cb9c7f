"""Sweep harness: point verification, grid reports, validity discovery."""

import json
import math
import random

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from frobkit import (
    FrobkitError,
    GeneratorTuple,
    InvalidInputError,
    PointResult,
    ResourceLimitError,
    ShiftedGeometricFamily,
    SweepSpec,
    discover_validity,
    closed_value,
    g_p_two_gens,
    make_quad,
    make_triple,
    scan_p_range,
    verify_grid,
    verify_point,
)
from frobkit import semigroup, verify
from frobkit.semigroup import effective_table_cap

from _cap import capped
from _naive import dp_scan


def summary_parts_sum(summary) -> int:
    return (
        summary.matched
        + summary.mismatched
        + summary.no_case
        + summary.out_of_range
        + summary.skipped_gcd
        + summary.skipped_large
        + summary.resource_limit
    )


class TestVerifyPoint:
    def test_golden_triple_p7(self):
        pt = verify_point(make_triple(5, 2, 19, 3), 7)
        assert pt.closed == 1934
        assert pt.oracle == 1934
        assert pt.match

    def test_quad_out_of_range(self):
        pt = verify_point(make_quad(2, 3, 37, 3), 3)
        assert pt.closed is None
        assert pt.closed_error == "OutOfValidityRange"
        assert pt.oracle == 3075
        assert not pt.match

    def test_no_case_point(self):
        pt = verify_point(make_triple(1, 3, -100, 1), 0)
        assert pt.closed_error == "NoClosedFormCase"
        assert pt.case == "NoCaseApplies"
        assert pt.oracle is not None

    def test_case_recorded_for_negative_shift(self):
        pt = verify_point(make_triple(4, 3, -1, 1), 1)
        assert pt.case == "2"
        assert pt.match


class TestSweepSpec:
    def test_rejects_empty_range(self):
        with pytest.raises(InvalidInputError):
            SweepSpec((2, 1), (2, 3), (1, 5), (1, 1))

    def test_rejects_b_below_two(self):
        with pytest.raises(InvalidInputError):
            SweepSpec((1, 2), (1, 3), (1, 5), (1, 1))

    def test_rejects_bad_policy(self):
        with pytest.raises(InvalidInputError):
            SweepSpec((1, 2), (2, 3), (1, 5), (1, 1), p_policy="sometimes")

    def test_rejects_vars_other_than_three_or_four(self):
        with pytest.raises(InvalidInputError, match="^vars must be 3 or 4, got 5$"):
            SweepSpec((1, 2), (2, 3), (1, 5), (1, 1), vars=5)

    @pytest.mark.parametrize(
        "field, name",
        [("p_policy", "fixed p_policy"), ("sample_limit", "sample_limit")],
    )
    def test_rejects_a_non_integral_count(self, field, name):
        # Used as is, p_policy=2.5 was p = 2 and sample_limit=2.5 a TypeError.
        with pytest.raises(InvalidInputError, match=f"^{name} must be an integer"):
            SweepSpec((1, 2), (2, 3), (1, 5), (1, 1), **{field: 2.5})

    def test_a_grid_past_sys_maxsize_is_refused(self):
        spec = SweepSpec((1, 10**7), (2, 10**7), (1, 10**7), (1, 1))
        with pytest.raises(InvalidInputError, match="too many to index"):
            spec.tuples()


class TestVerifyGrid:
    def test_small_positive_sweep_matches(self):
        spec = SweepSpec((1, 3), (2, 3), (1, 10), (1, 2))
        report = verify_grid(spec)
        assert report.summary.mismatched == 0
        assert report.summary.matched > 0
        assert summary_parts_sum(report.summary) == report.summary.total

    def test_small_negative_sweep_matches(self):
        spec = SweepSpec((1, 3), (2, 3), (-10, -1), (1, 2))
        report = verify_grid(spec)
        assert report.summary.mismatched == 0
        assert summary_parts_sum(report.summary) == report.summary.total
        # every skipped-closed-form point still has its oracle value
        for pt in report.points:
            assert pt.oracle is not None

    def test_vacuous_after_gcd_filter(self):
        spec = SweepSpec((2, 2), (2, 2), (2, 2), (1, 1))  # gens (2, 6, 14)
        report = verify_grid(spec)
        assert report.summary.total == report.summary.skipped_gcd == 1
        assert report.passed()

    def test_zero_c_is_not_enumerated(self):
        spec = SweepSpec((1, 1), (2, 2), (-1, 1), (1, 1))
        report = verify_grid(spec)
        assert all(pt.c != 0 for pt in report.points)

    def test_fixed_p_policy_reports_out_of_range(self):
        spec = SweepSpec((5, 5), (2, 2), (19, 19), (3, 3), p_policy=9)
        report = verify_grid(spec)
        assert report.summary.out_of_range == 2  # p = 8, 9 beyond q = 7
        assert report.summary.matched == 8
        assert report.passed()

    def test_fixed_p_policy_stops_at_the_table_cap(self):
        spec = SweepSpec((5, 5), (2, 2), (19, 19), (3, 3), p_policy=30)
        with capped(30), pytest.raises(
            ResourceLimitError, match="p_policy 30 >= table cap 30"
        ):
            verify_grid(spec)
        with capped(31):
            report = verify_grid(spec)  # g_0 + a1 = 968: no row fits
        assert report.summary.total == 31
        assert report.summary.resource_limit == 8

    def test_workers_below_one_rejected(self):
        spec = SweepSpec((5, 5), (2, 2), (19, 19), (3, 3))
        for workers in (0, -1):
            with pytest.raises(InvalidInputError, match="workers"):
                verify_grid(spec, workers=workers)

    def test_min_gen_cap_skips_large_tuples(self):
        # A theorem-range tuple is skipped where its pass would count
        # a1 * (q + 1) sums, more than the table cap: 32771 * 10924 > 10^8.
        spec = SweepSpec((1, 1), (2, 2), (-3, -3), (15, 15))
        report = verify_grid(spec)
        assert report.summary.skipped_large == 1
        assert report.summary.total == 1
        # (21, 61, 141) has q = 7, so it needs 21 * 8 = 168 sums
        spec = SweepSpec((5, 5), (2, 2), (19, 19), (3, 3))
        with capped(168):
            summary = verify_grid(spec).summary
        assert (summary.skipped_large, summary.total) == (0, 8)
        with capped(167):
            summary = verify_grid(spec).summary
        assert (summary.skipped_large, summary.total) == (1, 1)

    def test_a1_past_the_digit_limit_is_skipped_unbuilt(self):
        # 3^n - 1 has about 47,700 digits, and all three generators are even;
        # the bit-length bound skips both tuples before any generator is built
        spec = SweepSpec((1, 1), (3, 3), (1, 1), (100000, 100001))
        report = verify_grid(spec)
        assert report.summary.skipped_large == report.summary.total == 2

    def test_deterministic_reports(self):
        spec = SweepSpec((1, 2), (2, 3), (-6, 6), (1, 2))
        blob1 = json.dumps(verify_grid(spec).to_json_obj())
        blob2 = json.dumps(verify_grid(spec).to_json_obj())
        assert blob1 == blob2

    def test_parallel_equals_sequential(self):
        spec = SweepSpec((1, 2), (2, 3), (-6, 6), (1, 2))
        seq = json.dumps(verify_grid(spec, workers=1).to_json_obj())
        par = json.dumps(verify_grid(spec, workers=2).to_json_obj())
        assert seq == par

    def test_sampling_is_seeded_and_bounded(self):
        spec = SweepSpec((1, 3), (2, 4), (1, 10), (1, 2), sample_seed=5, sample_limit=7)
        r1 = verify_grid(spec)
        r2 = verify_grid(spec)
        assert r1.points == r2.points
        tuples = {(pt.a, pt.b, pt.c, pt.n) for pt in r1.points}
        assert len(tuples) <= 7

    @pytest.mark.parametrize(
        "ranges, limit",
        [
            (((1, 3), (2, 4), (-10, 10), (1, 2)), 17),
            (((1, 2), (2, 3), (-6, -1), (1, 3)), 5),
            (((2, 4), (3, 3), (1, 9), (2, 2)), None),
            (((1, 1), (2, 2), (0, 0), (1, 1)), None),
        ],
    )
    def test_tuples_match_product_enumeration(self, ranges, limit):
        (a_lo, a_hi), (b_lo, b_hi), (c_lo, c_hi), (n_lo, n_hi) = ranges
        product = [
            (a, b, c, n)
            for a in range(a_lo, a_hi + 1)
            for b in range(b_lo, b_hi + 1)
            for c in range(c_lo, c_hi + 1)
            if c != 0
            for n in range(n_lo, n_hi + 1)
        ]
        for seed in (0, 1, 99):
            spec = SweepSpec(*ranges, sample_seed=seed, sample_limit=limit)
            want = product
            if limit is not None and len(product) > limit:
                keep = sorted(random.Random(seed).sample(range(len(product)), limit))
                want = [product[i] for i in keep]
            assert spec.tuples() == want

    def test_huge_grid_with_limit_is_not_materialised(self):
        # about 10^12 tuples; every one has a minimum generator far above the
        # sweep's cost guard, so the one sampled tuple is skipped, not scanned
        spec = SweepSpec(
            (100000, 109999), (2, 10001), (1, 100), (1, 100), sample_limit=1
        )
        report = verify_grid(spec)
        assert report.summary.total == 1
        assert report.points == ()

    def test_rejects_negative_limit(self):
        with pytest.raises(InvalidInputError):
            SweepSpec((1, 2), (2, 3), (1, 5), (1, 1), sample_limit=-1)

    @pytest.mark.parametrize("workers", [1, 2])  # pool workers inherit the cap
    def test_table_cap_counts_resource_limits(self, workers):
        spec = SweepSpec((1, 2), (2, 3), (1, 5), (1, 2))
        with capped(200):
            report = verify_grid(spec, workers=workers)
        assert report.summary.resource_limit == 10
        assert report.summary.mismatched == 0
        assert summary_parts_sum(report.summary) == report.summary.total
        for pt in report.points:
            assert (pt.oracle is None) == (pt.outcome == "resource_limit")

    def test_quad_sweep_runs(self):
        spec = SweepSpec((2, 2), (3, 3), (37, 37), (3, 3), vars=4)
        report = verify_grid(spec)
        assert report.summary.matched == 3  # p = 0, 1, 2
        assert report.summary.total == 3

    def test_point_fields_are_the_report_columns(self):
        report = verify_grid(SweepSpec((5, 5), (2, 2), (19, 19), (3, 3)))
        json_keys = {tuple(pt) for pt in report.to_json_obj()["points"]}
        assert PointResult._fields == verify.POINT_FIELDS
        assert json_keys == {verify.POINT_FIELDS}
        assert tuple(report.to_csv_rows()[0]) == verify.POINT_FIELDS

    def test_csv_rows_shape(self):
        spec = SweepSpec((5, 5), (2, 2), (19, 19), (3, 3))
        rows = verify_grid(spec).to_csv_rows()
        assert rows[0][:5] == ["a", "b", "c", "n", "p"]
        assert len(rows) == 1 + 8  # header + p = 0..7


class TestDiscoverValidity:
    def test_golden_triple(self):
        got = discover_validity(make_triple(5, 2, 19, 3), 10)
        assert got == 7
        assert got >= 7  # the closed form holds on its whole stated range

    def test_golden_quad(self):
        assert discover_validity(make_quad(2, 3, 37, 3), 5) == 2

    def test_two_generator_formula_is_uncapped(self):
        assert discover_validity((2, 3), 5) == 5

    def test_early_breakdown_quad(self):
        assert discover_validity(make_quad(3, 2, 1, 1), 3) == 0

    def test_rejects_wrong_arity(self):
        with pytest.raises(InvalidInputError):
            discover_validity((2, 3, 5), 3)

    def test_rejects_negative_p_max_for_a_family(self):
        with pytest.raises(InvalidInputError, match="p must be >= 0, got -1"):
            discover_validity(make_triple(5, 2, 19, 3), -1)

    def test_rejects_negative_p_max_for_a_pair(self):
        with pytest.raises(InvalidInputError, match="p must be >= 0, got -3"):
            discover_validity((3, 5), -3)


def reference_validity(params, p_max):
    """discover_validity's contract as a per-p loop with one scan per p."""
    if p_max < 0:
        raise InvalidInputError(f"p must be >= 0, got {p_max}")
    if isinstance(params, ShiftedGeometricFamily):
        gens = params.gens

        def closed(p):
            return closed_value(params, "frobenius", p)

    else:
        gens = GeneratorTuple(params)

        def closed(p):
            return g_p_two_gens(*gens.gens, p)

    last_ok = -1
    for p in range(p_max + 1):
        try:
            value = closed(p)
        except FrobkitError:
            break
        g_p = dp_scan(gens.gens, p)[0]
        cap = effective_table_cap()
        if g_p + gens.a1 >= cap:  # scan_p_range stops before this row
            raise ResourceLimitError(f"forward scan for p={p} exceeded table cap {cap}")
        if value != g_p:
            break
        last_ok = p
    return last_ok


def outcome(fn, *args, **kwargs):
    """A call's value, or the type and message of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except FrobkitError as exc:
        return type(exc), str(exc)


@st.composite
def validity_inputs(draw):
    """A triple, a quad or a coprime pair; c of either sign."""
    if draw(st.booleans()):
        pair = draw(
            st.tuples(st.integers(2, 20), st.integers(2, 20)).filter(
                lambda ab: ab[0] != ab[1] and math.gcd(*ab) == 1
            )
        )
        return pair
    make = draw(st.sampled_from((make_triple, make_quad)))
    a, b, n = draw(st.integers(1, 3)), draw(st.integers(2, 4)), draw(st.integers(1, 2))
    c = draw(st.integers(-20, 20).filter(lambda c: c != 0))
    try:
        return make(a, b, c, n)
    except FrobkitError:
        reject()  # gcd != 1 or a minimum generator below 2


def count_passes(monkeypatch, fn, *args, **kwargs):
    """fn's result and how many residue-class passes it made."""
    calls = []
    real = semigroup._apery_pass

    def counting(gt, p_max, cap):
        calls.append(p_max)
        return real(gt, p_max, cap)

    with monkeypatch.context() as m:
        m.setattr(semigroup, "_apery_pass", counting)
        result = fn(*args, **kwargs)
    return result, len(calls)


class TestDiscoverValidityOnePass:
    @given(
        validity_inputs(),
        st.integers(-2, 30),
        st.none() | st.integers(0, 2000),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_per_p_reference(self, params, p_max, table_cap):
        with capped(table_cap):
            assert outcome(discover_validity, params, p_max) == outcome(
                reference_validity, params, p_max
            )

    def test_cap_error_names_the_first_capped_p(self, monkeypatch):
        # g_p(2, 3) = 6p + 1; a 20-entry table holds the windows of p <= 2,
        # so no closed value past p = 3 can change the outcome
        calls = []
        real = verify.g_p_two_gens

        def counting(a, b, p):
            calls.append(p)
            return real(a, b, p)

        monkeypatch.setattr(verify, "g_p_two_gens", counting)
        with capped(20), pytest.raises(
            ResourceLimitError, match="p=3 exceeded table cap 20"
        ):
            discover_validity((2, 3), 10**6)
        assert calls == [0, 1, 2, 3]

    @pytest.mark.parametrize(
        "params, p_max, last_accepted",
        [
            (make_triple(5, 2, 19, 3), 10, 7),  # refused past q = 7
            (make_triple(4, 3, -1, 1), 6, 3),  # case 2, q = 3
            (make_quad(2, 3, 37, 3), 5, 2),  # refused past b - beta = 2
            ((2, 3), 40, 40),  # never refused
        ],
    )
    def test_builds_no_more_tables_than_one_pass(
        self, monkeypatch, params, p_max, last_accepted
    ):
        gens = params.gens if isinstance(params, ShiftedGeometricFamily) else params
        if last_accepted < p_max:
            with pytest.raises(FrobkitError):
                closed_value(params, "frobenius", last_accepted + 1)
        _, one_pass = count_passes(monkeypatch, scan_p_range, gens, last_accepted)
        got, passes = count_passes(monkeypatch, discover_validity, params, p_max)
        assert got == reference_validity(params, p_max)
        assert passes == one_pass == 1

    def test_refusal_at_zero_builds_nothing(self, monkeypatch):
        fam = make_triple(1, 3, -100, 1)  # no closed-form case applies
        assert count_passes(monkeypatch, discover_validity, fam, 5) == (-1, 0)

    def test_a_wrong_closed_value_ends_the_validity_before_it(self, monkeypatch):
        # (21, 61, 141): the closed form holds for p = 0..7; a wrong g_3 ends it at 2.
        params = make_triple(5, 2, 19, 3)
        real = verify.closed_value

        def wrong_at_three(fam, quantity, p):
            return real(fam, quantity, p) + (p == 3)

        assert discover_validity(params, 7) == 7
        monkeypatch.setattr(verify, "closed_value", wrong_at_three)
        assert discover_validity(params, 7) == 2
