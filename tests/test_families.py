"""Closed forms for the three- and four-term shifted geometric families."""

import copy
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobkit import (
    GcdNotOneError,
    InvalidInputError,
    NoClosedFormCaseError,
    OutOfValidityRangeError,
    ShiftedGeometricFamily,
    SweepSpec,
    UnsupportedCaseError,
    apery_grid_triple,
    apery_set,
    closed_value,
    denumerant_table,
    g_p_closed_quad,
    g_p_closed_triple,
    g_p_two_gens,
    make_quad,
    make_triple,
    n_p_closed_triple,
    scan_p_range,
    verify_grid,
)
from frobkit.errors import FrobkitError
from frobkit.families import CLOSED_ERROR_TAGS, case_tag, grid_digits, past_digit_limit

from _naive import dp_scan


def random_positive_triples(count, seed, a_max=4, b_max=4, n_max=2):
    """Seeded valid triples with c > 0, paired with a p in [0, q]."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a = rng.randint(1, a_max)
        b = rng.randint(2, b_max)
        n = rng.randint(1, n_max)
        head = a * b**n
        if head < 4:
            continue
        c = rng.randint(1, head - 2)
        try:
            t = make_triple(a, b, c, n)
        except FrobkitError:
            continue
        out.append((t, rng.randint(0, t.digits[0])))
    return out


def grid_values(t, p):
    """The value x2*a2 + x3*a3 of each position of the triple's p-Apery grid."""
    _, a2, a3 = t.gens.gens
    return [x2 * a2 + x3 * a3 for x2, x3 in apery_grid_triple(t, p)]


class TestMakeTriple:
    def test_golden_positive(self):
        assert make_triple(5, 2, 19, 3).gens.gens == (21, 61, 141)

    def test_golden_negative(self):
        assert make_triple(4, 3, -1, 1).gens.gens == (13, 37, 109)

    def test_gcd_not_one(self):
        with pytest.raises(GcdNotOneError):
            make_triple(2, 2, 2, 1)  # (2, 6, 14)

    def test_gcd_not_one_past_the_digit_limit(self):
        # every generator has over 5000 digits; the message prints only the gcd
        with pytest.raises(GcdNotOneError, match="^gcd of generators is 30, expected 1$"):
            make_triple(2, 10, -10, 5000)

    def test_head_too_small(self):
        with pytest.raises(InvalidInputError):
            make_triple(1, 2, 7, 1)  # 2 - 7 < 2

    def test_parameter_domains(self):
        with pytest.raises(InvalidInputError):
            make_triple(0, 2, 1, 1)
        with pytest.raises(InvalidInputError):
            make_triple(1, 1, 1, 1)
        with pytest.raises(InvalidInputError):
            make_triple(1, 2, 0, 1)
        with pytest.raises(InvalidInputError):
            make_triple(1, 2, 1, 0)


class TestFamilyValue:
    """A family is a tuple built once, carrying what the closed forms read."""

    @given(
        st.integers(1, 50),
        st.integers(2, 12),
        st.integers(-(10**4), 10**4).filter(bool),
        st.integers(1, 5),
        st.sampled_from([3, 4]),
    )
    @settings(max_examples=300, deadline=None)
    def test_fields_match_their_definitions(self, a, b, c, n, k):
        try:
            fam = (make_triple if k == 3 else make_quad)(a, b, c, n)
        except FrobkitError:
            return
        assert fam.k == k and (fam.a, fam.b, fam.c, fam.n) == (a, b, c, n)
        weights = [(b**j - 1) // (b - 1) for j in range(k - 1, 0, -1)]  # top first
        digits = fam.digits
        assert len(digits) == k - 1 and all(d >= 0 for d in digits)
        assert sum(map(lambda d, w: d * w, digits, weights)) == fam.gens.a1
        for j in range(1, k - 1):  # each lower tail stays below the weight above it
            assert sum(d * w for d, w in zip(digits[j:], weights[j:])) < weights[j - 1]
        assert fam.stated_p_max == (digits[0] if k == 3 else b - digits[1])
        if k == 3 and c < 0:
            want = reference_case(a, b, c, n, digits[1])
            assert fam.case == want
        else:
            assert fam.case is None

    def test_is_a_tuple(self):
        t = make_triple(5, 2, 19, 3)
        a, b, c, n, gens, digits, top, case = t
        assert (a, b, c, n, gens.gens) == (5, 2, 19, 3, (21, 61, 141))
        assert (digits, top, case) == ((7, 0), 7, None)
        assert t == (5, 2, 19, 3, gens, (7, 0), 7, None)
        assert isinstance(t, ShiftedGeometricFamily)
        u = make_triple(4, 3, -1, 1)
        assert (u.digits, u.stated_p_max, u.case) == ((3, 1), 3, 2)
        qd = make_quad(2, 3, 37, 3)
        assert (qd.digits, qd.stated_p_max, qd.case, qd.k) == ((1, 1, 0), 2, None, 4)

    @pytest.mark.parametrize(
        "round_trip", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy]
    )
    @pytest.mark.parametrize(
        "fam",
        [make_triple(5, 2, 19, 3), make_triple(4, 3, -1, 1), make_quad(2, 3, 37, 3)],
    )
    def test_pickle_and_deepcopy_round_trip(self, round_trip, fam):
        back = round_trip(fam)
        assert type(back) is ShiftedGeometricFamily and back == fam
        assert back.gens.gens == fam.gens.gens and back.k == fam.k
        assert closed_value(back, "frobenius", 0) == closed_value(fam, "frobenius", 0)

    @pytest.mark.parametrize("make", [make_triple, make_quad])
    @pytest.mark.parametrize(
        "abcn, error, message",
        [
            ((0, 2, 1, 1), InvalidInputError, "a must be >= 1, got 0"),
            ((1, 1, 1, 1), InvalidInputError, "b must be >= 2, got 1"),
            ((1, 2, 0, 1), InvalidInputError, "c must be nonzero"),
            ((1, 2, 1, 0), InvalidInputError, "n must be >= 1, got 0"),
            (
                (1, 2, 7, 1),
                InvalidInputError,
                "minimum generator a*b^n - c = -5 must be >= 2",
            ),
            ((2, 2, 2, 1), GcdNotOneError, "gcd of generators is 2, expected 1"),
        ],
    )
    def test_refusal_messages(self, make, abcn, error, message):
        with pytest.raises(error) as info:
            make(*abcn)
        assert type(info.value) is error and str(info.value) == message


def reference_case(a, b, c, n, r):
    """The negative-shift case from its four inequality systems, with Fractions.

    x = c0 / (a*b^(n+1)); case 1: r-1 >= x*max(b-r, r-1); case 2:
    b-r >= x*(b-r) > r-1; case 3: r-1 >= x*(b-r) > b-r; case 4:
    x*(b-r) > max(b-r, r-1). None when no system holds.
    """
    x = Fraction(-c, a * b ** (n + 1))
    systems = [
        r - 1 >= x * max(b - r, r - 1),
        b - r >= x * (b - r) > r - 1,
        r - 1 >= x * (b - r) > b - r,
        x * (b - r) > max(b - r, r - 1),
    ]
    assert sum(systems) <= 1
    return systems.index(True) + 1 if any(systems) else None


class TestPastDigitLimit:
    @settings(max_examples=200, deadline=None)
    @given(
        a=st.integers(1, 10**6),
        b=st.integers(2, 2**20),
        c=st.integers(-(10**40), 10**40).filter(bool),
        n=st.integers(1, 8000),
    )
    def test_is_a_lower_bound(self, a, b, c, n):
        if past_digit_limit(a, b, c, n):
            assert a * b**n - c >= 10 ** sys.get_int_max_str_digits()

    def test_decides_without_building(self):
        big = 10**20
        assert past_digit_limit(2, big, -big, big)
        assert past_digit_limit(1, 10, 3, 5000)
        assert not past_digit_limit(1, 10, 3, 2500)  # 2500 digits print fine
        assert not past_digit_limit(0, 10, 3, 5000)  # left to make_triple to refuse


class TestQRDecompose:
    def test_golden(self):
        assert make_triple(5, 2, 19, 3).digits == (7, 0)

    def test_negative_shift(self):
        assert make_triple(4, 3, -1, 1).digits == (3, 1)

    def test_exact_division(self):
        assert make_triple(1, 2, -1, 1).digits == (1, 0)

    @given(
        st.integers(1, 30),
        st.integers(2, 12),
        st.integers(-50, 50).filter(lambda c: c != 0),
        st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_identity(self, a, b, c, n):
        try:
            t = make_triple(a, b, c, n)
        except FrobkitError:
            return
        q, r = t.digits
        assert t.gens.gens[0] == (b + 1) * q + r
        assert 0 <= r <= b


class TestClosedTriple:
    def test_golden_positive(self):
        t = make_triple(5, 2, 19, 3)
        assert g_p_closed_triple(t, 3) == 1370
        for p in range(8):
            assert g_p_closed_triple(t, p) == 141 * p + 947

    def test_case2_golden(self):
        t = make_triple(4, 3, -1, 1)
        assert g_p_closed_triple(t, 0) == 316

    def test_case4_small(self):
        t = make_triple(1, 2, -5, 1)  # gens (7, 9, 13), q=2, r=1, c0=5 > 4
        assert t.case == 4
        assert g_p_closed_triple(t, 0) == 24

    def test_positive_r_branch(self):
        t = make_triple(3, 2, 1, 2)  # gens (11, 23, 47), q=3, r=2
        assert g_p_closed_triple(t, 0) == 153
        assert dp_scan(t.gens, 0)[0] == 153

    def test_out_of_validity(self):
        t = make_triple(5, 2, 19, 3)
        with pytest.raises(OutOfValidityRangeError):
            g_p_closed_triple(t, 8)

    def test_non_integral_p_rejected(self):
        # Evaluated as is, p = 1.5 gives 141 * 1.5 + 947 = 1158.5.
        with pytest.raises(InvalidInputError, match="p must be an integer"):
            g_p_closed_triple(make_triple(5, 2, 19, 3), 1.5)

    def test_case4_tightened_bound(self):
        # the case-4 position x3 = q-p-1 does not exist at p = q; the scan
        # oracle confirms the formula value would be wrong there
        t = make_triple(1, 2, -5, 1)
        q = t.digits[0]
        with pytest.raises(OutOfValidityRangeError):
            g_p_closed_triple(t, q)
        assert g_p_closed_triple(t, q - 1) == dp_scan(t.gens, q - 1)[0]

    def test_no_case_surfaces(self):
        t = make_triple(1, 3, -100, 1)  # gens (103, 109, 127), r = b
        with pytest.raises(NoClosedFormCaseError):
            g_p_closed_triple(t, 0)

    def test_strictly_increasing_in_p(self):
        for t, _ in random_positive_triples(20, seed=404):
            q = t.digits[0]
            values = [g_p_closed_triple(t, p) for p in range(q + 1)]
            assert all(x < y for x, y in zip(values, values[1:]))


class TestCaseSelector:
    def test_case2_example(self):
        t = make_triple(4, 3, -1, 1)  # r = 1, a*b^(n+1) = 36, c0 = 1
        assert t.digits[1] == 1
        assert t.case == 2

    def test_case4_example(self):
        # r = 1, so (b - r) * c0 = 5 exceeds (b - r) * a * b^(n+1) = 4
        t = make_triple(1, 2, -5, 1)
        assert t.digits[1] == 1
        assert t.case == 4

    def test_no_case_at_r_equals_b(self):
        t = make_triple(1, 3, -100, 1)
        assert t.digits[1] == t.b
        assert t.case is None

    def test_no_case_field_for_positive_c(self):
        # the field covers c < 0 triples; c > 0 reads its case from the digits
        t = make_triple(5, 2, 19, 3)
        assert t.digits == (7, 0)
        assert t.case is None

    @given(
        st.integers(1, 20),
        st.integers(2, 10),
        st.integers(1, 10**6),
        st.integers(1, 3),
    )
    @settings(max_examples=80, deadline=None)
    def test_at_most_one_case(self, a, b, c0, n):
        try:
            t = make_triple(a, b, -c0, n)  # its case assertion fires on overlap
        except FrobkitError:
            return
        assert t.case in (None, 1, 2, 3, 4)

    def test_each_selected_case_matches_oracle(self):
        # exercise every branch id against the scan oracle at p <= 1
        seen = set()
        rng = random.Random(11)
        for _ in range(4000):
            if seen == {1, 2, 3, 4}:
                break
            a, b = rng.randint(1, 4), rng.randint(2, 5)
            c0, n = rng.randint(1, 30), rng.randint(1, 2)
            try:
                t = make_triple(a, b, -c0, n)
            except FrobkitError:
                continue
            if t.gens.a1 > 500:
                continue
            cid = t.case
            if cid is None or cid in seen:
                continue
            for p in (0, 1):
                try:
                    assert g_p_closed_triple(t, p) == dp_scan(t.gens, p)[0]
                except OutOfValidityRangeError:
                    pass
            seen.add(cid)
        assert seen == {1, 2, 3, 4}


class TestRefusalsWhereWrong:
    """The closed forms refuse where the engine gives another value."""

    def test_negative_shift_sweep_has_no_mismatch(self):
        report = verify_grid(SweepSpec((1, 3), (2, 4), (-60, -1), (1, 2)))
        assert report.summary.mismatched == 0
        assert report.summary.out_of_range > 0

    @pytest.mark.parametrize(
        "abcn, wrong_ps", [((1, 2, -39, 2), [9]), ((3, 2, -115, 2), range(27, 42))]
    )
    def test_case4_refuses_where_wrong(self, abcn, wrong_ps):
        t = make_triple(*abcn)
        assert t.case == 4
        for p in wrong_ps:
            with pytest.raises(OutOfValidityRangeError, match="case-4 range"):
                g_p_closed_triple(t, p)

    @pytest.mark.parametrize(
        "abcn, case, last",
        [((1, 4, -67, 2), 3, 3), ((1, 2, -15, 2), 4, 2)],  # q = 16 and q = 6
    )
    def test_checked_range_ends(self, abcn, case, last):
        t = make_triple(*abcn)
        assert t.case == case
        rows = scan_p_range(t.gens, last)
        assert [g_p_closed_triple(t, p) for p in range(last + 1)] == [
            g for g, _ in rows
        ]
        with pytest.raises(OutOfValidityRangeError, match=f"case-{case} range"):
            g_p_closed_triple(t, last + 1)

    def test_quad_gamma_nonzero_at_p1(self):
        # alpha = 18, beta = 1, gamma = 2: at p = b - beta the maximum sits
        # at (gamma - 2, 0, alpha + 1), so g_1 = 19*1083 - 131
        qd = make_quad(34, 2, 5, 2)
        assert qd.digits == (18, 1, 2)
        assert g_p_closed_quad(qd, 1) == scan_p_range(qd.gens, 1)[1][0] == 20446
        # alpha = 0: no four-term row holds past p = 0
        qd = make_quad(2, 2, 3, 2)
        assert qd.digits[0] == 0
        with pytest.raises(OutOfValidityRangeError, match="alpha=0"):
            g_p_closed_quad(qd, 1)

    def test_quad_sweep_has_no_mismatch(self):
        report = verify_grid(SweepSpec((1, 5), (2, 5), (1, 40), (1, 3), vars=4))
        assert report.summary.mismatched == 0
        assert report.summary.matched > 0
        assert report.summary.out_of_range > 0


class TestSylvesterClosed:
    def test_golden(self):
        t = make_triple(5, 2, 19, 3)
        assert n_p_closed_triple(t, 0) == 474
        assert n_p_closed_triple(t, 7) == 3 * (158 + 420 - 49)

    def test_matches_count_oracle(self):
        t = make_triple(3, 2, 1, 2)
        assert n_p_closed_triple(t, 0) == dp_scan(t.gens, 0)[1] == 80

    def test_negative_shift_unsupported(self):
        with pytest.raises(UnsupportedCaseError):
            n_p_closed_triple(make_triple(4, 3, -1, 1), 0)

    def test_out_of_validity(self):
        with pytest.raises(OutOfValidityRangeError):
            n_p_closed_triple(make_triple(5, 2, 19, 3), 8)

    def test_matches_oracle_on_random_corpus(self):
        for t, p in random_positive_triples(20, seed=808):
            assert n_p_closed_triple(t, p) == dp_scan(t.gens, p)[1]


class TestAperyGrid:
    def test_golden_block(self):
        grid = apery_grid_triple(make_triple(5, 2, 19, 3), 0)
        assert grid == tuple((x2, x3) for x2 in range(3) for x3 in range(7))

    def test_partial_row_and_max_position(self):
        t = make_triple(3, 2, 1, 2)  # gens (11, 23, 47), q=3, r=2
        grid = apery_grid_triple(t, 0)
        expected = {(x2, x3) for x2 in range(3) for x3 in range(3)}
        expected |= {(0, 3), (1, 3)}
        assert grid == tuple(sorted(expected))
        assert max(grid_values(t, 0)) == 1 * 23 + 3 * 47

    def test_residue_unit(self):
        # `apery --grid` prints a2 mod a1 as the residue step per x2 unit
        t = make_triple(5, 2, 19, 3)
        a1, a2, _ = t.gens.gens
        assert a2 % a1 == (t.b - 1) * t.c % a1 == 19 % 21

    def test_rejects_negative_shift_and_large_p(self):
        with pytest.raises(InvalidInputError):
            apery_grid_triple(make_triple(4, 3, -1, 1), 0)
        with pytest.raises(OutOfValidityRangeError):
            apery_grid_triple(make_triple(5, 2, 19, 3), 8)

    @pytest.mark.parametrize(
        "abcn, p, error",
        [
            ((4, 3, -1, 1), 0, InvalidInputError),
            ((5, 2, 19, 3), 8, OutOfValidityRangeError),
            ((5, 2, 19, 3), -1, InvalidInputError),
        ],
    )
    def test_grid_digits_refuses_what_the_grid_refuses(self, abcn, p, error):
        t = make_triple(*abcn)
        with pytest.raises(error) as from_digits:
            grid_digits(t, p)
        with pytest.raises(error) as from_grid:
            apery_grid_triple(t, p)
        assert str(from_digits.value) == str(from_grid.value)

    def test_grid_digits_are_the_triple_digits(self):
        for t, p in random_positive_triples(25, seed=808):
            assert grid_digits(t, p) == t.digits

    def test_residues_are_a_permutation(self):
        for t, p in random_positive_triples(25, seed=505):
            a1 = t.gens.a1
            assert sorted(v % a1 for v in grid_values(t, p)) == list(range(a1))

    def test_grid_values_equal_generic_apery_set(self):
        for t, p in random_positive_triples(25, seed=606):
            by_residue = sorted(grid_values(t, p), key=lambda v: v % t.gens.a1)
            assert tuple(by_residue) == apery_set(t.gens, p)

    def test_grid_values_have_exact_count(self):
        for t, p in random_positive_triples(15, seed=707):
            values = grid_values(t, p)
            counts = denumerant_table(t.gens, max(values))
            a1 = t.gens.a1
            for v in values:
                assert counts[v] == p + 1
                if v >= a1:
                    assert counts[v - a1] == p


class TestMakeQuadAndDigits:
    def test_golden(self):
        assert make_quad(2, 3, 37, 3).gens.gens == (17, 125, 449, 1421)

    def test_small(self):
        assert make_quad(1, 2, 1, 2).gens.gens == (3, 7, 15, 31)

    def test_gcd_not_one(self):
        with pytest.raises(GcdNotOneError):
            make_quad(2, 2, 2, 1)

    def test_digits_golden(self):
        assert make_quad(2, 3, 37, 3).digits == (1, 1, 0)

    def test_digits_exact_block(self):
        # 7 = 1*7 + 0*3 + 0
        assert make_quad(1, 2, 1, 3).digits == (1, 0, 0)

    def test_digits_second_example(self):
        # 15 = 2*7 + 0*3 + 1
        assert make_quad(2, 2, 1, 3).digits == (2, 0, 1)

    @given(
        st.integers(1, 30),
        st.integers(2, 10),
        st.integers(-50, 50).filter(lambda c: c != 0),
        st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_digit_constraints(self, a, b, c, n):
        try:
            qd = make_quad(a, b, c, n)
        except FrobkitError:
            return
        alpha, beta, gamma = qd.digits
        head = qd.gens.gens[0]
        assert head == alpha * (b * b + b + 1) + beta * (b + 1) + gamma
        assert 0 <= beta * (b + 1) + gamma <= b * b + b
        assert 0 <= gamma <= b


class TestClosedQuad:
    def test_golden(self):
        qd = make_quad(2, 3, 37, 3)
        assert g_p_closed_quad(qd, 0) == 1779
        assert g_p_closed_quad(qd, 2) == 2677

    def test_out_of_validity_with_oracle_value(self):
        qd = make_quad(2, 3, 37, 3)
        with pytest.raises(OutOfValidityRangeError):
            g_p_closed_quad(qd, 3)
        assert dp_scan(qd.gens, 3)[0] == 3075
        assert 2 * 125 + 2 * 1421 - 17 == 3075

    def test_negative_shift_unsupported(self):
        with pytest.raises(UnsupportedCaseError):
            g_p_closed_quad(make_quad(4, 3, -1, 1), 0)

    def test_gamma_zero_with_alpha_zero(self):
        # 3 = 0*7 + 1*3 + 0: the gamma=0 branch still evaluates correctly
        qd = make_quad(1, 2, 1, 2)
        assert g_p_closed_quad(qd, 0) == 11
        assert dp_scan(qd.gens, 0)[0] == 11

    def test_known_early_breakdown(self):
        # the four-term pattern can break before b - beta: (5, 11, 23, 47)
        # has alpha = 0, where the form holds only at p = 0, so p = 1 refuses
        qd = make_quad(3, 2, 1, 1)
        assert g_p_closed_quad(qd, 0) == dp_scan(qd.gens, 0)[0]
        with pytest.raises(OutOfValidityRangeError):
            g_p_closed_quad(qd, 1)
        assert dp_scan(qd.gens, 1)[0] == 42

    def test_strictly_increasing_in_p(self):
        qd = make_quad(2, 3, 37, 3)
        values = [g_p_closed_quad(qd, p) for p in range(3)]
        assert all(x < y for x, y in zip(values, values[1:]))


class TestClosedValue:
    def test_dispatch_by_term_count(self):
        t, qd = make_triple(5, 2, 19, 3), make_quad(2, 3, 37, 3)
        assert (t.k, qd.k) == (3, 4)
        assert closed_value(t, "frobenius", 3) == g_p_closed_triple(t, 3)
        assert closed_value(t, "sylvester", 3) == n_p_closed_triple(t, 3)
        assert closed_value(qd, "frobenius", 2) == g_p_closed_quad(qd, 2)

    def test_refusals_are_tagged(self):
        cases = [
            (make_quad(2, 3, 37, 3), "sylvester", 0, "Unsupported"),
            (make_quad(2, 3, 37, 3), "frobenius", 3, "OutOfValidityRange"),
            (make_triple(1, 3, -100, 1), "frobenius", 0, "NoClosedFormCase"),
        ]
        for fam, quantity, p, tag in cases:
            with pytest.raises(FrobkitError) as info:
                closed_value(fam, quantity, p)
            assert CLOSED_ERROR_TAGS[type(info.value)] == tag

    def test_case_tag(self):
        assert case_tag(make_triple(4, 3, -1, 1)) == "2"
        assert case_tag(make_triple(1, 3, -100, 1)) == "NoCaseApplies"
        assert case_tag(make_triple(5, 2, 19, 3)) is None
        assert case_tag(make_quad(2, 3, -5, 2)) is None

    def test_term_count_is_checked(self):
        t, qd = make_triple(5, 2, 19, 3), make_quad(2, 3, 37, 3)
        assert (len(t.digits), len(qd.digits)) == (2, 3)
        for fn, fam in (
            (g_p_closed_triple, qd),
            (n_p_closed_triple, qd),
            (apery_grid_triple, qd),
            (g_p_closed_quad, t),
        ):
            with pytest.raises(InvalidInputError, match="-term family"):
                fn(fam, 0)


class TestTwoGenerators:
    def test_classic(self):
        assert g_p_two_gens(2, 3, 0) == 1

    def test_formula(self):
        assert g_p_two_gens(3, 5, 1) == 22

    def test_matches_scan(self):
        assert g_p_two_gens(2, 3, 2) == 13 == dp_scan((2, 3), 2)[0]

    def test_gcd_not_one(self):
        with pytest.raises(GcdNotOneError):
            g_p_two_gens(4, 6, 0)

    def test_generator_below_two_rejected(self):
        with pytest.raises(InvalidInputError, match="^minimum generator must be >= 2, got 1$"):
            g_p_two_gens(1, 3, 0)

    def test_non_integral_p_rejected(self):
        # Evaluated as is, p = 0.5 gives 1.5 * 15 - 8 = 14.5.
        with pytest.raises(InvalidInputError, match="p must be an integer"):
            g_p_two_gens(3, 5, 0.5)


class TestGeneratorIdentity:
    @given(
        st.integers(1, 10**6),
        st.integers(2, 10**3),
        st.integers(-(10**9), 10**9).filter(lambda c: c != 0),
        st.integers(1, 20),
    )
    @settings(max_examples=100, deadline=None)
    def test_three_term_recurrence(self, a, b, c, n):
        g1 = a * b**n - c
        g2 = a * b ** (n + 1) - c
        g3 = a * b ** (n + 2) - c
        assert (b + 1) * g2 == b * g1 + g3
