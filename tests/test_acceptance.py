"""Acceptance suite: one test per release criterion, exact equality throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion; any assertion failure marks the criterion failed.
"""

import math
import random
import time

import pytest

from frobkit import (
    OutOfValidityRangeError,
    SweepSpec,
    apery_grid_triple,
    apery_set,
    closed_form_case,
    denumerant_table,
    digit_decompose,
    discover_validity,
    g_p_closed_quad,
    g_p_closed_triple,
    make_quad,
    make_triple,
    n_p_closed_triple,
    p_frobenius_scan,
    p_frobenius_via_apery,
    p_sylvester_count,
    p_sylvester_via_apery,
    verify_grid,
)
from frobkit.errors import FrobkitError

CORPUS_SEED = 20260811
CORPUS_SIZE = 200


def _passed(k: int, message: str) -> None:
    print(f"\n[PASS] criterion {k}: {message}")


@pytest.fixture(scope="module")
def corpus():
    """Seeded random valid triples with c > 0, each paired with a p <= q."""
    rng = random.Random(CORPUS_SEED)
    out = []
    while len(out) < CORPUS_SIZE:
        a = rng.randint(1, 4)
        b = rng.randint(2, 4)
        n = rng.randint(1, 2)
        head = a * b**n
        if head < 4:
            continue
        c = rng.randint(1, head - 2)
        try:
            t = make_triple(a, b, c, n)
        except FrobkitError:
            continue
        out.append((t, rng.randint(0, digit_decompose(t)[0])))
    return out


def test_criterion_1_golden_triple_positive_shift():
    start = time.perf_counter()
    t = make_triple(5, 2, 19, 3)
    assert t.gens.gens == (21, 61, 141)
    for p in range(8):
        g_expected = 141 * p + 947
        n_expected = 3 * (158 + 60 * p - p * p)
        assert g_p_closed_triple(t, p) == g_expected
        assert p_frobenius_scan(t.gens, p) == g_expected
        assert p_frobenius_via_apery(t.gens, p) == g_expected
        assert n_p_closed_triple(t, p) == n_expected
        assert p_sylvester_count(t.gens, p) == n_expected
        assert p_sylvester_via_apery(t.gens, p) == n_expected
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"
    _passed(1, f"(21,61,141) g_p=141p+947 and n_p=3(158+60p-p^2) on p=0..7 in {elapsed:.2f}s")


def test_criterion_2_golden_triple_negative_shift():
    t = make_triple(4, 3, -1, 1)
    assert t.gens.gens == (13, 37, 109)
    assert closed_form_case(t) == 2
    for p in range(4):
        expected = 109 * p + 316
        assert g_p_closed_triple(t, p) == expected
        assert p_frobenius_scan(t.gens, p) == expected
    _passed(2, "(13,37,109) selects case 2 and g_p=109p+316 matches the oracle on p=0..3")


def test_criterion_3_golden_quad():
    qd = make_quad(2, 3, 37, 3)
    assert qd.gens.gens == (17, 125, 449, 1421)
    for p in range(3):
        expected = 449 * p + 1779
        assert g_p_closed_quad(qd, p) == expected
        assert p_frobenius_scan(qd.gens, p) == expected
    with pytest.raises(OutOfValidityRangeError):
        g_p_closed_quad(qd, 3)
    assert p_frobenius_scan(qd.gens, 3) == 3075
    assert discover_validity(qd, 5) == 2  # = b - beta
    _passed(3, "(17,125,449,1421) g_p=449p+1779 on p=0..2; p=3 out of range, oracle 3075, validity 2")


def test_criterion_4_two_generator_law():
    start = time.perf_counter()
    pairs = 0
    for a in range(2, 13):
        for b in range(a + 1, 13):
            if math.gcd(a, b) != 1:
                continue
            pairs += 1
            for p in range(6):
                assert p_frobenius_scan((a, b), p) == (p + 1) * a * b - a - b, (a, b, p)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"
    _passed(4, f"(p+1)ab-a-b holds for {pairs} coprime pairs, p=0..5, in {elapsed:.2f}s")


def test_criterion_5_sweep_agreement():
    start = time.perf_counter()
    spec = SweepSpec(
        a_range=(1, 3), b_range=(2, 4), c_range=(-10, 10), n_range=(1, 2)
    )
    report = verify_grid(spec)
    s = report.summary
    assert s.mismatched == 0, [pt for pt in report.points if not pt.match and pt.closed_error is None]
    # skipped closed forms are counted in their own buckets, and every
    # evaluated point has an oracle value
    assert s.no_case >= 1
    assert s.out_of_range >= 1
    for pt in report.points:
        assert pt.oracle is not None and pt.outcome != "resource_limit"
    assert (
        s.matched + s.mismatched + s.no_case + s.out_of_range + s.skipped_gcd
        + s.skipped_large + s.resource_limit
        == s.total
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.2f}s, budget 120s"
    _passed(
        5,
        f"sweep a:1..3 b:2..4 c:-10..10 n:1..2 -> matched={s.matched} mismatched=0 "
        f"no_case={s.no_case} out_of_range={s.out_of_range} in {elapsed:.1f}s",
    )


def test_criterion_6_apery_property_suite(corpus):
    for t, p in corpus:
        a1 = t.gens.a1
        entries = apery_set(t.gens, p)
        assert sorted(e % a1 for e in entries) == list(range(a1))
        _, a2, a3 = t.gens.gens
        values = [x2 * a2 + x3 * a3 for x2, x3 in apery_grid_triple(t, p)]
        assert sorted(values) == sorted(entries)
        counts = denumerant_table(t.gens, max(entries))
        for e in entries:
            assert counts[e] >= p + 1
            if e >= a1:
                assert counts[e - a1] <= p
        for v in values:
            assert counts[v] == p + 1
    _passed(6, f"residue coverage, least elements, grid equality, exact counts on {len(corpus)} triples")


def test_criterion_7_apery_route_consistency(corpus):
    for t, p in corpus:
        assert p_frobenius_via_apery(t.gens, p) == p_frobenius_scan(t.gens, p)
        assert p_sylvester_via_apery(t.gens, p) == p_sylvester_count(t.gens, p)
    _passed(7, f"Apery-route g_p and n_p equal scan/count oracles on {len(corpus)} triples")


def test_criterion_8_generator_identity():
    rng = random.Random(CORPUS_SEED + 8)
    for _ in range(1000):
        a = rng.randint(1, 10**6)
        b = rng.randint(2, 10**3)
        c = rng.choice((-1, 1)) * rng.randint(1, 10**9)
        n = rng.randint(1, 20)
        g1 = a * b**n - c
        g2 = a * b ** (n + 1) - c
        g3 = a * b ** (n + 2) - c
        assert (b + 1) * g2 == b * g1 + g3
    _passed(8, "(b+1)g2 = b*g1 + g3 exact on 1000 fuzzed parameter tuples")
