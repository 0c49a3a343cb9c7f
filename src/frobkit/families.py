"""Shifted geometric generator families and their closed-form fast paths.

The three-term family is (a*b^n - c, a*b^(n+1) - c, a*b^(n+2) - c) and the
four-term family appends a*b^(n+3) - c. Every closed form comes from one
picture. A family's `digits` split the minimum generator a1 in the mixed
radix with weights w_j = (b^j - 1)/(b - 1):

  * triples: a1 = q*(b+1) + r, digits (q, r), 0 <= r <= b
  * quads:   a1 = alpha*(b^2+b+1) + beta*(b+1) + gamma, digits (alpha, beta, gamma)

The largest element of the p-Apery set sits at an exponent vector
(x2, ..., xk) read from those digits, so g_p = x2*a2 + ... + xk*ak - a1;
`_max_position` holds one row per case. For negative c a triple's position
depends on which of four inequality systems holds; a family's `case`
holds the one that does, if any.
"""

from __future__ import annotations

import operator
import sys
from typing import NamedTuple

from .errors import (
    InvalidInputError,
    NoClosedFormCaseError,
    OutOfValidityRangeError,
    UnsupportedCaseError,
)
from .semigroup import GeneratorTuple, check_p


class ShiftedGeometricFamily(NamedTuple):
    """Parameters (a, b, c, n), the k-term generator tuple (k = 3 or 4) and
    what the closed forms read from them, worked out once at construction.

    `digits` are a1's digits in the mixed radix w_j = (b^j - 1)/(b - 1), top
    digit first: a1 = d_{k-1}*w_{k-1} + ... + d_1*w_1, each digit but the
    top one below w_{j+1}/w_j, so (q, r) for triples and (alpha, beta, gamma)
    for quads. `stated_p_max` is the top of the p range the paper states
    (q for triples, b - beta for quads). `case` is the closed-form case
    (1 to 4) of a triple with c < 0; it is None where no case applies and
    for every other family.
    """

    a: int
    b: int
    c: int
    n: int
    gens: GeneratorTuple
    digits: tuple[int, ...]
    stated_p_max: int
    case: int | None

    @property
    def k(self) -> int:
        return len(self.gens.gens)


def _family(a: int, b: int, c: int, n: int, k: int) -> ShiftedGeometricFamily:
    """The validated k-term family, its digits, stated range and case."""
    if a < 1:
        raise InvalidInputError(f"a must be >= 1, got {a}")
    if b < 2:
        raise InvalidInputError(f"b must be >= 2, got {b}")
    if c == 0:
        raise InvalidInputError("c must be nonzero")
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    head = a * b**n
    a1 = head - c
    if a1 < 2:
        raise InvalidInputError(
            f"minimum generator a*b^n - c = {a1} must be >= 2"
        )
    terms = [a1]
    for _ in range(k - 1):
        head *= b
        terms.append(head - c)
    gens = GeneratorTuple(terms)
    # The mixed-radix weights are w_1 = 1, w_2 = b + 1 and w_3 = b^2 + b + 1.
    if k == 3:
        digits = q, r = divmod(a1, b + 1)
        case = _case(a, b, c, n, terms[1] + c, r) if c < 0 else None
        return ShiftedGeometricFamily(a, b, c, n, gens, digits, q, case)
    alpha, rest = divmod(a1, b * b + b + 1)
    beta, gamma = divmod(rest, b + 1)
    return ShiftedGeometricFamily(
        a, b, c, n, gens, (alpha, beta, gamma), b - beta, None
    )


def past_digit_limit(a: int, b: int, c: int, n: int) -> bool:
    """Whether a1 = a*b^n - c surely has more digits than Python's int-to-str limit.

    Decided from bit lengths, without computing b^n; False without a limit
    and for parameters the family constructors refuse.
    """
    limit = sys.get_int_max_str_digits()
    if not limit or a < 1 or b < 2 or n < 1:
        return False
    bits = a.bit_length() - 1 + n * (b.bit_length() - 1)  # a*b^n >= 2^bits
    if c > 0 and c.bit_length() >= bits:
        return False
    # a1 >= 2^(bits - 1) here, which is >= 10^limit once bits - 1 >= 3.322 * limit
    return (bits - 1) * 1000 >= limit * 3322


def make_triple(a: int, b: int, c: int, n: int) -> ShiftedGeometricFamily:
    """Validated three-term family constructor."""
    return _family(a, b, c, n, 3)


def make_quad(a: int, b: int, c: int, n: int) -> ShiftedGeometricFamily:
    """Validated four-term family constructor."""
    return _family(a, b, c, n, 4)


def _stated_digits(fam: ShiftedGeometricFamily, k: int, p: int) -> tuple[int, ...]:
    """fam.digits, once fam has k terms and p lies in its stated range."""
    if fam.k != k:
        raise InvalidInputError(f"expected a {k}-term family, got {fam.k} terms")
    if p > fam.stated_p_max:
        name = "q" if k == 3 else "b-beta"
        raise OutOfValidityRangeError(
            f"p={p} exceeds validity bound {name}={fam.stated_p_max}"
        )
    return fam.digits


def _case(a: int, b: int, c: int, n: int, growth: int, r: int) -> int | None:
    """The closed-form case of the triple (a, b, c, n), c < 0, from growth = a*b^(n+1).

    The four inequality systems are evaluated verbatim (>= on the growth
    side, strict > on the shift side, as required for correctness at ties);
    at most one holds. At the r = b boundary with a large shift none holds,
    and the caller must fall back to an oracle.
    """
    # c0 > 0 and growth > 0, so multiplying max{b-r, r-1} through is exact.
    c0 = -c
    r_excess_growth, b_gap_growth = (r - 1) * growth, (b - r) * growth
    r_excess_shift, b_gap_shift = (r - 1) * c0, (b - r) * c0
    hits = [
        r_excess_growth >= max(b_gap_shift, r_excess_shift),
        b_gap_growth >= b_gap_shift > r_excess_growth,
        r_excess_growth >= b_gap_shift > b_gap_growth,
        b_gap_shift > max(b_gap_growth, r_excess_growth),
    ]
    if sum(hits) > 1:
        raise AssertionError(
            f"case conditions are not mutually exclusive for "
            f"(a,b,c,n)=({a},{b},{c},{n}): {hits}"
        )
    return hits.index(True) + 1 if any(hits) else None


#: The largest p at which triple cases 3 and 4 have been checked against the
#: oracle. Past it they are wrong for some tuples although the paper states
#: them up to q (README, "Notes on validity ranges").
_CHECKED_P_MAX = {3: 3, 4: 2}


def _max_position(
    fam: ShiftedGeometricFamily, p: int, digits: tuple[int, ...]
) -> tuple[int, ...]:
    """Exponents (x2, ..., xk) of the largest p-Apery element, one row per case.

    d1, d2, ... are the digits of a1 from the unit digit up. For c > 0 the
    case is 1 when d1 >= 1 and 2 when d1 = 0; for c < 0 (triples only) it
    is fam.case. p must lie in the stated range already.

    Two quad rows are checked against the engine, not proved: at p = b - beta
    with gamma >= 2 the maximum sits at (gamma - 2, 0, alpha + 1), and with
    alpha = 0 no row holds past p = 0 (README, "Notes on validity ranges").
    """
    d = digits[::-1]
    b = fam.b
    if fam.k == 4 and p:
        gamma, beta, alpha = d
        if not alpha:
            raise OutOfValidityRangeError(
                f"p={p} exceeds the checked alpha=0 range p <= 0"
            )
        if gamma >= 2 and p == b - beta:
            return (gamma - 2, 0, alpha + 1)
    case = fam.case if fam.c < 0 else (1 if d[0] else 2)
    if case == 1:
        return (d[0] - 1, d[1] + p, *d[2:])
    if fam.k == 4:  # gamma = 0
        return (0, b + d[1] + p, d[2] - 1)
    r, q = d
    if case == 2:
        return (b, q + p - 1)
    if case is None:
        raise NoClosedFormCaseError(
            f"no closed-form case applies to (a,b,c,n)=({fam.a},{fam.b},{fam.c},{fam.n})"
        )
    # The case-4 maximal position has x3 = q - p - 1, which must exist.
    if case == 4 and p > q - 1:
        raise OutOfValidityRangeError(
            f"p={p} exceeds the case-4 validity bound q-1={q - 1}"
        )
    if p > _CHECKED_P_MAX[case]:
        raise OutOfValidityRangeError(
            f"p={p} exceeds the checked case-{case} range p <= {_CHECKED_P_MAX[case]}"
        )
    if case == 3:
        return (p * b + r + p - 1, q - p)
    return ((p + 1) * b + p, q - p - 1)


def _frobenius(fam: ShiftedGeometricFamily, k: int, p: int) -> int:
    """g_p of a k-term family from its maximal position, for 0 <= p."""
    position = _max_position(fam, p, _stated_digits(fam, k, p))
    a1, *rest = fam.gens.gens
    return sum(map(operator.mul, position, rest)) - a1


def g_p_closed_triple(t: ShiftedGeometricFamily, p: int) -> int:
    """Closed-form p-Frobenius number of a three-term family, 0 <= p <= q.

    Cases 3 and 4 (c < 0) refuse past p = 3 and p = 2; case 4 also at p = q.
    """
    p = check_p(p)
    return _frobenius(t, 3, p)


def n_p_closed_triple(t: ShiftedGeometricFamily, p: int) -> int:
    """Closed-form p-Sylvester number of a three-term family (c > 0 only)."""
    p = check_p(p)
    if t.c < 0:
        raise UnsupportedCaseError(
            "no closed p-Sylvester form for c < 0; use scan_p_range"
        )
    q = _stated_digits(t, 3, p)[0]
    g1, g2, _ = t.gens.gens
    b = t.b
    bracket = (
        (g1 - 1) * (g2 - 1)
        - b * q * (2 * g1 - (b + 1) * (q + 1))
        + (b + 1) * p * (2 * g2 - b * (p + 1))
    )
    if bracket % 2 != 0:
        raise AssertionError(f"p-Sylvester bracket is odd for {t} at p={p}")
    return bracket // 2


def grid_digits(t: ShiftedGeometricFamily, p: int) -> tuple[int, ...]:
    """(q, r) of a triple, once its position grid exists: c > 0 and 0 <= p <= q."""
    p = check_p(p)
    if t.c < 0:
        raise InvalidInputError("the position grid is constructed only for c > 0")
    return _stated_digits(t, 3, p)


def apery_grid_triple(t: ShiftedGeometricFamily, p: int) -> tuple[tuple[int, int], ...]:
    """The sorted p-Apery positions (x2, x3) of a triple, for c > 0 and 0 <= p <= q.

    Position (x2, x3) carries the value x2*a2 + x3*a3; the values are the
    p-Apery set, one per residue class mod a1. Layout: a (b+1)-wide block of
    q-p full rows, a partial row of r entries, then p staircase pairs of rows
    (widths b+1-r and r) shifting left as x3 grows. Cardinality is exactly
    the minimum generator. `grid_digits` makes the refusals without building
    the grid.
    """
    q, r = grid_digits(t, p)
    w = t.b + 1
    positions = {(x2, x3) for x3 in range(q - p) for x2 in range(p * w, (p + 1) * w)}
    for x2 in range(p * w, p * w + r):
        positions.add((x2, q - p))
    for step in range(1, p + 1):
        left = (p - step) * w
        for x2 in range(left + r, left + w):
            positions.add((x2, q - p + 2 * step - 1))
        for x2 in range(left, left + r):
            positions.add((x2, q - p + 2 * step))
    a1 = t.gens.a1
    if len(positions) != a1:
        raise AssertionError(f"grid has {len(positions)} positions, expected {a1}")
    return tuple(sorted(positions))


def g_p_closed_quad(qd: ShiftedGeometricFamily, p: int) -> int:
    """Closed-form p-Frobenius number of a four-term family, 0 <= p <= b - beta.

    Only positive shifts are covered; beyond b - beta the maximal-position
    pattern breaks down and the oracle must be used. With alpha = 0 it
    refuses every p >= 1.
    """
    p = check_p(p)
    if qd.c < 0:
        raise UnsupportedCaseError(
            "no closed four-term form for c < 0; use scan_p_range"
        )
    return _frobenius(qd, 4, p)


#: The closed forms' typed refusals, and the tag reports give each.
CLOSED_ERROR_TAGS = {
    NoClosedFormCaseError: "NoClosedFormCase",
    OutOfValidityRangeError: "OutOfValidityRange",
    UnsupportedCaseError: "Unsupported",
}
_REFUSALS = tuple(CLOSED_ERROR_TAGS)


def closed_value(fam: ShiftedGeometricFamily, quantity: str, p: int) -> int:
    """Closed-form g_p (quantity "frobenius") or n_p ("sylvester") of a family.

    Raises one of the CLOSED_ERROR_TAGS types where no closed form applies.
    """
    if quantity == "frobenius":
        return g_p_closed_triple(fam, p) if fam.k == 3 else g_p_closed_quad(fam, p)
    if fam.k == 3:
        return n_p_closed_triple(fam, p)
    raise UnsupportedCaseError("no closed p-Sylvester form for four generators")


def closed_or_refusal(
    fam: ShiftedGeometricFamily, quantity: str, p: int
) -> tuple[int | None, str | None]:
    """(closed_value, None), or (None, its refusal's tag); other errors propagate."""
    try:
        return closed_value(fam, quantity, p), None
    except _REFUSALS as exc:
        return None, CLOSED_ERROR_TAGS[type(exc)]


def case_tag(fam: ShiftedGeometricFamily) -> str | None:
    """The negative-shift branch of a triple as reports print it; else None."""
    if fam.k == 3 and fam.c < 0:
        return "NoCaseApplies" if fam.case is None else str(fam.case)
    return None


def g_p_two_gens(a: int, b: int, p: int) -> int:
    """p-Frobenius number of two coprime generators: (p+1)ab - a - b."""
    a, b = GeneratorTuple((a, b)).gens
    p = check_p(p)
    return (p + 1) * a * b - a - b
