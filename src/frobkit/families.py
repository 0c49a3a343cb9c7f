"""Shifted geometric generator families and their closed-form fast paths.

The three-term family is (a*b^n - c, a*b^(n+1) - c, a*b^(n+2) - c) and the
four-term family appends a*b^(n+3) - c. Every closed form comes from one
picture. `digit_decompose` splits the minimum generator a1 in the mixed
radix with weights w_j = (b^j - 1)/(b - 1):

  * triples: a1 = q*(b+1) + r, digits (q, r), 0 <= r <= b
  * quads:   a1 = alpha*(b^2+b+1) + beta*(b+1) + gamma, digits (alpha, beta, gamma)

The largest element of the p-Apery set sits at an exponent vector
(x2, ..., xk) read from those digits, so g_p = x2*a2 + ... + xk*ak - a1;
`_max_position` holds one row per case. For negative c a triple's position
depends on which of four inequality systems holds; `closed_form_case`
evaluates them verbatim and reports the case, if any.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .errors import (
    GcdNotOneError,
    InvalidInputError,
    NoClosedFormCaseError,
    OutOfValidityRangeError,
    UnsupportedCaseError,
)
from .semigroup import GeneratorTuple


@dataclass(frozen=True)
class ShiftedGeometricFamily:
    """Parameters (a, b, c, n) plus the derived k-term generator tuple (k = 3 or 4)."""

    a: int
    b: int
    c: int
    n: int
    gens: GeneratorTuple

    @property
    def k(self) -> int:
        return len(self.gens.gens)

    @property
    def c0(self) -> int | None:
        """Magnitude of a negative shift; None when c > 0."""
        return -self.c if self.c < 0 else None


def _family_gens(a: int, b: int, c: int, n: int, k: int) -> GeneratorTuple:
    if a < 1:
        raise InvalidInputError(f"a must be >= 1, got {a}")
    if b < 2:
        raise InvalidInputError(f"b must be >= 2, got {b}")
    if c == 0:
        raise InvalidInputError("c must be nonzero")
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    g1 = a * b**n - c
    if g1 < 2:
        raise InvalidInputError(
            f"minimum generator a*b^n - c = {g1} must be >= 2"
        )
    gens = tuple(a * b ** (n + i) - c for i in range(k))
    g = math.gcd(*gens)
    if g != 1:
        raise GcdNotOneError(f"gcd{gens} = {g}, expected 1")
    return GeneratorTuple(gens)


def make_triple(a: int, b: int, c: int, n: int) -> ShiftedGeometricFamily:
    """Validated three-term family constructor."""
    return ShiftedGeometricFamily(a, b, c, n, _family_gens(a, b, c, n, 3))


def make_quad(a: int, b: int, c: int, n: int) -> ShiftedGeometricFamily:
    """Validated four-term family constructor."""
    return ShiftedGeometricFamily(a, b, c, n, _family_gens(a, b, c, n, 4))


def digit_decompose(fam: ShiftedGeometricFamily) -> tuple[int, ...]:
    """Digits of a1 in the mixed radix w_j = (b^j - 1)/(b - 1), top digit first.

    a1 = d_{k-1}*w_{k-1} + ... + d_1*w_1, each digit but the top one below
    w_{j+1}/w_j: (q, r) for triples and (alpha, beta, gamma) for quads.
    """
    b, rest, digits = fam.b, fam.gens.a1, []
    weight = (b ** (fam.k - 1) - 1) // (b - 1)
    while weight:  # w_j = b * w_(j-1) + 1, so w_j // b = w_(j-1), and 1 // b = 0
        digit, rest = divmod(rest, weight)
        digits.append(digit)
        weight //= b
    return tuple(digits)


def stated_p_max(fam: ShiftedGeometricFamily, digits: tuple[int, ...]) -> int:
    """Top of the p range the paper states, from digits = digit_decompose(fam).

    It is q for triples and b - beta for quads.
    """
    return digits[0] if fam.k == 3 else fam.b - digits[1]


def _stated_digits(fam: ShiftedGeometricFamily, k: int, p: int) -> tuple[int, ...]:
    """digit_decompose(fam), once fam has k terms and p lies in its stated range."""
    if fam.k != k:
        raise InvalidInputError(f"expected a {k}-term family, got {fam.k} terms")
    digits = digit_decompose(fam)
    top = stated_p_max(fam, digits)
    if p > top:
        name = "q" if k == 3 else "b-beta"
        raise OutOfValidityRangeError(f"p={p} exceeds validity bound {name}={top}")
    return digits


def _case(t: ShiftedGeometricFamily, r: int) -> int | None:
    # c0 > 0 and growth > 0, so multiplying max{b-r, r-1} through is exact.
    growth, c0 = t.a * t.b ** (t.n + 1), -t.c
    r_excess_growth, b_gap_growth = (r - 1) * growth, (t.b - r) * growth
    r_excess_shift, b_gap_shift = (r - 1) * c0, (t.b - r) * c0
    hits = [
        r_excess_growth >= max(b_gap_shift, r_excess_shift),
        b_gap_growth >= b_gap_shift > r_excess_growth,
        r_excess_growth >= b_gap_shift > b_gap_growth,
        b_gap_shift > max(b_gap_growth, r_excess_growth),
    ]
    if sum(hits) > 1:
        raise AssertionError(
            f"case conditions are not mutually exclusive for {t}: {hits}"
        )
    return hits.index(True) + 1 if any(hits) else None


def closed_form_case(t: ShiftedGeometricFamily) -> int | None:
    """The closed-form case (1 to 4) of a triple with c < 0; None if none applies.

    Exactly one of four inequality systems can hold (>= on the growth side,
    strict > on the shift side, as required for correctness at ties); at the
    r = b boundary with a large shift none holds and the caller must fall
    back to an oracle.
    """
    if t.c > 0:
        raise InvalidInputError("case selection is defined only for c < 0")
    if t.k != 3:
        raise InvalidInputError(f"expected a 3-term family, got {t.k} terms")
    return _case(t, digit_decompose(t)[1])


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
    is closed_form_case's. p must lie in the stated range already.
    """
    d = digits[::-1]
    b = fam.b
    case = _case(fam, d[0]) if fam.c < 0 else (1 if d[0] else 2)
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
    if p < 0:
        raise InvalidInputError(f"p must be >= 0, got {p}")
    return _frobenius(t, 3, p)


def n_p_closed_triple(t: ShiftedGeometricFamily, p: int) -> int:
    """Closed-form p-Sylvester number of a three-term family (c > 0 only)."""
    if p < 0:
        raise InvalidInputError(f"p must be >= 0, got {p}")
    if t.c < 0:
        raise UnsupportedCaseError(
            "no closed p-Sylvester form for c < 0; use p_sylvester_count"
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


@dataclass(frozen=True)
class AperyGridTriple:
    """Structured Apery positions (x2, x3) for a three-term family, c > 0.

    Position (x2, x3) carries the value x2*g2 + x3*g3; the values reduce to
    a complete residue system mod the minimum generator.
    """

    triple: ShiftedGeometricFamily
    p: int
    positions: frozenset[tuple[int, int]]
    residue_unit: int  # (b - 1) * c mod a1; the residue step per x2 unit

    def value_at(self, pos: tuple[int, int]) -> int:
        _, g2, g3 = self.triple.gens.gens
        return pos[0] * g2 + pos[1] * g3

    def values(self) -> tuple[int, ...]:
        return tuple(sorted(self.value_at(pos) for pos in self.positions))

    def max_value(self) -> int:
        return max(self.values())

    def entries_by_residue(self) -> tuple[int, ...]:
        """Values indexed by residue class mod a1 (AperyTable layout)."""
        a1 = self.triple.gens.a1
        entries: list[int | None] = [None] * a1
        for pos in self.positions:
            v = self.value_at(pos)
            if entries[v % a1] is not None:
                raise AssertionError(f"duplicate residue {v % a1} in grid")
            entries[v % a1] = v
        return tuple(entries)  # type: ignore[arg-type]


def apery_grid_triple(t: ShiftedGeometricFamily, p: int) -> AperyGridTriple:
    """Emit the Apery position set for c > 0 and 0 <= p <= q.

    Layout: a (b+1)-wide block of q-p full rows, a partial row of r entries,
    then p staircase pairs of rows (widths b+1-r and r) shifting left as x3
    grows. Cardinality is exactly the minimum generator.
    """
    if p < 0:
        raise InvalidInputError(f"p must be >= 0, got {p}")
    if t.c < 0:
        raise InvalidInputError("the position grid is constructed only for c > 0")
    q, r = _stated_digits(t, 3, p)
    b = t.b
    w = b + 1
    positions: set[tuple[int, int]] = set()
    for x3 in range(q - p):
        for x2 in range(p * w, (p + 1) * w):
            positions.add((x2, x3))
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
        raise AssertionError(
            f"grid has {len(positions)} positions, expected {a1}"
        )
    return AperyGridTriple(
        triple=t,
        p=p,
        positions=frozenset(positions),
        residue_unit=((b - 1) * t.c) % a1,
    )


def g_p_closed_quad(qd: ShiftedGeometricFamily, p: int) -> int:
    """Closed-form p-Frobenius number of a four-term family, 0 <= p <= b - beta.

    Only positive shifts are covered; beyond b - beta the maximal-position
    pattern breaks down and the oracle must be used.
    """
    if p < 0:
        raise InvalidInputError(f"p must be >= 0, got {p}")
    if qd.c < 0:
        raise UnsupportedCaseError(
            "no closed four-term form for c < 0; use p_frobenius_scan"
        )
    return _frobenius(qd, 4, p)


#: The closed forms' typed refusals, and the tag reports give each.
CLOSED_ERROR_TAGS = {
    NoClosedFormCaseError: "NoClosedFormCase",
    OutOfValidityRangeError: "OutOfValidityRange",
    UnsupportedCaseError: "Unsupported",
}
CLOSED_ERRORS = tuple(CLOSED_ERROR_TAGS)


def closed_value(fam: ShiftedGeometricFamily, quantity: str, p: int) -> int:
    """Closed-form g_p (quantity "frobenius") or n_p ("sylvester") of a family.

    Raises one of CLOSED_ERRORS where no closed form applies.
    """
    if quantity == "frobenius":
        return g_p_closed_triple(fam, p) if fam.k == 3 else g_p_closed_quad(fam, p)
    if fam.k == 3:
        return n_p_closed_triple(fam, p)
    raise UnsupportedCaseError("no closed p-Sylvester form for four generators")


def case_tag(fam: ShiftedGeometricFamily) -> str | None:
    """The negative-shift branch of a triple as reports print it; else None."""
    if fam.k == 3 and fam.c < 0:
        cid = closed_form_case(fam)
        return "NoCaseApplies" if cid is None else str(cid)
    return None


def g_p_two_gens(a: int, b: int, p: int) -> int:
    """p-Frobenius number of two coprime generators: (p+1)ab - a - b."""
    if a < 2 or b < 2:
        raise InvalidInputError(f"generators must be >= 2, got ({a}, {b})")
    if p < 0:
        raise InvalidInputError(f"p must be >= 0, got {p}")
    if math.gcd(a, b) != 1:
        raise GcdNotOneError(f"gcd({a}, {b}) = {math.gcd(a, b)}, expected 1")
    return (p + 1) * a * b - a - b
