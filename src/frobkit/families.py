"""Shifted geometric generator families and their closed-form fast paths.

The three-term family is (a*b^n - c, a*b^(n+1) - c, a*b^(n+2) - c) and the
four-term family appends a*b^(n+3) - c. Closed forms for the p-Frobenius
number (and, for positive c, the p-Sylvester number) are driven by two small
decompositions of the minimum generator:

  * triples: a*b^n - c = (b+1)*q + r with 0 <= r <= b
  * quads:   a*b^n - c = alpha*(b^2+b+1) + beta*(b+1) + gamma, 0 <= gamma <= b

For negative c the largest Apery element can sit at one of four positions;
`closed_form_case` evaluates the selecting inequalities verbatim and reports
which branch (if any) applies.
"""

from __future__ import annotations

import math
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
        return len(self.gens)

    @property
    def c0(self) -> int | None:
        """Magnitude of a negative shift; None when c > 0."""
        return -self.c if self.c < 0 else None


@dataclass(frozen=True)
class QRDecomposition:
    """a*b^n - c = (b+1)*q + r with 0 <= r <= b."""

    q: int
    r: int


@dataclass(frozen=True)
class ABGDecomposition:
    """a*b^n - c = alpha*(b^2+b+1) + beta*(b+1) + gamma, digits in range."""

    alpha: int
    beta: int
    gamma: int


@dataclass(frozen=True)
class CaseConditions:
    """The four products compared by the negative-shift case selector."""

    r_excess_growth: int  # (r - 1) * a * b^(n+1)
    b_gap_growth: int  # (b - r) * a * b^(n+1)
    b_gap_shift: int  # (b - r) * c0
    r_excess_shift: int  # (r - 1) * c0


@dataclass(frozen=True)
class ClosedFormCase:
    """Which closed-form branch applies for c < 0; case_id None means none."""

    case_id: int | None
    conditions: CaseConditions


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


def _require_k(fam: ShiftedGeometricFamily, k: int) -> None:
    if fam.k != k:
        raise InvalidInputError(f"expected a {k}-term family, got {fam.k} terms")


def qr_decompose(t: ShiftedGeometricFamily) -> QRDecomposition:
    """Quotient and remainder of the minimum generator by b + 1 (k = 3)."""
    _require_k(t, 3)
    q, r = divmod(t.gens.gens[0], t.b + 1)
    return QRDecomposition(q, r)


def abg_decompose(qd: ShiftedGeometricFamily) -> ABGDecomposition:
    """Mixed-radix digits of the minimum generator in base (b^2+b+1, b+1, 1) (k = 4)."""
    _require_k(qd, 4)
    b = qd.b
    alpha, rem = divmod(qd.gens.gens[0], b * b + b + 1)
    beta, gamma = divmod(rem, b + 1)
    return ABGDecomposition(alpha, beta, gamma)


def closed_form_case(t: ShiftedGeometricFamily) -> ClosedFormCase:
    """Select the closed-form branch for a negative shift (c < 0).

    Exactly one of four inequality systems can hold (>= on the growth side,
    strict > on the shift side, as required for correctness at ties); at the
    r = b boundary with a large shift none holds and the caller must fall
    back to an oracle.
    """
    if t.c > 0:
        raise InvalidInputError("case selection is defined only for c < 0")
    c0 = -t.c
    r = qr_decompose(t).r
    growth = t.a * t.b ** (t.n + 1)
    cond = CaseConditions(
        r_excess_growth=(r - 1) * growth,
        b_gap_growth=(t.b - r) * growth,
        b_gap_shift=(t.b - r) * c0,
        r_excess_shift=(r - 1) * c0,
    )
    # c0 > 0 and growth > 0, so multiplying max{b-r, r-1} through is exact.
    hits = [
        cond.r_excess_growth >= max(cond.b_gap_shift, cond.r_excess_shift),
        cond.b_gap_growth >= cond.b_gap_shift > cond.r_excess_growth,
        cond.r_excess_growth >= cond.b_gap_shift > cond.b_gap_growth,
        cond.b_gap_shift > max(cond.b_gap_growth, cond.r_excess_growth),
    ]
    if sum(hits) > 1:
        raise AssertionError(f"case conditions are not mutually exclusive: {cond}")
    case_id = hits.index(True) + 1 if any(hits) else None
    return ClosedFormCase(case_id, cond)


def g_p_closed_triple(t: ShiftedGeometricFamily, p: int) -> int:
    """Closed-form p-Frobenius number of a three-term family, 0 <= p <= q.

    For c > 0 the largest Apery element sits at (r-1, q+p) when r >= 1 and
    at (b, q+p-1) when r = 0: the positions of cases 1 and 2 below. For
    c < 0 the case selector picks one of four positions; r = 0 inputs reduce
    to cases 2/4 and are oracle-gated by the verification sweeps rather than
    trusted blindly.
    """
    if p < 0:
        raise InvalidInputError(f"p must be >= 0, got {p}")
    qr = qr_decompose(t)
    q, r = qr.q, qr.r
    if p > q:
        raise OutOfValidityRangeError(f"p={p} exceeds validity bound q={q}")
    g1, g2, g3 = t.gens.gens
    b = t.b
    case_id = closed_form_case(t).case_id if t.c < 0 else (1 if r >= 1 else 2)
    if case_id == 1:
        return (r - 1) * g2 + (q + p) * g3 - g1
    if case_id == 2:
        return b * g2 + (q + p - 1) * g3 - g1
    if case_id == 3:
        return (p * b + r + p - 1) * g2 + (q - p) * g3 - g1
    if case_id == 4:
        # The case-4 maximal position has x3 = q - p - 1, which must exist;
        # at p = q the pattern provably breaks (oracle disagrees).
        if p > q - 1:
            raise OutOfValidityRangeError(
                f"p={p} exceeds the case-4 validity bound q-1={q - 1}"
            )
        return ((p + 1) * b + p) * g2 + (q - p - 1) * g3 - g1
    raise NoClosedFormCaseError(
        f"no closed-form case applies to (a,b,c,n)=({t.a},{t.b},{t.c},{t.n})"
    )


def n_p_closed_triple(t: ShiftedGeometricFamily, p: int) -> int:
    """Closed-form p-Sylvester number of a three-term family (c > 0 only)."""
    if p < 0:
        raise InvalidInputError(f"p must be >= 0, got {p}")
    if t.c < 0:
        raise UnsupportedCaseError(
            "no closed p-Sylvester form for c < 0; use p_sylvester_count"
        )
    q = qr_decompose(t).q
    if p > q:
        raise OutOfValidityRangeError(f"p={p} exceeds validity bound q={q}")
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
    qr = qr_decompose(t)
    q, r = qr.q, qr.r
    if p > q:
        raise OutOfValidityRangeError(f"p={p} exceeds validity bound q={q}")
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
    d = abg_decompose(qd)
    if p > qd.b - d.beta:
        raise OutOfValidityRangeError(
            f"p={p} exceeds validity bound b-beta={qd.b - d.beta}"
        )
    g1, g2, g3, g4 = qd.gens.gens
    if d.gamma >= 1:
        return (d.gamma - 1) * g2 + (d.beta + p) * g3 + d.alpha * g4 - g1
    return (qd.b + d.beta + p) * g3 + (d.alpha - 1) * g4 - g1


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
        cid = closed_form_case(fam).case_id
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
