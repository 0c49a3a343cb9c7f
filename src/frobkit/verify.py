"""Cross-checks closed forms against the residue-class engine over parameter grids.

A sweep evaluates each parameter tuple for all of its p from one oracle
pass. Tuple evaluations are pure and independent, so sweeps may run them in
a process pool; results are aggregated in enumeration order either way, and
two runs of the same spec produce byte-identical reports.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from dataclasses import asdict, dataclass, fields
from functools import partial
from typing import NamedTuple

from .errors import FrobkitError, InvalidInputError, ResourceLimitError
from .families import (
    ShiftedGeometricFamily,
    case_tag,
    closed_or_refusal,
    closed_value,
    g_p_two_gens,
    make_quad,
    make_triple,
    past_digit_limit,
)
from .semigroup import GeneratorTuple, check_p, effective_table_cap
from .semigroup import require_row, scan_p_range

@dataclass(frozen=True)
class SweepSpec:
    """Inclusive parameter ranges plus sampling policy for a verification sweep."""

    a_range: tuple[int, int]
    b_range: tuple[int, int]
    c_range: tuple[int, int]
    n_range: tuple[int, int]
    vars: int = 3
    p_policy: str | int = "theorem-range"
    sample_seed: int = 0
    sample_limit: int | None = None

    def __post_init__(self) -> None:
        for name in ("a_range", "b_range", "c_range", "n_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise InvalidInputError(f"{name} is empty: {lo}..{hi}")
        for name, least in (("b_range", 2), ("a_range", 1), ("n_range", 1)):
            lo = getattr(self, name)[0]
            if lo < least:
                raise InvalidInputError(
                    f"{name} lower bound must be >= {least}, got {lo}"
                )
        if self.vars not in (3, 4):
            raise InvalidInputError(f"vars must be 3 or 4, got {self.vars}")
        if isinstance(self.p_policy, str):
            if self.p_policy != "theorem-range":
                raise InvalidInputError(
                    f"p_policy must be 'theorem-range' or an integer, got {self.p_policy!r}"
                )
        elif check_p(self.p_policy, "fixed p_policy") >= sys.maxsize:
            raise InvalidInputError(
                f"fixed p_policy must be < {sys.maxsize}, got {self.p_policy}"
            )
        if self.sample_limit is not None:
            check_p(self.sample_limit, "sample_limit")

    def tuples(self) -> list[tuple[int, int, int, int]]:
        """The (a, b, c, n) the sweep visits, in enumeration order.

        The grid runs over a, b, c, n, outermost first, and skips c = 0.
        With sample_limit set, sample_seed picks that many grid indices,
        which are decoded without building the grid.
        """
        (a_lo, a_hi), (b_lo, b_hi), (c_lo, c_hi), (n_lo, n_hi) = (
            self.a_range, self.b_range, self.c_range, self.n_range
        )
        skip_zero = c_lo <= 0 <= c_hi
        nb, nc, nn = b_hi - b_lo + 1, c_hi - c_lo + 1 - skip_zero, n_hi - n_lo + 1
        size = (a_hi - a_lo + 1) * nb * nc * nn
        if size > sys.maxsize:
            raise InvalidInputError(f"the grid has {size} tuples, too many to index")
        indices = range(size)
        if self.sample_limit is not None and size > self.sample_limit:
            rng = random.Random(self.sample_seed)
            indices = sorted(rng.sample(indices, self.sample_limit))
        out = []
        for i in indices:
            i, n = divmod(i, nn)
            i, c = divmod(i, nc)
            a, b = divmod(i, nb)
            c += c_lo
            if skip_zero and c >= 0:
                c += 1
            out.append((a_lo + a, b_lo + b, c, n_lo + n))
        return out


class PointResult(NamedTuple):
    """One closed-form-vs-oracle comparison, as a report row in column order."""

    a: int
    b: int
    c: int
    n: int
    p: int
    closed: int | None
    closed_error: str | None
    oracle: int | None
    case: str | None
    match: bool

    @property
    def outcome(self) -> str:
        """The SweepSummary field this point is counted under."""
        if self.closed_error in ("NoClosedFormCase", "Unsupported"):
            return "no_case"
        if self.closed_error == "OutOfValidityRange":
            return "out_of_range"
        if self.oracle is None:
            return "resource_limit"
        return "matched" if self.match else "mismatched"


#: The columns of a report's points, in JSON and CSV alike.
POINT_FIELDS = PointResult._fields


@dataclass(frozen=True)
class SweepSummary:
    total: int
    matched: int
    mismatched: int
    skipped_gcd: int
    no_case: int
    out_of_range: int
    skipped_large: int = 0
    resource_limit: int = 0


@dataclass(frozen=True)
class VerificationReport:
    points: tuple[PointResult, ...]
    summary: SweepSummary

    def passed(self) -> bool:
        return self.summary.mismatched == 0

    def to_json_obj(self) -> dict:
        """Schema-stable dict; all numbers rendered as decimal strings."""
        return {
            "summary": asdict(self.summary),
            "points": [
                # ints become decimal strings; str, bool and None stay
                dict(zip(POINT_FIELDS, [str(v) if type(v) is int else v for v in pt]))
                for pt in self.points
            ],
        }

    def to_csv_rows(self) -> list[list[str]]:
        """Header plus one row per point."""
        rows = [list(POINT_FIELDS)]
        for pt in self.points:
            *values, match = pt
            values = ["" if v is None else str(v) for v in values]
            rows.append(values + [str(match).lower()])
        return rows


def _points(params: ShiftedGeometricFamily, p_values: range) -> tuple[PointResult, ...]:
    """Closed form vs oracle at each p in p_values, from one oracle pass."""
    oracle = scan_p_range(params.gens, p_values[-1])
    a, b, c, n, case = params.a, params.b, params.c, params.n, case_tag(params)
    points = []
    for p in p_values:
        closed, closed_error = closed_or_refusal(params, "frobenius", p)
        g = oracle[p][0] if p < len(oracle) else None  # None past the table cap
        match = closed is not None and closed == g
        points.append(PointResult(a, b, c, n, p, closed, closed_error, g, case, match))
    return tuple(points)


def verify_point(params: ShiftedGeometricFamily, p: int) -> PointResult:
    """Evaluate closed form and oracle at one (params, p) point."""
    return _points(params, range(p, p + 1))[0]


def _evaluate_tuple(
    spec: SweepSpec, cap: int, abcn: tuple[int, int, int, int]
) -> tuple[PointResult, ...] | str:
    """One tuple's points from one oracle pass, or the field it is skipped under."""
    if past_digit_limit(*abcn):
        return "skipped_large"
    make = make_triple if spec.vars == 3 else make_quad
    try:
        params = make(*abcn)
    except FrobkitError:
        return "skipped_gcd"
    if spec.p_policy == "theorem-range":
        # Filling p = 0..q takes a1 * (q + 1) sums. apery_set's stricter test
        # reads `_most_sums` <= cap, so points here can be resource_limit.
        if params.gens.a1 * (params.stated_p_max + 1) > cap:
            return "skipped_large"
        p_values = range(params.stated_p_max + 1)  # 0..q or 0..b-beta
    else:
        p_values = range(int(spec.p_policy) + 1)
    return _points(params, p_values)


def verify_grid(spec: SweepSpec, *, workers: int = 1) -> VerificationReport:
    """Sweep the spec's parameter grid and compare closed forms to the oracle.

    Tuples with gcd != 1, past the int-to-str digit limit, or whose theorem
    range needs more than the table cap's a1 * (p + 1) sums, are counted
    and skipped. Report ordering follows tuple enumeration order regardless of
    worker count.
    """
    if workers < 1:
        raise InvalidInputError(f"workers must be >= 1, got {workers}")
    cap = effective_table_cap()
    # A fixed p_policy lists p_policy + 1 points per tuple, so the gate bounds
    # a report's points per tuple by the cap, as each pass counts at most cap
    # sums; the points past a tuple's rows are resource_limit.
    if spec.p_policy != "theorem-range" and spec.p_policy >= cap:
        raise ResourceLimitError(f"fixed p_policy {spec.p_policy} >= table cap {cap}")
    tuples = spec.tuples()
    evaluate = partial(_evaluate_tuple, spec, cap)
    if workers > 1 and tuples:
        # Imported here, so that `import frobkit` does not load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(tuples) // (workers * 4))
            results = list(pool.map(evaluate, tuples, chunksize=chunk))
    else:
        results = [evaluate(t) for t in tuples]

    points = tuple(pt for r in results if not isinstance(r, str) for pt in r)
    tally = Counter(r for r in results if isinstance(r, str))
    tally.update(pt.outcome for pt in points)
    summary = SweepSummary(
        total=sum(tally.values()),
        **{f.name: tally[f.name] for f in fields(SweepSummary) if f.name != "total"},
    )
    return VerificationReport(points=points, summary=summary)


def discover_validity(
    params: ShiftedGeometricFamily | GeneratorTuple | tuple, p_max: int
) -> int:
    """Largest p <= p_max with closed form == oracle at every p' <= p.

    Accepts a triple, a quad, or a pair of coprime generators; returns -1
    when the closed form already fails at p = 0. One oracle pass checks the
    closed form at every p up to its first refusal.
    """
    p_max = check_p(p_max)
    if isinstance(params, ShiftedGeometricFamily):
        gens = params.gens
        closed = partial(closed_value, params, "frobenius")
    else:
        pair = params.gens if isinstance(params, GeneratorTuple) else tuple(params)
        if len(pair) != 2:
            raise InvalidInputError(
                f"generator-list form requires exactly 2 generators, got {len(pair)}"
            )
        gens = GeneratorTuple(pair)
        closed = partial(g_p_two_gens, *gens.gens)

    values, cap = [], None
    for p in range(p_max + 1):
        try:
            values.append(closed(p))
        except FrobkitError:
            break
        # The window for p ends at g_p + a1. Past the table cap, the oracle
        # stops at p or disagrees with the closed value there: p decides.
        # `require_row` raises the cap error where the rows stop earlier, at
        # a1 * (p + 1) > cap. A refusal at p = 0 needs no oracle, so no cap.
        cap = cap or effective_table_cap()
        if values[-1] + gens.a1 >= cap:
            break
    rows = scan_p_range(gens, len(values) - 1) if values else []
    for p, value in enumerate(values):
        if value != require_row(rows, p)[0]:
            return p - 1
    return len(values) - 1
