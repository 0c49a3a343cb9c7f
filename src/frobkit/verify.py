"""Cross-checks closed forms against the scan oracle over parameter grids.

A sweep evaluates each parameter tuple for all of its p from one oracle
pass. Tuple evaluations are pure and independent, so sweeps may run them in
a process pool; results are aggregated in enumeration order either way, and
two runs of the same spec produce byte-identical reports.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from functools import partial

from .errors import FrobkitError, InvalidInputError
from .families import (
    CLOSED_ERROR_TAGS,
    CLOSED_ERRORS,
    ShiftedGeometricFamily,
    abg_decompose,
    case_tag,
    closed_value,
    g_p_two_gens,
    make_quad,
    make_triple,
    qr_decompose,
)
from .semigroup import GeneratorTuple, p_frobenius_scan, scan_p_range

#: Tuples whose minimum generator exceeds this are skipped to keep sweeps cheap.
DEFAULT_MIN_GEN_CAP = 20000


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
    min_gen_cap: int = DEFAULT_MIN_GEN_CAP

    def __post_init__(self) -> None:
        for name, (lo, hi) in (
            ("a_range", self.a_range),
            ("b_range", self.b_range),
            ("c_range", self.c_range),
            ("n_range", self.n_range),
        ):
            if lo > hi:
                raise InvalidInputError(f"{name} is empty: {lo}..{hi}")
        if self.b_range[0] < 2:
            raise InvalidInputError(
                f"b_range lower bound must be >= 2, got {self.b_range[0]}"
            )
        if self.a_range[0] < 1:
            raise InvalidInputError(
                f"a_range lower bound must be >= 1, got {self.a_range[0]}"
            )
        if self.n_range[0] < 1:
            raise InvalidInputError(
                f"n_range lower bound must be >= 1, got {self.n_range[0]}"
            )
        if self.vars not in (3, 4):
            raise InvalidInputError(f"vars must be 3 or 4, got {self.vars}")
        if isinstance(self.p_policy, str) and self.p_policy != "theorem-range":
            raise InvalidInputError(
                f"p_policy must be 'theorem-range' or an integer, got {self.p_policy!r}"
            )
        if isinstance(self.p_policy, int) and self.p_policy < 0:
            raise InvalidInputError(f"fixed p_policy must be >= 0, got {self.p_policy}")
        if self.sample_limit is not None and self.sample_limit < 0:
            raise InvalidInputError(
                f"sample_limit must be >= 0, got {self.sample_limit}"
            )

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


#: The columns of a report's points, in JSON and CSV alike.
POINT_FIELDS = (
    "a", "b", "c", "n", "p", "closed", "closed_error", "oracle", "case", "match"
)


@dataclass(frozen=True)
class PointResult:
    """One closed-form-vs-oracle comparison."""

    a: int
    b: int
    c: int
    n: int
    vars: int
    p: int
    closed: int | None
    closed_error: str | None
    oracle: int | None
    oracle_error: str | None
    case: str | None
    match: bool

    @property
    def outcome(self) -> str:
        """The SweepSummary field this point is counted under."""
        if self.closed_error in ("NoClosedFormCase", "Unsupported"):
            return "no_case"
        if self.closed_error == "OutOfValidityRange":
            return "out_of_range"
        if self.oracle_error is not None:
            return "resource_limit"
        return "matched" if self.match else "mismatched"


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
    spec: SweepSpec
    points: tuple[PointResult, ...]
    summary: SweepSummary

    def passed(self) -> bool:
        return self.summary.mismatched == 0

    def to_json_obj(self) -> dict:
        """Schema-stable dict; all numbers rendered as decimal strings."""
        return {
            "summary": asdict(self.summary),
            "points": [
                {f: _json_value(getattr(pt, f)) for f in POINT_FIELDS}
                for pt in self.points
            ],
        }

    def to_csv_rows(self) -> list[list[str]]:
        """Header plus one row per point."""
        rows = [list(POINT_FIELDS)]
        for pt in self.points:
            *values, match = (getattr(pt, f) for f in POINT_FIELDS)
            values = ["" if v is None else str(v) for v in values]
            rows.append(values + [str(match).lower()])
        return rows


def _json_value(v: int | str | bool | None) -> str | bool | None:
    return v if v is None or isinstance(v, (bool, str)) else str(v)


def _point(
    params: ShiftedGeometricFamily,
    p: int,
    case: str | None,
    oracle: tuple[int, int] | None,
) -> PointResult:
    """Compare the closed form at p with the oracle's (g_p, n_p) for p."""
    closed: int | None = None
    closed_error: str | None = None
    try:
        closed = closed_value(params, "frobenius", p)
    except CLOSED_ERRORS as exc:
        closed_error = CLOSED_ERROR_TAGS[type(exc)]
    g = None if oracle is None else oracle[0]
    return PointResult(
        a=params.a,
        b=params.b,
        c=params.c,
        n=params.n,
        vars=params.k,
        p=p,
        closed=closed,
        closed_error=closed_error,
        oracle=g,
        oracle_error="ResourceLimit" if oracle is None else None,
        case=case,
        match=closed is not None and closed == g,
    )


def verify_point(
    params: ShiftedGeometricFamily,
    p: int,
    *,
    table_cap: int | None = None,
) -> PointResult:
    """Evaluate closed form and oracle at one (params, p) point."""
    oracle = scan_p_range(params.gens, p, table_cap=table_cap)[p]
    return _point(params, p, case_tag(params), oracle)


def theorem_p_range(params: ShiftedGeometricFamily) -> range:
    """The p values the closed form is stated for: 0..q or 0..b-beta."""
    if params.k == 3:
        return range(qr_decompose(params).q + 1)
    return range(params.b - abg_decompose(params).beta + 1)


def _evaluate_tuple(
    spec: SweepSpec, table_cap: int | None, abcn: tuple[int, int, int, int]
) -> tuple[PointResult, ...] | str:
    """One tuple's points from one oracle pass, or the field it is skipped under."""
    make = make_triple if spec.vars == 3 else make_quad
    try:
        params = make(*abcn)
    except FrobkitError:
        return "skipped_gcd"
    if params.gens.a1 > spec.min_gen_cap:
        return "skipped_large"
    if spec.p_policy == "theorem-range":
        p_values = theorem_p_range(params)
    else:
        p_values = range(int(spec.p_policy) + 1)
    oracle = scan_p_range(params.gens, p_values[-1], table_cap=table_cap)
    case = case_tag(params)
    return tuple(_point(params, p, case, oracle[p]) for p in p_values)


def verify_grid(
    spec: SweepSpec,
    *,
    workers: int = 1,
    table_cap: int | None = None,
) -> VerificationReport:
    """Sweep the spec's parameter grid and compare closed forms to the oracle.

    Tuples with gcd != 1 or an oversized minimum generator are counted and
    skipped. Report ordering follows tuple enumeration order regardless of
    worker count.
    """
    tuples = spec.tuples()
    evaluate = partial(_evaluate_tuple, spec, table_cap)
    if workers > 1 and tuples:
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
    return VerificationReport(spec=spec, points=points, summary=summary)


def discover_validity(
    params: ShiftedGeometricFamily | GeneratorTuple | tuple,
    p_max: int,
    *,
    table_cap: int | None = None,
) -> int:
    """Largest p <= p_max with closed form == oracle at every p' <= p.

    Accepts a triple, a quad, or a pair of coprime generators; returns -1
    when the closed form already fails at p = 0.
    """
    if isinstance(params, ShiftedGeometricFamily):
        gens = params.gens

        def closed(p: int) -> int:
            return closed_value(params, "frobenius", p)

    else:
        pair = params.gens if isinstance(params, GeneratorTuple) else tuple(params)
        if len(pair) != 2:
            raise InvalidInputError(
                f"generator-list form requires exactly 2 generators, got {len(pair)}"
            )
        gens = GeneratorTuple(pair)

        def closed(p: int) -> int:
            return g_p_two_gens(gens.gens[0], gens.gens[1], p)

    last_ok = -1
    for p in range(p_max + 1):
        try:
            value = closed(p)
        except FrobkitError:
            break
        if value != p_frobenius_scan(gens, p, table_cap=table_cap):
            break
        last_ok = p
    return last_ok
