"""Generic numerical-semigroup engine.

Formula-free machinery: denumerants by coin-counting DP, p-Apery sets, and
two independent oracle routes to the p-Frobenius and p-Sylvester numbers
(via the Apery set, and via a forward scan with a sound termination window).
All arithmetic is exact; representation counts can exceed 64 bits, so counts
are plain Python integers.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Iterable

from .errors import GcdNotOneError, InvalidInputError, ResourceLimitError

#: Default cap on DP table entries; override per call or via FROBKIT_TABLE_CAP.
DEFAULT_TABLE_CAP = 10**8
TABLE_CAP_ENV = "FROBKIT_TABLE_CAP"


def effective_table_cap(cap: int | None = None) -> int:
    """Resolve the table cap: explicit argument, then env var, then default."""
    if cap is not None:
        if cap < 1:
            raise InvalidInputError(f"table cap must be >= 1, got {cap}")
        return cap
    raw = os.environ.get(TABLE_CAP_ENV)
    if raw is None:
        return DEFAULT_TABLE_CAP
    try:
        value = int(raw)
    except ValueError:
        raise InvalidInputError(
            f"{TABLE_CAP_ENV} must be an integer, got {raw!r}"
        ) from None
    if value < 1:
        raise InvalidInputError(f"{TABLE_CAP_ENV} must be >= 1, got {value}")
    return value


def gcd_of(values: Iterable[int]) -> int:
    """Greatest common divisor of a nonempty list of positive integers."""
    vals = list(values)
    if not vals:
        raise InvalidInputError("gcd_of: empty value list")
    if any(v < 1 for v in vals):
        raise InvalidInputError("gcd_of: all values must be >= 1")
    return math.gcd(*vals)


@dataclass(frozen=True)
class GeneratorTuple:
    """Sorted, duplicate-free generators with gcd 1 and minimum >= 2.

    Immutable once constructed; safe to share across threads.
    """

    gens: tuple[int, ...]

    def __post_init__(self) -> None:
        gens = tuple(sorted({int(g) for g in self.gens}))
        if not gens:
            raise InvalidInputError("at least one generator required")
        if gens[0] < 2:
            raise InvalidInputError(f"minimum generator must be >= 2, got {gens[0]}")
        g = math.gcd(*gens)
        if g != 1:
            raise GcdNotOneError(f"gcd of generators is {g}, expected 1")
        object.__setattr__(self, "gens", gens)

    @property
    def a1(self) -> int:
        """The minimum generator (modulus of the Apery set)."""
        return self.gens[0]

    def __iter__(self):
        return iter(self.gens)

    def __len__(self) -> int:
        return len(self.gens)

    def redundant_generators(self) -> tuple[int, ...]:
        """Generators expressible by the smaller ones.

        Such a generator leaves the semigroup unchanged but still raises
        representation counts, so it is legal input; reports flag it. The
        check needs a count table up to the largest generator, within the
        table cap.
        """
        cap = effective_table_cap()
        out = []
        for i, g in enumerate(self.gens[1:], 1):
            if g + 1 > cap:
                raise ResourceLimitError(
                    f"redundancy check needs {g + 1} table entries, cap is {cap}"
                )
            if _raw_counts(self.gens[:i], g)[g] > 0:
                out.append(g)
        return tuple(out)


def as_generators(gens: GeneratorTuple | Iterable[int]) -> GeneratorTuple:
    """Coerce an iterable of ints into a validated GeneratorTuple."""
    if isinstance(gens, GeneratorTuple):
        return gens
    return GeneratorTuple(tuple(gens))


def _raw_counts(gens: tuple[int, ...], bound: int) -> list[int]:
    # One pass per generator; counts[m] = number of representations of m.
    counts = [0] * (bound + 1)
    counts[0] = 1
    for g in gens:
        for m in range(g, bound + 1):
            counts[m] += counts[m - g]
    return counts


@dataclass(frozen=True)
class DenumerantTable:
    """Representation counts d(m) for 0 <= m <= bound."""

    gens: GeneratorTuple
    bound: int
    counts: tuple[int, ...]

    def __getitem__(self, m: int) -> int:
        return self.counts[m]


def denumerant_table(
    gens: GeneratorTuple | Iterable[int], bound: int, *, table_cap: int | None = None
) -> DenumerantTable:
    """Build the full count table in O(len(gens) * bound) additions."""
    gt = as_generators(gens)
    if bound < 0:
        raise InvalidInputError(f"bound must be >= 0, got {bound}")
    cap = effective_table_cap(table_cap)
    if bound + 1 > cap:
        raise ResourceLimitError(
            f"denumerant table needs {bound + 1} entries, cap is {cap}"
        )
    return DenumerantTable(gt, bound, tuple(_raw_counts(gt.gens, bound)))


def denumerant(
    m: int, gens: GeneratorTuple | Iterable[int], *, table_cap: int | None = None
) -> int:
    """Number of representations of m as a nonnegative combination of gens."""
    if m < 0:
        raise InvalidInputError(f"m must be >= 0, got {m}")
    return denumerant_table(gens, m, table_cap=table_cap).counts[m]


@dataclass(frozen=True)
class AperyTable:
    """Least elements per residue class mod a1 with count >= p + 1.

    entries[j] is the least nonnegative integer congruent to j mod a1 having
    at least p + 1 representations; entries[0] is 0 exactly when p = 0.
    """

    gens: GeneratorTuple
    p: int
    entries: tuple[int, ...]

    def max_entry(self) -> int:
        return max(self.entries)


def _check_p(p: int) -> None:
    if p < 0:
        raise InvalidInputError(f"p must be >= 0, got {p}")


def _window_table(
    gt: GeneratorTuple, p: int, table_cap: int | None
) -> tuple[list[int], int | None]:
    """Grow a count table geometrically until the window for p closes in it.

    Termination: d(m + a1) >= d(m) because appending one more copy of the
    minimum generator maps representations of m injectively into those of
    m + a1. Hence once a1 consecutive values all have d >= p + 1, every
    larger value does too, so the last m with d(m) <= p is g_p once it lies
    a1 below the table's end; the table then holds every p-Apery element.
    Returns the table and g_p, or the table at the cap and None.
    """
    a1 = gt.a1
    cap = effective_table_cap(table_cap)
    bound = max((p + 2) * gt.gens[-1], 4 * a1)
    while True:
        bound = min(bound, cap - 1)
        counts = _raw_counts(gt.gens, bound)
        g = next((m for m in range(bound, -1, -1) if counts[m] <= p), -1)
        if g + a1 <= bound:
            return counts, g
        if bound >= cap - 1:
            return counts, None
        bound *= 2


def scan_p_range(
    gens: GeneratorTuple | Iterable[int], p_max: int, *, table_cap: int | None = None
) -> list[tuple[int, int] | None]:
    """(g_p, n_p) for every 0 <= p <= p_max, read from one count table.

    An entry is None where the table cap stops that p; since g_p never
    decreases as p grows, those entries form a tail of the list.
    """
    gt = as_generators(gens)
    _check_p(p_max)
    counts = _window_table(gt, p_max, table_cap)[0]
    last = [-1] * (p_max + 1)  # last m with d(m) = p, then with d(m) <= p
    low = [0] * (p_max + 1)  # how many m have d(m) = p, then d(m) <= p
    for m, cnt in enumerate(counts):
        if cnt <= p_max:
            last[cnt] = m
            low[cnt] += 1
    end = len(counts) - 1
    return [
        (g, n) if g + gt.a1 <= end else None
        for g, n in zip(itertools.accumulate(last, max), itertools.accumulate(low))
    ]


def require_row(
    row: tuple[int, int] | None, p: int, table_cap: int | None = None
) -> tuple[int, int]:
    """A scan's (g_p, n_p); ResourceLimitError where the table cap stopped p."""
    if row is None:
        cap = effective_table_cap(table_cap)
        raise ResourceLimitError(f"forward scan for p={p} exceeded table cap {cap}")
    return row


def apery_set(
    gens: GeneratorTuple | Iterable[int], p: int, *, table_cap: int | None = None
) -> AperyTable:
    """Compute the order-p Apery table from the count table its window closes in."""
    gt = as_generators(gens)
    _check_p(p)
    a1 = gt.a1
    counts = _window_table(gt, p, table_cap)[0]
    entries: list[int | None] = [None] * a1
    found = 0
    for m, cnt in enumerate(counts):
        if cnt > p and entries[m % a1] is None:
            entries[m % a1] = m
            found += 1
            if found == a1:
                return AperyTable(gt, p, tuple(entries))  # type: ignore[arg-type]
    raise ResourceLimitError(
        f"Apery scan for p={p} exceeded table cap {effective_table_cap(table_cap)} "
        f"({found}/{a1} residue classes filled)"
    )


def p_frobenius_via_apery(
    gens: GeneratorTuple | Iterable[int], p: int, *, table_cap: int | None = None
) -> int:
    """p-Frobenius number as (max Apery element) - a1."""
    table = apery_set(gens, p, table_cap=table_cap)
    return table.max_entry() - table.gens.a1


def _scan_low_counts(
    gens: GeneratorTuple | Iterable[int], p: int, table_cap: int | None
) -> tuple[int, int]:
    """Largest m with d(m) <= p, and how many such m exist."""
    gt = as_generators(gens)
    _check_p(p)
    counts, g = _window_table(gt, p, table_cap)
    row = None if g is None else (g, sum(cnt <= p for cnt in counts))
    return require_row(row, p, table_cap)


def p_frobenius_scan(
    gens: GeneratorTuple | Iterable[int], p: int, *, table_cap: int | None = None
) -> int:
    """p-Frobenius number by forward scan; independent of the Apery route."""
    return _scan_low_counts(gens, p, table_cap)[0]


def p_sylvester_via_apery(
    gens: GeneratorTuple | Iterable[int], p: int, *, table_cap: int | None = None
) -> int:
    """p-Sylvester number from the Apery table: sum/a1 - (a1-1)/2, exactly."""
    table = apery_set(gens, p, table_cap=table_cap)
    a1 = table.gens.a1
    numerator = 2 * sum(table.entries) - a1 * (a1 - 1)
    if numerator % (2 * a1) != 0:
        raise AssertionError(
            f"Apery-route p-Sylvester value is non-integral for {table.gens.gens}, "
            f"p={p}; the Apery table is corrupt"
        )
    return numerator // (2 * a1)


def p_sylvester_count(
    gens: GeneratorTuple | Iterable[int], p: int, *, table_cap: int | None = None
) -> int:
    """p-Sylvester number by directly counting m >= 0 with d(m) <= p.

    m = 0 is included whenever p >= 1 since d(0) = 1; for p = 0 this is the
    classical gap count.
    """
    return _scan_low_counts(gens, p, table_cap)[1]
