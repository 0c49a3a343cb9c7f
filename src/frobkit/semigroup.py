"""Generic numerical-semigroup engine.

Formula-free machinery for p-Apery sets, denumerants and the p-Frobenius and
p-Sylvester numbers:

- the residue-class pass (`_apery_pass`) pops sums of the generators above
  a1 in increasing order and counts them per class mod a1, keeping the max
  and sum of each order and one Apery set: O(a1 + p_max + k) ints, and
  O((p_max + 1) * k * a1 * log) time whatever the size of g_p. Sums that
  end in the largest generator come from a FIFO, the others from a heap.
  `scan_p_range` reads the rows and `apery_set` the set, the only routes to
  g_p and n_p;
- the coin-counting DP count table (`_raw_counts`) serves the denumerants
  and the redundancy check.

`tests/_naive.py`, which also holds a DP scan that cross-checks the engine,
and `bench/reference.py` are the external checks. All arithmetic is exact;
counts can exceed 64 bits, so they are plain Python integers.
"""

from __future__ import annotations

import heapq
import math
import operator
import os
from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .errors import GcdNotOneError, InvalidInputError, ResourceLimitError

#: Default table cap, for both engines: a DP count table holds at most this
#: many entries, and a residue-class pass counts at most this many sums, each
#: below it. FROBKIT_TABLE_CAP overrides it; each check reads it on each call.
DEFAULT_TABLE_CAP = 10**8
TABLE_CAP_ENV = "FROBKIT_TABLE_CAP"


def effective_table_cap() -> int:
    """The table cap: FROBKIT_TABLE_CAP if set, else DEFAULT_TABLE_CAP."""
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


@dataclass(frozen=True, init=False)
class GeneratorTuple:
    """Sorted, duplicate-free generators with gcd 1 and minimum >= 2.

    Immutable once constructed; safe to share across threads. Equal, hashed
    and printed by its `gens`. This is the only check of a generator list.
    """

    gens: tuple[int, ...]

    def __init__(self, gens: Iterable[int]) -> None:
        try:
            gens = tuple(sorted(set(map(operator.index, gens))))
        except TypeError as exc:
            raise InvalidInputError(f"generators must be integers: {exc}") from None
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
        check reads one count table up to the largest generator, within the
        table cap: d(g) counts g itself once, and any other representation
        of g uses smaller generators only, so g is redundant iff d(g) >= 2.
        """
        cap = effective_table_cap()
        top = self.gens[-1]
        if top + 1 > cap:
            raise ResourceLimitError(
                f"redundancy check needs {top + 1} table entries, cap is {cap}"
            )
        counts = _raw_counts(self.gens, top)
        return tuple(g for g in self.gens if counts[g] >= 2)


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


def denumerant_table(
    gens: GeneratorTuple | Iterable[int], bound: int
) -> tuple[int, ...]:
    """Counts d(m), indexed by m <= bound, in O(len(gens) * bound) additions."""
    gt = as_generators(gens)
    bound = check_p(bound, "bound")
    cap = effective_table_cap()
    if bound + 1 > cap:
        raise ResourceLimitError(
            f"denumerant table needs {bound + 1} entries, cap is {cap}"
        )
    return tuple(_raw_counts(gt.gens, bound))


def denumerant(m: int, gens: GeneratorTuple | Iterable[int]) -> int:
    """Number of representations of m as a nonnegative combination of gens."""
    m = check_p(m, "m")
    return denumerant_table(gens, m)[m]


def check_p(p: int, name: str = "p") -> int:
    """p as an int; refuse a non-integral p, and a negative one, since every
    p-indexed quantity starts at p = 0. `name` words it for another count."""
    try:
        p = operator.index(p)
    except TypeError:
        raise InvalidInputError(f"{name} must be an integer, got {p!r}") from None
    if p < 0:
        raise InvalidInputError(f"{name} must be >= 0, got {p}")
    return p


def _apery_pass(
    gt: GeneratorTuple, p_max: int, cap: int
) -> tuple[list[int], list[int], list[int | None]]:
    """(tops, sums, column) of one residue-class pass: `cap` sums at most, below it.

    The sums x2*g2 + ... + xk*gk pop in increasing order, each multiset of
    generators once, by extending only with indices no smaller than its last
    (Nijenhuis's minimal paths, Amer. Math. Monthly 86, 1979). With
    multiplicity, the (c+1)-th sum in class j mod a1 is j's order-c Apery
    element; it sets tops[c] and adds to sums[c]. A class is full at
    need = min(p_max + 1, `_most_sums` // a1) sums, at most `cap` in all,
    and a sum in a full class is not extended: the same steps from its
    smaller sums land lower. The rows stop at the first order some class does
    not fill; column[j] is j's need-th sum, None where j holds fewer.

    Each counted s gives s + gk, in increasing order, so these queue in a FIFO
    with no sift (the monotone-queue merge of the Hamming numbers). Sums that
    end in g2..g(k-1) sit in a heap of keys s << sh | last, last indexing that
    generator. The FIFO pops while its head is below the heap's least sum.
    """
    a1, top, lower = gt.a1, gt.gens[-1], gt.gens[1:-1]
    need = min(p_max + 1, _most_sums(gt, cap) // a1)
    if not need:
        return [], [], []
    sh = max(len(lower) - 1, 0).bit_length()
    mask = (1 << sh) - 1
    limit = cap << sh
    # (key - last) + steps[i] adds lower[i] to a key, for i >= last. Steps grow
    # with i, so the first child past the cap ends them; so does the sentinel.
    steps = [(g << sh) + i for i, g in enumerate(lower)] + [limit]
    tops: list[int] = []
    sums: list[int] = []
    counts = [0] * a1
    column: list[int | None] = [None] * a1
    open_classes, reached = a1, 0  # reached = len(tops), a local for speed
    heap, low, fifo = [0], 0, deque()  # low: the heap's least sum, cap if none
    while open_classes and (fifo or heap):
        if fifo and fifo[0] < low:
            s, key = fifo.popleft(), -1
        else:
            s, key = low, heap[0]
        j = s % a1
        c = counts[j]
        if c < need:
            if c < reached:
                tops[c] = s
                sums[c] += s
            else:
                tops.append(s)
                sums.append(s)
                reached += 1
            counts[j] = c + 1
            if c + 1 == need:
                column[j] = s
                open_classes -= 1
            if s + top < cap:
                fifo.append(s + top)
        if key < 0:
            continue
        last = key & mask
        base = key - last
        t = base + steps[last]
        if c < need and t < limit:
            heapq.heapreplace(heap, t)
            for i in range(last + 1, len(lower)):
                t = base + steps[i]
                if t >= limit:
                    break
                heapq.heappush(heap, t)
        else:
            heapq.heappop(heap)
        low = heap[0] >> sh if heap else cap
    rows = min(counts)
    return tops[:rows], sums[:rows], column


def _most_sums(gt: GeneratorTuple, cap: int) -> int:
    """The most sums a pass counts: cap, or fewer where x_i <= (cap - 1) // a_i."""
    return min(cap, math.prod((cap - 1) // g + 1 for g in gt.gens[1:]))


def _read_row(gt: GeneratorTuple, top: int, total: int) -> tuple[int, int]:
    """(g_p, n_p) from the max and the sum of a p-Apery set, exactly."""
    n_p, rest = divmod(2 * total - gt.a1 * (gt.a1 - 1), 2 * gt.a1)
    if rest:
        raise AssertionError(
            f"Apery-route p-Sylvester value is non-integral for {gt.gens}; "
            "the Apery set is corrupt"
        )
    return top - gt.a1, n_p


def read_apery(gt: GeneratorTuple, entries: tuple[int, ...]) -> tuple[int, int]:
    """(g_p, n_p) from a p-Apery set: max - a1 and sum/a1 - (a1-1)/2, exactly."""
    return _read_row(gt, max(entries), sum(entries))


def scan_p_range(
    gens: GeneratorTuple | Iterable[int], p_max: int
) -> list[tuple[int, int]]:
    """(g_p, n_p) for p = 0, 1, ..., read from the per-order max and sum of one pass.

    The rows stop at p_max or before the first p the table cap stops
    (g_p + a1 >= cap, or a1 * (p + 1) > cap sums to count), whichever comes
    first; g_p never decreases as p grows. `require_row` reads them.
    """
    gt = as_generators(gens)
    p_max = check_p(p_max)
    tops, sums, _ = _apery_pass(gt, p_max, effective_table_cap())
    return [_read_row(gt, top, total) for top, total in zip(tops, sums)]


def require_row(rows: list[tuple[int, int]], p: int) -> tuple[int, int]:
    """rows[p] of a `scan_p_range` list; ResourceLimitError where the cap stopped p."""
    if p < len(rows):
        return rows[p]
    raise cap_error(p)


def cap_error(p: int) -> ResourceLimitError:
    """The error for a p the table cap stops; its wording is a stderr contract."""
    cap = effective_table_cap()
    return ResourceLimitError(f"forward scan for p={p} exceeded table cap {cap}")


def apery_set(gens: GeneratorTuple | Iterable[int], p: int) -> tuple[int, ...]:
    """The order-p Apery set, indexed by residue mod a1, from one residue-class pass.

    Entry j is the least m = j mod a1 with d(m) >= p + 1; entry 0 is 0
    exactly when p = 0. A p is refused before the pass where filling every
    class takes a1 * (p + 1) sums, more than `_most_sums` lets it count.
    """
    gt = as_generators(gens)
    p = check_p(p)
    cap = effective_table_cap()
    most = _most_sums(gt, cap)
    if gt.a1 * (p + 1) > most:
        raise ResourceLimitError(
            f"Apery scan for p={p} exceeded table cap {cap} "
            f"(at most {most} sums below the cap, {gt.a1 * (p + 1)} needed)"
        )
    column = _apery_pass(gt, p, cap)[2]
    if None in column:
        raise ResourceLimitError(
            f"Apery scan for p={p} exceeded table cap {cap} "
            f"({gt.a1 - column.count(None)}/{gt.a1} residue classes filled)"
        )
    return tuple(column)
