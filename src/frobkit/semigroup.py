"""Generic numerical-semigroup engine.

Formula-free machinery for p-Apery sets, denumerants and the p-Frobenius and
p-Sylvester numbers:

- the residue-class engine (`_residue_sums`) pops sums of the generators
  above a1 from a heap and keeps the p_max + 1 smallest of each class mod
  a1. It gives every p-Apery set for p <= p_max in one pass, in
  O((p_max + 1) * k * a1 * log) time whatever the size of g_p. It serves
  `apery_set` and `scan_p_range`, the only routes to g_p and n_p, which
  `read_apery` reads from an Apery set;
- the coin-counting DP count table (`_raw_counts`) serves the denumerants
  and the redundancy check.

`tests/_naive.py`, which also holds a DP scan that cross-checks the engine,
and `bench/reference.py` are the external checks. All arithmetic is exact;
counts can exceed 64 bits, so they are plain Python integers.
"""

from __future__ import annotations

import heapq
import math
import os
from typing import Iterable

from .errors import GcdNotOneError, InvalidInputError, ResourceLimitError

#: Default table cap: the most entries of a DP count table, and the bound below
#: which the residue-class engine keeps sums. FROBKIT_TABLE_CAP overrides it;
#: every function that checks the cap reads the variable on each call.
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


class GeneratorTuple:
    """Sorted, duplicate-free generators with gcd 1 and minimum >= 2.

    Immutable once constructed; safe to share across threads. Equal, hashed
    and printed by its `gens`.
    """

    __slots__ = ("gens",)
    gens: tuple[int, ...]

    def __init__(self, gens: Iterable[int]) -> None:
        gens = tuple(sorted(set(map(int, gens))))
        if not gens:
            raise InvalidInputError("at least one generator required")
        if gens[0] < 2:
            raise InvalidInputError(f"minimum generator must be >= 2, got {gens[0]}")
        g = math.gcd(*gens)
        if g != 1:
            raise GcdNotOneError(f"gcd of generators is {g}, expected 1")
        object.__setattr__(self, "gens", gens)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # __setattr__ refuses, so pickle and copy rebuild through __init__.
        return type(self), (self.gens,)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.gens == other.gens
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.gens,))

    def __repr__(self) -> str:
        return f"GeneratorTuple(gens={self.gens!r})"

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
    if bound < 0:
        raise InvalidInputError(f"bound must be >= 0, got {bound}")
    cap = effective_table_cap()
    if bound + 1 > cap:
        raise ResourceLimitError(
            f"denumerant table needs {bound + 1} entries, cap is {cap}"
        )
    return tuple(_raw_counts(gt.gens, bound))


def denumerant(m: int, gens: GeneratorTuple | Iterable[int]) -> int:
    """Number of representations of m as a nonnegative combination of gens."""
    if m < 0:
        raise InvalidInputError(f"m must be >= 0, got {m}")
    return denumerant_table(gens, m)[m]


def check_p(p: int) -> None:
    """Refuse a negative p; every p-indexed quantity starts at p = 0."""
    if p < 0:
        raise InvalidInputError(f"p must be >= 0, got {p}")


def _residue_sums(gt: GeneratorTuple, p_max: int, cap: int) -> list[list[int]]:
    """Per class j mod a1, its p_max + 1 smallest sums below the table cap.

    The sums are x2*g2 + ... + xk*gk over tuples of nonnegative x, counted
    with multiplicity: d(m) counts the tuples whose sum is <= m and = m mod
    a1, so the (p+1)-th smallest sum of class j is the order-p Apery element
    of j. Sums pop from a heap in increasing order, and each multiset of
    generators is reached once, by extending only with indices no smaller
    than its last (Nijenhuis's minimal paths, Amer. Math. Monthly 86, 1979).
    A sum whose class already holds p_max + 1 sums is not extended: adding
    the same generators to those smaller sums gives p_max + 1 smaller sums
    in every class it leads to. A list shorter than p_max + 1 holds every
    sum of its class below the cap.

    When a1 >= cap, every sum but 0 is at least a2 > a1 >= cap, so class 0
    holds [0] and the others nothing; the result then stops after class 1,
    which stands for all of them, so that no a1-sized list is built.

    A heap entry is one int, key = s << sh | last: the sum s and the index
    last into rest = gens[1:] of the generator it ended with, with
    sh = (k - 1).bit_length() for k = len(rest), so a pop reads s = key >> sh
    and last = key & mask. Since 0 <= last < 2**sh, keys order as the
    (s, last) pairs do; two generators give sh = 0 and key = s. The child
    s + rest[i], i >= last, has key key + (rest[i] << sh) + (i - last); these
    steps are built once per call, and the child is below the cap iff its
    key is below cap << sh. A live root with a child below the cap is not
    popped: heapreplace puts its first child in its place with one sift,
    where a pop and a push take two. The root is popped when its class is
    full or no child is below the cap.
    """
    if gt.a1 >= cap:
        return [[0], []]
    a1, rest = gt.a1, gt.gens[1:]
    k = len(rest)
    sh = (k - 1).bit_length()
    mask = (1 << sh) - 1
    need = p_max + 1
    limit = cap << sh
    # steps[last]: the key step to the child that adds rest[last], then those
    # adding rest[i], i > last. Steps grow with i, as rest does, so the first
    # child at or past the cap ends the children.
    steps = [
        (rest[last] << sh, [(g << sh) + i - last for i, g in enumerate(rest) if i > last])
        for last in range(k)
    ]
    found: list[list[int]] = [[] for _ in range(a1)]
    open_classes = a1
    heap = [0]
    while heap and open_classes:
        key = heap[0]
        s = key >> sh
        bucket = found[s % a1]
        if len(bucket) < need:
            bucket.append(s)
            open_classes -= len(bucket) == need
            first, others = steps[key & mask]
            t = key + first
            if t < limit:
                heapq.heapreplace(heap, t)
                for d in others:
                    t = key + d
                    if t >= limit:
                        break
                    heapq.heappush(heap, t)
                continue
        heapq.heappop(heap)
    return found


def read_apery(gt: GeneratorTuple, entries: tuple[int, ...]) -> tuple[int, int]:
    """(g_p, n_p) from a p-Apery set: max - a1 and sum/a1 - (a1-1)/2, exactly."""
    a1 = gt.a1
    n_p, rest = divmod(2 * sum(entries) - a1 * (a1 - 1), 2 * a1)
    if rest:
        raise AssertionError(
            f"Apery-route p-Sylvester value is non-integral for {gt.gens}; "
            "the Apery set is corrupt"
        )
    return max(entries) - a1, n_p


def scan_p_range(
    gens: GeneratorTuple | Iterable[int], p_max: int
) -> list[tuple[int, int]]:
    """(g_p, n_p) for p = 0, 1, ..., from one residue-class pass.

    Row p is `read_apery` of that p's Apery set, which is column p of the
    engine's per-class lists. The rows stop at p_max or before the first p
    the table cap stops (g_p + a1 >= cap), whichever comes first; g_p never
    decreases as p grows. `require_row` reads them.
    """
    gt = as_generators(gens)
    check_p(p_max)
    columns = zip(*_residue_sums(gt, p_max, effective_table_cap()))
    return [read_apery(gt, column) for column in columns]


def require_row(rows: list[tuple[int, int]], p: int) -> tuple[int, int]:
    """rows[p] of a `scan_p_range` list; ResourceLimitError where the cap stopped p."""
    if p < len(rows):
        return rows[p]
    raise cap_error(p)


def cap_error(p: int) -> ResourceLimitError:
    """The error for a p whose rows the table cap stops.

    Its wording is part of the commands' stderr contract.
    """
    cap = effective_table_cap()
    return ResourceLimitError(f"forward scan for p={p} exceeded table cap {cap}")


def apery_set(gens: GeneratorTuple | Iterable[int], p: int) -> tuple[int, ...]:
    """The order-p Apery set, indexed by residue mod a1, from one residue-class pass.

    Entry j is the least m = j mod a1 with d(m) >= p + 1; entry 0 is 0
    exactly when p = 0.

    A p that the classes cannot all reach below the cap is refused before the
    pass. a1's multiplicity is fixed by the others, so the sums below the cap
    are the tuples (x2, ..., xk) with each x_i <= (cap - 1) // a_i: at most
    `most` of them over all classes together, and filling every class takes
    a1 * (p + 1).
    """
    gt = as_generators(gens)
    check_p(p)
    cap = effective_table_cap()
    most = math.prod((cap - 1) // g + 1 for g in gt.gens[1:])
    need = gt.a1 * (p + 1)
    if need > most:
        raise ResourceLimitError(
            f"Apery scan for p={p} exceeded table cap {cap} "
            f"(at most {most} sums below the cap, {need} needed)"
        )
    lists = _residue_sums(gt, p, cap)
    filled = sum(len(bucket) > p for bucket in lists)
    if filled < gt.a1:
        raise ResourceLimitError(
            f"Apery scan for p={p} exceeded table cap {cap} "
            f"({filled}/{gt.a1} residue classes filled)"
        )
    return tuple(bucket[p] for bucket in lists)
