"""Formula-free reference values, sharing no code with frobkit.

The reference enumerates residue classes as in Nijenhuis's minimal-path
algorithm (Amer. Math. Monthly 86, 1979), extended to count with
multiplicity. For generators a1 < g2 < ... < gk, d(m) counts the tuples
(x2, ..., xk) with s = x2*g2 + ... + xk*gk <= m and s = m (mod a1). So the
order-p Apery element of class j is the (p+1)-th smallest such s, counted
with multiplicity, and

    g_p = max_j A_p(j) - a1,    n_p = sum_j A_p(j) / a1 - (a1 - 1) / 2.

Sums are popped from a heap in increasing order; each multiset of
generators is reached once, by extending only with indices no smaller than
its last. A sum that is not among the p_max + 1 smallest of its class is
not extended: if p_max + 1 smaller sums exist in its class, adding the same
generators to each gives p_max + 1 smaller sums in every class it leads to.
"""

from __future__ import annotations

import heapq
import math


def apery_lists(gens: tuple[int, ...], p_max: int) -> list[list[int]]:
    """For each class j mod a1, the p_max + 1 smallest sums (with multiplicity)."""
    gens = tuple(sorted(set(gens)))
    if gens[0] < 2 or math.gcd(*gens) != 1:
        raise ValueError(f"not a numerical-semigroup generator set: {gens}")
    a1, rest = gens[0], gens[1:]
    need = p_max + 1
    found: list[list[int]] = [[] for _ in range(a1)]
    open_classes = a1
    heap = [(0, 0)]  # (sum, index into rest of the last generator used)
    while open_classes:
        s, last = heapq.heappop(heap)
        bucket = found[s % a1]
        if len(bucket) == need:
            continue
        bucket.append(s)
        if len(bucket) == need:
            open_classes -= 1
        for i in range(last, len(rest)):
            heapq.heappush(heap, (s + rest[i], i))
    return found


def g_and_n(gens: tuple[int, ...], p_max: int) -> list[tuple[int, int]]:
    """(g_p, n_p) for every p in 0..p_max."""
    lists = apery_lists(gens, p_max)
    a1 = len(lists)
    out = []
    for p in range(p_max + 1):
        column = [bucket[p] for bucket in lists]
        twice_n = 2 * sum(column) - a1 * (a1 - 1)
        if twice_n % (2 * a1):
            raise ArithmeticError(f"non-integral n_p for {gens} at p={p}")
        out.append((max(column) - a1, twice_n // (2 * a1)))
    return out


def family_gens(a: int, b: int, c: int, n: int, k: int) -> tuple[int, ...]:
    """The k-term shifted geometric generators a*b^(n+i) - c."""
    return tuple(a * b ** (n + i) - c for i in range(k))


def two_gen_bound(a1: int, a2: int, p: int) -> int | None:
    """g_p(a1, a2) = (p+1)*a1*a2 - a1 - a2, an upper bound for any superset."""
    if math.gcd(a1, a2) != 1:
        return None
    return (p + 1) * a1 * a2 - a1 - a2
