"""Brute-force oracles for small inputs, independent of the package's DP.

Counts representations by direct recursive enumeration over generator
multiplicities; used to compute and freeze expected values in the tests.
"""

from __future__ import annotations


def naive_denumerant(m: int, gens: tuple[int, ...]) -> int:
    """Count solutions of sum x_i * gens_i = m by plain recursion."""
    if not gens:
        return 1 if m == 0 else 0
    g, rest = gens[0], gens[1:]
    total = 0
    x = 0
    while x * g <= m:
        total += naive_denumerant(m - x * g, rest)
        x += 1
    return total


def naive_counts(gens: tuple[int, ...], bound: int) -> list[int]:
    return [naive_denumerant(m, gens) for m in range(bound + 1)]


def naive_g_p(gens: tuple[int, ...], p: int) -> int:
    """Largest m with at most p representations, by windowed forward search."""
    a1 = min(gens)
    largest = -1
    run = 0
    m = 0
    while run < a1:
        if naive_denumerant(m, gens) >= p + 1:
            run += 1
        else:
            run = 0
            largest = m
        m += 1
    return largest


def naive_n_p(gens: tuple[int, ...], p: int) -> int:
    """Count of m >= 0 with at most p representations."""
    a1 = min(gens)
    count = 0
    run = 0
    m = 0
    while run < a1:
        if naive_denumerant(m, gens) >= p + 1:
            run += 1
        else:
            run = 0
            count += 1
        m += 1
    return count


def naive_residue_sums(gens: tuple[int, ...], p_max: int, cap: int) -> list[list[int]]:
    """Per class j mod gens[0], the p_max + 1 smallest sums of gens[1:] below cap.

    Lists every sum x2*g2 + ... + xk*gk below a bound, once per tuple of
    multiplicities, so equal sums repeat, and sorts them into their classes.
    The bound doubles from 2*gens[0] up to cap and stops early once every
    class holds p_max + 1 sums: the sums past it are larger than those.
    """
    a1, rest = gens[0], gens[1:]
    bound = a1
    while True:
        bound = min(2 * bound, cap)
        sums = [0]
        for g in rest:
            sums = [s + x * g for s in sums for x in range((bound - 1 - s) // g + 1)]
        found: list[list[int]] = [[] for _ in range(a1)]
        for s in sorted(sums):
            found[s % a1].append(s)
        if bound == cap or all(len(bucket) > p_max for bucket in found):
            return [bucket[: p_max + 1] for bucket in found]
