#!/usr/bin/env python3
"""Operations on which frobkit is known to return a wrong value.

`run.py` counts a wrong output at one of these operations as failed and
keeps `correct` true; a wrong output anywhere else makes `correct` false.
They come from the fixed strata of `table` and `closed`, which are drawn
from run.FIXED_SEED and so are the same in every run. To make the lists
anew, run from the root of a source checkout

    python3 bench/faults.py

It runs one round of each workload, checks it against the reference and
prints the operations that fail, in the form below.
"""

from __future__ import annotations

#: (k, a, b, c, n): `frobkit table` prints a wrong g_p row for the tuple.
TABLE = frozenset({
    (4, 4, 3, 11, 3), (4, 39, 3, 20, 1),
})

#: (k, a, b, c, n, p): a closed form returns a wrong g_p or n_p.
CLOSED = frozenset({
    (3, 1, 2, -39, 2, 9), (3, 1, 3, -106, 1, 11), (3, 1, 3, -106, 1, 12),
    (3, 1, 3, -106, 1, 13), (3, 1, 3, -106, 1, 14), (3, 1, 3, -106, 1, 15),
    (3, 1, 3, -106, 1, 16), (3, 1, 3, -106, 1, 17), (3, 1, 3, -106, 1, 18),
    (3, 1, 3, -106, 1, 19), (3, 1, 3, -106, 1, 20), (3, 1, 4, -87, 1, 7),
    (3, 1, 4, -87, 1, 8), (3, 1, 4, -87, 1, 9), (3, 1, 4, -87, 1, 10),
    (3, 1, 4, -87, 1, 11), (3, 1, 4, -87, 1, 12), (3, 1, 4, -87, 1, 13),
    (3, 1, 4, -87, 1, 14), (3, 1, 4, -87, 1, 15), (3, 1, 4, -87, 1, 16),
    (3, 1, 4, -87, 1, 17), (3, 3, 2, -115, 2, 27), (3, 3, 2, -115, 2, 28),
    (3, 3, 2, -115, 2, 29), (3, 3, 2, -115, 2, 30), (3, 3, 2, -115, 2, 31),
    (3, 3, 2, -115, 2, 32), (3, 3, 2, -115, 2, 33), (3, 3, 2, -115, 2, 34),
    (3, 3, 2, -115, 2, 35), (3, 3, 2, -115, 2, 36), (3, 3, 2, -115, 2, 37),
    (3, 3, 2, -115, 2, 38), (3, 3, 2, -115, 2, 39), (3, 3, 2, -115, 2, 40),
    (3, 3, 2, -115, 2, 41), (3, 5, 2, -83, 1, 21), (3, 5, 2, -83, 1, 22),
    (3, 5, 2, -83, 1, 23), (3, 5, 2, -83, 1, 24), (3, 5, 2, -83, 1, 25),
    (3, 5, 2, -83, 1, 26), (3, 5, 2, -83, 1, 27), (3, 5, 2, -83, 1, 28),
    (3, 5, 2, -83, 1, 29), (3, 5, 2, -83, 1, 30), (4, 1, 3, 2, 2, 2),
    (4, 1, 3, 8, 3, 2), (4, 1, 5, 2, 1, 1), (4, 1, 5, 2, 1, 2),
    (4, 1, 5, 2, 1, 3), (4, 1, 5, 2, 1, 4), (4, 1, 5, 2, 1, 5),
    (4, 1, 5, 622, 4, 1), (4, 1, 5, 622, 4, 2), (4, 1, 5, 622, 4, 3),
    (4, 1, 5, 622, 4, 4), (4, 1, 5, 622, 4, 5), (4, 1, 6, 1243, 4, 5),
    (4, 2, 2, 3, 2, 1), (4, 2, 2, 7, 3, 2), (4, 2, 3, 1, 1, 2),
    (4, 2, 5, 47, 2, 1), (4, 2, 5, 47, 2, 2), (4, 2, 5, 47, 2, 3),
    (4, 2, 5, 47, 2, 4), (4, 2, 5, 47, 2, 5), (4, 2, 5, 1129, 4, 1),
    (4, 2, 5, 1177, 4, 4), (4, 2, 5, 1183, 4, 5), (4, 2, 5, 1239, 4, 2),
    (4, 2, 5, 1239, 4, 3), (4, 2, 5, 1239, 4, 4), (4, 2, 6, 2461, 4, 6),
    (4, 2, 6, 2509, 4, 1), (4, 3, 2, 19, 3, 1), (4, 3, 3, 146, 4, 2),
    (4, 3, 3, 154, 4, 1), (4, 3, 4, 83, 3, 4), (4, 3, 5, 274, 3, 4),
    (4, 3, 6, 617, 3, 2), (4, 4, 2, 27, 3, 1), (4, 4, 4, 11, 1, 2),
    (4, 4, 4, 11, 1, 3), (4, 4, 4, 35, 2, 3), (4, 4, 4, 41, 2, 4),
    (4, 4, 4, 47, 2, 1), (4, 4, 5, 7, 1, 3), (4, 4, 5, 23, 2, 3),
    (4, 4, 5, 2353, 4, 2), (4, 4, 6, 5111, 4, 2), (4, 5, 4, 3, 1, 1),
    (4, 5, 4, 57, 2, 4), (4, 5, 5, 478, 3, 2), (4, 6, 3, 13, 1, 2),
    (4, 6, 4, 7, 1, 1), (4, 6, 4, 1507, 4, 3), (4, 6, 4, 1511, 4, 4),
    (4, 7, 4, 425, 3, 4), (4, 8, 2, 27, 3, 2), (4, 8, 4, 369, 3, 1),
    (4, 8, 4, 477, 3, 2), (4, 8, 5, 37, 1, 1), (4, 8, 5, 37, 1, 2),
    (4, 8, 5, 37, 1, 3), (4, 8, 5, 37, 1, 4), (4, 8, 5, 37, 1, 5),
    (4, 8, 5, 983, 3, 3), (4, 8, 5, 4903, 4, 5), (4, 9, 3, 202, 3, 3),
    (4, 9, 4, 89, 2, 2), (4, 9, 5, 5546, 4, 3),
})


def main() -> int:
    import random

    import run

    fk = run.load_frobkit()
    for name in ("table", "closed"):
        workload = run.WORKLOADS[name](fk)
        ops = workload.make_round(random.Random(0))
        outputs = [run.run_op(workload, op) for op in ops]
        failed = sorted({op for op, ok in zip(ops, workload.check(ops, outputs)) if not ok})
        print(f"{name.upper()} = frozenset({{")
        for i in range(0, len(failed), 3):
            print("    " + " ".join(f"{op}," for op in failed[i:i + 3]))
        print("})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
