#!/usr/bin/env python3
"""Self-test of the benchmark's checker; runs in a few seconds.

    python3 bench/selftest.py

Run from the root of a source checkout. It shows that bench/reference.py
agrees with the recursive oracle in tests/_naive.py on small generator sets,
that the properties used for big points hold on the reference's values, that
the `closed` checker flags the two known wrong closed-form values and passes
right ones, that every operation listed in faults.py still fails, that the
`sweep` checker rejects a report with work left out, and that BENCHMARK.json
names the metrics run.py reports.
"""

from __future__ import annotations

import copy
import json
import math
import random
import sys

import faults
import reference as ref
import run
import tracer

sys.path.insert(0, str(run.ROOT / "tests"))
import _naive  # noqa: E402


def small_sets(count: int, seed: int):
    rng = random.Random(seed)
    while count:
        gens = tuple(sorted(rng.sample(range(2, 22), rng.randint(2, 4))))
        if math.gcd(*gens) == 1:
            count -= 1
            yield gens


def main() -> int:
    failures = []

    def expect(cond: bool, message: str) -> None:
        print(("PASS " if cond else "FAIL ") + message)
        if not cond:
            failures.append(message)

    agree = rises = bounded = True
    for gens in small_sets(60, 11):
        values = ref.g_and_n(gens, 3)
        for p, (g, n) in enumerate(values):
            agree &= (g, n) == (_naive.naive_g_p(gens, p), _naive.naive_n_p(gens, p))
            bound = ref.two_gen_bound(gens[0], gens[1], p)
            bounded &= (bound is None or g <= bound) and 1 <= n <= g + 1
        rises &= all(x[0] <= y[0] for x, y in zip(values, values[1:]))
    expect(agree, "reference g_p and n_p equal tests/_naive.py on 60 sets, p <= 3")
    expect(rises, "reference g_p never falls as p grows")
    expect(bounded, "reference g_p <= (p+1)*a1*a2 - a1 - a2 and 1 <= n_p <= g_p + 1")
    # Strict growth is not general: g_1 = g_2 = 27 for (4, 6, 12, 13). The
    # `closed` checker relies on it only inside the families' stated ranges.
    tie = [g for g, _ in ref.g_and_n((4, 6, 12, 13), 2)]
    expect(tie[1] == tie[2] == 27,
           "g_p does not always rise strictly: g_1 = g_2 = 27 for (4, 6, 12, 13)")
    strict = True
    for k in (3, 4):
        for a in range(1, 4):
            for b in range(2, 5):
                for c in range(-30, 31):
                    for n in (1, 2):
                        gens = ref.family_gens(a, b, c, n, k)
                        if c == 0 or gens[0] < 2 or math.gcd(*gens) != 1:
                            continue
                        top = run.stated_p_max(k, a, b, c, n)
                        values = [g for g, _ in ref.g_and_n(gens, top)]
                        strict &= all(x < y for x, y in zip(values, values[1:]))
    expect(strict, "g_p rises strictly with p inside the families' stated ranges")

    fk = run.load_frobkit()
    closed = run.Closed(fk)
    named = list(run.CLOSED_FAULTS)
    good = [(3, 5, 2, 19, 3, 3), (3, 4, 3, -1, 1, 1), (4, 2, 3, 37, 3, 0)]
    wrong = [(1540, None), (66, None)]
    verdicts = closed.check(named + good, wrong + [closed.run(op) for op in good])
    expect(verdicts == [False, False, True, True, True],
           "closed checker flags g_9(43, 47, 55) = 1540 and g_1(5, 13, 29, 61) = 66, "
           "passes three right values")
    expect(closed.check(named, [("OutOfValidityRangeError", None)] * 2) == [True, True],
           "closed checker counts a typed refusal at those points as done")

    table = run.Table(fk)
    for workload, listed in ((closed, faults.CLOSED), (table, faults.TABLE)):
        listed = sorted(listed)
        verdicts = workload.check(listed, [workload.run(op) for op in listed])
        stale = [op for op, ok in zip(listed, verdicts) if ok]
        expect(not stale, f"{workload.name} checker flags frobkit's output at all "
               f"{len(listed)} operations in faults.{workload.name.upper()}"
               + (f"; no longer failing: {stale}" if stale else ""))

    sweep = run.Sweep(fk)
    op = (3, 4, 7)
    rc, text = sweep.run(op)
    doc = json.loads(text)
    expect(sweep.check([op], [(rc, text)]) == [True], "sweep checker passes a real report")
    last = doc["points"][-1]
    dropped_p = copy.deepcopy(doc)
    dropped_p["points"].pop()
    dropped_p["summary"]["total"] -= 1
    dropped_p["summary"]["matched"] -= last["match"]
    dropped_p["summary"]["mismatched"] -= not last["match"]
    one = [pt for pt in doc["points"] if (pt["c"], pt["n"]) == (last["c"], last["n"])]
    moved = copy.deepcopy(doc)
    moved["points"] = [pt for pt in doc["points"] if pt not in one]
    moved["summary"].update(
        total=doc["summary"]["total"] - len(one) + 1,
        skipped_gcd=doc["summary"]["skipped_gcd"] + 1,
        matched=doc["summary"]["matched"] - sum(pt["match"] for pt in one),
        mismatched=doc["summary"]["mismatched"] - sum(not pt["match"] for pt in one))
    flipped = copy.deepcopy(doc)
    flipped["points"][0]["match"] = not flipped["points"][0]["match"]
    verdicts = sweep.check([op] * 3, [(rc, json.dumps(d)) for d in (dropped_p, moved, flipped)])
    expect(verdicts == [False, False, False],
           "sweep checker rejects a report missing a p, one with a tuple moved to "
           "skipped_gcd, and one with a wrong match flag")

    big = (3, 3, 7, 4, 80)
    ops = [big + (p,) for p in (0, 1, 2)]
    g = [closed.run(op)[0] for op in ops]
    expect(closed.check(ops, [(v, None) for v in g]) == [True] * 3,
           "property check passes a big point's closed values")
    expect(not all(closed.check(ops, [(g[0], None), (g[0], None), (g[2], None)])),
           "property check flags a value that does not rise with p")

    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json end_to_end matches run.py")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]]
           == list(tracer.PER_LAYER + (run.TRACE_OVERHEAD,)),
           "BENCHMARK.json per_layer matches run.py")
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads match run.py")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
