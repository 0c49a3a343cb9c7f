"""Spans around calls into frobkit's layers, recorded from outside the package.

Each wrapped call records one span: [name, start, end, parent, error, note,
tag]. `parent` is the index of the enclosing span (-1 at top level), `error`
the name of an exception that left the call, `note` a per-call figure (the
entries of a count table) and `tag` the pass the benchmark was in. Spans are
kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import json
import sys
import time

# (module, function, span name, note taken from the call's arguments)
WRAPPED = (
    ("semigroup", "p_frobenius_scan", "semigroup.scan", None),
    ("semigroup", "p_sylvester_count", "semigroup.scan", None),
    ("semigroup", "_raw_counts", "semigroup.raw_counts",
     lambda args, kwargs: (args[1] if len(args) > 1 else kwargs["bound"]) + 1),
    ("families", "make_triple", "families.make", None),
    ("families", "make_quad", "families.make", None),
    ("families", "g_p_closed_triple", "families.closed", None),
    ("families", "g_p_closed_quad", "families.closed", None),
    ("families", "n_p_closed_triple", "families.closed", None),
    ("families", "g_p_two_gens", "families.closed", None),
    ("verify", "verify_grid", "verify.grid", None),
    ("verify", "verify_point", "verify.point", None),
    ("cli", "main", "cli.main", None),
)

PER_LAYER = (
    ("semigroup.scan_calls", "count"),
    ("semigroup.scan_s", "s"),
    ("semigroup.table_builds", "count"),
    ("semigroup.table_entries", "count"),
    ("semigroup.max_table_entries", "count"),
    ("families.closed_calls", "count"),
    ("families.closed_s", "s"),
    ("families.make_s", "s"),
    ("families.refusals", "count"),
    ("verify.grid_s", "s"),
    ("verify.point_s", "s"),
    ("verify.orchestration_s", "s"),
    ("verify.pool_s", "s"),
    ("verify.points", "count"),
    ("cli.main_s", "s"),
    ("cli.self_s", "s"),
)


class Tracer:
    """Span-recording wrappers for frobkit's public functions.

    The wrappers are made once; `install` and `uninstall` only swap module
    attributes, so a run can trace some operations and not others.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.tag = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        modules = [m for k, m in sys.modules.items()
                   if k == "frobkit" or k.startswith("frobkit.")]
        # `from .semigroup import p_frobenius_scan` copies the name into the
        # importing module, so every copy is patched. A name the package no
        # longer has is skipped, and its metrics read zero.
        for module, func, name, note in WRAPPED:
            original = getattr(sys.modules.get(f"frobkit.{module}"), func, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, note)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original, wrapper))

    def _wrap(self, name: str, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None,
                    note(args, kwargs) if note else None, self.tag]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "error",
                                  "note", "tag"], "spans": self.spans}, fh)

    def metrics(self, refusal_errors: set[str]) -> dict[str, float]:
        """Per-layer figures; `refusal_errors` names the typed refusals."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start

        # Spans tagged with a pass name come from an extra pass; only
        # verify.pool_s counts them.
        def spans_of(name, tag=""):
            return [(i, s) for i, s in enumerate(self.spans)
                    if s[0] == name and s[6] == tag]

        def total(name, tag=""):
            return sum(s[2] - s[1] for _, s in spans_of(name, tag))

        builds = [s[5] for _, s in spans_of("semigroup.raw_counts")]
        closed = spans_of("families.closed")
        point_s = total("verify.point")
        main = spans_of("cli.main")
        return {
            "semigroup.scan_calls": len(spans_of("semigroup.scan")),
            "semigroup.scan_s": total("semigroup.scan"),
            "semigroup.table_builds": len(builds),
            "semigroup.table_entries": sum(builds),
            "semigroup.max_table_entries": max(builds, default=0),
            "families.closed_calls": len(closed),
            "families.closed_s": sum(s[2] - s[1] for _, s in closed),
            "families.make_s": total("families.make"),
            "families.refusals": sum(s[4] in refusal_errors for _, s in closed),
            "verify.grid_s": total("verify.grid"),
            "verify.point_s": point_s,
            "verify.orchestration_s": total("verify.grid") - point_s,
            "verify.pool_s": total("verify.grid", "pool"),
            "verify.points": len(spans_of("verify.point")),
            "cli.main_s": sum(s[2] - s[1] for _, s in main),
            "cli.self_s": sum(s[2] - s[1] - child_time[i] for i, s in main),
        }
