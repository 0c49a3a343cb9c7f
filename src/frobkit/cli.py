"""Command-line surface: compute, apery, verify, and table subcommands.

Exit codes are a stable contract: 0 success/agreement, 1 verification or
method mismatch, 2 invalid input, 3 resource limit, and 141 when the reader
of stdout closes it early (as SIGPIPE would). JSON output renders all
numbers as decimal strings to preserve arbitrary precision.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys

from .errors import FrobkitError, InvalidInputError, ResourceLimitError
from .families import (
    CLOSED_ERROR_TAGS,
    CLOSED_ERRORS,
    ShiftedGeometricFamily,
    apery_grid_triple,
    case_tag,
    closed_value,
    digit_decompose,
    make_quad,
    make_triple,
)
from .semigroup import (
    GeneratorTuple,
    apery_set,
    p_frobenius_scan,
    p_sylvester_count,
    require_row,
    scan_p_range,
)
from .verify import SweepSpec, verify_grid

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: stdout was closed by its reader

_RANGE_RE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")


def _parse_range(text: str) -> tuple[int, int]:
    m = _RANGE_RE.match(text)
    if not m:
        raise InvalidInputError(f"malformed range {text!r}, expected LO..HI")
    return int(m.group(1)), int(m.group(2))


def _emit_json(obj: dict) -> None:
    print(json.dumps(obj, indent=2))


def _emit_csv(rows: list[list[str]]) -> None:
    csv.writer(sys.stdout, lineterminator="\n").writerows(rows)


def _make_family(args) -> ShiftedGeometricFamily:
    make = make_triple if args.vars == 3 else make_quad
    return make(args.a, args.b, args.c, args.n)


def _decomposition_fields(params: ShiftedGeometricFamily) -> dict[str, str]:
    names = ("q", "r") if params.k == 3 else ("alpha", "beta", "gamma")
    return dict(zip(names, map(str, digit_decompose(params))))


def cmd_compute(args) -> int:
    params = _make_family(args)
    decomp = _decomposition_fields(params)
    case = case_tag(params)
    closed = oracle = None
    closed_error = None
    method_used = args.method
    if args.method in ("closed", "both"):
        try:
            closed = closed_value(params, args.quantity, args.p)
        except CLOSED_ERRORS as exc:
            closed_error = CLOSED_ERROR_TAGS[type(exc)]
    if args.method != "closed" or closed is None:
        scan = p_frobenius_scan if args.quantity == "frobenius" else p_sylvester_count
        oracle = scan(params.gens, args.p)
    if args.method == "closed" and closed is None:
        method_used = "oracle-fallback"

    agreement = None
    if args.method == "both" and closed is not None:
        agreement = closed == oracle

    obj = {
        "generators": [str(g) for g in params.gens],
        **decomp,
        "case": case,
        "quantity": args.quantity,
        "p": str(args.p),
        "method": method_used,
        "closed": None if closed is None else str(closed),
        "closed_error": closed_error,
        "oracle": None if oracle is None else str(oracle),
        "agreement": agreement,
    }
    if args.format == "json":
        _emit_json(obj)
    else:
        redundant = params.gens.redundant_generators()
        print("generators:", " ".join(str(g) for g in params.gens))
        print(" ".join(f"{k}={v}" for k, v in decomp.items()))
        if case is not None:
            print(f"case: {case}")
        if redundant:
            print(
                "note: generator(s) representable by the others:",
                " ".join(str(g) for g in redundant),
            )
        label = "g_p" if args.quantity == "frobenius" else "n_p"
        if closed is not None:
            print(f"closed {label}({args.p}) = {closed}")
        elif closed_error is not None:
            print(f"closed: {closed_error}")
        if oracle is not None:
            tag = "oracle-fallback" if method_used == "oracle-fallback" else "oracle"
            print(f"{tag} {label}({args.p}) = {oracle}")
        if agreement is not None:
            print("agreement:", "ok" if agreement else "MISMATCH")
    if agreement is False:
        return EXIT_MISMATCH
    return EXIT_OK


def _parse_gens(text: str) -> GeneratorTuple:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InvalidInputError(f"malformed generator list {text!r}") from None
    return GeneratorTuple(values)


def cmd_apery(args) -> int:
    grid = params = None
    if args.gens is not None:
        gens = _parse_gens(args.gens)
    else:
        if None in (args.a, args.b, args.c, args.n):
            raise InvalidInputError("provide either --gens or all of --a --b --c --n")
        params = _make_family(args)
        gens = params.gens
    table = apery_set(gens, args.p)
    if args.grid:
        if params is None or params.k != 3:
            raise InvalidInputError("--grid requires the three-term family flags")
        grid = apery_grid_triple(params, args.p)
        if grid.entries_by_residue() != table.entries:
            print("grid/apery value mismatch", file=sys.stderr)
            return EXIT_MISMATCH

    if args.format == "json":
        obj = {
            "generators": [str(g) for g in gens],
            "p": str(args.p),
            "entries": [str(e) for e in table.entries],
            "max_entry": str(table.max_entry()),
        }
        if grid is not None:
            obj["positions"] = [
                [str(x2), str(x3)] for x2, x3 in sorted(grid.positions)
            ]
            obj["residue_unit"] = str(grid.residue_unit)
        _emit_json(obj)
    else:
        print("generators:", " ".join(str(g) for g in gens))
        print(f"p={args.p}  entries by residue mod {gens.a1}:")
        for j, e in enumerate(table.entries):
            print(f"  {j}: {e}")
        print(f"max entry: {table.max_entry()}")
        if grid is not None:
            print(f"positions ({len(grid.positions)}):")
            for x2, x3 in sorted(grid.positions):
                print(f"  ({x2}, {x3}) -> {grid.value_at((x2, x3))}")
            print("grid values match the generic Apery set")
    return EXIT_OK


def cmd_verify(args) -> int:
    policy: str | int
    if args.p_policy == "theorem-range":
        policy = "theorem-range"
    else:
        try:
            policy = int(args.p_policy)
        except ValueError:
            raise InvalidInputError(
                f"--p-policy must be 'theorem-range' or an integer, got {args.p_policy!r}"
            ) from None
    spec = SweepSpec(
        a_range=_parse_range(args.a_range),
        b_range=_parse_range(args.b_range),
        c_range=_parse_range(args.c_range),
        n_range=_parse_range(args.n_range),
        vars=args.vars,
        p_policy=policy,
        sample_seed=args.seed,
        sample_limit=args.limit,
    )
    report = verify_grid(spec, workers=args.workers)
    if args.format == "json":
        _emit_json(report.to_json_obj())
    elif args.format == "csv":
        _emit_csv(report.to_csv_rows())
    else:
        s = report.summary
        print(
            f"total={s.total} matched={s.matched} mismatched={s.mismatched} "
            f"skipped_gcd={s.skipped_gcd} no_case={s.no_case} "
            f"out_of_range={s.out_of_range} skipped_large={s.skipped_large} "
            f"resource_limit={s.resource_limit}"
        )
        for pt in report.points:
            if pt.outcome == "mismatched":
                print(
                    f"MISMATCH a={pt.a} b={pt.b} c={pt.c} n={pt.n} p={pt.p}: "
                    f"closed={pt.closed} oracle={pt.oracle}"
                )
    return EXIT_OK if report.passed() else EXIT_MISMATCH


def cmd_table(args) -> int:
    if args.p_max < 0:
        raise InvalidInputError(f"--p-max must be >= 0, got {args.p_max}")
    params = _make_family(args)
    # The cells the closed forms refuse share one oracle pass, made at the
    # first refusal; the first refused p that the table cap stops ends it.
    oracle = None
    rows = []
    for p in range(args.p_max + 1):
        row: list = [p]
        for i, quantity in enumerate(("frobenius", "sylvester")):
            try:
                row += [closed_value(params, quantity, p), "closed"]
            except CLOSED_ERRORS:
                if oracle is None:
                    oracle = scan_p_range(params.gens, args.p_max)
                row += [require_row(oracle[p], p)[i], "oracle"]
        rows.append(row)

    header = ["p", "g", "g_method", "n", "n_method"]
    if args.format == "json":
        _emit_json(
            {
                "generators": [str(g) for g in params.gens],
                "rows": [dict(zip(header, map(str, row))) for row in rows],
            }
        )
    elif args.format == "csv":
        _emit_csv([header] + [list(map(str, row)) for row in rows])
    else:
        print("generators:", " ".join(str(g) for g in params.gens))
        print(f"{'p':>4} {'g_p':>14} {'method':>8} {'n_p':>14} {'method':>8}")
        for p, g, gm, n, nm in rows:
            print(f"{p:>4} {g:>14} {gm:>8} {n:>14} {nm:>8}")
    return EXIT_OK


def _add_family_flags(sub, required: bool = True) -> None:
    sub.add_argument("--a", type=int, required=required)
    sub.add_argument("--b", type=int, required=required)
    sub.add_argument("--c", type=int, required=required)
    sub.add_argument("--n", type=int, required=required)
    sub.add_argument("--vars", type=int, choices=(3, 4), default=3)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frobkit",
        description=(
            "p-Frobenius / p-Sylvester numbers, denumerants and Apery sets "
            "for numerical semigroups, with closed forms for shifted "
            "geometric generator families"
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    compute = subs.add_parser("compute", help="closed form and/or oracle at one point")
    _add_family_flags(compute)
    compute.add_argument("--p", type=int, required=True)
    compute.add_argument(
        "--quantity", choices=("frobenius", "sylvester"), default="frobenius"
    )
    compute.add_argument("--method", choices=("closed", "oracle", "both"), default="both")
    compute.add_argument("--format", choices=("text", "json"), default="text")
    compute.set_defaults(func=cmd_compute)

    apery = subs.add_parser("apery", help="Apery set entries (and position grid)")
    _add_family_flags(apery, required=False)
    apery.add_argument("--gens", type=str, default=None, help="comma-separated generators")
    apery.add_argument("--p", type=int, required=True)
    apery.add_argument("--grid", action="store_true")
    apery.add_argument("--format", choices=("text", "json"), default="text")
    apery.set_defaults(func=cmd_apery)

    verify = subs.add_parser("verify", help="sweep closed forms against the oracle")
    verify.add_argument("--a-range", default="1..3")
    verify.add_argument("--b-range", default="2..4")
    verify.add_argument("--c-range", default="1..10")
    verify.add_argument("--n-range", default="1..2")
    verify.add_argument("--vars", type=int, choices=(3, 4), default=3)
    verify.add_argument("--p-policy", default="theorem-range")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--limit", type=int, default=None)
    verify.add_argument("--workers", type=int, default=1)
    verify.add_argument("--format", choices=("text", "json", "csv"), default="text")
    verify.set_defaults(func=cmd_verify)

    table = subs.add_parser("table", help="tabulate g_p and n_p over p")
    _add_family_flags(table)
    table.add_argument("--p-max", type=int, required=True)
    table.add_argument("--format", choices=("text", "json", "csv"), default="text")
    table.set_defaults(func=cmd_table)

    return parser


_RANGE_FLAGS = ("--a-range", "--b-range", "--c-range", "--n-range")


def _merge_range_flags(argv: list[str]) -> list[str]:
    # argparse would mistake a leading-minus range value (-10..-1) for a flag;
    # join such pairs into --flag=value form before parsing.
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (
            tok in _RANGE_FLAGS
            and i + 1 < len(argv)
            and _RANGE_RE.match(argv[i + 1])
        ):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(_merge_range_flags(list(argv)))
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except FrobkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe raises here, not at shutdown
    except BrokenPipeError:
        # Point stdout at devnull so that the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
