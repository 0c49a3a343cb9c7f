"""Command-line surface: compute, apery, verify, and table subcommands.

Every g_p and n_p printed is a closed form (`closed_or_refusal`) or, where
that refuses, read from the residue-class engine.

Exit codes are a stable contract: 0 success/agreement, 1 verification or
method mismatch, 2 invalid input, 3 resource limit, and 141 when the reader
of stdout closes it early (as SIGPIPE would). JSON output renders all
numbers as decimal strings to preserve arbitrary precision.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import os
import re
import sys
from dataclasses import asdict

from .errors import FrobkitError, InvalidInputError, ResourceLimitError
from .families import (
    ShiftedGeometricFamily,
    apery_grid_triple,
    case_tag,
    closed_or_refusal,
    grid_digits,
    make_quad,
    make_triple,
    past_digit_limit,
)
from .semigroup import (
    GeneratorTuple,
    apery_set,
    cap_error,
    read_apery,
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
    try:
        return int(m.group(1)), int(m.group(2))
    except ValueError:  # a bound past Python's str-to-int digit limit
        raise InvalidInputError(
            f"a range bound has more than {sys.get_int_max_str_digits()} digits"
        ) from None


#: Encodes a flat list of scalars with the C encoder. ensure_ascii escapes
#: "\x00" inside strings, so the raw "\x00" between items splits the tokens.
_SCALARS = json.JSONEncoder(separators=("\x00", ": "))
_PLAIN = frozenset((str, int, float, bool, type(None)))
_encode_key = json.encoder.encode_basestring_ascii


def _layout(obj, nl: str, scalars: list) -> str:
    """obj as `json.dumps(obj, indent=2)` lays it out, with "%s" per scalar.

    nl is the newline and indent of obj's own line; the scalars go to
    `scalars` in output order. A list of plain dicts that share one key
    order and hold plain scalars only is laid out as one repeated record.
    """
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = nl + "  "
        items = [
            f"{_encode_key(key).replace('%', '%%')}: {_layout(value, inner, scalars)}"
            for key, value in obj.items()
        ]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if not isinstance(obj, (list, tuple)):
        scalars.append(obj)
        return "%s"
    if not obj:
        return "[]"
    inner = nl + "  "
    values = obj
    kinds = set(map(type, obj))
    if kinds == {dict} and len(set(map(tuple, obj))) == 1:
        values = list(itertools.chain.from_iterable(map(dict.values, obj)))
        kinds = set(map(type, values))
    if kinds <= _PLAIN:
        scalars.extend(values)
        # With plain values, the first record's layout is every record's.
        item = "%s" if values is obj else _layout(obj[0], inner, [])
        items = [item] * len(obj)
    else:
        items = [_layout(item, inner, scalars) for item in obj]
    return "[" + inner + ("," + inner).join(items) + nl + "]"


def _dumps(obj) -> str:
    """`json.dumps(obj, indent=2)`, byte for byte, with one C-encoder call.

    The containers are walked into one "%" layout, every scalar is encoded
    in one call to the C encoder, and one "%" fills the layout. Every key
    must be a str and obj must not contain itself; a key that is not a str
    raises TypeError, as a value the encoder cannot take does.
    """
    scalars: list = []
    layout = _layout(obj, "\n", scalars)
    tokens = _SCALARS.encode(scalars)[1:-1].split("\x00") if scalars else []
    return layout % tuple(tokens)


def _emit_json(obj: dict) -> None:
    print(_dumps(obj))


def _emit_csv(rows: list[list[str]]) -> None:
    csv.writer(sys.stdout, lineterminator="\n").writerows(rows)


def _digit_limit_error() -> ResourceLimitError:
    return ResourceLimitError(
        f"a value has more than {sys.get_int_max_str_digits()} digits, "
        "Python's int-to-str limit"
    )


def _make_family(args) -> ShiftedGeometricFamily:
    abcn = args.a, args.b, args.c, args.n
    if past_digit_limit(*abcn):  # its generators could not be printed anyway
        raise _digit_limit_error()
    make = make_triple if args.vars == 3 else make_quad
    return make(*abcn)


def _decomposition_fields(params: ShiftedGeometricFamily) -> dict[str, str]:
    names = ("q", "r") if params.k == 3 else ("alpha", "beta", "gamma")
    return dict(zip(names, map(str, params.digits)))


def cmd_compute(args) -> int:
    params = _make_family(args)
    decomp = _decomposition_fields(params)
    case = case_tag(params)
    closed = oracle = closed_error = agreement = None
    method_used = args.method
    if args.method in ("closed", "both"):
        closed, closed_error = closed_or_refusal(params, args.quantity, args.p)
    if args.method != "closed" or closed is None:
        try:
            g_p, n_p = read_apery(params.gens, apery_set(params.gens, args.p))
        except ResourceLimitError:
            raise cap_error(args.p) from None
        oracle = g_p if args.quantity == "frobenius" else n_p
    if closed is None and args.method == "closed":
        method_used = "oracle-fallback"
    elif closed is not None and args.method == "both":
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
    params = None
    if args.gens is not None:
        gens = _parse_gens(args.gens)
    else:
        if None in (args.a, args.b, args.c, args.n):
            raise InvalidInputError("provide either --gens or all of --a --b --c --n")
        params = _make_family(args)
        gens = params.gens
    if args.grid:
        if params is None or params.k != 3:
            raise InvalidInputError("--grid requires the three-term family flags")
        grid_digits(params, args.p)  # refuses a grid request before the engine runs
    entries = apery_set(gens, args.p)
    positions = apery_grid_triple(params, args.p) if args.grid else None
    if positions is not None:
        _, a2, a3 = gens.gens
        values = [x2 * a2 + x3 * a3 for x2, x3 in positions]
        # Each entry is the only one of its residue class, so equal sorted
        # lists mean every class holds the same value in both.
        if sorted(values) != sorted(entries):
            print("grid/apery value mismatch", file=sys.stderr)
            return EXIT_MISMATCH

    if args.format == "json":
        obj = {
            "generators": [str(g) for g in gens],
            "p": str(args.p),
            "entries": [str(e) for e in entries],
            "max_entry": str(max(entries)),
        }
        if positions is not None:
            obj["positions"] = [[str(x2), str(x3)] for x2, x3 in positions]
            obj["residue_unit"] = str(a2 % gens.a1)  # a2 = (b - 1)c mod a1
        _emit_json(obj)
    else:
        print("generators:", " ".join(str(g) for g in gens))
        print(f"p={args.p}  entries by residue mod {gens.a1}:")
        for j, e in enumerate(entries):
            print(f"  {j}: {e}")
        print(f"max entry: {max(entries)}")
        if positions is not None:
            print(f"positions ({len(positions)}):")
            for (x2, x3), v in zip(positions, values):
                print(f"  ({x2}, {x3}) -> {v}")
            print("grid values match the generic Apery set")
    return EXIT_OK


def cmd_verify(args) -> int:
    policy: str | int = args.p_policy
    if policy != "theorem-range":
        try:
            policy = int(policy)
        except ValueError:
            raise InvalidInputError(
                f"--p-policy must be 'theorem-range' or an integer, got {policy!r}"
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
        print(" ".join(f"{k}={v}" for k, v in asdict(report.summary).items()))
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
            closed, _ = closed_or_refusal(params, quantity, p)
            if closed is None:
                if oracle is None:
                    oracle = scan_p_range(params.gens, args.p_max)
                row += [require_row(oracle, p)[i], "oracle"]
            else:
                row += [closed, "closed"]
        rows.append(row)

    header = ["p", "g", "g_method", "n", "n_method"]
    # Every number is rendered before any output, so a value past Python's
    # int-to-str digit limit stops the command with nothing printed.
    gens = [str(g) for g in params.gens]
    cells = [list(map(str, row)) for row in rows]
    if args.format == "json":
        _emit_json(
            {"generators": gens, "rows": [dict(zip(header, row)) for row in cells]}
        )
    elif args.format == "csv":
        _emit_csv([header] + cells)
    else:
        print("generators:", " ".join(gens))
        print(f"{'p':>4} {'g_p':>14} {'method':>8} {'n_p':>14} {'method':>8}")
        for p, g, gm, n, nm in cells:
            print(f"{p:>4} {g:>14} {gm:>8} {n:>14} {nm:>8}")
    return EXIT_OK


def _add_family_flags(sub, required: bool = True) -> None:
    sub.add_argument("--a", type=int, required=required)
    sub.add_argument("--b", type=int, required=required)
    sub.add_argument("--c", type=int, required=required)
    sub.add_argument("--n", type=int, required=required)
    sub.add_argument("--vars", type=int, choices=(3, 4), default=3)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The frobkit parser, built once per process; parsing leaves it unchanged."""
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
    for tok in argv:
        if out and out[-1] in _RANGE_FLAGS and _RANGE_RE.match(tok):
            out[-1] += f"={tok}"
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_merge_range_flags(argv))
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
    except ValueError as exc:
        # str() of an int past sys.get_int_max_str_digits() raises a plain
        # ValueError; every supported Python words it with this phrase. Each
        # parse of input text turns its own ValueError into InvalidInputError,
        # so only printing a value gets here.
        if "integer string conversion" not in str(exc):
            raise
        print(f"error: {_digit_limit_error()}", file=sys.stderr)
        return EXIT_RESOURCE


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
