"""Command-line interface.

Exit codes: 0 on success, 1 on domain errors (invalid tables, parse
failures, out-of-range arguments), 2 on usage errors, and 1 with no
message when the reader of stdout closes it early, as ``| head`` does.
Results go to stdout, error messages to stderr.  The only environment
variable read is BCK_ENUM_BUDGET, which overrides the enumeration budget.
The parser is built once per process, on main's first call, never at import.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import classify
from .bckfile import _TooLarge, emit_bck, emit_hasse_dot, parse_bck, parse_decimal
from .construct import (
    _cd_range,
    b_star,
    extend_top,
    m_chain,
    parse_expr,
    synthesize,
    trace_family_index,
    union,
)
from .core import BckAlgebra, _excerpt, _shown, find_violation, validate


def _read_table(path: str):
    return parse_bck(Path(path).read_text())


def _read_algebra(path: str) -> BckAlgebra:
    return validate(_read_table(path))


def _write_algebra(algebra: BckAlgebra, out: str | None) -> None:
    text = emit_bck(algebra.table)
    if out is None:
        print(text, end="")
    else:
        Path(out).write_text(text)


def _degree_line(k: int, n: int, sep: str = " = ") -> str:
    """k commuting pairs at order n as a degree, e.g. ``14/16 = 7/8``."""
    degree = Fraction(k, n * n)
    return f"{k}/{n * n}{sep}{degree.numerator}/{degree.denominator}"


def cmd_verify(args) -> int:
    violation = find_violation(_read_table(args.file))
    if violation is None:
        print("valid")
        return 0
    print(str(violation))
    return 1


def cmd_cd(args) -> int:
    report = _read_algebra(args.file).commuting_report()
    print(_degree_line(report.pair_count, report.order))
    return 0


def cmd_props(args) -> int:
    algebra = _read_algebra(args.file)
    print(f"commutative: {'true' if algebra.is_commutative() else 'false'}")
    top = algebra.top()
    print(f"bounded: {f'true (top={top})' if top is not None else 'false'}")
    pi = algebra.is_positive_implicative()
    print(f"positive-implicative: {'true' if pi else 'false'}")
    return 0


def cmd_build(args) -> int:
    algebra = m_chain(args.n) if args.kind == "mn" else b_star(args.n)
    _write_algebra(algebra, args.output)
    return 0


def cmd_eval(args) -> int:
    _write_algebra(parse_expr(args.expr).evaluate(), args.output)
    return 0


def cmd_op_extend(args) -> int:
    _write_algebra(extend_top(_read_algebra(args.file)), args.output)
    return 0


def cmd_op_union(args) -> int:
    parts = [_read_algebra(path) for path in args.files]
    _write_algebra(union(*parts), args.output)
    return 0


def cmd_cdset(args) -> int:
    """Stream each degree at order n, led by its family expression under ``--exprs``."""
    numerators = _cd_range(args.n)
    try:
        str(args.n * args.n)  # every line prints n*n
    except ValueError:  # past Python's digit limit for printing an int
        raise ValueError(
            f"order {_shown(args.n)} too large: n*n has "
            f"more than {sys.get_int_max_str_digits()} digits"
        ) from None
    for j, k in enumerate(numerators, start=1):
        line = _degree_line(k, args.n)
        if args.exprs:
            line = f"{trace_family_index(args.n, j)}  {line}"
        print(line)
    return 0


def cmd_synth(args) -> int:
    parts = args.fraction.split("/")
    if len(parts) != 2:
        raise ValueError(f"expected P/Q, got {_excerpt(args.fraction)}")
    values = []  # a malformed part is named before a part past the digit limit
    for part in parts:
        try:
            values.append(parse_decimal(part))
        except _TooLarge:
            values.append(None)
        except ValueError:
            raise ValueError(f"expected integers in P/Q, got {_excerpt(args.fraction)}") from None
    if None in values:
        raise ValueError(f"P/Q too large: {_excerpt(args.fraction)}")
    p, q = values
    result = synthesize(p, q)
    if result.escalated:
        print(
            f"note: order {2 * result.target.denominator} is too small for "
            f"this degree; escalated to order {result.order}"
        )
    print(f"order: {result.order}")
    print(f"k: {result.pair_count}")
    print(f"index: {result.index if result.index is not None else '-'}")
    print(f"expression: {result.expression}")
    print(_degree_line(result.order**2 - 2 * result.pair_count, result.order))
    if args.output is not None:
        _write_algebra(result.algebra, args.output)
    return 0


def _enum_budget() -> int | None:
    value = os.environ.get("BCK_ENUM_BUDGET")
    if not value:
        return None
    try:
        budget = parse_decimal(value)
    except ValueError:
        budget = 0
    if budget < 1:
        shown = _excerpt(value)
        raise ValueError(f"BCK_ENUM_BUDGET must be a positive integer, got {shown}")
    return budget


def _order(text: str) -> int:
    """An order argument, read by :func:`parse_decimal`, with a long text
    named by a prefix in the usage error."""
    try:
        return parse_decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_excerpt(text)}") from None


def _flags(algebra: BckAlgebra) -> str:
    flags = []
    if algebra.is_commutative():
        flags.append("commutative")
    if algebra.is_bounded():
        flags.append("bounded")
    if algebra.is_positive_implicative():
        flags.append("positive-implicative")
    return ",".join(flags) if flags else "-"


def cmd_enum(args) -> int:
    algebras = classify.enumerate_algebras(args.n, budget=_enum_budget())
    if args.noncommutative:
        algebras = [a for a in algebras if not a.is_commutative()]
    if args.count_only:
        print(len(algebras))
        return 0
    if args.output is not None:
        directory = Path(args.output)
        directory.mkdir(parents=True, exist_ok=True)
        width = max(4, len(str(len(algebras))))
        manifest = ["index\traw\tdegree\tflags"]
        for i, algebra in enumerate(algebras, start=1):
            name = f"{i:0{width}d}"
            (directory / f"{name}.bck").write_text(emit_bck(algebra.table))
            degree = _degree_line(algebra.commuting_report().pair_count, args.n, "\t")
            manifest.append(f"{name}\t{degree}\t{_flags(algebra)}")
        (directory / "manifest.tsv").write_text("\n".join(manifest) + "\n")
        print(f"wrote {len(algebras)} classes to {directory}")
        return 0
    for i, algebra in enumerate(algebras, start=1):
        degree = _degree_line(algebra.commuting_report().pair_count, args.n)
        print(f"{i:04d}  {degree}  {_flags(algebra)}")
    return 0


def cmd_census(args) -> int:
    census = classify.degree_census(args.n, budget=_enum_budget())
    nn = args.n * args.n
    for degree in sorted(census):
        k = degree.numerator * (nn // degree.denominator)
        print(f"{_degree_line(k, args.n)}: {census[degree]}")
    return 0


def cmd_iso(args) -> int:
    witness = classify.find_isomorphism(
        _read_algebra(args.file_a), _read_algebra(args.file_b)
    )
    if witness is None:
        print("not isomorphic")
    else:
        print(" ".join(str(v) for v in witness))
    return 0


def cmd_subalg(args) -> int:
    subset = classify.find_maximal_subalgebra(_read_algebra(args.file))
    print(" ".join(str(v) for v in subset))
    return 0


def cmd_hasse(args) -> int:
    print(emit_hasse_dot(_read_algebra(args.file)), end="")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bck",
        description="Construct, validate, classify, and enumerate finite BCK-algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the BCK axioms on a table file")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("cd", help="print the exact commuting degree")
    p.add_argument("file")
    p.set_defaults(func=cmd_cd)

    p = sub.add_parser("props", help="print commutative/bounded/positive-implicative flags")
    p.add_argument("file")
    p.set_defaults(func=cmd_props)

    p = sub.add_parser("build", help="write a chain (mn) or maximal-degree (bn) algebra")
    p.add_argument("kind", choices=("mn", "bn"))
    p.add_argument("n", type=_order)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("eval", help="evaluate a construction expression")
    p.add_argument("expr")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("op", help="apply a construction to table files")
    opsub = p.add_subparsers(dest="operation", required=True)
    q = opsub.add_parser("extend", help="adjoin a new top element")
    q.add_argument("file")
    q.add_argument("-o", "--output")
    q.set_defaults(func=cmd_op_extend)
    q = opsub.add_parser("union", help="glue algebras at their shared 0")
    q.add_argument("files", nargs="+")
    q.add_argument("-o", "--output")
    q.set_defaults(func=cmd_op_union)

    p = sub.add_parser("family", help="list constructions covering every degree at order N")
    p.add_argument("n", type=_order)
    p.add_argument("--exprs", action="store_true")
    p.set_defaults(func=cmd_cdset)

    p = sub.add_parser("cdset", help="list all achievable non-commutative degrees at order N")
    p.add_argument("n", type=_order)
    p.set_defaults(func=cmd_cdset, exprs=False)

    p = sub.add_parser("synth", help="build an algebra with commuting degree exactly P/Q")
    # argparse takes an argument for a negative number, and not for an
    # option, by this pattern; widened, it lets a P/Q such as -3/12 reach
    # cmd_synth, which names it
    p._negative_number_matcher = re.compile(r"-\d")
    p.add_argument("fraction", metavar="P/Q")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("enum", help="enumerate isomorphism classes of order N")
    p.add_argument("n", type=_order)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--noncommutative", action="store_true")
    p.add_argument("-o", "--output", metavar="DIR")
    p.set_defaults(func=cmd_enum)

    p = sub.add_parser("census", help="tally isomorphism classes by commuting degree")
    p.add_argument("n", type=_order)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("iso", help="find an isomorphism witness between two tables")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("subalg", help="find a maximal subalgebra's element set")
    p.add_argument("file")
    p.set_defaults(func=cmd_subalg)

    p = sub.add_parser("hasse", help="print the Hasse diagram as DOT")
    p.add_argument("file")
    p.set_defaults(func=cmd_hasse)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; the parser is built on the first call, then reused."""
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout now writes to /dev/null, so that flushing it at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:  # the domain errors subclass ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
