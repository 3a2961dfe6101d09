"""Command-line front end. Exit codes: 0 ok, 2 parse or domain error, 3 dimension, 4 capacity."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import CapacityError, DimensionError, DomainError, ParseError
from .functions import format_bf, parse_bf
from .gf2 import format_matrix, parse_matrix
from .operators import (
    Basis,
    _cardlex_rows,
    apply_operator,
    change_operator_basis,
    format_digraph,
    format_operator,
    operator_digraph,
    operator_matrix,
    operator_rank_profile,
    parse_digraph,
)
from .products import jordan_digraph, multiplication_table, product


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text (byte {exc.start})") from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise ParseError(f"cannot write {out}: {exc.strerror or exc}") from None


def _basis_arg(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument("--basis", choices=["ms", "md", "xs", "xd"], required=required,
                        default=None if required else "ms")


def _cmd_product(args: argparse.Namespace) -> int:
    a = parse_digraph(_read(args.a))
    b = parse_digraph(_read(args.b))
    result = product(a, b, Basis.from_string(args.basis), route=args.route)
    _emit(format_digraph(result), args.out)
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    a = parse_digraph(_read(args.a))
    result = change_operator_basis(a, Basis.from_string(args.from_basis), Basis.from_string(args.to_basis))
    _emit(format_digraph(result), args.out)
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    a = parse_digraph(_read(args.a))
    _emit(format_matrix(operator_matrix(a, Basis.from_string(args.basis))), args.out)
    return 0


def _cmd_digraph(args: argparse.Namespace) -> int:
    m = parse_matrix(_read(args.matrix))
    _emit(format_digraph(operator_digraph(m, Basis.from_string(args.basis))), args.out)
    return 0


def _cmd_apply(args: argparse.Namespace) -> int:
    a = parse_digraph(_read(args.a))
    f = parse_bf(_read(args.function))
    _emit(format_bf(apply_operator(a, Basis.from_string(args.basis), f)), args.out)
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    a = parse_digraph(_read(args.a))
    rank, image, kernel = operator_rank_profile(a, Basis.from_string(args.basis))
    _emit(f"rank={rank} image={image} kernel={kernel}\n", args.out)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    table = multiplication_table(args.n, Basis.from_string(args.basis))
    _emit(table.to_tsv(), args.out)
    return 0


def _cmd_jordan(args: argparse.Namespace) -> int:
    basis = Basis.from_string(args.basis)
    _emit(format_operator(jordan_digraph(args.n, basis), basis) + "\n", args.out)
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    a = parse_digraph(_read(args.a))
    lines = ["x\ty\tmarker"]

    def rows(g, marker):
        for i, _, js in _cardlex_rows(g):
            lines.extend(f"{i}\t{j}\t{marker}" for j in js)

    if args.b is None:
        rows(a, "point")
    else:
        b = parse_digraph(_read(args.b))
        prod = product(a, b, Basis.from_string(args.basis), route=args.route)
        rows(a, "triangle")
        rows(b, "circle")
        rows(prod, "star")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="booldiff",
        description="Digraph calculus for linear operators on Boolean functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", help="multiply two digraphs in a basis")
    p.add_argument("a")
    p.add_argument("b")
    _basis_arg(p)
    p.add_argument("--route", choices=["direct", "matrix", "auto"], default="auto")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("convert", help="re-express a digraph in another basis")
    p.add_argument("a")
    p.add_argument("--from", dest="from_basis", choices=["ms", "md", "xs", "xd"], required=True)
    p.add_argument("--to", dest="to_basis", choices=["ms", "md", "xs", "xd"], required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("matrix", help="matrix of a digraph's operator")
    p.add_argument("a")
    _basis_arg(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("digraph", help="digraph of a matrix's operator")
    p.add_argument("matrix")
    _basis_arg(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_digraph)

    p = sub.add_parser("apply", help="apply a digraph's operator to a function")
    p.add_argument("a")
    p.add_argument("function")
    _basis_arg(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("rank", help="rank, image size and kernel size")
    p.add_argument("a")
    _basis_arg(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("table", help="full multiplication table (n <= 1)")
    p.add_argument("-n", type=int, required=True)
    _basis_arg(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("jordan", help="Jordan-block operator expression")
    p.add_argument("-n", type=int, required=True)
    _basis_arg(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_jordan)

    p = sub.add_parser("render", help="TSV scatter rows for digraphs and their product")
    p.add_argument("a")
    p.add_argument("b", nargs="?", default=None)
    _basis_arg(p, required=False)
    p.add_argument("--route", choices=["direct", "matrix", "auto"], default="auto")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DimensionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
