"""Linear operators on Boolean functions, represented by digraphs on P[n].

A digraph A (a set of edges (c, d) in P[n] x P[n]) encodes the operator
obtained by summing one building-block term per edge.  Four bases are
supported, named by the pair of factor families used:

* ms -- point mask times shift:        sum of m^c s^d
* md -- point mask times derivative:   sum of m^c del^d
* xs -- up-set mask times shift:       sum of x^c s^d
* xd -- up-set mask times derivative:  sum of x^c del^d

Each basis is a linear isomorphism between digraphs (as GF(2) edge grids)
and 2^n x 2^n matrices acting on truth vectors in the point basis; both
directions are closed-form subset sums and invert each other exactly.

A ``Digraph`` stores only its mask-indexed row grid ``rows`` (bit d of row c
is the edge (c, d)), which is also the layout every transform here works on;
the edge set ``edges`` is derived from it on demand.  Card-lex indexing
appears only on the public Gf2Matrix boundary and in text formats.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress, repeat
from typing import Callable, Iterable, Iterator

from .errors import DimensionError, DomainError, ParseError
from .functions import BooleanFunction, _derivative, _from_packed, _packed
from .gf2 import Gf2Matrix, mat_rank
from .lattice import (
    _shift,
    _upset,
    bits_of,
    format_subset,
    parse_decimal,
    parse_subset,
    shift_packed,
    tables,
    validate_dimension,
    validate_subset,
)


class Basis(enum.Enum):
    """Which factor pair a digraph's edges are read in."""

    MS = "ms"
    MD = "md"
    XS = "xs"
    XD = "xd"

    @classmethod
    def from_string(cls, text: str) -> Basis:
        try:
            return cls(text.lower())
        except ValueError:
            raise DomainError(f"unknown basis {text!r}; expected ms, md, xs or xd") from None


_POINT_BASES = (Basis.MS, Basis.MD)
_SHIFT_BASES = (Basis.MS, Basis.XS)


@dataclass(frozen=True)
class Digraph:
    """A set of edges on P[n]; when plotted, the edge (c, d) runs from d to c.

    ``rows`` is the mask-indexed grid: bit d of ``rows[c]`` says whether
    (c, d) is an edge.  Build from an edge list with ``from_edges``.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        validate_dimension(self.n)
        size = 1 << self.n
        if not isinstance(self.rows, tuple) or len(self.rows) != size:
            raise DomainError(f"a digraph on [{self.n}] needs a tuple of {size} rows")
        for row in self.rows:
            if not isinstance(row, int) or row < 0 or row >> size:
                raise DomainError(f"row {row!r} is not a set of subsets of [{self.n}]")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Digraph:
        validate_dimension(n)
        rows = [0] * (1 << n)
        for c, d in edges:
            validate_subset(c, n)
            validate_subset(d, n)
            rows[c] |= 1 << d
        return cls(n, tuple(rows))

    @classmethod
    def empty(cls, n: int) -> Digraph:
        validate_dimension(n)
        return cls(n, (0,) * (1 << n))

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edge set (c, d), derived from ``rows``."""
        return frozenset(_edge_pairs(self))

    def contains(self, c: int, d: int) -> bool:
        size = len(self.rows)
        return 0 <= c < size and 0 <= d < size and self.rows[c] >> d & 1 == 1


_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _edge_pairs(a: Digraph) -> list[tuple[int, int]]:
    """The edges (c, d) in mask order of c, then of d."""
    size = len(a.rows)
    spec = f"0{size}b"
    # Byte d of a row's flags is bit d of the row.  A tuple, not a range, so
    # every edge shares one int object per d.
    positions = tuple(range(size))
    pairs: list[tuple[int, int]] = []
    for c, row in enumerate(a.rows):
        if row:
            flags = format(row, spec)[::-1].encode().translate(_BIT_FLAGS)
            pairs.extend(zip(repeat(c), compress(positions, flags)))
    return pairs


def _cardlex_rows(a: Digraph) -> Iterator[tuple[int, list[int]]]:
    """(c, the card-lex positions of d for the edges (c, d)) per non-empty row, c card-lex."""
    t = tables(a.n)
    index = t.index.__getitem__
    for c in t.order:
        row = a.rows[c]
        if row:
            yield c, sorted(map(index, bits_of(row)))


def sorted_edges(a: Digraph) -> list[tuple[int, int]]:
    """Edges ordered by (index_of(c), index_of(d))."""
    order = tables(a.n).order
    return [(c, order[k]) for c, ks in _cardlex_rows(a) for k in ks]


def identity_digraph(n: int, basis: Basis) -> Digraph:
    """The digraph whose operator is the identity in the given basis."""
    if basis in _POINT_BASES:
        return Digraph.from_edges(n, ((c, 0) for c in range(1 << n)))
    return Digraph.from_edges(n, [(0, 0)])


def _down_first(rows: list[int], n: int) -> None:
    # out(c, d) = XOR of in(e, d) over e a subset of c -- row-level subset sums.
    for i in range(n):
        bit = 1 << i
        for c in range(1 << n):
            if c & bit:
                rows[c] ^= rows[c ^ bit]


def _up_second(rows: list[int], n: int) -> None:
    # out(c, d) = XOR of in(c, e) over e a superset of d -- within-row transform.
    t = tables(n)
    for c in range(t.size):
        v = rows[c]
        for i in range(n):
            v ^= (v >> (1 << i)) & t.bit_clear[i]
        rows[c] = v


def _hat_grid(rows: list[int], n: int, basis: Basis) -> list[int]:
    """Convert a coefficient grid between ``basis`` and ms, in place.

    The conversion is its own inverse (each leg is a GF(2) subset-sum
    involution), so the same call serves both directions.
    """
    if basis in (Basis.XS, Basis.XD):
        _down_first(rows, n)
    if basis in (Basis.MD, Basis.XD):
        _up_second(rows, n)
    return rows


def _matrix_rows_masked(a: Digraph, basis: Basis) -> list[int]:
    # Mask-indexed matrix of the operator: entry (p, q) = ms-coefficient (p, p + q).
    rows = _hat_grid(list(a.rows), a.n, basis)
    return [shift_packed(rows[p], p, a.n) for p in range(1 << a.n)]


def _digraph_from_masked_rows(n: int, rows: list[int], basis: Basis) -> Digraph:
    grid = [shift_packed(rows[p], p, n) for p in range(1 << n)]
    return Digraph(n, tuple(_hat_grid(grid, n, basis)))


def operator_matrix(a: Digraph, basis: Basis) -> Gf2Matrix:
    """The 2^n x 2^n matrix (card-lex axes) of the operator a encodes."""
    t = tables(a.n)
    masked = _matrix_rows_masked(a, basis)
    out = [0] * t.size
    for p in range(t.size):
        r = masked[p]
        packed = 0
        for q in bits_of(r):
            packed |= 1 << t.index[q]
        out[t.index[p]] = packed
    return Gf2Matrix.from_packed_rows(t.size, t.size, out)


def operator_digraph(m: Gf2Matrix, basis: Basis) -> Digraph:
    """The unique digraph whose operator matrix in ``basis`` equals m."""
    if m.rows != m.cols:
        raise DomainError(f"operator matrices are square, got {m.rows}x{m.cols}")
    size = m.rows
    if size == 0 or size & (size - 1):
        raise DomainError(f"operator matrices have 2^n rows, got {size}")
    n = size.bit_length() - 1
    t = tables(n)
    masked = [0] * size
    for i, row in enumerate(m.packed_rows()):
        packed = 0
        for j in bits_of(row):
            packed |= 1 << t.order[j]
        masked[t.order[i]] = packed
    return _digraph_from_masked_rows(n, masked, basis)


def change_operator_basis(a: Digraph, source: Basis, target: Basis) -> Digraph:
    """Re-express the same operator's digraph in another basis."""
    if source is target:
        return a
    grid = _hat_grid(list(a.rows), a.n, source)
    return Digraph(a.n, tuple(_hat_grid(grid, a.n, target)))


def _apply_per_edge(a: Digraph, basis: Basis, u: int) -> int:
    """The operator's image of the mask-packed map u, one row of edges at a time.

    Row c XORs the images of u under its edges' shifts or derivatives, and
    keeps them where its factor is 1: at c alone (ms, md) or on the up-set of
    c (xs, xd).  The cost is about |A| * n/2 passes over 2^n-bit ints.
    """
    t = tables(a.n)
    image = _shift if basis in _SHIFT_BASES else _derivative
    point = basis in _POINT_BASES
    out = 0
    for c, row in enumerate(a.rows):
        if row:
            acc = 0
            for d in bits_of(row):
                acc ^= image(u, d, t)
            out ^= acc & ((1 << c) if point else _upset(c, t))
    return out


def _apply_masked(a: Digraph, basis: Basis, u: int) -> int:
    """The operator's image of u through its matrix: bit p is the parity of row p on u.

    Building the mask-indexed matrix rows costs about 2^n * n operations on
    2^n-bit ints, whatever the number of edges.
    """
    out = 0
    for p, row in enumerate(_matrix_rows_masked(a, basis)):
        out |= ((row & u).bit_count() & 1) << p
    return out


def _apply_route(a: Digraph) -> Callable[[Digraph, Basis, int], int]:
    """The cheaper apply route for a, judged from its edge count alone.

    Per-edge wins below about two edges per row: the measured crossover is
    1.5-2.5 * 2^n edges across the four bases at n = 6, 8 and 10 (README).
    """
    edges = sum(r.bit_count() for r in a.rows)
    return _apply_per_edge if edges < 2 << a.n else _apply_masked


def apply_operator(a: Digraph, basis: Basis, f: BooleanFunction) -> BooleanFunction:
    """Apply the operator encoded by a (read in ``basis``) to f.

    Sparse operands go edge by edge, dense ones through the matrix rows.
    """
    if a.n != f.n:
        raise DimensionError(f"operator on [{a.n}] applied to a function on [{f.n}]")
    return _from_packed(a.n, _apply_route(a)(a, basis, _packed(f)))


def operator_rank_profile(a: Digraph, basis: Basis) -> tuple[int, int, int]:
    """(rank, image size, kernel size) of the operator on the 2^n-dim space.

    Counts follow rank-nullity on BF_n: the image has 2^rank elements and
    the kernel 2^(2^n - rank); both are verified against brute-force
    enumeration in the tests.
    """
    r = mat_rank(operator_matrix(a, basis))
    return r, 1 << r, 1 << ((1 << a.n) - r)


@dataclass(frozen=True)
class OperatorExpr:
    """A printable operator expression: ordered terms plus a collapsed identity."""

    basis: Basis
    n: int
    terms: tuple[tuple[int, int], ...]
    collapse_identity: bool = field(default=False)

    def __str__(self) -> str:
        c_sym = "m" if self.basis in _POINT_BASES else "x"
        d_sym = "s" if self.basis in _SHIFT_BASES else "d"
        parts = [f"{c_sym}^{format_subset(c)}{d_sym}^{format_subset(d)}" for c, d in self.terms]
        if self.collapse_identity:
            parts.append("1")
        return " + ".join(parts) if parts else "0"


def operator_expr(a: Digraph, basis: Basis, collapse: bool = True) -> OperatorExpr:
    """Build the expression for a digraph; term order is card-lex on (c, d).

    With ``collapse`` set, a full diagonal {(c, {}) for every c} prints as a
    trailing "+ 1"; a partial diagonal never collapses.
    """
    collapsed = collapse and all(r & 1 for r in a.rows)
    if collapsed:
        a = Digraph(a.n, tuple(r ^ 1 for r in a.rows))
    return OperatorExpr(basis, a.n, tuple(sorted_edges(a)), collapsed)


def format_operator(a: Digraph, basis: Basis, collapse: bool = True) -> str:
    return str(operator_expr(a, basis, collapse))


@lru_cache(maxsize=None)
def _subset_names(n: int) -> tuple[tuple[str, ...], tuple[str, ...], dict[str, int]]:
    """(name of each mask, the names in card-lex order, canonical name -> mask)."""
    order = tables(n).order
    names = tuple(format_subset(m) for m in range(len(order)))
    return names, tuple(names[m] for m in order), {name: m for m, name in enumerate(names)}


def format_digraph(a: Digraph) -> str:
    """Canonical text form: n, then one "<c> <d>" line per edge, sorted."""
    names, cardlex_names, _ = _subset_names(a.n)
    lines = [str(a.n)]
    for c, ks in _cardlex_rows(a):
        lines.extend(map(f"{names[c]} ".__add__, map(cardlex_names.__getitem__, ks)))
    return "\n".join(lines) + "\n"


def _parse_edge(line: str, n: int, lineno: int) -> tuple[int, int]:
    # The full edge syntax: whitespace around and inside braces, leading zeros.
    close = line.find("}")
    if close == -1:
        raise ParseError(f"expected '<c> <d>', got {line!r}", lineno)
    try:
        return parse_subset(line[: close + 1], n), parse_subset(line[close + 1 :], n)
    except ParseError as exc:
        raise ParseError(str(exc), lineno) from None


def parse_digraph(text: str) -> Digraph:
    """Parse the text form; duplicate edges are an error, comments allowed.

    A line in the canonical form ``format_digraph`` writes is two table
    lookups; any other line goes through the full syntax of ``parse_subset``.
    """
    n: int | None = None
    rows: list[int] = []
    masks: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            n = parse_decimal(line)
            if n is None:
                raise ParseError(f"expected the dimension n, got {line!r}", lineno)
            validate_dimension(n)
            rows = [0] * (1 << n)
            masks = _subset_names(n)[2]
            continue
        c_name, _, d_name = line.partition(" ")
        c, d = masks.get(c_name), masks.get(d_name)
        if c is None or d is None:
            c, d = _parse_edge(line, n, lineno)
        if rows[c] >> d & 1:
            raise ParseError(f"duplicate edge {line!r}", lineno)
        rows[c] |= 1 << d
    if n is None:
        raise ParseError("missing dimension line")
    return Digraph(n, tuple(rows))
