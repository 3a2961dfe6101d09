"""Products of operator digraphs: the pullbacks of matrix multiplication.

Composing the operators of two digraphs yields an operator again, so each
basis induces a product on digraphs.  Every product has two routes:

* direct -- the basis's combinatorial parity formula on edges, which
  XOR-accumulates witnesses into the row grid;
* matrix -- map both factors to matrices, multiply over GF(2), map back.

The two routes agree everywhere (the direct formulas are closed forms of the
matrix route); tests compare them exhaustively at small n.  Direct formulas
grow steep inner sums, so each is capped; the matrix route works up to the
global dimension cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import CapacityError, DimensionError, DomainError
from .gf2 import Gf2Matrix, _mul_rows
from .lattice import bits_of, subsets_iter, tables
from .operators import (
    Basis,
    Digraph,
    _cardlex_rows,
    _digraph_from_masked_rows,
    _edge_pairs,
    _matrix_rows_masked,
    operator_digraph,
)

DIRECT_CAPS = {Basis.MS: 8, Basis.MD: 5, Basis.XS: 5, Basis.XD: 4}


def _check_pair(a: Digraph, b: Digraph) -> int:
    if a.n != b.n:
        raise DimensionError(f"cannot multiply digraphs on [{a.n}] and [{b.n}]")
    return a.n


def star_product(a: Digraph, b: Digraph) -> Digraph:
    """ms product: (a*b)(c,d) = parity over e of a(c,e)*b(c+e, d+e)."""
    n = _check_pair(a, b)
    rows = [0] * (1 << n)
    for c, e in _edge_pairs(a):
        for g in bits_of(b.rows[c ^ e]):
            rows[c] ^= 1 << (g ^ e)
    return Digraph(n, tuple(rows))


def star_single_edge(n: int, a: int, b: int, c: int, d: int) -> Digraph:
    """Closed form for {(a,b)} * {(c,d)}: {(a, b+d)} when a = b+c, else empty."""
    if a == b ^ c:
        return Digraph.from_edges(n, [(a, b ^ d)])
    return Digraph.empty(n)


def star_decomposed(a: Digraph, b: Digraph, mode: str) -> Digraph:
    """The ms product assembled from column/row slices of the factors.

    mode="col_col": sum over (d-slices) of (A_d meet (B_e + d)) x {d+e};
    mode="col_row": {d+e} x (B_e + d) whenever d+e lies in A_d;
    mode="row_row": {c} x (B_e + c + e) whenever c+e lies in row c of A.
    """
    n = _check_pair(a, b)
    rows = [0] * (1 << n)

    def columns(g: Digraph) -> list[int]:
        # Bit c of the column slice A_d is the edge (c, d); the row slices are g.rows.
        cols = [0] * (1 << n)
        for c, d in _edge_pairs(g):
            cols[d] |= 1 << c
        return cols

    if mode == "col_col":
        b_cols = columns(b)
        for d, a_col in enumerate(columns(a)):
            for e, b_col in enumerate(b_cols):
                col = d ^ e
                for x in bits_of(a_col):
                    if b_col >> (x ^ d) & 1:
                        rows[x] ^= 1 << col
    elif mode == "col_row":
        for d, a_col in enumerate(columns(a)):
            for e, b_row in enumerate(b.rows):
                if a_col >> (d ^ e) & 1:
                    for y in bits_of(b_row):
                        rows[d ^ e] ^= 1 << (y ^ d)
    elif mode == "row_row":
        for c, a_row in enumerate(a.rows):
            for e, b_row in enumerate(b.rows):
                if a_row >> (c ^ e) & 1:
                    for y in bits_of(b_row):
                        rows[c] ^= 1 << (y ^ c ^ e)
    else:
        raise DomainError(f"mode must be col_col, col_row or row_row, got {mode!r}")
    return Digraph(n, tuple(rows))


def circ_product(a: Digraph, b: Digraph) -> Digraph:
    """md product: witnesses are triples (e,f,g) with g <= d, (c,e) in a,
    (f,g) in b and d\\g <= c+f <= e; the witness count is taken mod 2."""
    n = _check_pair(a, b)
    full = (1 << n) - 1
    rows = [0] * (1 << n)
    b_edges = _edge_pairs(b)
    for c, e in _edge_pairs(a):
        for f, g in b_edges:
            x = c ^ f
            if x & (full ^ e):
                continue
            for t in subsets_iter(x & ~g):
                rows[c] ^= 1 << (g | t)
    return Digraph(n, tuple(rows))


def ast_product(a: Digraph, b: Digraph) -> Digraph:
    """xs product: for edges (e,g) of a and (h,y) of b, each k <= g meet h
    contributes one witness at (e union (h\\k), g+y)."""
    n = _check_pair(a, b)
    rows = [0] * (1 << n)
    b_edges = _edge_pairs(b)
    for e, g in _edge_pairs(a):
        for h, y in b_edges:
            d = g ^ y
            for k in subsets_iter(g & h):
                rows[e | (h ^ k)] ^= 1 << d
    return Digraph(n, tuple(rows))


def bullet_product(a: Digraph, b: Digraph) -> Digraph:
    """xd product: for edges (e,f) of a and (g,h) of b, witnesses are chains
    k1 <= k2 <= f meet g with f\\k1 disjoint from h, landing on the edge
    (e union (g\\k2), h union (f\\k1))."""
    n = _check_pair(a, b)
    rows = [0] * (1 << n)
    b_edges = _edge_pairs(b)
    for e, f in _edge_pairs(a):
        for g, h in b_edges:
            for k2 in subsets_iter(f & g):
                c = e | (g ^ k2)
                for k1 in subsets_iter(k2):
                    fk = f ^ k1
                    if fk & h:
                        continue
                    rows[c] ^= 1 << (h | fk)
    return Digraph(n, tuple(rows))


_DIRECT = {
    Basis.MS: star_product,
    Basis.MD: circ_product,
    Basis.XS: ast_product,
    Basis.XD: bullet_product,
}


def matrix_route_product(a: Digraph, b: Digraph, basis: Basis) -> Digraph:
    """Multiply through the matrix representation of the basis."""
    n = _check_pair(a, b)
    rows = _mul_rows(_matrix_rows_masked(a, basis), _matrix_rows_masked(b, basis))
    return _digraph_from_masked_rows(n, rows, basis)


def product(a: Digraph, b: Digraph, basis: Basis, route: str = "auto") -> Digraph:
    """The digraph product for the basis, via the chosen route.

    route="auto" picks the direct formula when n is within its cap and the
    matrix route otherwise; route="direct" raises CapacityError beyond the cap.
    """
    n = _check_pair(a, b)
    cap = DIRECT_CAPS[basis]
    if route == "auto":
        route = "direct" if n <= cap else "matrix"
    if route == "matrix":
        return matrix_route_product(a, b, basis)
    if route == "direct":
        if n > cap:
            raise CapacityError(
                f"direct {basis.value} product is capped at n={cap} (got n={n}); use the matrix route"
            )
        return _DIRECT[basis](a, b)
    raise DomainError(f"route must be direct, matrix or auto, got {route!r}")


def digraph_label(a: Digraph) -> str:
    """Table notation: edges as card-lex index pairs, e.g. "{(0,1),(1,0)}"."""
    if not any(a.rows):
        return "0"
    return "{" + ",".join(f"({i},{j})" for i, _, js in _cardlex_rows(a) for j in js) + "}"


def enumerate_all_digraphs(n: int) -> list[Digraph]:
    """Every digraph on P[n], ordered by edge count then sorted edge lists."""
    if n > 1:
        raise CapacityError(f"full digraph enumeration only for n <= 1 (got n={n})")
    t = tables(n)
    slots = [(t.order[i], t.order[j]) for i in range(t.size) for j in range(t.size)]
    graphs = []
    for count in range(len(slots) + 1):
        for combo in combinations(range(len(slots)), count):
            graphs.append(Digraph.from_edges(n, (slots[k] for k in combo)))
    return graphs


@dataclass(frozen=True)
class MultiplicationTable:
    """The full product table of all digraphs on P[n] for one basis."""

    n: int
    basis: Basis
    digraphs: tuple[Digraph, ...]
    cells: tuple[tuple[Digraph, ...], ...]

    def labels(self) -> list[str]:
        return [digraph_label(g) for g in self.digraphs]

    def to_tsv(self) -> str:
        labels = self.labels()
        lines = ["\t" + "\t".join(labels)]
        for label, row in zip(labels, self.cells):
            lines.append(label + "\t" + "\t".join(digraph_label(g) for g in row))
        return "\n".join(lines) + "\n"


def multiplication_table(n: int, basis: Basis) -> MultiplicationTable:
    """All pairwise products on P[n]; feasible only for n <= 1."""
    graphs = enumerate_all_digraphs(n)
    cells = tuple(
        tuple(product(row, col, basis, route="direct") for col in graphs) for row in graphs
    )
    return MultiplicationTable(n, basis, tuple(graphs), cells)


def jordan_digraph(n: int, basis: Basis) -> Digraph:
    """The digraph of the full Jordan block (ones on the principal diagonal
    and superdiagonal of the card-lex matrix) read in the given basis."""
    if n < 1:
        raise DomainError(f"the Jordan block needs n >= 1, got {n}")
    size = 1 << n
    rows = [(1 << i) | (1 << (i + 1) if i + 1 < size else 0) for i in range(size)]
    return operator_digraph(Gf2Matrix.from_packed_rows(size, size, rows), basis)
