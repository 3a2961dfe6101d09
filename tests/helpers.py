"""Naive reference implementations the tests trust instead of the fast paths.

Everything here is written the slow, obvious way (double loops, per-point
lookups, entrywise subset sums) so that the package's word-parallel
transforms, matrix isomorphisms and product formulas have something
independent to be compared against.
"""

from __future__ import annotations

import random

from booldiff import (
    Basis,
    BooleanFunction,
    Digraph,
    Gf2Matrix,
    elements,
    index_of,
    m_basis,
    subset_of,
)


def naive_subset_sum(values: int, n: int, direction: str) -> int:
    size = 1 << n
    out = 0
    for d in range(size):
        acc = 0
        for c in range(size):
            inside = (c & ~d) == 0 if direction == "down" else (d & ~c) == 0
            if inside:
                acc ^= values >> c & 1
        out |= acc << d
    return out


def cardlex_order(n: int) -> list[int]:
    """The masks of P[n] in card-lex order, by its definition: sort by size, then by elements."""
    return sorted(range(1 << n), key=lambda m: (m.bit_count(), elements(m)))


def naive_rank(rows: list[list[int]]) -> int:
    work = [list(r) for r in rows]
    cols = len(work[0]) if work else 0
    rank = 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                work[i] = [x ^ y for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


def point_values(f: BooleanFunction) -> dict[int, int]:
    return {a: f.value_at(a) for a in range(1 << f.n)}


def from_point_values(n: int, values: dict[int, int]) -> BooleanFunction:
    return BooleanFunction.from_truth(n, [values[subset_of(k, n)] for k in range(1 << n)])


def iterated_difference(f: BooleanFunction, d: int) -> BooleanFunction:
    """Derivative along d as a chain of single-coordinate differences."""
    vals = point_values(f)
    for i in range(f.n):
        if d >> i & 1:
            vals = {a: vals[a ^ (1 << i)] ^ vals[a] for a in vals}
    return from_point_values(f.n, vals)


def pointwise_apply(a: Digraph, basis: Basis, f: BooleanFunction) -> BooleanFunction:
    """Apply an operator straight from the definition of each edge term."""
    n = a.n
    base = point_values(f)
    out = {p: 0 for p in range(1 << n)}
    for c, d in a.edges:
        if basis in (Basis.MS, Basis.XS):
            term = {p: base[p ^ d] for p in out}
        else:
            term = point_values(iterated_difference(f, d))
        for p in out:
            keep = p == c if basis in (Basis.MS, Basis.MD) else (c & ~p) == 0
            if keep:
                out[p] ^= term[p]
    return from_point_values(n, out)


def matrix_of_map(n: int, fn) -> Gf2Matrix:
    """Matrix (card-lex axes) of a linear map given as a callable on functions."""
    size = 1 << n
    outs = [fn(m_basis(subset_of(j, n), n)) for j in range(size)]
    rows = [sum((outs[j].truth.bit(i)) << j for j in range(size)) for i in range(size)]
    return Gf2Matrix.from_packed_rows(size, size, rows)


def closed_form_matrix(a: Digraph, basis: Basis) -> Gf2Matrix:
    """Operator matrix from the per-entry subset-sum closed forms."""
    n = a.n
    size = 1 << n
    has = a.edges.__contains__

    def entry(p: int, q: int) -> int:
        if basis is Basis.MS:
            return 1 if has((p, p ^ q)) else 0
        if basis is Basis.MD:
            return sum(has((p, c)) for c in range(size) if (p ^ q) & ~c == 0) & 1
        if basis is Basis.XS:
            return sum(has((c, p ^ q)) for c in range(size) if c & ~p == 0) & 1
        return (
            sum(
                has((c, d))
                for c in range(size)
                if c & ~p == 0
                for d in range(size)
                if (p ^ q) & ~d == 0
            )
            & 1
        )

    rows = []
    for i in range(size):
        p = subset_of(i, n)
        rows.append([entry(p, subset_of(j, n)) for j in range(size)])
    return Gf2Matrix.from_rows(rows)


def closed_form_digraph(m: Gf2Matrix, basis: Basis) -> Digraph:
    """Digraph from the per-coefficient subset-sum closed forms."""
    size = m.rows
    n = size.bit_length() - 1

    def nv(p: int, q: int) -> int:
        return m.entry(index_of(p, n), index_of(q, n))

    def coeff(a: int, b: int) -> int:
        if basis is Basis.MS:
            return nv(a, a ^ b)
        if basis is Basis.MD:
            return sum(nv(a, a ^ c) for c in range(size) if b & ~c == 0) & 1
        if basis is Basis.XS:
            return sum(nv(c, b ^ c) for c in range(size) if c & ~a == 0) & 1
        return (
            sum(
                nv(c, c ^ d)
                for c in range(size)
                if c & ~a == 0
                for d in range(size)
                if b & ~d == 0
            )
            & 1
        )

    return Digraph.from_edges(
        n, ((a, b) for a in range(size) for b in range(size) if coeff(a, b))
    )


def random_digraph(rng: random.Random, n: int, density: float = 0.3) -> Digraph:
    size = 1 << n
    return Digraph.from_edges(
        n, ((c, d) for c in range(size) for d in range(size) if rng.random() < density)
    )


def random_function(rng: random.Random, n: int) -> BooleanFunction:
    return BooleanFunction.from_truth(n, [rng.randrange(2) for _ in range(1 << n)])


def random_matrix(rng: random.Random, rows: int, cols: int) -> Gf2Matrix:
    return Gf2Matrix.from_packed_rows(
        rows, cols, [rng.getrandbits(cols) for _ in range(rows)]
    )


def naive_mul(rows_a: list[int], rows_b: list[int], cols: int) -> list[int]:
    """Packed rows of A * B entry by entry: (i, j) is the parity of row i of A AND column j of B."""
    columns = [sum((rb >> j & 1) << k for k, rb in enumerate(rows_b)) for j in range(cols)]
    return [
        sum(((ra & col).bit_count() & 1) << j for j, col in enumerate(columns)) for ra in rows_a
    ]


def row_xor_mul(rows_a: list[int], rows_b: list[int]) -> list[int]:
    """Packed rows of A * B: row i XORs row k of B for every set bit k of row i of A."""
    out = []
    for ra in rows_a:
        acc = 0
        for k, rb in enumerate(rows_b):
            if ra >> k & 1:
                acc ^= rb
        out.append(acc)
    return out
