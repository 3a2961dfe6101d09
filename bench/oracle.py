"""Output checks that share no code with the library under test.

Every operator is reduced to its 2^n x 2^n matrix straight from the basis
definitions (m^c is the point mass at c, x^c the up-set of c, s^d the shift
by d, del^d the sum of s^e over e <= d), and then:

* a product must obey the composition law apply(a.b, f) == apply(a, apply(b, f))
  on seeded random functions (Freivalds' check, one-sided error 2^-k);
* a rank is recomputed by elimination on a leading-bit basis;
* a basis change must leave the operator matrix unchanged;
* an apply must equal the matrix-vector product.

Matrices here are mask-indexed: bit q of row p is the coefficient of f(q) in
(Af)(p).
"""

from __future__ import annotations

import random
from functools import lru_cache

from gen import cardlex_order, subset_text

FREIVALDS_ROUNDS = 12


@lru_cache(maxsize=None)
def _downsets(n: int) -> tuple[int, ...]:
    # downsets[d] has bit e set exactly when e is a subset of d.
    out = []
    for d in range(1 << n):
        mask, e = 0, d
        while True:
            mask |= 1 << e
            if e == 0:
                break
            e = (e - 1) & d
        out.append(mask)
    return tuple(out)


@lru_cache(maxsize=None)
def _clear_masks(n: int) -> tuple[int, ...]:
    # clear[i] selects the packed positions whose mask has bit i clear.
    return tuple(sum(1 << q for q in range(1 << n) if not q >> i & 1) for i in range(n))


def translate(x: int, p: int, n: int) -> int:
    """Packed map q -> x(q + p), + being symmetric difference."""
    clear = _clear_masks(n)
    for i in range(n):
        if p >> i & 1:
            off = 1 << i
            x = ((x & clear[i]) << off) | ((x >> off) & clear[i])
    return x


def to_ms(grid: list[int], n: int, basis: str) -> list[int]:
    """Re-read a coefficient grid of ``basis`` as an ms grid (sum of m^c s^e)."""
    size = 1 << n
    rows = list(grid)
    if basis[0] == "x":
        # x^c = sum of m^c' over c' >= c, so ms row c' gathers every row c <= c'.
        gathered = []
        for cp in range(size):
            acc, c = 0, cp
            while True:
                acc ^= rows[c]
                if c == 0:
                    break
                c = (c - 1) & cp
            gathered.append(acc)
        rows = gathered
    if basis[1] == "d":
        # del^d = sum of s^e over e <= d.
        down = _downsets(n)
        expanded = []
        for row in rows:
            acc = 0
            while row:
                low = row & -row
                acc ^= down[low.bit_length() - 1]
                row ^= low
            expanded.append(acc)
        rows = expanded
    return rows


def operator_rows(grid: list[int], n: int, basis: str) -> list[int]:
    """Mask-indexed matrix: (Af)(p) = sum over e of ms(p, e) f(p + e)."""
    return [translate(row, p, n) for p, row in enumerate(to_ms(grid, n, basis))]


def mat_vec(rows: list[int], values: int) -> int:
    out = 0
    for p, row in enumerate(rows):
        out |= ((row & values).bit_count() & 1) << p
    return out


def rank(rows: list[int]) -> int:
    basis: dict[int, int] = {}
    for r in rows:
        while r:
            lead = r.bit_length() - 1
            pivot = basis.get(lead)
            if pivot is None:
                basis[lead] = r
                break
            r ^= pivot
    return len(basis)


def check_product(n: int, basis: str, a: list[int], b: list[int], out: list[int], seed: str) -> bool:
    ma, mb, mo = (operator_rows(g, n, basis) for g in (a, b, out))
    rng = random.Random(seed)
    for _ in range(FREIVALDS_ROUNDS):
        f = rng.getrandbits(1 << n)
        if mat_vec(mo, f) != mat_vec(ma, mat_vec(mb, f)):
            return False
    return True


def check_rank(n: int, basis: str, a: list[int], out: list[int]) -> bool:
    r = rank(operator_rows(a, n, basis))
    return list(out) == [r, 1 << r, 1 << ((1 << n) - r)]


def check_convert(n: int, source: str, target: str, a: list[int], out: list[int]) -> bool:
    return to_ms(out, n, target) == to_ms(a, n, source)


def check_apply(n: int, basis: str, a: list[int], f: int, out: int) -> bool:
    return mat_vec(operator_rows(a, n, basis), f) == out


# ---- text formats, read and written without the library ------------------

def digraph_text_canonical(n: int, grid: list[int]) -> str:
    """The CLI's canonical digraph text: edges sorted card-lex on (c, d)."""
    order = cardlex_order(n)
    names = [subset_text(m, n) for m in range(1 << n)]
    lines = [str(n)]
    for c in order:
        row = grid[c]
        if row:
            prefix = names[c] + " "
            lines.extend(prefix + names[d] for d in order if row >> d & 1)
    return "\n".join(lines) + "\n"


def parse_digraph_text(text: str) -> tuple[int, list[int]]:
    lines = text.split("\n")
    n = int(lines[0])
    index = {subset_text(m, n): m for m in range(1 << n)}
    grid = [0] * (1 << n)
    for line in lines[1:]:
        if line:
            c, d = line.split(" ")
            grid[index[c]] |= 1 << index[d]
    return n, grid


def parse_function_text(text: str) -> tuple[int, int]:
    head, truth = text.split()
    n = int(head)
    values = 0
    for ch, m in zip(truth, cardlex_order(n)):
        if ch == "1":
            values |= 1 << m
    return n, values


def parse_rank_text(text: str) -> list[int]:
    fields = dict(part.split("=") for part in text.split())
    return [int(fields["rank"]), int(fields["image"]), int(fields["kernel"])]
