"""Bit-packed vectors and matrices over GF(2).

Rows live in Python ints used as bit-sets, so XOR on a whole row is a single
word-parallel operation; bit j of row i is entry (i, j).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DimensionError, DomainError, ParseError
from .lattice import parse_decimal


@dataclass(frozen=True)
class BitVector:
    """A fixed-length vector over GF(2), packed into an int (bit k = entry k)."""

    length: int
    bits: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise DomainError(f"length must be >= 0, got {self.length}")
        if self.bits < 0 or self.bits >> self.length:
            raise DomainError(f"bits {self.bits:#x} do not fit in {self.length} positions")

    @classmethod
    def from_bits(cls, values: Iterable[int]) -> BitVector:
        bits = 0
        length = 0
        for v in values:
            if v not in (0, 1):
                raise DomainError(f"entries must be 0 or 1, got {v!r}")
            bits |= v << length
            length += 1
        return cls(length, bits)

    def bit(self, k: int) -> int:
        if not 0 <= k < self.length:
            raise DomainError(f"position {k} out of range for length {self.length}")
        return self.bits >> k & 1

    __getitem__ = bit

    def __len__(self) -> int:
        return self.length

    def weight(self) -> int:
        return self.bits.bit_count()

    def to01(self) -> str:
        """Entry k as character k; ``format`` writes bit 0 last, hence the reversal."""
        return format(self.bits, f"0{self.length}b")[::-1] if self.length else ""


@dataclass(frozen=True)
class Gf2Matrix:
    """A rows x cols matrix over GF(2); row_data[i] packs row i."""

    rows: int
    cols: int
    row_data: tuple[BitVector, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise DomainError("matrix shape must be non-negative")
        if len(self.row_data) != self.rows:
            raise DomainError(f"expected {self.rows} rows, got {len(self.row_data)}")
        for r in self.row_data:
            if r.length != self.cols:
                raise DomainError(f"row of length {r.length} in a {self.cols}-column matrix")

    @classmethod
    def from_packed_rows(cls, rows: int, cols: int, ints: Sequence[int]) -> Gf2Matrix:
        return cls(rows, cols, tuple(BitVector(cols, r) for r in ints))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> Gf2Matrix:
        data = tuple(BitVector.from_bits(r) for r in rows)
        cols = data[0].length if data else 0
        return cls(len(data), cols, data)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> Gf2Matrix:
        return cls.from_packed_rows(rows, cols, [0] * rows)

    @classmethod
    def identity(cls, size: int) -> Gf2Matrix:
        return cls.from_packed_rows(size, size, [1 << i for i in range(size)])

    def entry(self, i: int, j: int) -> int:
        if not 0 <= i < self.rows:
            raise DomainError(f"row {i} out of range")
        return self.row_data[i].bit(j)

    def packed_rows(self) -> list[int]:
        return [r.bits for r in self.row_data]


def mat_add(a: Gf2Matrix, b: Gf2Matrix) -> Gf2Matrix:
    """Entrywise XOR."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise DimensionError(f"cannot add {a.rows}x{a.cols} and {b.rows}x{b.cols}")
    return Gf2Matrix.from_packed_rows(a.rows, a.cols, [x ^ y for x, y in zip(a.packed_rows(), b.packed_rows())])


def _mul_rows(rows_a: Sequence[int], rows_b: Sequence[int]) -> list[int]:
    # Row-by-row XOR accumulation: out[i] = XOR of rows_b[k] over set bits k of rows_a[i].
    out = []
    for ra in rows_a:
        acc = 0
        while ra:
            low = ra & -ra
            acc ^= rows_b[low.bit_length() - 1]
            ra ^= low
        out.append(acc)
    return out


def mat_mul(a: Gf2Matrix, b: Gf2Matrix) -> Gf2Matrix:
    """Matrix product over GF(2)."""
    if a.cols != b.rows:
        raise DimensionError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    return Gf2Matrix.from_packed_rows(a.rows, b.cols, _mul_rows(a.packed_rows(), b.packed_rows()))


def _rank_rows(rows: Sequence[int], cols: int) -> int:
    work = list(rows)
    rank = 0
    for col in range(cols):
        bit = 1 << col
        pivot = next((i for i in range(rank, len(work)) if work[i] & bit), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(len(work)):
            if i != rank and work[i] & bit:
                work[i] ^= work[rank]
        rank += 1
    return rank


def mat_rank(a: Gf2Matrix) -> int:
    """Rank over GF(2) by Gaussian elimination (input left untouched)."""
    return _rank_rows(a.packed_rows(), a.cols)


def mat_transpose(a: Gf2Matrix) -> Gf2Matrix:
    out = [0] * a.cols
    for i, r in enumerate(a.packed_rows()):
        while r:
            low = r & -r
            out[low.bit_length() - 1] |= 1 << i
            r ^= low
    return Gf2Matrix.from_packed_rows(a.cols, a.rows, out)


def mat_inverse(a: Gf2Matrix) -> Gf2Matrix:
    """Inverse of a square invertible matrix via Gauss-Jordan on [A | I]."""
    if a.rows != a.cols:
        raise DimensionError(f"only square matrices invert, got {a.rows}x{a.cols}")
    size = a.rows
    work = [r | (1 << (size + i)) for i, r in enumerate(a.packed_rows())]
    rank = 0
    for col in range(size):
        bit = 1 << col
        pivot = next((i for i in range(rank, size) if work[i] & bit), None)
        if pivot is None:
            raise DomainError("matrix is singular")
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(size):
            if i != rank and work[i] & bit:
                work[i] ^= work[rank]
        rank += 1
    return Gf2Matrix.from_packed_rows(size, size, [r >> size for r in work])


def format_matrix(a: Gf2Matrix) -> str:
    """Text form: a "rows cols" header line, then one 0/1 string per row."""
    lines = [f"{a.rows} {a.cols}"]
    lines.extend(r.to01() for r in a.row_data)
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> Gf2Matrix:
    """Parse the text form; '#' lines are comments, blank lines are skipped."""
    header: tuple[int, int] | None = None
    rows: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            dims = tuple(parse_decimal(p) for p in line.split())
            if len(dims) != 2 or None in dims:
                raise ParseError(f"expected 'rows cols' header, got {line!r}", lineno)
            header = dims
            continue
        nrows, ncols = header
        if len(rows) >= nrows:
            raise ParseError(f"more than {nrows} data rows", lineno)
        if len(line) != ncols or set(line) - {"0", "1"}:
            raise ParseError(f"expected {ncols} chars of 0/1, got {line!r}", lineno)
        rows.append(int(line[::-1], 2))
    if header is None:
        raise ParseError("missing 'rows cols' header")
    if len(rows) != header[0]:
        raise ParseError(f"expected {header[0]} data rows, got {len(rows)}")
    return Gf2Matrix.from_packed_rows(header[0], header[1], rows)
