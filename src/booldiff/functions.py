"""Boolean functions Z_2^n -> Z_2 with their two natural bases and calculus.

A function is stored by its truth vector in card-lex order (bit at position
``index_of(b, n)`` is f(b)).  The point basis m^a is the indicator of the
single subset a; the up-set basis x^a is the indicator of all supersets of a.
The shift s^d translates the argument by d (symmetric difference), and the
derivative along d is the alternating sum of shifts over subsets of d.  Over
Z2 that sum factors as del^d = prod over i in d of (1 + s^{i}), so a
derivative takes |d| shift-XOR passes rather than 2^|d| shifts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionError, DomainError, ParseError
from .gf2 import BitVector
from .lattice import (
    LatticeTables,
    _shift_step,
    _upset,
    bits_of,
    parse_decimal,
    shift_packed,
    subset_sum_transform,
    tables,
    validate_dimension,
    validate_subset,
)


@dataclass(frozen=True)
class BooleanFunction:
    """A map P[n] -> Z2; ``truth`` is card-lex indexed."""

    n: int
    truth: BitVector

    def __post_init__(self) -> None:
        validate_dimension(self.n)
        if self.truth.length != 1 << self.n:
            raise DomainError(f"truth vector of length {self.truth.length} for n={self.n}")

    @classmethod
    def from_truth(cls, n: int, bits: list[int] | tuple[int, ...]) -> BooleanFunction:
        return cls(n, BitVector.from_bits(bits))

    @classmethod
    def zero(cls, n: int) -> BooleanFunction:
        validate_dimension(n)
        return cls(n, BitVector(1 << n, 0))

    @classmethod
    def one(cls, n: int) -> BooleanFunction:
        validate_dimension(n)
        size = 1 << n
        return cls(n, BitVector(size, (1 << size) - 1))

    def value_at(self, s: int) -> int:
        """f(s) for a subset mask s."""
        t = tables(self.n)
        validate_subset(s, self.n)
        return self.truth.bits >> t.index[s] & 1


def _packed(f: BooleanFunction) -> int:
    # Reindex the truth vector from card-lex positions to mask positions.
    t = tables(f.n)
    bits = f.truth.bits
    out = 0
    for m in range(t.size):
        out |= (bits >> t.index[m] & 1) << m
    return out


def _from_packed(n: int, packed: int) -> BooleanFunction:
    t = tables(n)
    bits = 0
    for m in range(t.size):
        bits |= (packed >> m & 1) << t.index[m]
    return BooleanFunction(n, BitVector(t.size, bits))


def m_basis(a: int, n: int) -> BooleanFunction:
    """The point-mass function m^a: 1 exactly on the subset a."""
    validate_subset(a, n)
    return _from_packed(n, 1 << a)


def x_basis(a: int, n: int) -> BooleanFunction:
    """The up-set function x^a: 1 exactly on supersets of a."""
    t = tables(n)
    validate_subset(a, n)
    return _from_packed(n, _upset(a, t))


def bf_add(f: BooleanFunction, g: BooleanFunction) -> BooleanFunction:
    """Pointwise XOR."""
    if f.n != g.n:
        raise DimensionError(f"cannot add functions on [{f.n}] and [{g.n}]")
    return BooleanFunction(f.n, BitVector(f.truth.length, f.truth.bits ^ g.truth.bits))


def bf_mul(f: BooleanFunction, g: BooleanFunction) -> BooleanFunction:
    """Pointwise AND."""
    if f.n != g.n:
        raise DimensionError(f"cannot multiply functions on [{f.n}] and [{g.n}]")
    return BooleanFunction(f.n, BitVector(f.truth.length, f.truth.bits & g.truth.bits))


def shift(f: BooleanFunction, d: int) -> BooleanFunction:
    """(s^d f)(a) = f(a + d)."""
    return _from_packed(f.n, shift_packed(_packed(f), d, f.n))


def _derivative(values: int, d: int, t: LatticeTables) -> int:
    # del^d = prod over i in d of (1 + s^{i}): one shift-XOR pass per element.
    for i in bits_of(d):
        values ^= _shift_step(values, i, t)
    return values


def derivative_packed(values: int, d: int, n: int) -> int:
    """Derivative along d of a mask-packed map: XOR of its shifts over c <= d.

    Computed in the product form del^d = prod over i in d of (1 + s^{i}),
    one shift-XOR pass per element of d.
    """
    t = tables(n)
    validate_subset(d, n)
    return _derivative(values, d, t)


def derivative(f: BooleanFunction, d: int) -> BooleanFunction:
    """The finite difference along d: XOR of shifts s^c f over subsets c of d.

    Equivalently the product of the single-coordinate differences 1 + s^{i}
    over the elements i of d, which is how it is computed.
    """
    return _from_packed(f.n, derivative_packed(_packed(f), d, f.n))


def m_coeffs(f: BooleanFunction) -> int:
    """Coefficients of f in the point basis, packed by mask (= the values)."""
    return _packed(f)


def x_coeffs(f: BooleanFunction) -> int:
    """Coefficients of f in the up-set basis, packed by mask."""
    return subset_sum_transform(_packed(f), f.n, "down")


def from_m_coeffs(n: int, coeffs: int) -> BooleanFunction:
    """Assemble XOR of m^a over the set bits of the mask-packed coeffs."""
    t = tables(n)
    if coeffs < 0 or coeffs >> t.size:
        raise DomainError(f"coefficient map does not fit in {t.size} bits")
    return _from_packed(n, coeffs)


def from_x_coeffs(n: int, coeffs: int) -> BooleanFunction:
    """Assemble XOR of x^a over the set bits of the mask-packed coeffs."""
    t = tables(n)
    if coeffs < 0 or coeffs >> t.size:
        raise DomainError(f"coefficient map does not fit in {t.size} bits")
    return _from_packed(n, subset_sum_transform(coeffs, n, "down"))


def change_function_basis(coeffs: int, n: int, direction: str) -> int:
    """Convert coefficient maps between the m and x bases (an involution).

    Both directions are the same subset-sum transform because the two bases
    expand into each other over supersets with the identical pattern.
    """
    if direction not in ("m_to_x", "x_to_m"):
        raise DomainError(f"direction must be 'm_to_x' or 'x_to_m', got {direction!r}")
    return subset_sum_transform(coeffs, n, "down")


def format_bf(f: BooleanFunction) -> str:
    """Text form: a line holding n, then the card-lex truth string."""
    return f"{f.n}\n{f.truth.to01()}\n"


def parse_bf(text: str) -> BooleanFunction:
    """Parse the text form; '#' lines are comments, blank lines are skipped."""
    n: int | None = None
    truth: BitVector | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            n = parse_decimal(line)
            if n is None:
                raise ParseError(f"expected the dimension n, got {line!r}", lineno)
            validate_dimension(n)
            continue
        if truth is not None:
            raise ParseError("unexpected extra data line", lineno)
        if len(line) != 1 << n or set(line) - {"0", "1"}:
            raise ParseError(f"expected {1 << n} chars of 0/1, got {line!r}", lineno)
        truth = BitVector(len(line), int(line[::-1], 2))
    if n is None or truth is None:
        raise ParseError("truncated function file")
    return BooleanFunction(n, truth)
