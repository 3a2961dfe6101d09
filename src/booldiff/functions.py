"""Boolean functions Z_2^n -> Z_2 with their two natural bases and calculus.

A function is stored mask-packed: bit b of ``values`` is f(b), the layout of
every transform here.  Card-lex order appears only at the boundary: the
truth vector (``from_truth``, ``.truth``) and the text form (``parse_bf``,
``format_bf``).

The point basis m^a is the indicator of the single subset a; the up-set
basis x^a is the indicator of all supersets of a.  The shift s^d translates
the argument by d (symmetric difference), and the derivative along d is the
alternating sum of shifts over subsets of d.  Over Z2 that sum factors as
del^d = prod over i in d of (1 + s^{i}), so a derivative takes |d|
shift-XOR passes rather than 2^|d| shifts.
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
    """A map P[n] -> Z2; bit a of ``values`` is f(a)."""

    n: int
    values: int

    def __post_init__(self) -> None:
        validate_dimension(self.n)
        size = 1 << self.n
        if not isinstance(self.values, int) or self.values < 0 or self.values >> size:
            raise DomainError(f"values of a function on [{self.n}] must be an int of {size} bits")

    @classmethod
    def from_truth(cls, n: int, bits: list[int] | tuple[int, ...]) -> BooleanFunction:
        """The function whose card-lex truth vector is ``bits``."""
        truth = BitVector.from_bits(bits)
        if truth.length != 1 << validate_dimension(n):
            raise DomainError(f"truth vector of length {truth.length} for n={n}")
        return cls(n, tables(n).to_mask(truth.bits))

    @classmethod
    def zero(cls, n: int) -> BooleanFunction:
        return cls(n, 0)

    @classmethod
    def one(cls, n: int) -> BooleanFunction:
        validate_dimension(n)
        return cls(n, (1 << (1 << n)) - 1)

    @property
    def truth(self) -> BitVector:
        """The truth vector, card-lex indexed: entry k is f(subset_of(k, n))."""
        t = tables(self.n)
        return BitVector(t.size, t.to_cardlex(self.values))

    def value_at(self, s: int) -> int:
        """f(s) for a subset mask s."""
        validate_subset(s, self.n)
        return self.values >> s & 1


def m_basis(a: int, n: int) -> BooleanFunction:
    """The point-mass function m^a: 1 exactly on the subset a."""
    validate_subset(a, n)
    return BooleanFunction(n, 1 << a)


def x_basis(a: int, n: int) -> BooleanFunction:
    """The up-set function x^a: 1 exactly on supersets of a."""
    t = tables(n)
    validate_subset(a, n)
    return BooleanFunction(n, _upset(a, t))


def bf_add(f: BooleanFunction, g: BooleanFunction) -> BooleanFunction:
    """Pointwise XOR."""
    if f.n != g.n:
        raise DimensionError(f"cannot add functions on [{f.n}] and [{g.n}]")
    return BooleanFunction(f.n, f.values ^ g.values)


def bf_mul(f: BooleanFunction, g: BooleanFunction) -> BooleanFunction:
    """Pointwise AND."""
    if f.n != g.n:
        raise DimensionError(f"cannot multiply functions on [{f.n}] and [{g.n}]")
    return BooleanFunction(f.n, f.values & g.values)


def shift(f: BooleanFunction, d: int) -> BooleanFunction:
    """(s^d f)(a) = f(a + d)."""
    return BooleanFunction(f.n, shift_packed(f.values, d, f.n))


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
    return BooleanFunction(f.n, derivative_packed(f.values, d, f.n))


def m_coeffs(f: BooleanFunction) -> int:
    """Coefficients of f in the point basis, packed by mask (= the values)."""
    return f.values


def x_coeffs(f: BooleanFunction) -> int:
    """Coefficients of f in the up-set basis, packed by mask."""
    return subset_sum_transform(f.values, f.n, "down")


def from_m_coeffs(n: int, coeffs: int) -> BooleanFunction:
    """Assemble XOR of m^a over the set bits of the mask-packed coeffs."""
    return BooleanFunction(n, coeffs)


def from_x_coeffs(n: int, coeffs: int) -> BooleanFunction:
    """Assemble XOR of x^a over the set bits of the mask-packed coeffs."""
    return BooleanFunction(n, subset_sum_transform(coeffs, n, "down"))


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
    truth: int | None = None
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
        truth = int(line[::-1], 2)
    if n is None or truth is None:
        raise ParseError("truncated function file")
    return BooleanFunction(n, tables(n).to_mask(truth))
