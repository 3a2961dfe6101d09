"""Subsets of [n] as bitmasks, card-lex ordering, and subset-sum transforms.

A subset of [n] = {1, ..., n} is an int whose bit (i - 1) is set exactly when
element i is present, so {1, 3} is 0b101.  The sum a + b used throughout this
package is the symmetric difference, i.e. XOR on masks.

Two indexings of P[n] coexist, and silently mixing them is the main hazard in
this code base:

* mask indexing -- a map P[n] -> Z2 is packed into a (2**n)-bit int whose bit
  at position ``mask`` holds the value on that subset.  Every transform in
  this module works in that layout.
* card-lex indexing -- subsets ordered by cardinality, ties broken by
  comparing increasing element sequences lexicographically, e.g. for n = 4:
  {} < {1} < {2} < {3} < {4} < {1,2} < {1,3} < {1,4} < {2,3} < ...
  Text formats, truth vectors and matrix axes use card-lex positions;
  ``index_of`` / ``subset_of`` convert.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import CapacityError, DomainError, ParseError

DEFAULT_N_MAX = 10
ENV_N_MAX = "BOOLDIFF_NMAX"


def n_max() -> int:
    """Largest allowed ground-set size; overridable via BOOLDIFF_NMAX."""
    raw = os.environ.get(ENV_N_MAX)
    if raw is None:
        return DEFAULT_N_MAX
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"{ENV_N_MAX} must be an integer, got {raw!r}") from None


def validate_dimension(n: int) -> int:
    if not isinstance(n, int) or isinstance(n, bool):
        raise DomainError(f"dimension must be an int, got {type(n).__name__}")
    if n < 0:
        raise DomainError(f"dimension must be >= 0, got {n}")
    cap = n_max()
    if n > cap:
        raise CapacityError(f"dimension {n} exceeds the cap {cap} (set {ENV_N_MAX} to raise it)")
    return n


def validate_subset(s: int, n: int) -> int:
    if not isinstance(s, int) or isinstance(s, bool):
        raise DomainError(f"subset must be an int bitmask, got {type(s).__name__}")
    if s < 0 or s >> n:
        raise DomainError(f"mask {s:#x} is not a subset of [{n}]")
    return s


def bits_of(x: int) -> Iterator[int]:
    """Yield the indices of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def elements(s: int) -> tuple[int, ...]:
    """The elements of a subset mask, as increasing 1-based ints."""
    return tuple(i + 1 for i in bits_of(s))


def mask_of(elems: Iterable[int]) -> int:
    """Build a subset mask from 1-based elements."""
    s = 0
    for e in elems:
        if e < 1:
            raise DomainError(f"elements are 1-based, got {e}")
        s |= 1 << (e - 1)
    return s


def singleton(i: int) -> int:
    """The subset {i} as a mask."""
    if i < 1:
        raise DomainError(f"elements are 1-based, got {i}")
    return 1 << (i - 1)


# Plain set algebra on masks; the symmetric difference is the group law on Z_2^n.

def sym_diff(a: int, b: int) -> int:
    return a ^ b


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0


def subsets_iter(d: int) -> Iterator[int]:
    """All subsets of the mask d, deterministically (descending mask order)."""
    sub = d
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & d


@dataclass(frozen=True)
class LatticeTables:
    """Precomputed per-n lookup tables shared across the package.

    ``order[k]`` is the mask at card-lex position k; ``index[mask]`` inverts it.
    ``bit_set[i]`` / ``bit_clear[i]`` are (2**n)-bit patterns selecting packed
    positions whose mask has bit i set / clear.
    """

    n: int
    size: int
    order: tuple[int, ...]
    index: tuple[int, ...]
    bit_set: tuple[int, ...]
    bit_clear: tuple[int, ...]


@lru_cache(maxsize=None)
def _tables(n: int) -> LatticeTables:
    size = 1 << n
    order = tuple(sorted(range(size), key=lambda m: (m.bit_count(), elements(m))))
    index = [0] * size
    for k, m in enumerate(order):
        index[m] = k
    full = (1 << size) - 1
    bit_set = []
    for i in range(n):
        pat = 0
        for p in range(size):
            if p >> i & 1:
                pat |= 1 << p
        bit_set.append(pat)
    bit_clear = tuple(full ^ pat for pat in bit_set)
    return LatticeTables(n, size, order, tuple(index), tuple(bit_set), bit_clear)


def tables(n: int) -> LatticeTables:
    validate_dimension(n)
    return _tables(n)


def index_of(s: int, n: int) -> int:
    """Card-lex position of a subset."""
    t = tables(n)
    validate_subset(s, n)
    return t.index[s]


def subset_of(k: int, n: int) -> int:
    """Subset mask at a card-lex position."""
    t = tables(n)
    if not 0 <= k < t.size:
        raise DomainError(f"card-lex index {k} out of range for n={n}")
    return t.order[k]


def _upset(c: int, t: LatticeTables) -> int:
    """The packed indicator of the supersets of c: the AND of bit_set[i] over i in c."""
    up = (1 << t.size) - 1
    for i in bits_of(c):
        up &= t.bit_set[i]
    return up


# The kernels below are bound to a table and validate nothing; the public
# functions that call them validate once at entry.

def _shift_step(values: int, i: int, t: LatticeTables) -> int:
    """Translate a packed map along the singleton {i + 1}: swap the halves split by bit i."""
    off = 1 << i
    low = t.bit_clear[i]
    return ((values & low) << off) | ((values >> off) & low)


def _shift(values: int, d: int, t: LatticeTables) -> int:
    """``shift_packed`` for a subset d already known to lie in [t.n]."""
    # _shift_step inlined: the matrix route shifts each of its 2^n rows, and a
    # call per element of d made small matrix-route products measurably slower.
    for i in bits_of(d):
        off = 1 << i
        low = t.bit_clear[i]
        values = ((values & low) << off) | ((values >> off) & low)
    return values


def shift_packed(values: int, d: int, n: int) -> int:
    """Reindex a packed map by translation: output bit a = input bit (a + d)."""
    t = tables(n)
    validate_subset(d, n)
    return _shift(values, d, t)


def subset_sum_transform(values: int, n: int, direction: str) -> int:
    """GF(2) subset-sum a packed map P[n] -> Z2 (an involution either way).

    direction="down": output(d) = XOR of input(c) over c a subset of d.
    direction="up":   output(c) = XOR of input(d) over d a superset of c.
    """
    t = tables(n)
    if values < 0 or values >> t.size:
        raise DomainError(f"packed map does not fit in {t.size} bits")
    if direction == "down":
        for i in range(n):
            values ^= (values & t.bit_clear[i]) << (1 << i)
    elif direction == "up":
        for i in range(n):
            values ^= (values >> (1 << i)) & t.bit_clear[i]
    else:
        raise DomainError(f"direction must be 'down' or 'up', got {direction!r}")
    return values


def parse_decimal(text: str) -> int | None:
    """The value of an ASCII decimal numeral such as "7" or "007", else None.

    Other Unicode digits ('²', fullwidth '１') are not numerals here, and nor
    is a numeral longer than ``int`` converts (``sys.get_int_max_str_digits``).
    """
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:
        return None


def format_subset(s: int) -> str:
    """Render a mask in the package's subset syntax, e.g. "{}" or "{1,3}"."""
    return "{" + ",".join(str(e) for e in elements(s)) + "}"


def parse_subset(text: str, n: int) -> int:
    """Parse subset syntax: "{}" or "{i,j,...}", strictly increasing, <= n."""
    t = text.strip()
    if not (t.startswith("{") and t.endswith("}")):
        raise ParseError(f"expected braced subset syntax, got {text.strip()!r}")
    inner = t[1:-1].strip()
    if not inner:
        return 0
    elems = []
    for part in inner.split(","):
        part = part.strip()
        e = parse_decimal(part)
        if e is None:
            raise ParseError(f"bad subset element {part!r} in {text.strip()!r}")
        if not 1 <= e <= n:
            raise ParseError(f"element {e} outside 1..{n} in {text.strip()!r}")
        elems.append(e)
    if any(b <= a for a, b in zip(elems, elems[1:])):
        raise ParseError(f"elements must be strictly increasing in {text.strip()!r}")
    return mask_of(elems)
