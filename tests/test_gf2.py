"""Tests for bit-packed GF(2) vectors and matrices against naive arithmetic."""

from __future__ import annotations

import random

import pytest

from booldiff import (
    BitVector,
    DimensionError,
    DomainError,
    Gf2Matrix,
    ParseError,
    format_matrix,
    mat_add,
    mat_inverse,
    mat_mul,
    mat_rank,
    mat_transpose,
    parse_matrix,
)
from booldiff.gf2 import _mul_kernel, _mul_rows_four_russians, _mul_rows_plain

from helpers import naive_mul, naive_rank, random_matrix, row_xor_mul


def test_bitvector_round_trip() -> None:
    v = BitVector.from_bits([1, 0, 1, 1])
    assert len(v) == 4
    assert v.to01() == "1011"
    assert [v[k] for k in range(4)] == [1, 0, 1, 1]
    assert v.weight() == 3


def test_bitvector_rejects_bad_values() -> None:
    with pytest.raises(DomainError):
        BitVector.from_bits([0, 2])
    with pytest.raises(DomainError):
        BitVector(3, 0b1000)
    with pytest.raises(DomainError):
        BitVector.from_bits([1])[1]


def test_matrix_constructors_agree() -> None:
    a = Gf2Matrix.from_rows([[1, 0, 1], [0, 1, 1]])
    b = Gf2Matrix.from_packed_rows(2, 3, [0b101, 0b110])
    assert a == b
    assert a.entry(0, 2) == 1
    assert a.entry(1, 0) == 0
    assert a.packed_rows() == [0b101, 0b110]
    assert Gf2Matrix.zeros(2, 2).packed_rows() == [0, 0]
    assert Gf2Matrix.identity(3).packed_rows() == [1, 2, 4]


def test_matrix_shape_is_validated() -> None:
    with pytest.raises(DomainError):
        Gf2Matrix.from_packed_rows(2, 2, [0, 0, 0])
    with pytest.raises(DomainError):
        Gf2Matrix.from_packed_rows(1, 2, [0b100])


def test_add_is_entrywise_xor() -> None:
    rng = random.Random(0xC001)
    a = random_matrix(rng, 5, 7)
    b = random_matrix(rng, 5, 7)
    c = mat_add(a, b)
    for i in range(5):
        for j in range(7):
            assert c.entry(i, j) == a.entry(i, j) ^ b.entry(i, j)
    with pytest.raises(DimensionError):
        mat_add(a, random_matrix(rng, 5, 6))


def test_mul_matches_schoolbook_product() -> None:
    rng = random.Random(0xC002)
    for _ in range(20):
        r, k, c = rng.randrange(1, 7), rng.randrange(1, 7), rng.randrange(1, 7)
        a = random_matrix(rng, r, k)
        b = random_matrix(rng, k, c)
        p = mat_mul(a, b)
        for i in range(r):
            for j in range(c):
                want = 0
                for t in range(k):
                    want ^= a.entry(i, t) & b.entry(t, j)
                assert p.entry(i, j) == want
    with pytest.raises(DimensionError):
        mat_mul(random_matrix(rng, 2, 3), random_matrix(rng, 2, 3))


def _operand(rng: random.Random, kind: str, rows: int, cols: int) -> list[int]:
    if kind == "dense":
        return [rng.getrandbits(cols) for _ in range(rows)]
    if kind == "one-bit":
        return [1 << rng.randrange(cols) for _ in range(rows)]
    if kind == "empty":
        return [0] * rows
    return [1 << i if i < cols else 0 for i in range(rows)]  # identity, cut to the shape


KINDS = ["dense", "one-bit", "empty", "identity"]
# 257 rows of B leave Four Russians a last block of one row.
SHAPES = [(64, 64, 64), (100, 257, 70), (256, 256, 256)]


@pytest.mark.parametrize("kernel", [_mul_rows_plain, _mul_rows_four_russians], ids=lambda k: k.__name__)
@pytest.mark.parametrize(("rows", "inner", "cols"), SHAPES)
def test_both_kernels_match_the_entrywise_product(kernel, rows: int, inner: int, cols: int) -> None:
    rng = random.Random(0xC009)
    pairs = [(kind, "dense") for kind in KINDS] + [("dense", kind) for kind in KINDS]
    for kind_a, kind_b in pairs:
        a = _operand(rng, kind_a, rows, inner)
        b = _operand(rng, kind_b, inner, cols)
        assert kernel(a, b) == naive_mul(a, b, cols), (kind_a, kind_b)


def test_kernel_choice_follows_the_left_popcount() -> None:
    rng = random.Random(0xC00A)
    dense = _operand(rng, "dense", 1024, 1024)
    one_bit = _operand(rng, "one-bit", 1024, 1024)
    assert _mul_kernel(dense, dense) is _mul_rows_four_russians
    assert _mul_kernel(one_bit, dense) is _mul_rows_plain
    # Below 64 rows of B the plain kernel runs, however dense and tall A is.
    assert _mul_kernel(_operand(rng, "dense", 4096, 63), _operand(rng, "dense", 63, 1024)) is _mul_rows_plain


def test_mat_mul_through_four_russians_matches_the_row_oracle() -> None:
    rng = random.Random(0xC00B)
    a = random_matrix(rng, 1024, 1024)
    b = random_matrix(rng, 1024, 1024)
    assert _mul_kernel(a.packed_rows(), b.packed_rows()) is _mul_rows_four_russians
    assert mat_mul(a, b).packed_rows() == row_xor_mul(a.packed_rows(), b.packed_rows())


def test_identity_is_neutral_for_mul() -> None:
    rng = random.Random(0xC003)
    a = random_matrix(rng, 6, 6)
    assert mat_mul(a, Gf2Matrix.identity(6)) == a
    assert mat_mul(Gf2Matrix.identity(6), a) == a


def test_rank_matches_naive_elimination() -> None:
    rng = random.Random(0xC004)
    for _ in range(30):
        r, c = rng.randrange(1, 8), rng.randrange(1, 8)
        a = random_matrix(rng, r, c)
        grid = [[a.entry(i, j) for j in range(c)] for i in range(r)]
        assert mat_rank(a) == naive_rank(grid)
    assert mat_rank(Gf2Matrix.identity(5)) == 5
    assert mat_rank(Gf2Matrix.zeros(4, 4)) == 0


def test_rank_leaves_the_matrix_untouched() -> None:
    a = Gf2Matrix.from_rows([[1, 1], [1, 0]])
    before = a.packed_rows()
    mat_rank(a)
    assert a.packed_rows() == before


def test_transpose_swaps_axes() -> None:
    rng = random.Random(0xC005)
    a = random_matrix(rng, 4, 6)
    t = mat_transpose(a)
    assert (t.rows, t.cols) == (6, 4)
    for i in range(4):
        for j in range(6):
            assert t.entry(j, i) == a.entry(i, j)
    assert mat_transpose(t) == a


def test_inverse_of_random_invertible_matrices() -> None:
    rng = random.Random(0xC006)
    found = 0
    while found < 10:
        a = random_matrix(rng, 6, 6)
        if mat_rank(a) < 6:
            continue
        found += 1
        inv = mat_inverse(a)
        assert mat_mul(a, inv) == Gf2Matrix.identity(6)
        assert mat_mul(inv, a) == Gf2Matrix.identity(6)


def test_inverse_rejects_singular_and_non_square() -> None:
    with pytest.raises(DomainError, match="singular"):
        mat_inverse(Gf2Matrix.from_rows([[1, 1], [1, 1]]))
    with pytest.raises(DimensionError):
        mat_inverse(Gf2Matrix.zeros(2, 3))


def test_format_matrix_layout() -> None:
    a = Gf2Matrix.from_rows([[1, 1], [0, 1]])
    assert format_matrix(a) == "2 2\n11\n01\n"


def test_parse_format_round_trip() -> None:
    rng = random.Random(0xC007)
    for _ in range(10):
        a = random_matrix(rng, rng.randrange(1, 6), rng.randrange(1, 6))
        assert parse_matrix(format_matrix(a)) == a


def test_parse_matrix_skips_comments_and_blank_lines() -> None:
    text = "# header comment\n\n2 2\n# rows follow\n11\n\n01\n"
    assert parse_matrix(text) == Gf2Matrix.from_rows([[1, 1], [0, 1]])


@pytest.mark.parametrize(
    ("text", "fragment"),
    [
        ("", "missing"),
        ("2\n11\n01\n", "line 1"),
        ("a b\n", "line 1"),
        ("2 2\n11\n", "expected 2 data rows"),
        ("2 2\n11\n01\n10\n", "line 4"),
        ("2 2\n11\n0x\n", "line 3"),
        ("2 2\n111\n01\n", "line 2"),
    ],
)
def test_parse_matrix_reports_line_numbers(text: str, fragment: str) -> None:
    with pytest.raises(ParseError, match=fragment):
        parse_matrix(text)


@pytest.mark.parametrize("text", ["\u00b2 2\n11\n01\n", "1 \uff11\n1\n", "1 1\n\uff11\n"])
def test_parse_matrix_accepts_ascii_digits_only(text: str) -> None:
    with pytest.raises(ParseError, match="line"):
        parse_matrix(text)


def test_to01_writes_entry_k_as_character_k() -> None:
    assert BitVector(0, 0).to01() == ""
    assert BitVector(1, 0).to01() == "0"
    assert BitVector(5, 0b00110).to01() == "01100"
    rng = random.Random(0xC008)
    for length in range(1, 70):
        bits = rng.getrandbits(length)
        assert BitVector(length, bits).to01() == "".join(str(bits >> k & 1) for k in range(length))
