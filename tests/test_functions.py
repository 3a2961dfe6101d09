"""Tests for Boolean functions, their two bases, shifts and derivatives."""

from __future__ import annotations

import random

import pytest

from booldiff import (
    BooleanFunction,
    DimensionError,
    DomainError,
    ParseError,
    bf_add,
    bf_mul,
    change_function_basis,
    derivative,
    format_bf,
    from_m_coeffs,
    from_x_coeffs,
    m_basis,
    m_coeffs,
    mask_of,
    parse_bf,
    shift,
    x_basis,
    x_coeffs,
)
from booldiff.lattice import is_subset

from helpers import iterated_difference, point_values, random_function


def test_truth_vector_is_card_lex_indexed() -> None:
    f = BooleanFunction.from_truth(2, [0, 1, 0, 0])
    assert f.value_at(0) == 0
    assert f.value_at(mask_of([1])) == 1
    assert f.value_at(mask_of([2])) == 0
    assert f.value_at(mask_of([1, 2])) == 0


def test_constants() -> None:
    assert all(v == 0 for v in point_values(BooleanFunction.zero(3)).values())
    assert all(v == 1 for v in point_values(BooleanFunction.one(3)).values())


def test_truth_length_is_validated() -> None:
    with pytest.raises(DomainError):
        BooleanFunction.from_truth(2, [0, 1])


def test_m_basis_is_a_point_mass() -> None:
    for n in range(4):
        for a in range(1 << n):
            f = m_basis(a, n)
            for p in range(1 << n):
                assert f.value_at(p) == (1 if p == a else 0)


def test_x_basis_is_an_up_set_indicator() -> None:
    for n in range(4):
        for a in range(1 << n):
            f = x_basis(a, n)
            for p in range(1 << n):
                assert f.value_at(p) == (1 if is_subset(a, p) else 0)


def test_x_basis_expands_as_sum_of_point_masses_over_supersets() -> None:
    n = 3
    for a in range(1 << n):
        acc = BooleanFunction.zero(n)
        for b in range(1 << n):
            if is_subset(a, b):
                acc = bf_add(acc, m_basis(b, n))
        assert acc == x_basis(a, n)


def test_add_and_mul_are_pointwise() -> None:
    rng = random.Random(0xD001)
    for _ in range(10):
        f = random_function(rng, 3)
        g = random_function(rng, 3)
        s = bf_add(f, g)
        p = bf_mul(f, g)
        for a in range(8):
            assert s.value_at(a) == f.value_at(a) ^ g.value_at(a)
            assert p.value_at(a) == f.value_at(a) & g.value_at(a)
    with pytest.raises(DimensionError):
        bf_add(random_function(rng, 2), random_function(rng, 3))
    with pytest.raises(DimensionError):
        bf_mul(random_function(rng, 2), random_function(rng, 3))


def test_shift_translates_the_argument() -> None:
    rng = random.Random(0xD002)
    for n in range(4):
        for _ in range(5):
            f = random_function(rng, n)
            for d in range(1 << n):
                g = shift(f, d)
                for a in range(1 << n):
                    assert g.value_at(a) == f.value_at(a ^ d)
                assert shift(g, d) == f


def test_derivative_matches_iterated_differences() -> None:
    rng = random.Random(0xD003)
    for n in range(4):
        for _ in range(5):
            f = random_function(rng, n)
            for d in range(1 << n):
                assert derivative(f, d) == iterated_difference(f, d)


def test_derivative_basics() -> None:
    rng = random.Random(0xD004)
    f = random_function(rng, 3)
    assert derivative(f, 0) == f
    i, j = mask_of([1]), mask_of([3])
    assert derivative(derivative(f, i), j) == derivative(f, i | j)
    assert derivative(derivative(f, i), i) == BooleanFunction.zero(3)


def test_coefficient_round_trips() -> None:
    rng = random.Random(0xD005)
    for n in range(4):
        for _ in range(5):
            f = random_function(rng, n)
            assert from_m_coeffs(n, m_coeffs(f)) == f
            assert from_x_coeffs(n, x_coeffs(f)) == f


def test_m_coeffs_are_the_point_values() -> None:
    f = BooleanFunction.from_truth(2, [1, 0, 1, 0])
    packed = m_coeffs(f)
    for a in range(4):
        assert packed >> a & 1 == f.value_at(a)


def test_x_coeffs_of_basis_functions_are_single_bits() -> None:
    for n in range(4):
        for a in range(1 << n):
            assert x_coeffs(x_basis(a, n)) == 1 << a
            assert m_coeffs(m_basis(a, n)) == 1 << a


def test_change_function_basis_is_an_involution() -> None:
    rng = random.Random(0xD006)
    for n in range(5):
        for _ in range(10):
            coeffs = rng.getrandbits(1 << n)
            out = change_function_basis(coeffs, n, "m_to_x")
            assert change_function_basis(out, n, "x_to_m") == coeffs
    with pytest.raises(DomainError):
        change_function_basis(0, 2, "x_to_y")


def test_basis_change_agrees_with_reassembly() -> None:
    rng = random.Random(0xD007)
    n = 3
    for _ in range(10):
        f = random_function(rng, n)
        assert change_function_basis(m_coeffs(f), n, "m_to_x") == x_coeffs(f)
        assert from_m_coeffs(n, change_function_basis(x_coeffs(f), n, "x_to_m")) == f


def test_coefficient_maps_must_fit() -> None:
    with pytest.raises(DomainError):
        from_m_coeffs(1, 0b100)
    with pytest.raises(DomainError):
        from_x_coeffs(1, 0b100)


def test_format_bf_layout() -> None:
    f = BooleanFunction.from_truth(1, [0, 1])
    assert format_bf(f) == "1\n01\n"


def test_parse_format_round_trip() -> None:
    rng = random.Random(0xD008)
    for n in range(4):
        f = random_function(rng, n)
        assert parse_bf(format_bf(f)) == f


def test_parse_bf_skips_comments() -> None:
    assert parse_bf("# four points\n2\n\n0110\n") == BooleanFunction.from_truth(2, [0, 1, 1, 0])


@pytest.mark.parametrize(
    ("text", "fragment"),
    [
        ("", "truncated"),
        ("2\n", "truncated"),
        ("x\n0110\n", "line 1"),
        ("2\n01\n", "line 2"),
        ("2\n01x0\n", "line 2"),
        ("2\n0110\n0110\n", "line 3"),
    ],
)
def test_parse_bf_reports_line_numbers(text: str, fragment: str) -> None:
    with pytest.raises(ParseError, match=fragment):
        parse_bf(text)


@pytest.mark.parametrize("text", ["\u00b2\n0110\n", "\uff11\n01\n", "1\n0\uff11\n"])
def test_parse_bf_accepts_ascii_digits_only(text: str) -> None:
    with pytest.raises(ParseError, match="line"):
        parse_bf(text)
