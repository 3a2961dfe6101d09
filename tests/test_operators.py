"""Tests for the digraph encoding of operators in all four bases."""

from __future__ import annotations

import random

import pytest

from booldiff import (
    Basis,
    BooleanFunction,
    Digraph,
    DimensionError,
    DomainError,
    Gf2Matrix,
    ParseError,
    apply_operator,
    change_operator_basis,
    format_digraph,
    format_operator,
    identity_digraph,
    mask_of,
    mat_mul,
    operator_digraph,
    operator_expr,
    operator_matrix,
    operator_rank_profile,
    parse_digraph,
    sorted_edges,
)

from helpers import (
    closed_form_digraph,
    closed_form_matrix,
    pointwise_apply,
    random_digraph,
    random_function,
    random_matrix,
)

ALL_BASES = list(Basis)


@pytest.mark.parametrize("basis", ALL_BASES)
def test_identity_digraph_has_the_identity_matrix(basis: Basis) -> None:
    for n in range(4):
        assert operator_matrix(identity_digraph(n, basis), basis) == Gf2Matrix.identity(1 << n)


@pytest.mark.parametrize("basis", ALL_BASES)
def test_identity_digraph_fixes_every_function(basis: Basis) -> None:
    rng = random.Random(0xE001)
    for n in range(4):
        e = identity_digraph(n, basis)
        for _ in range(5):
            f = random_function(rng, n)
            assert apply_operator(e, basis, f) == f


@pytest.mark.parametrize("basis", ALL_BASES)
def test_operator_matrix_matches_entrywise_closed_form(basis: Basis) -> None:
    rng = random.Random(0xE002)
    for n in range(4):
        for _ in range(4):
            a = random_digraph(rng, n)
            assert operator_matrix(a, basis) == closed_form_matrix(a, basis)


@pytest.mark.parametrize("basis", ALL_BASES)
def test_operator_digraph_matches_entrywise_closed_form(basis: Basis) -> None:
    rng = random.Random(0xE003)
    for n in range(3):
        size = 1 << n
        for _ in range(4):
            m = random_matrix(rng, size, size)
            assert operator_digraph(m, basis) == closed_form_digraph(m, basis)


@pytest.mark.parametrize("basis", ALL_BASES)
def test_matrix_and_digraph_maps_invert_each_other(basis: Basis) -> None:
    rng = random.Random(0xE004)
    for n in range(4):
        size = 1 << n
        for _ in range(5):
            a = random_digraph(rng, n)
            assert operator_digraph(operator_matrix(a, basis), basis) == a
            m = random_matrix(rng, size, size)
            assert operator_matrix(operator_digraph(m, basis), basis) == m


def test_operator_digraph_rejects_bad_shapes() -> None:
    with pytest.raises(DomainError):
        operator_digraph(Gf2Matrix.zeros(2, 4), Basis.MS)
    with pytest.raises(DomainError):
        operator_digraph(Gf2Matrix.zeros(3, 3), Basis.MS)


@pytest.mark.parametrize("basis", ALL_BASES)
def test_apply_operator_matches_definition_level_application(basis: Basis) -> None:
    rng = random.Random(0xE005)
    for n in range(4):
        for _ in range(4):
            a = random_digraph(rng, n)
            f = random_function(rng, n)
            assert apply_operator(a, basis, f) == pointwise_apply(a, basis, f)


@pytest.mark.parametrize("basis", ALL_BASES)
def test_apply_operator_matches_the_matrix_action(basis: Basis) -> None:
    rng = random.Random(0xE006)
    for n in range(4):
        size = 1 << n
        for _ in range(4):
            a = random_digraph(rng, n)
            f = random_function(rng, n)
            col = Gf2Matrix.from_rows([[f.truth.bit(k)] for k in range(size)])
            out = mat_mul(operator_matrix(a, basis), col)
            got = apply_operator(a, basis, f)
            assert [out.entry(k, 0) for k in range(size)] == [got.truth.bit(k) for k in range(size)]


def test_apply_operator_checks_dimensions() -> None:
    with pytest.raises(DimensionError):
        apply_operator(Digraph.empty(2), Basis.MS, BooleanFunction.zero(3))


@pytest.mark.parametrize("source", ALL_BASES)
@pytest.mark.parametrize("target", ALL_BASES)
def test_change_operator_basis_preserves_the_operator(source: Basis, target: Basis) -> None:
    rng = random.Random(0xE007)
    for n in range(4):
        for _ in range(3):
            a = random_digraph(rng, n)
            b = change_operator_basis(a, source, target)
            assert operator_matrix(b, target) == operator_matrix(a, source)
            assert change_operator_basis(b, target, source) == a


@pytest.mark.parametrize("source", ALL_BASES)
@pytest.mark.parametrize("target", ALL_BASES)
def test_change_operator_basis_maps_identity_to_identity(source: Basis, target: Basis) -> None:
    for n in range(4):
        got = change_operator_basis(identity_digraph(n, source), source, target)
        assert got == identity_digraph(n, target)


def test_rank_profile_frozen_cases() -> None:
    assert operator_rank_profile(Digraph.empty(2), Basis.MS) == (0, 1, 16)
    assert operator_rank_profile(identity_digraph(2, Basis.MS), Basis.MS) == (4, 16, 1)
    assert operator_rank_profile(Digraph.from_edges(1, [(0, 0)]), Basis.MS) == (1, 2, 2)


@pytest.mark.parametrize("basis", ALL_BASES)
def test_rank_profile_sizes_are_powers_tied_to_rank(basis: Basis) -> None:
    rng = random.Random(0xE008)
    for _ in range(10):
        a = random_digraph(rng, 3)
        rank, image, kernel = operator_rank_profile(a, basis)
        assert image == 1 << rank
        assert kernel == 1 << (8 - rank)


def test_sorted_edges_uses_card_lex_pairs() -> None:
    a = Digraph.from_edges(
        2, [(mask_of([1, 2]), 0), (0, mask_of([2])), (0, mask_of([1, 2])), (mask_of([2]), 0)]
    )
    assert sorted_edges(a) == [
        (0, mask_of([2])),
        (0, mask_of([1, 2])),
        (mask_of([2]), 0),
        (mask_of([1, 2]), 0),
    ]


def test_expression_formatting_frozen_cases() -> None:
    assert format_operator(Digraph.empty(1), Basis.MS) == "0"
    assert format_operator(identity_digraph(1, Basis.MS), Basis.MS) == "1"
    assert format_operator(Digraph.from_edges(1, [(0, 0)]), Basis.MS) == "m^{}s^{}"
    jordan = Digraph.from_edges(1, [(0, 0), (0, 1), (1, 0)])
    assert format_operator(jordan, Basis.MS) == "m^{}s^{1} + 1"
    assert format_operator(jordan, Basis.MS, collapse=False) == "m^{}s^{} + m^{}s^{1} + m^{1}s^{}"
    one_term = Digraph.from_edges(2, [(mask_of([1]), mask_of([1, 2]))])
    assert format_operator(one_term, Basis.MS) == "m^{1}s^{1,2}"
    assert format_operator(one_term, Basis.MD) == "m^{1}d^{1,2}"
    assert format_operator(one_term, Basis.XS) == "x^{1}s^{1,2}"
    assert format_operator(one_term, Basis.XD) == "x^{1}d^{1,2}"


def test_expression_terms_are_card_lex_ordered() -> None:
    a = Digraph.from_edges(2, [(mask_of([2]), 0), (mask_of([1]), mask_of([1, 2]))])
    expr = operator_expr(a, Basis.MS)
    assert str(expr) == "m^{1}s^{1,2} + m^{2}s^{}"
    assert not expr.collapse_identity


def test_format_digraph_is_canonical() -> None:
    a = Digraph.from_edges(2, [(mask_of([1, 2]), 0), (0, mask_of([2]))])
    assert format_digraph(a) == "2\n{} {2}\n{1,2} {}\n"


def test_parse_digraph_round_trip() -> None:
    rng = random.Random(0xE009)
    for n in range(4):
        for _ in range(5):
            a = random_digraph(rng, n)
            assert parse_digraph(format_digraph(a)) == a


def test_parse_digraph_tolerates_comments_and_spacing() -> None:
    text = "# an operator\n2\n\n{ 1 , 2 }  { }\n{} {2}\n"
    got = parse_digraph(text)
    assert got == Digraph.from_edges(2, [(mask_of([1, 2]), 0), (0, mask_of([2]))])


@pytest.mark.parametrize(
    ("text", "fragment"),
    [
        ("", "missing dimension"),
        ("x\n{} {}\n", "line 1"),
        ("1\nnobraces\n", "line 2"),
        ("1\n{2} {}\n", "line 2"),
        ("1\n{1} {}\n{ 1 } {}\n", "line 3: duplicate"),
        ("1\n{1} {1} {1}\n", "line 2"),
    ],
)
def test_parse_digraph_reports_line_numbers(text: str, fragment: str) -> None:
    with pytest.raises(ParseError, match=fragment):
        parse_digraph(text)


@pytest.mark.parametrize("text", ["\u00b2\n", "\uff11\n{} {}\n", "1\n{\uff11} {}\n", "1\n{} {\u00b9}\n"])
def test_parse_digraph_accepts_ascii_digits_only(text: str) -> None:
    with pytest.raises(ParseError, match="line"):
        parse_digraph(text)


def test_parse_digraph_reads_leading_zeros() -> None:
    assert parse_digraph("02\n{01} {002}\n") == Digraph.from_edges(2, [(mask_of([1]), mask_of([2]))])


def test_digraph_validates_its_edges() -> None:
    with pytest.raises(DomainError):
        Digraph.from_edges(1, [(2, 0)])
    with pytest.raises(DomainError):
        Digraph.from_edges(1, [(0, -1)])
    with pytest.raises(DomainError):
        Digraph(1, (0, 0, 0))
    with pytest.raises(DomainError):
        Digraph(1, (0, 1 << 2))
    with pytest.raises(DomainError):
        Digraph(1, (-1, 0))
    a = random_digraph(random.Random(0xE0D6), 3)
    assert Digraph.from_edges(a.n, a.edges) == a


def test_basis_from_string() -> None:
    assert Basis.from_string("MS") is Basis.MS
    assert Basis.from_string("xd") is Basis.XD
    with pytest.raises(DomainError):
        Basis.from_string("zz")
