"""Tests for the four digraph products and their two computation routes."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from booldiff import (
    Basis,
    CapacityError,
    Digraph,
    DimensionError,
    DomainError,
    Gf2Matrix,
    identity_digraph,
    jordan_digraph,
    mask_of,
    mat_mul,
    multiplication_table,
    operator_matrix,
    product,
    star_decomposed,
    star_product,
    star_single_edge,
)
from booldiff.gf2 import _mul_kernel, _mul_rows_four_russians
from booldiff.operators import _matrix_rows_masked
from booldiff.products import digraph_label, enumerate_all_digraphs, matrix_route_product

from helpers import random_digraph

ALL_BASES = list(Basis)


@pytest.mark.parametrize("basis", ALL_BASES)
def test_direct_and_matrix_routes_agree(basis: Basis) -> None:
    rng = random.Random(0xF001)
    for n in range(3):
        for _ in range(15):
            a = random_digraph(rng, n)
            b = random_digraph(rng, n)
            direct = product(a, b, basis, route="direct")
            assert direct == matrix_route_product(a, b, basis)
            assert direct == product(a, b, basis, route="auto")


@pytest.mark.parametrize("basis", ALL_BASES)
def test_routes_agree_on_every_pair_of_single_edges(basis: Basis) -> None:
    # Both routes are bilinear, and single edges span the digraphs, so this
    # decides agreement on every pair of operands at n <= 3.
    for n in range(4):
        size = 1 << n
        edges = [Digraph.from_edges(n, [(c, d)]) for c in range(size) for d in range(size)]
        for a in edges:
            for b in edges:
                assert product(a, b, basis, route="direct") == matrix_route_product(a, b, basis)


def test_star_product_agrees_with_the_four_russians_matrix_route() -> None:
    rng = random.Random(0xF00D)
    for n in (7, 8):
        size = 1 << n
        a, b = (Digraph(n, tuple(rng.getrandbits(size) for _ in range(size))) for _ in range(2))
        rows_a, rows_b = _matrix_rows_masked(a, Basis.MS), _matrix_rows_masked(b, Basis.MS)
        assert _mul_kernel(rows_a, rows_b) is _mul_rows_four_russians, n
        assert star_product(a, b) == matrix_route_product(a, b, Basis.MS), n


@pytest.mark.parametrize("basis", ALL_BASES)
def test_product_is_composition_of_the_operators(basis: Basis) -> None:
    rng = random.Random(0xF002)
    for n in range(3):
        for _ in range(10):
            a = random_digraph(rng, n)
            b = random_digraph(rng, n)
            got = operator_matrix(product(a, b, basis), basis)
            want = mat_mul(operator_matrix(a, basis), operator_matrix(b, basis))
            assert got == want


@pytest.mark.parametrize("basis", ALL_BASES)
def test_identity_digraph_is_a_two_sided_unit(basis: Basis) -> None:
    rng = random.Random(0xF003)
    for n in range(3):
        e = identity_digraph(n, basis)
        for _ in range(5):
            a = random_digraph(rng, n)
            assert product(e, a, basis) == a
            assert product(a, e, basis) == a


def test_star_is_associative_on_samples() -> None:
    rng = random.Random(0xF004)
    for _ in range(10):
        a, b, c = (random_digraph(rng, 2) for _ in range(3))
        assert star_product(star_product(a, b), c) == star_product(a, star_product(b, c))


def test_single_edge_star_closed_form_exhaustive_n2() -> None:
    for a in range(4):
        for b in range(4):
            ga = Digraph.from_edges(2, [(a, b)])
            for c in range(4):
                for d in range(4):
                    gb = Digraph.from_edges(2, [(c, d)])
                    assert star_single_edge(2, a, b, c, d) == star_product(ga, gb)


@pytest.mark.parametrize("mode", ["col_col", "col_row", "row_row"])
def test_star_decompositions_match_the_product(mode: str) -> None:
    rng = random.Random(0xF005)
    for n in range(4):
        for _ in range(10):
            a = random_digraph(rng, n)
            b = random_digraph(rng, n)
            assert star_decomposed(a, b, mode) == star_product(a, b)


def test_star_decomposed_rejects_unknown_modes() -> None:
    with pytest.raises(DomainError):
        star_decomposed(Digraph.empty(1), Digraph.empty(1), "diagonal")


def test_product_route_validation() -> None:
    a = Digraph.empty(1)
    with pytest.raises(DomainError):
        product(a, a, Basis.MS, route="sideways")
    with pytest.raises(DimensionError):
        product(Digraph.empty(1), Digraph.empty(2), Basis.MS)


def test_direct_route_is_capped_but_matrix_route_is_not() -> None:
    a = Digraph.from_edges(5, [(1, 2), (3, 0)])
    b = Digraph.from_edges(5, [(2, 2)])
    with pytest.raises(CapacityError, match="matrix route"):
        product(a, b, Basis.XD, route="direct")
    via_matrix = product(a, b, Basis.XD, route="matrix")
    assert product(a, b, Basis.XD, route="auto") == via_matrix


def test_digraph_label_frozen_cases() -> None:
    assert digraph_label(Digraph.empty(1)) == "0"
    assert digraph_label(Digraph.from_edges(1, [(1, 0), (0, 1)])) == "{(0,1),(1,0)}"
    assert digraph_label(Digraph.from_edges(1, [(1, 1)])) == "{(1,1)}"


def test_enumerate_all_digraphs_ordering() -> None:
    zero_n = enumerate_all_digraphs(0)
    assert [digraph_label(g) for g in zero_n] == ["0", "{(0,0)}"]

    one_n = enumerate_all_digraphs(1)
    assert len(one_n) == 16
    labels = [digraph_label(g) for g in one_n]
    assert labels[0] == "0"
    assert labels[1:5] == ["{(0,0)}", "{(0,1)}", "{(1,0)}", "{(1,1)}"]
    assert labels[5] == "{(0,0),(0,1)}"
    assert labels[-1] == "{(0,0),(0,1),(1,0),(1,1)}"
    assert len(set(labels)) == 16

    with pytest.raises(CapacityError):
        enumerate_all_digraphs(2)


def test_multiplication_table_n0_is_frozen() -> None:
    table = multiplication_table(0, Basis.MS)
    assert table.labels() == ["0", "{(0,0)}"]
    assert table.to_tsv() == "\t0\t{(0,0)}\n0\t0\t0\n{(0,0)}\t0\t{(0,0)}\n"


def test_multiplication_table_row_count_n1() -> None:
    table = multiplication_table(1, Basis.MS)
    assert len(table.digraphs) == 16
    assert len(table.cells) == 16
    assert all(len(row) == 16 for row in table.cells)


def test_multiplication_table_is_capped() -> None:
    with pytest.raises(CapacityError):
        multiplication_table(2, Basis.MS)


def _jordan_matrix(size: int) -> Gf2Matrix:
    rows = [(1 << i) | ((1 << (i + 1)) if i + 1 < size else 0) for i in range(size)]
    return Gf2Matrix.from_packed_rows(size, size, rows)


def test_jordan_digraph_frozen_edges_n1() -> None:
    got = jordan_digraph(1, Basis.MS)
    assert got == Digraph.from_edges(1, [(0, 0), (0, mask_of([1])), (mask_of([1]), 0)])


@pytest.mark.parametrize("basis", ALL_BASES)
def test_jordan_digraph_represents_the_jordan_matrix(basis: Basis) -> None:
    for n in range(1, 4):
        got = operator_matrix(jordan_digraph(n, basis), basis)
        assert got == _jordan_matrix(1 << n)


def test_jordan_digraph_needs_a_positive_dimension() -> None:
    with pytest.raises(DomainError):
        jordan_digraph(0, Basis.MS)


def test_two_edge_pairs_agree_across_routes_n1() -> None:
    slots = [(c, d) for c in range(2) for d in range(2)]
    graphs = [Digraph.empty(1)]
    graphs += [Digraph.from_edges(1, [e]) for e in slots]
    graphs += [Digraph.from_edges(1, list(pair)) for pair in combinations(slots, 2)]
    for basis in ALL_BASES:
        for a in graphs:
            for b in graphs:
                direct = product(a, b, basis, route="direct")
                assert direct == product(a, b, basis, route="matrix")
