"""Tests for the two apply routes, the factored derivative and the edge decoder."""

from __future__ import annotations

import random
import sys

import pytest

from booldiff import Basis, BooleanFunction, Digraph, apply_operator, m_basis
from booldiff import lattice
from booldiff.functions import derivative_packed
from booldiff.lattice import bits_of
from booldiff.operators import _apply_masked, _apply_per_edge, _apply_route, _edge_pairs
from booldiff.products import matrix_route_product

from helpers import iterated_difference, pointwise_apply, random_function

ALL_BASES = list(Basis)
ROUTES = [_apply_per_edge, _apply_masked]


def _operands(rng: random.Random, n: int) -> dict[str, Digraph]:
    """Empty, one-edge, sparse, 2^n-edge (one edge per d), dense and full operands."""
    size = 1 << n
    full = (1 << size) - 1
    one = [0] * size
    one[rng.randrange(size)] = 1 << rng.randrange(size)
    sparse = [0] * size
    for _ in range(n + 1):
        sparse[rng.randrange(size)] |= 1 << rng.randrange(size)
    per_d = [0] * size
    for d in range(size):
        per_d[rng.randrange(size)] |= 1 << d
    return {
        "empty": Digraph.empty(n),
        "one-edge": Digraph(n, tuple(one)),
        "sparse": Digraph(n, tuple(sparse)),
        "2^n-edge": Digraph(n, tuple(per_d)),
        "dense": Digraph(n, tuple(rng.getrandbits(size) for _ in range(size))),
        "full": Digraph(n, (full,) * size),
    }


def _applied(route, a: Digraph, basis: Basis, f):
    return BooleanFunction(a.n, route(a, basis, f.values))


@pytest.mark.parametrize("route", ROUTES, ids=lambda r: r.__name__)
@pytest.mark.parametrize("basis", ALL_BASES)
def test_each_route_matches_pointwise_application(route, basis: Basis) -> None:
    rng = random.Random(0xA001)
    for n in range(7):
        f = random_function(rng, n)
        for kind, a in _operands(rng, n).items():
            if n == 6 and kind in ("dense", "full") and basis in (Basis.MD, Basis.XD):
                continue  # the oracle differences f once per edge; n = 5 covers these
            assert _applied(route, a, basis, f) == pointwise_apply(a, basis, f), (n, kind)


@pytest.mark.parametrize("route", ROUTES, ids=lambda r: r.__name__)
@pytest.mark.parametrize("basis", ALL_BASES)
def test_each_route_agrees_on_every_single_edge_and_point_function(route, basis: Basis) -> None:
    # Apply is bilinear in (operand, function), and single edges and point
    # functions are bases of the two spaces, so this decides each route at n <= 3.
    for n in range(4):
        size = 1 << n
        points = [m_basis(p, n) for p in range(size)]
        for c in range(size):
            for d in range(size):
                a = Digraph.from_edges(n, [(c, d)])
                for f in points:
                    assert _applied(route, a, basis, f) == pointwise_apply(a, basis, f), (n, c, d)


def test_factored_derivative_matches_iterated_differences() -> None:
    rng = random.Random(0xA003)
    for n in range(7):
        f = random_function(rng, n)
        u = f.values
        for d in range(1 << n):
            assert BooleanFunction(n, derivative_packed(u, d, n)) == iterated_difference(f, d)


def test_edge_pairs_match_the_bit_definition() -> None:
    rng = random.Random(0xA004)
    for n in range(7):
        size = 1 << n
        full = (1 << size) - 1
        # Every density, from empty and one-bit rows to full ones.
        rows = [0, full, 1, 1 << (size - 1)] + [
            sum(1 << b for b in rng.sample(range(size), k)) for k in range(size + 1)
        ]
        for start in range(0, len(rows), size):
            chunk = rows[start : start + size]
            a = Digraph(n, tuple(chunk + [0] * (size - len(chunk))))
            want = [(c, d) for c, row in enumerate(a.rows) for d in bits_of(row)]
            assert _edge_pairs(a) == want, n
    assert _edge_pairs(Digraph(0, (1,))) == [(0, 0)]
    assert _edge_pairs(Digraph(0, (0,))) == []


def test_route_choice_at_the_extremes() -> None:
    for n in range(1, 11):
        size = 1 << n
        one = Digraph.from_edges(n, [(size - 1, 0)])
        full = Digraph(n, ((1 << size) - 1,) * size)
        assert _apply_route(one) is _apply_per_edge, n
        assert _apply_route(full) is _apply_masked, n


@pytest.fixture
def validate_subset_calls(monkeypatch) -> list[int]:
    """Counts calls to validate_subset, patched in every module that binds it."""
    calls = [0]
    original = lattice.validate_subset

    def counted(s: int, n: int) -> int:
        calls[0] += 1
        return original(s, n)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "booldiff" and getattr(module, "validate_subset", None) is original:
            monkeypatch.setattr(module, "validate_subset", counted)
    return calls


@pytest.mark.parametrize("basis", ALL_BASES)
def test_validation_calls_do_not_grow_with_the_operand(basis: Basis, validate_subset_calls) -> None:
    # Validating once per edge (or per shift) made apply cost 2^|d| validating
    # calls per edge; the count must depend on n only, not on |A|.
    rng = random.Random(0xA006)
    n, size = 6, 64
    f = random_function(rng, n)
    one = Digraph.from_edges(n, [(3, 5)])
    dense = Digraph(n, tuple(rng.getrandbits(size) for _ in range(size)))
    denser = Digraph(n, tuple(rng.getrandbits(size) | rng.getrandbits(size) for _ in range(size)))
    full = Digraph(n, ((1 << size) - 1,) * size)

    def count(call) -> int:
        before = validate_subset_calls[0]
        call()
        return validate_subset_calls[0] - before

    u = f.values
    # The public wrappers validate d once, so the patch is live where they bind it.
    assert count(lambda: derivative_packed(u, 5, n)) == 1
    assert count(lambda: lattice.shift_packed(u, 5, n)) == 1
    assert count(lambda: apply_operator(dense, basis, f)) == count(
        lambda: apply_operator(denser, basis, f)
    )
    for route in ROUTES:
        counts = {count(lambda: route(a, basis, u)) for a in (one, dense, full)}
        assert len(counts) == 1, (route.__name__, counts)
    # The matrix route shifts every non-zero row; its count must not follow
    # the operands' density, and so not the number of rows it shifts.
    counts = {count(lambda: matrix_route_product(a, a, basis)) for a in (one, dense, full)}
    assert len(counts) == 1, counts
