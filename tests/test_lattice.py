"""Tests for subset masks, card-lex indexing and the packed transforms."""

from __future__ import annotations

import random

import pytest

from booldiff import (
    CapacityError,
    DomainError,
    ParseError,
    elements,
    format_subset,
    index_of,
    mask_of,
    parse_subset,
    singleton,
    subset_of,
    subset_sum_transform,
    subsets_iter,
)
from booldiff.lattice import (
    DEFAULT_N_MAX,
    ENV_N_MAX,
    _upset,
    bits_of,
    is_subset,
    n_max,
    shift_packed,
    sym_diff,
    tables,
    validate_dimension,
    validate_subset,
)

from helpers import naive_subset_sum


def test_mask_and_elements_round_trip() -> None:
    assert mask_of([1, 3]) == 0b101
    assert elements(0b101) == (1, 3)
    assert elements(0) == ()
    assert mask_of([]) == 0
    assert singleton(4) == 0b1000
    for s in range(64):
        assert mask_of(elements(s)) == s


def test_mask_of_rejects_non_positive_elements() -> None:
    with pytest.raises(DomainError):
        mask_of([0])
    with pytest.raises(DomainError):
        singleton(0)


def test_bits_of_is_ascending() -> None:
    assert list(bits_of(0b10110)) == [1, 2, 4]
    assert list(bits_of(0)) == []


def test_sym_diff_is_xor() -> None:
    assert sym_diff(mask_of([1, 2]), mask_of([1, 2])) == 0
    assert sym_diff(mask_of([1, 2]), mask_of([2, 3])) == mask_of([1, 3])


def test_card_lex_order_small_n() -> None:
    order = [subset_of(k, 4) for k in range(16)]
    expected = [
        mask_of(e)
        for e in [
            (),
            (1,),
            (2,),
            (3,),
            (4,),
            (1, 2),
            (1, 3),
            (1, 4),
            (2, 3),
            (2, 4),
            (3, 4),
            (1, 2, 3),
            (1, 2, 4),
            (1, 3, 4),
            (2, 3, 4),
            (1, 2, 3, 4),
        ]
    ]
    assert order == expected


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_index_and_subset_are_inverse(n: int) -> None:
    size = 1 << n
    assert sorted(index_of(s, n) for s in range(size)) == list(range(size))
    for k in range(size):
        assert index_of(subset_of(k, n), n) == k


def test_subset_of_rejects_bad_positions() -> None:
    with pytest.raises(DomainError):
        subset_of(4, 1)
    with pytest.raises(DomainError):
        subset_of(-1, 1)


def test_subsets_iter_enumerates_every_subset_once() -> None:
    for d in range(32):
        seen = list(subsets_iter(d))
        assert len(seen) == 1 << d.bit_count()
        assert len(set(seen)) == len(seen)
        assert all(is_subset(c, d) for c in seen)


def test_shift_packed_matches_per_point_reindexing() -> None:
    rng = random.Random(0xB001)
    for n in range(5):
        size = 1 << n
        for _ in range(20):
            v = rng.getrandbits(size)
            d = rng.randrange(size)
            w = shift_packed(v, d, n)
            for a in range(size):
                assert w >> a & 1 == v >> (a ^ d) & 1


def test_shift_packed_is_an_involution() -> None:
    rng = random.Random(0xB002)
    for n in range(5):
        size = 1 << n
        for _ in range(20):
            v = rng.getrandbits(size)
            d = rng.randrange(size)
            assert shift_packed(shift_packed(v, d, n), d, n) == v
            assert shift_packed(v, 0, n) == v


@pytest.mark.parametrize("direction", ["down", "up"])
def test_subset_sum_transform_matches_naive(direction: str) -> None:
    rng = random.Random(0xB003)
    for n in range(5):
        for _ in range(10):
            v = rng.getrandbits(1 << n)
            assert subset_sum_transform(v, n, direction) == naive_subset_sum(v, n, direction)


@pytest.mark.parametrize("direction", ["down", "up"])
def test_subset_sum_transform_is_an_involution(direction: str) -> None:
    rng = random.Random(0xB004)
    for n in range(6):
        for _ in range(10):
            v = rng.getrandbits(1 << n)
            assert subset_sum_transform(subset_sum_transform(v, n, direction), n, direction) == v


def test_subset_sum_transform_rejects_bad_input() -> None:
    with pytest.raises(DomainError):
        subset_sum_transform(0, 2, "sideways")
    with pytest.raises(DomainError):
        subset_sum_transform(1 << 4, 2, "down")


def test_upsets_table_selects_supersets() -> None:
    t = tables(3)
    for c in range(8):
        for p in range(8):
            assert _upset(c, t) >> p & 1 == (1 if is_subset(c, p) else 0)


def test_validate_dimension_bounds() -> None:
    with pytest.raises(DomainError):
        validate_dimension(-1)
    with pytest.raises(DomainError):
        validate_dimension(2.0)  # type: ignore[arg-type]
    with pytest.raises(DomainError):
        validate_dimension(True)  # type: ignore[arg-type]
    assert validate_dimension(DEFAULT_N_MAX) == DEFAULT_N_MAX
    with pytest.raises(CapacityError, match=ENV_N_MAX):
        validate_dimension(DEFAULT_N_MAX + 1)


def test_dimension_cap_follows_environment(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setenv(ENV_N_MAX, "3")
    assert n_max() == 3
    assert validate_dimension(3) == 3
    with pytest.raises(CapacityError):
        validate_dimension(4)
    monkeypatch.setenv(ENV_N_MAX, "twelve")
    with pytest.raises(DomainError):
        n_max()


def test_validate_subset_bounds() -> None:
    assert validate_subset(0b11, 2) == 0b11
    with pytest.raises(DomainError):
        validate_subset(0b100, 2)
    with pytest.raises(DomainError):
        validate_subset(-1, 2)
    with pytest.raises(DomainError):
        validate_subset(True, 2)  # type: ignore[arg-type]


def test_format_subset_examples() -> None:
    assert format_subset(0) == "{}"
    assert format_subset(mask_of([1, 3])) == "{1,3}"
    assert format_subset(mask_of([2])) == "{2}"


def test_parse_subset_accepts_spaces_and_round_trips() -> None:
    assert parse_subset("{}", 4) == 0
    assert parse_subset("{ }", 4) == 0
    assert parse_subset("{1,3}", 4) == mask_of([1, 3])
    assert parse_subset(" { 1 , 3 } ", 4) == mask_of([1, 3])
    for s in range(16):
        assert parse_subset(format_subset(s), 4) == s


@pytest.mark.parametrize(
    "text",
    ["1,3", "{1,3", "1,3}", "{a}", "{0}", "{5}", "{3,1}", "{1,1}", "{1,,3}"],
)
def test_parse_subset_rejects_malformed_text(text: str) -> None:
    with pytest.raises(ParseError):
        parse_subset(text, 4)


@pytest.mark.parametrize(
    "text", ["{\u00b2}", "{\uff11}", "{1,\u0663}", pytest.param("{" + "1" * 5000 + "}", id="overlong")]
)
def test_parse_subset_accepts_ascii_digits_only(text: str) -> None:
    with pytest.raises(ParseError, match="bad subset element"):
        parse_subset(text, 4)


def test_parse_subset_reads_leading_zeros() -> None:
    assert parse_subset("{01,003}", 4) == mask_of([1, 3])
