"""Property tests of the text formats: round trips, tolerated noise, and fuzzing.

The default profile (tests/conftest.py) is derandomized with a bounded example
count; ``pytest --hypothesis-profile=fuzz`` searches much longer.
"""

from __future__ import annotations

import contextlib
import io
import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given
from hypothesis import strategies as st

from booldiff import BoolDiffError, Digraph, format_digraph, parse_bf, parse_digraph, parse_matrix, parse_subset
from booldiff.cli import main


@st.composite
def digraphs(draw, max_n: int = 6) -> Digraph:
    n = draw(st.integers(0, max_n))
    size = 1 << n
    # Mix empty, sparse and dense rows so both orderings of a row are exercised.
    row = st.one_of(st.just(0), st.integers(0, size - 1).map(lambda d: 1 << d), st.integers(0, (1 << size) - 1))
    return Digraph(n, tuple(draw(st.lists(row, min_size=size, max_size=size))))


@given(digraphs())
def test_parse_inverts_format(a: Digraph) -> None:
    assert parse_digraph(format_digraph(a)) == a


def _noisy_subset(rnd: random.Random, name: str) -> str:
    def ws() -> str:
        return rnd.choice(("", "", " ", "\t", "  "))

    elems = [rnd.choice(("", "", "0", "00")) + e for e in name[1:-1].split(",") if e]
    return "{" + ws() + (ws() + "," + ws()).join(elems) + ws() + "}"


def _noisy(rnd: random.Random, text: str) -> str:
    # Canonical text with whitespace inside and between fields, leading zeros,
    # and blank and comment lines; most edge lines miss the lookup table.
    first, *edges = text.splitlines()
    lines = [rnd.choice(("", " ", "\t")) + first + rnd.choice(("", " ", "\t"))]
    for line in edges:
        c, d = line.split(" ")
        lines.append(rnd.choice(("", " ", "\t")) + _noisy_subset(rnd, c) + rnd.choice(("", " ", "\t", " \t "))
                     + _noisy_subset(rnd, d) + rnd.choice(("", " ", "\t")))
        if rnd.randrange(4) == 0:
            lines.append(rnd.choice(("", "  ", "# comment", "\t# {1} {1}")))
    return "\n".join(lines) + "\n"


@given(digraphs(max_n=4), st.randoms(use_true_random=False))
def test_noisy_canonical_text_parses_to_the_same_digraph(a: Digraph, rnd: random.Random) -> None:
    assert parse_digraph(_noisy(rnd, format_digraph(a))) == a


# Text near the formats' grammar reaches deeper than arbitrary text does.
_GRAMMAR = st.text(alphabet="{}0123456789, #\n\t²１", max_size=80)
_HEADERS = st.sampled_from(["", "0\n", "1\n", "2\n", "2 2\n", "4 4\n", "1\n{} {}\n"])
_TEXT = st.one_of(st.text(max_size=80), st.builds(str.__add__, _HEADERS, _GRAMMAR))


@given(_TEXT)
def test_parsers_raise_only_package_errors(text: str) -> None:
    for parse in (parse_digraph, parse_matrix, parse_bf, lambda t: parse_subset(t, 3)):
        with contextlib.suppress(BoolDiffError):
            parse(text)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@given(st.one_of(st.binary(max_size=80), _TEXT.map(str.encode)))
def test_cli_exits_with_a_documented_code_on_any_file(fuzz_file, data: bytes) -> None:
    fuzz_file.write_bytes(data)
    path = str(fuzz_file)
    commands = (
        ["rank", path, "--basis", "xd"],
        ["apply", path, path, "--basis", "md"],
        ["digraph", path, "--basis", "xs"],
        ["product", path, path, "--basis", "ms"],
    )
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 2, 3, 4)
