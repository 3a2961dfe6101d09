"""CLI output pinned by digest: exit code and SHA-256 of stdout and stderr per case.

Each case calls ``cli.main`` in-process on seeded input files and compares its
result with a row of ``data/cli_golden.tsv``.  For a case that writes with
``--out``, the "stdout" digest covers the written file's text.  Outputs are
hashed after the input directory is replaced by ``<tmp>``, so no path enters a
digest.

A change that means to alter CLI bytes regenerates the table with

    PYTHONPATH=src python tests/test_cli_golden.py

and lists the rows that changed.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import random
import sys
import tempfile
from pathlib import Path

import pytest

from booldiff.cli import main

TABLE = Path(__file__).parent / "data" / "cli_golden.tsv"
BASES = ("ms", "md", "xs", "xd")
ROUTES = ("direct", "matrix", "auto")
DIMENSIONS = range(0, 6)


def _subset(m: int) -> str:
    return "{" + ",".join(str(i + 1) for i in range(m.bit_length()) if m >> i & 1) + "}"


def _edge_text(n: int, rows: list[int]) -> str:
    # Edges in mask order, not the canonical card-lex order the CLI writes.
    size = 1 << n
    lines = [str(n)]
    lines.extend(f"{_subset(c)} {_subset(d)}" for c in range(size) for d in range(size) if rows[c] >> d & 1)
    return "\n".join(lines) + "\n"


def _noisy_edge_text(rng: random.Random, n: int, rows: list[int]) -> str:
    # The same edges with comments, blank lines, tabs and spaces inside braces.
    size = 1 << n
    pad = (" ", "\t", "  ", "")
    lines = ["# noisy copy", "", f" {n}\t"]
    for c in range(size):
        for d in range(size):
            if rows[c] >> d & 1:
                cs = ", ".join(str(i + 1) for i in range(n) if c >> i & 1)
                ds = ",".join(str(i + 1) for i in range(n) if d >> i & 1)
                lead, mid, tail = pad[rng.randrange(4)], pad[rng.randrange(3)], pad[rng.randrange(4)]
                lines.append(f"{lead}{{{cs} }}{mid} {{ {ds}}}{tail}")
                if rng.randrange(8) == 0:
                    lines.append("#")
    return "\n".join(lines) + "\n"


def _inputs() -> dict[str, str]:
    files: dict[str, str] = {}
    for n in DIMENSIONS:
        rng = random.Random(0xC11 + n)
        size = 1 << n
        a = [rng.getrandbits(size) & rng.getrandbits(size) for _ in range(size)]
        b = [rng.getrandbits(size) for _ in range(size)]
        files[f"a{n}.dg"] = _edge_text(n, a)
        files[f"b{n}.dg"] = _edge_text(n, b)
        files[f"noisy{n}.dg"] = _noisy_edge_text(rng, n, a)
        files[f"m{n}.mat"] = f"{size} {size}\n" + "".join(
            format(rng.getrandbits(size), f"0{size}b") + "\n" for _ in range(size)
        )
        files[f"f{n}.bf"] = f"{n}\n" + format(rng.getrandbits(size), f"0{size}b") + "\n"
    files["bad_element.dg"] = "1\n{2} {}\n"
    files["bad_line.dg"] = "# header\n2\n{1} {}\n{1} x\n"
    files["duplicate.dg"] = "2\n{1} {2}\n\n{1} {2}\n"
    files["unsorted.dg"] = "3\n{2,1} {}\n"
    files["no_dimension.dg"] = "# nothing\n"
    files["bad_dimension.dg"] = "two\n{} {}\n"
    files["big.dg"] = "11\n"
    files["bad_row.mat"] = "2 2\n10\n1x\n"
    files["short.mat"] = "2 2\n10\n"
    files["not_square.mat"] = "2 4\n1000\n0100\n"
    files["three.mat"] = "3 3\n100\n010\n001\n"
    files["bad_row.bf"] = "2\n0110\n01\n"
    files["short.bf"] = "2\n011\n"
    files["bad_char.bf"] = "2\n01x0\n"
    files["leading_zero.dg"] = "2\n{01} {2}\n{ 1 , 2 }\t{}\n"
    return files


def _cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    for n in DIMENSIONS:
        a, b, noisy = f"a{n}.dg", f"b{n}.dg", f"noisy{n}.dg"
        for basis in BASES:
            for route in ROUTES:
                cases[f"product-n{n}-{basis}-{route}"] = ["product", a, b, "--basis", basis, "--route", route]
                cases[f"render-n{n}-{basis}-{route}"] = ["render", a, b, "--basis", basis, "--route", route]
            for target in BASES:
                cases[f"convert-n{n}-{basis}-{target}"] = ["convert", b, "--from", basis, "--to", target]
            cases[f"matrix-n{n}-{basis}"] = ["matrix", a, "--basis", basis]
            cases[f"digraph-n{n}-{basis}"] = ["digraph", f"m{n}.mat", "--basis", basis]
            cases[f"apply-n{n}-{basis}"] = ["apply", a, f"f{n}.bf", "--basis", basis]
            cases[f"rank-n{n}-{basis}"] = ["rank", b, "--basis", basis]
            cases[f"jordan-n{n}-{basis}"] = ["jordan", "-n", str(n), "--basis", basis]
        cases[f"render-n{n}-single"] = ["render", a]
        cases[f"convert-n{n}-noisy"] = ["convert", noisy, "--from", "ms", "--to", "ms"]
        cases[f"product-n{n}-out"] = ["product", a, b, "--basis", "xd", "--route", "matrix", "--out", "out.txt"]
        cases[f"convert-n{n}-out"] = ["convert", a, "--from", "md", "--to", "xs", "--out", "out.txt"]
        cases[f"digraph-n{n}-out"] = ["digraph", f"m{n}.mat", "--basis", "xd", "--out", "out.txt"]
    cases["convert-leading-zero"] = ["convert", "leading_zero.dg", "--from", "ms", "--to", "ms"]
    for n in range(3):
        for basis in BASES:
            cases[f"table-n{n}-{basis}"] = ["table", "-n", str(n), "--basis", basis]
    errors = {
        "bad_element": ["rank", "bad_element.dg", "--basis", "ms"],
        "bad_line": ["rank", "bad_line.dg", "--basis", "ms"],
        "duplicate": ["convert", "duplicate.dg", "--from", "ms", "--to", "xd"],
        "unsorted": ["rank", "unsorted.dg", "--basis", "ms"],
        "no_dimension": ["rank", "no_dimension.dg", "--basis", "ms"],
        "bad_dimension": ["rank", "bad_dimension.dg", "--basis", "ms"],
        "missing_file": ["rank", "missing.dg", "--basis", "ms"],
        "bad_matrix_row": ["digraph", "bad_row.mat", "--basis", "ms"],
        "short_matrix": ["digraph", "short.mat", "--basis", "ms"],
        "not_square": ["digraph", "not_square.mat", "--basis", "ms"],
        "not_power_of_two": ["digraph", "three.mat", "--basis", "ms"],
        "bad_function_row": ["apply", "a2.dg", "bad_row.bf", "--basis", "ms"],
        "short_function": ["apply", "a2.dg", "short.bf", "--basis", "ms"],
        "bad_function_char": ["apply", "a2.dg", "bad_char.bf", "--basis", "ms"],
        "product_dimension_mismatch": ["product", "a1.dg", "a2.dg", "--basis", "ms"],
        "apply_dimension_mismatch": ["apply", "a3.dg", "f2.bf", "--basis", "md"],
        "dimension_over_cap": ["rank", "big.dg", "--basis", "ms"],
        "direct_over_cap": ["product", "a5.dg", "b5.dg", "--basis", "xd", "--route", "direct"],
    }
    cases.update({f"error-{name}": argv for name, argv in errors.items()})
    return cases


INPUTS = _inputs()
CASES = _cases()


def _run(workdir: Path, argv: list[str]) -> tuple[int, str, str]:
    names = INPUTS.keys() | {"missing.dg", "out.txt"}
    resolved = [str(workdir / arg) if arg in names else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(resolved)
    stdout = out.getvalue()
    if "--out" in argv:
        target = workdir / "out.txt"
        stdout += target.read_text()
        target.unlink()
    return code, stdout.replace(str(workdir), "<tmp>"), err.getvalue().replace(str(workdir), "<tmp>")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _row(case: str, workdir: Path) -> tuple[str, str, str, str]:
    code, stdout, stderr = _run(workdir, CASES[case])
    return case, str(code), _digest(stdout), _digest(stderr)


def _write_inputs(workdir: Path) -> None:
    for name, text in INPUTS.items():
        (workdir / name).write_text(text)


@functools.cache
def _load_table() -> dict[str, tuple[str, str, str, str]]:
    rows = [line.split("\t") for line in TABLE.read_text().splitlines()[1:]]
    return {row[0]: tuple(row) for row in rows}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("golden")
    _write_inputs(path)
    return path


def test_table_lists_exactly_the_cases() -> None:
    assert sorted(_load_table()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_the_golden_digest(case: str, workdir: Path) -> None:
    assert _row(case, workdir) == _load_table()[case]


def _regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        _write_inputs(workdir)
        lines = ["case\texit\tstdout_sha256\tstderr_sha256"]
        lines.extend("\t".join(_row(case, workdir)) for case in sorted(CASES))
    TABLE.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} rows to {TABLE}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
