"""End-to-end tests of the command-line interface and its exit codes."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import booldiff
from booldiff.cli import main

FIG4_A = """4
{4} {4}
{4} {1,2}
{4} {1,3}
{1,2} {4}
{1,2} {1,2}
{1,2} {1,3}
{1,3} {4}
{1,3} {1,2}
{1,3} {1,3}
"""

FIG4_B = """4
{1,3} {1,3}
{1,3} {1,4}
{1,3} {2,3}
{1,4} {1,3}
{1,4} {1,4}
{1,4} {2,3}
{2,3} {1,3}
{2,3} {1,4}
{2,3} {2,3}
"""

FIG4_PRODUCT = """4
{1,2} {}
{1,2} {1,2}
{1,2} {3,4}
{1,3} {1,3}
{1,3} {2,3}
{1,3} {2,4}
"""

JORDAN_DIGRAPH_N1 = "1\n{} {}\n{} {1}\n{1} {}\n"
JORDAN_MATRIX_N1 = "2 2\n11\n01\n"


def _write(tmp_path: Path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_product_command_matches_the_pinned_product(tmp_path, capsys) -> None:
    a = _write(tmp_path, "a.dg", FIG4_A)
    b = _write(tmp_path, "b.dg", FIG4_B)
    assert main(["product", a, b, "--basis", "ms"]) == 0
    assert capsys.readouterr().out == FIG4_PRODUCT


def test_product_out_flag_writes_the_file_instead(tmp_path, capsys) -> None:
    a = _write(tmp_path, "a.dg", FIG4_A)
    b = _write(tmp_path, "b.dg", FIG4_B)
    out = tmp_path / "prod.dg"
    assert main(["product", a, b, "--basis", "ms", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == FIG4_PRODUCT


def test_product_routes_agree_through_the_cli(tmp_path, capsys) -> None:
    a = _write(tmp_path, "a.dg", FIG4_A)
    b = _write(tmp_path, "b.dg", FIG4_B)
    outputs = []
    for route in ["direct", "matrix", "auto"]:
        assert main(["product", a, b, "--basis", "ms", "--route", route]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_matrix_command_prints_the_jordan_block(tmp_path, capsys) -> None:
    a = _write(tmp_path, "jordan.dg", JORDAN_DIGRAPH_N1)
    assert main(["matrix", a, "--basis", "ms"]) == 0
    assert capsys.readouterr().out == JORDAN_MATRIX_N1


def test_digraph_command_inverts_the_matrix_command(tmp_path, capsys) -> None:
    m = _write(tmp_path, "jordan.mat", JORDAN_MATRIX_N1)
    assert main(["digraph", m, "--basis", "ms"]) == 0
    assert capsys.readouterr().out == JORDAN_DIGRAPH_N1


def test_convert_command_identity_across_bases(tmp_path, capsys) -> None:
    a = _write(tmp_path, "id_ms.dg", "1\n{} {}\n{1} {}\n")
    assert main(["convert", a, "--from", "ms", "--to", "xs"]) == 0
    assert capsys.readouterr().out == "1\n{} {}\n"


def test_convert_command_round_trips(tmp_path, capsys) -> None:
    a = _write(tmp_path, "a.dg", FIG4_A)
    mid = tmp_path / "mid.dg"
    assert main(["convert", a, "--from", "ms", "--to", "xd", "--out", str(mid)]) == 0
    assert main(["convert", str(mid), "--from", "xd", "--to", "ms"]) == 0
    out = capsys.readouterr().out
    assert sorted(out.splitlines()) == sorted(FIG4_A.splitlines())


def test_apply_command_takes_a_derivative(tmp_path, capsys) -> None:
    a = _write(tmp_path, "op.dg", "1\n{} {1}\n")
    f = _write(tmp_path, "f.bf", "1\n01\n")
    assert main(["apply", a, f, "--basis", "md"]) == 0
    assert capsys.readouterr().out == "1\n10\n"


def test_rank_command_on_the_empty_digraph(tmp_path, capsys) -> None:
    a = _write(tmp_path, "empty.dg", "2\n")
    assert main(["rank", a, "--basis", "ms"]) == 0
    assert capsys.readouterr().out == "rank=0 image=1 kernel=16\n"


def test_rank_command_on_the_identity(tmp_path, capsys) -> None:
    a = _write(tmp_path, "id.dg", "1\n{} {}\n{1} {}\n")
    assert main(["rank", a, "--basis", "ms"]) == 0
    assert capsys.readouterr().out == "rank=2 image=4 kernel=1\n"


def test_jordan_command_frozen_output(capsys) -> None:
    assert main(["jordan", "-n", "1", "--basis", "ms"]) == 0
    assert capsys.readouterr().out == "m^{}s^{1} + 1\n"
    assert main(["jordan", "-n", "2", "--basis", "ms"]) == 0
    assert capsys.readouterr().out == "m^{}s^{1} + m^{1}s^{1,2} + m^{2}s^{1} + 1\n"


def test_table_command_n0(capsys) -> None:
    assert main(["table", "-n", "0", "--basis", "ms"]) == 0
    assert capsys.readouterr().out == "\t0\t{(0,0)}\n0\t0\t0\n{(0,0)}\t0\t{(0,0)}\n"


def test_table_command_is_capped(capsys) -> None:
    assert main(["table", "-n", "2", "--basis", "ms"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_render_single_digraph(tmp_path, capsys) -> None:
    a = _write(tmp_path, "a.dg", "1\n{} {1}\n{1} {}\n")
    assert main(["render", a]) == 0
    assert capsys.readouterr().out == "x\ty\tmarker\n0\t1\tpoint\n1\t0\tpoint\n"


def test_render_pair_marks_factors_and_product(tmp_path, capsys) -> None:
    a = _write(tmp_path, "a.dg", JORDAN_DIGRAPH_N1)
    b = _write(tmp_path, "b.dg", JORDAN_DIGRAPH_N1)
    assert main(["render", a, b, "--basis", "ms"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x\ty\tmarker"
    markers = [line.split("\t")[2] for line in lines[1:]]
    assert markers.count("triangle") == 3
    assert markers.count("circle") == 3
    assert markers.count("star") == 2


def test_missing_file_is_a_parse_error(tmp_path, capsys) -> None:
    missing = str(tmp_path / "nope.dg")
    assert main(["rank", missing, "--basis", "ms"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unwritable_out_path_is_a_parse_error(tmp_path, capsys) -> None:
    a = _write(tmp_path, "a.dg", JORDAN_DIGRAPH_N1)
    out = tmp_path / "missing" / "x"
    assert main(["rank", a, "--basis", "ms", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}")


def test_non_utf8_input_is_a_parse_error(tmp_path, capsys) -> None:
    path = tmp_path / "bytes.dg"
    path.write_bytes(b"\xff\xfe\x00")
    assert main(["rank", str(path), "--basis", "ms"]) == 2
    assert capsys.readouterr().err == f"error: cannot read {path}: not UTF-8 text (byte 0)\n"


@pytest.mark.parametrize(
    "text", ["\u00b2\n", "\uff11\n{} {}\n", pytest.param("9" * 5000 + "\n", id="overlong")]
)
def test_non_ascii_or_overlong_dimension_is_a_parse_error(tmp_path, capsys, text: str) -> None:
    path = tmp_path / "a.dg"
    path.write_text(text, encoding="utf-8")
    assert main(["rank", str(path), "--basis", "ms"]) == 2
    assert capsys.readouterr().err.startswith("error: line 1: expected the dimension n")


def test_malformed_digraph_reports_its_line(tmp_path, capsys) -> None:
    a = _write(tmp_path, "bad.dg", "1\n{2} {}\n")
    assert main(["rank", a, "--basis", "ms"]) == 2
    assert "line 2" in capsys.readouterr().err


def test_dimension_mismatch_exit_code(tmp_path, capsys) -> None:
    a = _write(tmp_path, "a.dg", "1\n{1} {}\n")
    b = _write(tmp_path, "b.dg", "2\n{1} {}\n")
    assert main(["product", a, b, "--basis", "ms"]) == 3
    assert "error:" in capsys.readouterr().err


def test_capacity_cap_follows_the_environment(tmp_path, capsys, monkeypatch) -> None:
    monkeypatch.setenv("BOOLDIFF_NMAX", "3")
    a = _write(tmp_path, "a.dg", FIG4_A)
    assert main(["rank", a, "--basis", "ms"]) == 4
    assert "error:" in capsys.readouterr().err


def test_unknown_basis_is_a_usage_error(tmp_path) -> None:
    a = _write(tmp_path, "a.dg", "1\n")
    with pytest.raises(SystemExit) as exc:
        main(["rank", a, "--basis", "zz"])
    assert exc.value.code == 2


def test_module_entry_point_runs() -> None:
    # The child imports the booldiff under test, whether pytest found it
    # through PYTHONPATH, its pythonpath setting or an install.
    package_root = str(Path(booldiff.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "booldiff", "jordan", "-n", "1", "--basis", "ms"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert proc.stdout == "m^{}s^{1} + 1\n"


def test_console_script_runs() -> None:
    proc = subprocess.run(
        ["booldiff", "jordan", "-n", "1", "--basis", "ms"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "m^{}s^{1} + 1\n"
