"""How the benchmark builds library inputs, runs ops and reads their outputs.

Library functions are looked up on ``booldiff`` at call time, so wrappers the
tracer installs are seen.  Outputs are reduced to a canonical plain-data form
(mask-indexed grid, mask-packed values or rank triple) before they leave the
process that computed them.
"""

from __future__ import annotations

import booldiff
from gen import cardlex_order


def digraph(n: int, grid: list[int]):
    return booldiff.Digraph.from_edges(
        n, ((c, d) for c, row in enumerate(grid) for d in range(1 << n) if row >> d & 1)
    )


def build_inputs(inputs: dict) -> dict:
    objs = {}
    for key, spec in inputs.items():
        if "grid" in spec:
            objs[key] = digraph(spec["n"], spec["grid"])
        else:
            objs[key] = booldiff.from_m_coeffs(spec["n"], spec["values"])
    return objs


def call(op: dict, objs: dict, route: str = "auto"):
    kind = op["kind"]
    if kind == "product":
        basis = booldiff.Basis(op["basis"])
        return booldiff.product(objs[op["a"]], objs[op["b"]], basis, route=route)
    if kind == "rank":
        return booldiff.operator_rank_profile(objs[op["a"]], booldiff.Basis(op["basis"]))
    if kind == "convert":
        return booldiff.change_operator_basis(
            objs[op["a"]], booldiff.Basis(op["source"]), booldiff.Basis(op["target"])
        )
    if kind == "apply":
        return booldiff.apply_operator(objs[op["a"]], booldiff.Basis(op["basis"]), objs[op["f"]])
    if kind == "derivative":
        return booldiff.derivative(objs[op["f"]], op["d"])
    raise ValueError(f"unknown op kind {kind!r}")


def canonical(result) -> dict:
    if isinstance(result, booldiff.Digraph):
        grid = [0] * (1 << result.n)
        for c, d in result.edges:
            grid[c] |= 1 << d
        return {"grid": [format(r, "x") for r in grid]}
    if isinstance(result, booldiff.BooleanFunction):
        bits = result.truth.bits
        values = 0
        for k, m in enumerate(cardlex_order(result.n)):
            values |= (bits >> k & 1) << m
        return {"values": format(values, "x")}
    return {"rank": [int(x) for x in result]}


def grid_of(canon: dict) -> list[int]:
    return [int(r, 16) for r in canon["grid"]]


def values_of(canon: dict) -> int:
    return int(canon["values"], 16)
