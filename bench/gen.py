"""Seeded inputs and operation plans for the four benchmark workloads.

Everything here is plain data (ints, lists, dicts), so the worker process that
calls the library and the parent process that checks its outputs rebuild the
same plan from the same seed.  Grids are mask-indexed: bit d of row c says
whether the edge (c, d) is present; function values are mask-packed: bit a
holds f(a).
"""

from __future__ import annotations

import random
from functools import lru_cache

BASES = ("ms", "md", "xs", "xd")

WORKLOADS = ("cli-dense-n9", "lib-dense-n10", "lib-small-mixed", "lib-calculus-n10")

# Ground-set sizes whose lattice tables each workload needs (set-up cost).
DIMENSIONS = {
    "cli-dense-n9": (9,),
    "lib-dense-n10": (10,),
    "lib-small-mixed": (3, 4, 5, 6),
    "lib-calculus-n10": (10,),
}

SPARSE, DENSE = 0.02, 0.5


def rng_for(seed: int, tag: str) -> random.Random:
    # String seeds hash through SHA-512, so streams for different tags are
    # independent and identical on every platform.
    return random.Random(f"booldiff-bench:{seed}:{tag}")


def random_grid(rng: random.Random, n: int, density: float) -> list[int]:
    """Exactly round(density * 4^n) edges at random places.

    A fixed edge count keeps the cost of an operation nearly the same for
    every seed, which a per-edge coin flip does not at n = 3 or 4.  From
    n = 8 on, dense rows are random words: the edge count then varies by
    under 0.5%, and sampling a million cells would cost more than the op.
    """
    size = 1 << n
    if density == DENSE and n >= 8:
        return [rng.getrandbits(size) for _ in range(size)]
    rows = [0] * size
    for cell in rng.sample(range(size * size), round(density * size * size)):
        rows[cell >> n] |= 1 << (cell & (size - 1))
    return rows


def calculus_grid(rng: random.Random, n: int) -> list[int]:
    """Exactly one edge (c, d) per d with c random: 2^n edges.

    Every d appears once, so the derivative bases cost sum over d of 2^|d|
    shifts for every seed; only the placement of the edges varies.
    """
    size = 1 << n
    rows = [0] * size
    for d in range(size):
        rows[rng.randrange(size)] |= 1 << d
    return rows


def random_subset_of_weight(rng: random.Random, n: int, weight: int) -> int:
    return sum(1 << (i - 1) for i in rng.sample(range(1, n + 1), weight))


def edge_count(grid: list[int]) -> int:
    return sum(r.bit_count() for r in grid)


def plan(workload: str, seed: int) -> tuple[dict, list[dict]]:
    """(inputs, ops) for one run.  One cycle of the closed loop runs every op once.

    An op is a dict with "key" (unique within the plan), "kind" and the ids of
    its inputs; inputs maps an id to {"n", "grid"} or {"n", "values"}.
    """
    if workload == "cli-dense-n9":
        return _dense_plan(seed, 9, [
            {"kind": "product", "basis": "ms", "a": "a", "b": "b"},
            {"kind": "product", "basis": "xd", "a": "a", "b": "b"},
            {"kind": "convert", "source": "md", "target": "xs", "a": "a"},
            {"kind": "rank", "basis": "xd", "a": "a"},
            {"kind": "apply", "basis": "ms", "a": "a", "f": "f"},
        ])
    if workload == "lib-dense-n10":
        return _dense_plan(seed, 10, [
            *({"kind": "product", "basis": b, "a": "a", "b": "b"} for b in BASES),
            {"kind": "rank", "basis": "xd", "a": "a"},
            {"kind": "convert", "source": "md", "target": "xs", "a": "a"},
        ])
    if workload == "lib-small-mixed":
        return _small_mixed_plan(seed)
    if workload == "lib-calculus-n10":
        return _calculus_plan(seed, 10)
    raise ValueError(f"unknown workload {workload!r}")


def _dense_plan(seed: int, n: int, specs: list[dict]) -> tuple[dict, list[dict]]:
    inputs = {
        "a": {"n": n, "grid": random_grid(rng_for(seed, "a"), n, DENSE)},
        "b": {"n": n, "grid": random_grid(rng_for(seed, "b"), n, DENSE)},
        "f": {"n": n, "values": rng_for(seed, "f").getrandbits(1 << n)},
    }
    ops = [dict(spec, key=_key(spec)) for spec in specs]
    return inputs, ops


def _small_mixed_plan(seed: int) -> tuple[dict, list[dict]]:
    inputs: dict = {}
    ops = []
    for n in (3, 4, 5, 6):
        for basis in BASES:
            for label, density in (("sparse", SPARSE), ("dense", DENSE)):
                tag = f"{n}-{basis}-{label}"
                for side in ("a", "b"):
                    inputs[f"{side}-{tag}"] = {
                        "n": n, "grid": random_grid(rng_for(seed, f"{side}-{tag}"), n, density)
                    }
                ops.append({"key": f"product-{tag}", "kind": "product", "basis": basis,
                            "a": f"a-{tag}", "b": f"b-{tag}"})
    # Every op runs once per cycle; the seed fixes the order within a cycle.
    rng_for(seed, "order").shuffle(ops)
    return inputs, ops


def _calculus_plan(seed: int, n: int) -> tuple[dict, list[dict]]:
    inputs: dict = {"f": {"n": n, "values": rng_for(seed, "f").getrandbits(1 << n)}}
    ops = []
    for basis in BASES:
        inputs[f"a-{basis}"] = {"n": n, "grid": calculus_grid(rng_for(seed, f"a-{basis}"), n)}
        ops.append({"key": f"apply-{basis}", "kind": "apply", "basis": basis,
                    "a": f"a-{basis}", "f": "f"})
    # Fixed sizes keep the 2^|d| shift count equal across seeds.
    for weight in (1, 3, 5, 7, 9):
        d = random_subset_of_weight(rng_for(seed, f"d{weight}"), n, weight)
        ops.append({"key": f"derivative-w{weight}", "kind": "derivative", "f": "f", "d": d})
    return inputs, ops


def _key(spec: dict) -> str:
    if spec["kind"] == "convert":
        return f"convert-{spec['source']}-{spec['target']}"
    return f"{spec['kind']}-{spec['basis']}"


@lru_cache(maxsize=None)
def cardlex_order(n: int) -> tuple[int, ...]:
    """Masks in card-lex order: by size, then by increasing element sequence."""
    return tuple(sorted(range(1 << n), key=lambda m: (m.bit_count(), [i for i in range(n) if m >> i & 1])))


def subset_text(mask: int, n: int) -> str:
    return "{" + ",".join(str(i + 1) for i in range(n) if mask >> i & 1) + "}"


def digraph_text(n: int, grid: list[int]) -> str:
    """The edge-list file format: n, then one "<c> <d>" line per edge."""
    names = [subset_text(m, n) for m in range(1 << n)]
    lines = [str(n)]
    for c, row in enumerate(grid):
        prefix = names[c] + " "
        lines.extend(prefix + names[d] for d in range(1 << n) if row >> d & 1)
    return "\n".join(lines) + "\n"


def function_text(n: int, values: int) -> str:
    """The function file format: n, then the card-lex truth string."""
    return f"{n}\n" + "".join("1" if values >> m & 1 else "0" for m in cardlex_order(n)) + "\n"
