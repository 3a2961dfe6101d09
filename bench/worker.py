"""Runs one library workload in a fresh process and writes its records as JSON.

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE OUT_JSON SPANS_JSONL

The parent starts it with ``src`` on PYTHONPATH, takes its peak RSS from
``os.wait4`` and checks the outputs; nothing here judges correctness.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, out_path, spans_path = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"

    import booldiff.lattice
    import gen
    import harness
    import lib
    from tracer import Tracer

    deadline = time.monotonic() + harness.CYCLE_DEADLINE_S
    inputs, ops = gen.plan(workload, seed)
    objs = lib.build_inputs(inputs)
    for n in gen.DIMENSIONS[workload]:
        booldiff.lattice.tables(n)
    operand_edges = {
        op["key"]: sum(gen.edge_count(inputs[op[k]]["grid"]) for k in ("a", "b") if k in op)
        for op in ops
    }

    firsts: dict[str, dict] = {}
    tracer = None

    def run_one(op: dict) -> dict:
        rec = {"key": op["key"], "traced": tracer is not None}
        try:
            if tracer is None:
                t0 = time.perf_counter()
                result = lib.call(op, objs)
                rec["seconds"] = time.perf_counter() - t0
            else:
                result, rec["seconds"] = tracer.root(op["key"], lambda: lib.call(op, objs))
        except Exception as exc:  # an op that raises is a failed op, not a crash
            rec["seconds"] = time.perf_counter() - t0 if tracer is None else 0.0
            rec["error"] = f"{type(exc).__name__}: {exc}"
            return rec
        canon = lib.canonical(result)
        rec["digest"] = harness.digest(canon)
        firsts.setdefault(op["key"], canon)
        return rec

    budget, min_cycles = harness.phase_plan(seconds, trace)
    records = harness.closed_loop(ops, budget, min_cycles, deadline, run_one)
    report = None
    if trace:
        tracer = Tracer()
        tracer.install()
        traced = harness.closed_loop(ops, budget, min_cycles, deadline, run_one)
        tracer.uninstall()
        report = tracer.report()
        report["operand_edges"] = sum(operand_edges[r["key"]] for r in traced)
        tracer.write_spans(spans_path)
        records += traced

    with open(out_path, "w") as fh:
        json.dump({"records": records, "firsts": firsts, "trace": report}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
