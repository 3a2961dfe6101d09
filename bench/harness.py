"""The closed loop and the statistics every workload shares."""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from typing import Callable

TAIL_BEYOND = 10
# No cycle starts this long after a run began, so a run ends well within 180 s.
CYCLE_DEADLINE_S = 100


# Host-speed reference.  The shared 2-vCPU hosts this benchmark runs on change
# speed by up to 1.7x within seconds to minutes, because of load outside the
# machine.  A fixed pure-Python loop is timed before every op, and each op's
# time is scaled by REF_NOMINAL_S / (the mean reference time of the 21 ops
# around it), so runs made at different host speeds compare.  A single
# reference is a 3 ms snapshot of a speed that flips within a second, so only
# an average over many of them matches an op that lasts seconds.  The loop
# allocates nothing the garbage collector tracks, so the program's heap cannot
# change its speed.
REF_NOMINAL_S = 0.003
REF_WINDOW = 10
_REF_X = (1 << 1024) // 3


def reference_seconds() -> float:
    t0 = time.perf_counter()
    x, acc, table = _REF_X, 0, {}
    for k in range(6000):
        acc ^= (x >> (k & 63)) & x
        table[k & 1023] = table.get(k & 1023, 0) + k
    return time.perf_counter() - t0


def digest(canon: dict) -> str:
    return hashlib.sha256(json.dumps(canon, sort_keys=True).encode()).hexdigest()


def closed_loop(ops: list[dict], budget_s: float, min_cycles: int, deadline: float,
                run_one: Callable[[dict], dict]) -> list[dict]:
    """One client: each op starts when the previous one has finished.

    Whole cycles over ``ops`` run until the timed seconds reach ``budget_s``
    and at least ``min_cycles`` cycles have run, so every run weighs every op
    equally.  The timed seconds are counted both as measured and on the
    nominal host, and the run ends when either count is reached: a fast host
    then adds no cycle, and a slow one does not lengthen the run.  No cycle
    starts after ``deadline`` (a ``time.monotonic`` value).
    """
    records: list[dict] = []
    measured = nominal = 0.0
    cycles = 0
    while True:
        for op in ops:
            ref = reference_seconds()
            rec = run_one(op)
            rec["cycle"], rec["ref"] = cycles, ref
            records.append(rec)
            measured += rec["seconds"]
            nominal += rec["seconds"] * REF_NOMINAL_S / ref
        cycles += 1
        done = max(measured, nominal) >= budget_s and cycles >= min_cycles
        if done or time.monotonic() > deadline:
            return records


def phase_plan(seconds: float, trace: bool) -> tuple[float, int]:
    """(timed seconds, minimum cycles) for each phase of a run.

    An untraced run is one phase of at least two cycles, so every op is
    repeated and compared with its first output.  A traced run splits its
    time between an untraced and a traced phase of at least one cycle each.
    """
    return (seconds / 2, 1) if trace else (seconds, 2)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with TAIL_BEYOND samples beyond it.

    With TAIL_BEYOND samples or fewer no such percentile exists; the maximum
    is returned instead, labelled as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def scaled(seconds: list[float], refs: list[float]) -> list[float]:
    """Measured times turned into nominal-host times; refs[i] was taken just before seconds[i]."""
    return [
        t * REF_NOMINAL_S / statistics.fmean(refs[max(0, i - REF_WINDOW): i + REF_WINDOW + 1])
        for i, t in enumerate(seconds)
    ]


def latency_summary(records: list[dict]) -> dict:
    """Latency and throughput of completed ops, in nominal-host time.

    Throughput is the median over cycles of ops per timed second, so a burst
    of outside load during one cycle moves it little.
    """
    seconds = scaled([r["seconds"] for r in records], [r["ref"] for r in records])
    tail_s, pct = tail(seconds)
    cycles: dict[int, list[float]] = {}
    for r, s in zip(records, seconds):
        cycles.setdefault(r["cycle"], []).append(s)
    return {
        "op_p50_ms": statistics.median(seconds) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "tail_percentile": pct,
        "samples": len(seconds),
        "ops_per_s": statistics.median(len(c) / sum(c) for c in cycles.values()),
    }
