"""The booldiff benchmark: one closed-loop workload per run, checked against oracles.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it uses the ``src`` tree next to this directory and
writes scratch files under ``.bench_work/``.  ``--workload all`` runs the
four workloads in turn.  With ``--trace 0`` it prints the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run.  The last line of
standard output is one JSON object; the exit code is non-zero when any output
fails its check.  README.md in this directory explains the workloads and what
each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import harness
import oracle
from tracer import layer_metrics, merge_reports

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 11

E2E_UNITS = {"setup_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": git_commit()}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def measure_setup(dims: tuple[int, ...]) -> tuple[float, list[float]]:
    """(median nominal-host time for a fresh interpreter to import booldiff and
    build its tables, the reference-loop times taken before each try)."""
    code = f"import booldiff\nfrom booldiff.lattice import tables\nfor n in {dims!r}:\n    tables(n)\n"
    times, refs = [], []
    for _ in range(SETUP_REPEATS):
        refs.append(harness.reference_seconds())
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(harness.scaled(times, refs)), refs


def wait_child(cmd: list[str], stdout, stderr) -> tuple[int, float, float]:
    """Run cmd to completion; (exit code, wall seconds, peak RSS in MB of that child alone)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, env=child_env(), cwd=ROOT)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


# ---- library workloads -----------------------------------------------------

def run_library(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    out = work / "worker.json"
    spans = WORK / f"spans-{workload}-seed{seed}.jsonl"
    spans.unlink(missing_ok=True)
    with open(work / "worker.stderr", "wb") as err:
        code, _, rss = wait_child(
            [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(seconds),
             "1" if trace else "0", str(out), str(spans)],
            subprocess.DEVNULL, err)
    if code != 0:
        raise RuntimeError(f"worker exited {code}: {(work / 'worker.stderr').read_text()[-2000:]}")
    result = json.loads(out.read_text())
    result["peak_rss_mb"] = rss
    return result


# ---- CLI workload ----------------------------------------------------------

def cli_args(op: dict, files: dict, out: Path) -> tuple[list[str], bool]:
    """(argv, writes_to_out_file).  Some jobs print to stdout, some use --out."""
    kind = op["kind"]
    if kind == "product":
        argv = ["product", files["a"], files["b"], "--basis", op["basis"]]
        to_file = op["basis"] == "ms"
    elif kind == "convert":
        argv, to_file = ["convert", files["a"], "--from", op["source"], "--to", op["target"]], True
    elif kind == "rank":
        argv, to_file = ["rank", files["a"], "--basis", op["basis"]], False
    else:
        argv, to_file = ["apply", files["a"], files["f"], "--basis", op["basis"]], True
    return (argv + ["--out", str(out)] if to_file else argv), to_file


def run_cli(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    inputs, ops = gen.plan("cli-dense-n9", seed)
    files = {}
    for key, spec in inputs.items():
        path = work / (f"{key}.dg" if "grid" in spec else f"{key}.bf")
        text = (gen.digraph_text(spec["n"], spec["grid"]) if "grid" in spec
                else gen.function_text(spec["n"], spec["values"]))
        path.write_text(text)
        files[key] = str(path)
    spans = WORK / f"spans-cli-dense-n9-seed{seed}.jsonl"
    spans.unlink(missing_ok=True)
    firsts: dict[str, dict] = {}
    reports: list[dict] = []
    peak = [0.0]
    traced = [False]

    def run_one(op: dict) -> dict:
        out, stdout, stderr = (work / f"{op['key']}.{s}" for s in ("out", "stdout", "stderr"))
        argv, to_file = cli_args(op, files, out)
        if traced[0]:
            report = work / "trace.json"
            cmd = [sys.executable, str(BENCH / "cli_entry.py"), str(report), str(spans), *argv]
        else:
            cmd = [sys.executable, "-m", "booldiff", *argv]
        with open(stdout, "wb") as so, open(stderr, "wb") as se:
            code, wall, rss = wait_child(cmd, so, se)
        rec = {"key": op["key"], "seconds": wall, "traced": traced[0]}
        if code != 0:
            rec["error"] = f"exit {code}: {stderr.read_text()[-500:]}"
            return rec
        if traced[0]:
            reports.append(json.loads(report.read_text()))
        else:
            peak[0] = max(peak[0], rss)
        canon = {"text": (out if to_file else stdout).read_text()}
        rec["digest"] = harness.digest(canon)
        firsts.setdefault(op["key"], canon)
        return rec

    deadline = time.monotonic() + harness.CYCLE_DEADLINE_S
    budget, min_cycles = harness.phase_plan(seconds, trace)
    records = harness.closed_loop(ops, budget, min_cycles, deadline, run_one)
    report = None
    if trace:
        traced[0] = True
        records += harness.closed_loop(ops, budget, min_cycles, deadline, run_one)
        report = merge_reports(reports)
        report["operand_edges"] = 0
    return {"records": records, "firsts": firsts, "trace": report, "peak_rss_mb": peak[0]}


# ---- checks ----------------------------------------------------------------

def check_first(workload: str, seed: int, inputs: dict, op: dict, canon: dict, refs) -> str | None:
    """Why the first output of op is wrong, or None when every check passes."""
    import lib

    if workload == "cli-dense-n9":
        ref = lib.canonical(lib.call(op, refs.objs()))
        parsed = parse_cli_output(op, canon["text"])
        if parsed != ref:
            return "CLI output differs from the library result"
        if "grid" in ref and canon["text"] != oracle.digraph_text_canonical(
                inputs[op["a"]]["n"], lib.grid_of(ref)):
            return "CLI digraph text is not in canonical order"
        canon = ref
    kind = op["kind"]
    if kind == "derivative":
        expected = lib.canonical(refs.helpers().iterated_difference(refs.objs()[op["f"]], op["d"]))
        return None if expected == canon else "derivative differs from iterated_difference"
    a = inputs[op["a"]]
    n, grid = a["n"], a["grid"]
    if kind == "product":
        if not oracle.check_product(n, op["basis"], grid, inputs[op["b"]]["grid"],
                                    lib.grid_of(canon), f"{seed}:{op['key']}"):
            return "product breaks the composition law"
        if workload == "lib-small-mixed":
            return check_routes(op, canon, refs)
        return None
    if kind == "rank":
        return None if oracle.check_rank(n, op["basis"], grid, canon["rank"]) else "rank differs"
    if kind == "convert":
        ok = oracle.check_convert(n, op["source"], op["target"], grid, lib.grid_of(canon))
        return None if ok else "basis change altered the operator"
    values = inputs[op["f"]]["values"]
    if not oracle.check_apply(n, op["basis"], grid, values, lib.values_of(canon)):
        return "apply differs from the operator matrix"
    if workload == "lib-calculus-n10":
        return check_oracle_sample(seed, op, n, grid, refs)
    return None


def check_routes(op: dict, canon: dict, refs) -> str | None:
    """The paper's direct formula and the matrix route must both give canon."""
    import booldiff
    import lib

    n = refs.inputs[op["a"]]["n"]
    cap = getattr(booldiff, "DIRECT_CAPS", {}).get(booldiff.Basis(op["basis"]), -1)
    for route in ("matrix", "direct") if n <= cap else ("matrix",):
        if lib.canonical(lib.call(op, refs.objs(), route)) != canon:
            return f"{route} route disagrees"
    return None


def check_oracle_sample(seed: int, op: dict, n: int, grid: list[int], refs) -> str | None:
    """Anchor the matrix oracle to the tests' pointwise_apply on a sampled sub-operator."""
    import booldiff
    import lib

    rng = gen.rng_for(seed, f"sample-{op['key']}")
    edges = sorted((c, d) for c, row in enumerate(grid) for d in range(1 << n) if row >> d & 1)
    sub = [0] * (1 << n)
    for c, d in rng.sample(edges, min(12, len(edges))):
        sub[c] |= 1 << d
    f = refs.objs()[op["f"]]
    naive = refs.helpers().pointwise_apply(lib.digraph(n, sub), booldiff.Basis(op["basis"]), f)
    ok = oracle.check_apply(n, op["basis"], sub, refs.inputs[op["f"]]["values"],
                            lib.values_of(lib.canonical(naive)))
    return None if ok else "matrix oracle disagrees with pointwise_apply"


def parse_cli_output(op: dict, text: str) -> dict:
    if op["kind"] == "rank":
        return {"rank": oracle.parse_rank_text(text)}
    if op["kind"] == "apply":
        _, values = oracle.parse_function_text(text)
        return {"values": format(values, "x")}
    _, grid = oracle.parse_digraph_text(text)
    return {"grid": [format(r, "x") for r in grid]}


class References:
    """Library objects and test helpers, built only when a check needs them."""

    def __init__(self, inputs: dict) -> None:
        self.inputs = inputs
        self._objs = None
        self._helpers = None

    def objs(self) -> dict:
        if self._objs is None:
            import lib
            self._objs = lib.build_inputs(self.inputs)
        return self._objs

    def helpers(self):
        if self._helpers is None:
            sys.path.insert(0, str(ROOT / "tests"))
            import helpers
            self._helpers = helpers
        return self._helpers


def judge(workload: str, seed: int, result: dict) -> tuple[int, list[str]]:
    """Check each distinct op once, then every repeat against it; (failed, reasons)."""
    inputs, ops = gen.plan(workload, seed)
    by_key = {op["key"]: op for op in ops}
    refs = References(inputs)
    verdict: dict[str, str | None] = {}
    first_digest: dict[str, str] = {}
    for key, canon in result["firsts"].items():
        try:
            verdict[key] = check_first(workload, seed, inputs, by_key[key], canon, refs)
        except Exception as exc:  # a check that cannot run is a failed check
            verdict[key] = f"check raised {type(exc).__name__}: {exc}"
        first_digest[key] = harness.digest(canon)
    failed, reasons = 0, []
    for rec in result["records"]:
        why = rec.get("error") or verdict.get(rec["key"])
        if why is None and rec["digest"] != first_digest[rec["key"]]:
            why = "output differs from the verified first run"
        if why is not None:
            failed += 1
            reasons.append(f"{rec['key']}: {why}")
    return failed, reasons


# ---- reporting -------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup, setup_refs = (None, []) if trace else measure_setup(gen.DIMENSIONS[workload])
        if workload == "cli-dense-n9":
            result = run_cli(seed, seconds, trace, work)
        else:
            result = run_library(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed, reasons = judge(workload, seed, result)
    records = result["records"]
    plain = [r for r in records if not r["traced"] and "error" not in r]
    out = {"workload": workload, "attempted": len(records), "failed": failed, "reasons": reasons}
    if trace:
        traced_recs = [r for r in records if r["traced"]]
        traced = [r["seconds"] for r in traced_recs if "error" not in r]
        metrics = layer_metrics(result["trace"], len(traced_recs), result["trace"]["operand_edges"])
        untraced = [r["seconds"] for r in plain]
        overhead = (statistics.median(traced) - statistics.median(untraced)) * 1e3 if traced and plain else 0.0
        metrics["trace.overhead_ms"] = {"value": overhead, "unit": "ms"}
        out["absent"] = result["trace"]["absent"]
        out["traced_ops"] = len(traced_recs)
    else:
        summary = harness.latency_summary(plain) if plain else {}
        values = {"setup_s": setup, "peak_rss_mb": result["peak_rss_mb"], **summary}
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
                   for name, unit in E2E_UNITS.items()}
        out["tail"] = (summary.get("tail_percentile"), summary.get("samples"))
        out["ref_ms"] = statistics.median(setup_refs + [r["ref"] for r in records]) * 1e3
    out["metrics"] = metrics
    return out


def print_report(res: dict, args, info: dict) -> None:
    print(f"# workload {res['workload']}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"# python {info['python']}  nproc {info['nproc']}  cpu {info['cpu']}  commit {info['commit']}")
    for name, m in res["metrics"].items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    frac = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"{'fail_frac':48s} {frac:>16.6g} ratio ({res['failed']} of {res['attempted']} ops)")
    if "tail" in res:
        pct, samples = res["tail"]
        print(f"# op_tail_ms is percentile {pct:.4g} of {samples} samples "
              f"(the highest with {harness.TAIL_BEYOND} beyond it; 100 = max when too few)")
    if "ref_ms" in res:
        print(f"# times and rates are scaled to a host on which the reference loop takes "
              f"{harness.REF_NOMINAL_S * 1e3:.4g} ms; here it took {res['ref_ms']:.4g} ms (median)")
    if res.get("absent"):
        print(f"# absent layers (zero calls): {', '.join(res['absent'])}")
    if "traced_ops" in res:
        print(f"# traced ops: {res['traced_ops']}; spans in .bench_work/")
    for why in res["reasons"][:20]:
        print(f"# FAIL {why}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*gen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "booldiff" / "__init__.py").is_file():
        print(f"error: no booldiff sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for this process and every child it starts: the reference loop
    # then times the same CPU as the ops, and the other CPU stays free.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    info = machine()
    names = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_report(res, args, info)
        results.append(res)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
