"""Spans and counters recorded from outside the library, by rebinding functions.

``Tracer.install`` replaces each target function with a timing wrapper in
every ``booldiff.*`` module that holds it, because ``from .x import name``
binds one function object under several module names.  A target that no
longer exists is recorded as absent and reports zero calls.

Each operation is one root span.  A "span" target records (name, id, parent,
start, end) per call; a "leaf" target, called thousands of times per
operation, only adds to in-memory totals.  Either way a call's self time is
its duration minus the time its wrapped callees cover, and the tracer's own
bookkeeping is charged to no layer.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

SPAN, LEAF = "span", "leaf"


def _edges_of_result(args, result):
    return len(result.edges)


def _edges_of_arg0(args, result):
    return len(args[0].edges)


def _len_of_result(args, result):
    return len(result)


def _len_of_arg0(args, result):
    return len(args[0])


def _row_xors(args, result):
    # One XOR of a right-hand row per set bit of a left-hand row.
    return sum(r.bit_count() for r in args[0])


def _bytes_computed(args, result):
    # Computed, not measured: each row XOR touches one right-hand row.
    width = max((r.bit_length() for r in args[1]), default=0)
    return _row_xors(args, result) * ((width + 7) // 8)


def _shifts(args, result):
    return 1 << args[1].bit_count()


@dataclass(frozen=True)
class Target:
    module: str
    attr: str
    kind: str
    counters: dict[str, Callable] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


DIRECT_PRODUCTS = ("star_product", "circ_product", "ast_product", "bullet_product")

TARGETS = (
    Target("cli", "main", SPAN),
    Target("cli", "_read", LEAF, {"bytes": _len_of_result}),
    Target("cli", "_emit", LEAF, {"bytes": _len_of_arg0}),
    Target("operators", "parse_digraph", SPAN, {"edges": _edges_of_result}),
    Target("operators", "format_digraph", SPAN, {"edges": _edges_of_arg0}),
    Target("operators", "digraph_grid", SPAN),
    Target("operators", "digraph_from_grid", SPAN, {"edges": _edges_of_result}),
    Target("operators", "Digraph.__post_init__", SPAN, {"edges": _edges_of_arg0}),
    Target("operators", "_hat_grid", SPAN),
    Target("operators", "_matrix_rows_masked", SPAN),
    Target("operators", "_digraph_from_masked_rows", SPAN),
    Target("operators", "operator_matrix", SPAN),
    Target("operators", "apply_operator", SPAN),
    Target("functions", "parse_bf", SPAN),
    Target("functions", "format_bf", SPAN),
    Target("functions", "_packed", SPAN),
    Target("functions", "_from_packed", SPAN),
    Target("functions", "derivative_packed", LEAF, {"shifts": _shifts}),
    Target("lattice", "validate_subset", LEAF),
    Target("lattice", "shift_packed", LEAF),
    Target("gf2", "_mul_rows", SPAN, {"row_xors": _row_xors, "bytes_computed": _bytes_computed}),
    Target("gf2", "_rank_rows", SPAN),
    Target("products", "matrix_route_product", SPAN),
    *(Target("products", name, SPAN) for name in DIRECT_PRODUCTS),
)


def _blank() -> dict:
    return {"calls": 0, "self_s": 0.0, "total_s": 0.0}


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, dict[str, float]] = {}
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._stack: list[list] = [[0.0, 0]]  # per open call: [covered seconds, span id]
        self._next_id = 1
        self._undo: list[tuple] = []

    def install(self, targets=TARGETS) -> None:
        for t in targets:
            try:
                owner = importlib.import_module(f"booldiff.{t.module}")
            except ImportError:
                owner = None
            *path, attr = t.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.absent.append(t.name)
                self.stats[t.name] = _blank()
                continue
            wrapper = self._wrap(t, original)
            modules = [m for name, m in list(sys.modules.items())
                       if m is not None and (name == "booldiff" or name.startswith("booldiff."))]
            if path:
                # A method: the class object is shared by every alias.
                self._rebind(setattr, owner, attr, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(setattr, module, key, original, wrapper)
                    elif isinstance(value, dict):
                        # Dispatch tables such as {Basis.MS: star_product}.
                        for k, v in list(value.items()):
                            if v is original:
                                self._rebind(dict.__setitem__, value, k, original, wrapper)

    def uninstall(self) -> None:
        for setter, owner, key, original in reversed(self._undo):
            setter(owner, key, original)
        self._undo.clear()

    def _rebind(self, setter, owner, key, original, wrapper) -> None:
        setter(owner, key, wrapper)
        self._undo.append((setter, owner, key, original))

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        name = target.name
        stat = self.stats.setdefault(name, _blank())
        for key in target.counters:
            stat[key] = 0
        counters = tuple(target.counters.items())
        record = target.kind == SPAN
        stack, spans, clock, tracer = self._stack, self.spans, time.perf_counter, self

        def wrapper(*args, **kwargs):
            # A leaf's frame carries its caller's span id, so a span called
            # from inside a leaf still names the right parent.
            frame = [0.0, tracer._new_id() if record else stack[-1][1]]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            duration = t1 - t0
            stat["calls"] += 1
            stat["total_s"] += duration
            stat["self_s"] += duration - frame[0]
            for key, count in counters:
                try:
                    stat[key] += count(args, result)
                except (AttributeError, TypeError, IndexError, ValueError):
                    pass
            parent = stack[-1]
            if record:
                spans.append((name, frame[1], parent[1], t0, t1))
            parent[0] += clock() - t0
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def root(self, label: str, run: Callable, start: float | None = None):
        """Run one operation as a root span; returns (result, seconds).

        ``start`` (a ``time.perf_counter`` value) backdates the span, so work
        done before the call, such as imports, counts as unattributed.
        """
        frame = [0.0, self._new_id()]
        self._stack.append(frame)
        t0 = time.perf_counter() if start is None else start
        try:
            result = run()
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
        self.spans.append((f"op:{label}", frame[1], 0, t0, t1))
        root = self.stats.setdefault("op", _blank())
        root["calls"] += 1
        root["total_s"] += t1 - t0
        root["self_s"] += t1 - t0 - frame[0]
        return result, t1 - t0

    def report(self) -> dict:
        tables = getattr(sys.modules.get("booldiff.lattice"), "_tables", None)
        info = tables.cache_info() if hasattr(tables, "cache_info") else None
        return {
            "stats": self.stats,
            "absent": self.absent,
            "tables_cache": None if info is None else {"hits": info.hits, "misses": info.misses},
        }

    def write_spans(self, path: str) -> None:
        with open(path, "a") as fh:
            for name, span_id, parent, start, end in self.spans:
                fh.write(json.dumps({"name": name, "id": span_id, "parent": parent,
                                     "start": start, "end": end}) + "\n")


def merge_reports(reports: list[dict]) -> dict:
    """Sum the reports of several traced processes."""
    stats: dict[str, dict[str, float]] = {}
    absent: set[str] = set()
    cache = {"hits": 0, "misses": 0}
    have_cache = False
    for rep in reports:
        absent.update(rep["absent"])
        for name, stat in rep["stats"].items():
            into = stats.setdefault(name, {})
            for key, value in stat.items():
                into[key] = into.get(key, 0) + value
        if rep["tables_cache"] is not None:
            have_cache = True
            cache["hits"] += rep["tables_cache"]["hits"]
            cache["misses"] += rep["tables_cache"]["misses"]
    return {"stats": stats, "absent": sorted(absent), "tables_cache": cache if have_cache else None}


# Per-layer metrics, each a mean per traced operation unless its unit says otherwise.
def _per_op(target: str, stat: str):
    return lambda s, ctx: s.get(target, {}).get(stat, 0) / ctx["ops"]


def _sum_per_op(targets, stat):
    return lambda s, ctx: sum(s.get(t, {}).get(stat, 0) for t in targets) / ctx["ops"]


def _calls_per_edge(s, ctx):
    entering = s.get("operators.parse_digraph", {}).get("edges", 0) + ctx["operand_edges"]
    calls = s.get("lattice.validate_subset", {}).get("calls", 0)
    return calls / entering if entering else 0.0


_DIRECT = tuple(f"products.{name}" for name in DIRECT_PRODUCTS)


def _direct_frac(s, ctx):
    direct = sum(s.get(t, {}).get("calls", 0) for t in _DIRECT)
    matrix = s.get("products.matrix_route_product", {}).get("calls", 0)
    return direct / (direct + matrix) if direct + matrix else 0.0


def _cache(key):
    return lambda s, ctx: (ctx["tables_cache"] or {}).get(key, 0) / ctx["ops"]


def _unattributed(s, ctx):
    root = s.get("op", {})
    return root.get("self_s", 0.0) / root["total_s"] if root.get("total_s") else 0.0


def _self(target):
    return (f"{target}.self_s", "s/op", _per_op(target, "self_s"))


def _calls(target):
    return (f"{target}.calls", "calls/op", _per_op(target, "calls"))


def _edges(target):
    return (f"{target}.edges", "edges/op", _per_op(target, "edges"))


LAYER_METRICS = (
    _calls("operators.parse_digraph"), _self("operators.parse_digraph"), _edges("operators.parse_digraph"),
    _calls("operators.format_digraph"), _self("operators.format_digraph"), _edges("operators.format_digraph"),
    _self("functions.parse_bf"),
    _self("functions.format_bf"),
    _self("cli.main"),
    ("cli.io_bytes", "B/op", _sum_per_op(("cli._read", "cli._emit"), "bytes")),
    _self("operators.digraph_grid"),
    _self("operators.digraph_from_grid"), _edges("operators.digraph_from_grid"),
    _calls("operators.Digraph.__post_init__"), _self("operators.Digraph.__post_init__"),
    _edges("operators.Digraph.__post_init__"),
    ("lattice.validate_subset.calls_per_edge", "calls/edge", _calls_per_edge),
    _self("operators._hat_grid"),
    _self("operators._matrix_rows_masked"),
    _self("operators._digraph_from_masked_rows"),
    _self("operators.operator_matrix"),
    _calls("gf2._mul_rows"), _self("gf2._mul_rows"),
    ("gf2._mul_rows.row_xors", "xors/op", _per_op("gf2._mul_rows", "row_xors")),
    ("gf2._mul_rows.bytes_computed", "B/op", _per_op("gf2._mul_rows", "bytes_computed")),
    _self("gf2._rank_rows"),
    ("products.route.direct", "calls/op", _sum_per_op(_DIRECT, "calls")),
    ("products.route.matrix", "calls/op", _per_op("products.matrix_route_product", "calls")),
    ("products.route.direct_frac", "ratio", _direct_frac),
    ("products.direct.self_s", "s/op", _sum_per_op(_DIRECT, "self_s")),
    _self("products.matrix_route_product"),
    _calls("functions.derivative_packed"), _self("functions.derivative_packed"),
    ("functions.derivative_packed.shifts", "shifts/op", _per_op("functions.derivative_packed", "shifts")),
    _calls("lattice.shift_packed"), _self("lattice.shift_packed"),
    _self("functions._packed"),
    _self("functions._from_packed"),
    _self("operators.apply_operator"),
    ("lattice._tables.hits", "calls/op", _cache("hits")),
    ("lattice._tables.misses", "calls/op", _cache("misses")),
    ("trace.unattributed_frac", "ratio", _unattributed),
)


def layer_metrics(report: dict, ops: int, operand_edges: int) -> dict[str, dict]:
    ctx = {"ops": max(ops, 1), "operand_edges": operand_edges, "tables_cache": report["tables_cache"]}
    return {name: {"value": fn(report["stats"], ctx), "unit": unit} for name, unit, fn in LAYER_METRICS}
