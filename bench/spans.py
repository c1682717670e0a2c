"""Spans recorded from outside the program.

Each traced function is replaced, in the namespace of the module that calls
it, by a wrapper that records a span: name, start, end, parent span and
request id, plus counts read off the arguments and the return value.  The
modules bind these names with ``from ... import``, so a wrapper placed on the
defining module would never be called.  Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable


def _model_size(args, result) -> dict:
    model = result[0]
    return {"vars": len(model.variables), "rows": len(model.constraints),
            "nnz": sum(len(c.terms) for c in model.constraints)}


# (module, attribute, span name, counts taken from (args, result))
TRACED: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("otnplan.cli", "load_instance", "instance.load", None),
    ("otnplan.cli", "plan", "planner.plan", None),
    ("otnplan.cli", "config_to_dict", "instance.save", None),
    ("otnplan.cli", "emit_report", "report.emit", None),
    ("otnplan.cli", "enumerate_failures", "verify.enumerate",
     lambda a, r: {"scenarios": len(r)}),
    ("otnplan.cli", "check_restorability", "verify.restorability", None),
    ("otnplan.cli", "check_disjointness", "verify.disjointness", None),
    ("otnplan.cli", "export_phase_models", "planner.export", None),
    ("otnplan.cli", "emit_lp_file", "milp.lpformat.emit",
     lambda a, r: {"bytes": len(r.encode("utf-8"))}),
    ("otnplan.cli", "audit_model", "formulation.audit", None),
    ("otnplan.planner", "build_logical_design", "formulation.build", _model_size),
    ("otnplan.planner", "build_lightpath_routing", "formulation.build", _model_size),
    ("otnplan.planner", "build_integrated", "formulation.build", _model_size),
    ("otnplan.planner", "compute_exclusion_sets", "formulation.exclusion", None),
    ("otnplan.planner", "solve_milp", "milp.branch_bound",
     lambda a, r: {"nodes": r.stats.nodes}),
    ("otnplan.milp.branch_bound", "simplex_solve", "milp.simplex",
     lambda a, r: {"pivots": r.iterations, "m": a[0].shape[0], "n": a[0].shape[1]}),
    ("otnplan.oracle", "brute_force_optimum", "oracle", None),
)


@dataclass
class Span:
    name: str
    parent: int | None
    request: str
    start: float = 0.0
    end: float = 0.0
    own: float = 0.0  # time the wrapper itself spent around the call
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of the functions in TRACED while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, counts: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = time.perf_counter()
            span = Span(name, self._stack[-1] if self._stack else None, self.request)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span.counts = counts(args, result)
            span.own = (span.start - enter) + (time.perf_counter() - span.end)
            return result
        return wrapper

    def install(self, modules: dict[str, object]) -> None:
        for mod_name, attr, span_name, counts in TRACED:
            module = modules[mod_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(span_name, original, counts))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for idx, s in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "request": s.request, **s.counts}) + "\n")

    def layer_totals(self, requests: Iterable[str]) -> dict[str, dict[str, float]]:
        """Per span name over the given requests: calls, time, self time
        (duration minus the time child spans cover), wrapper time, counts,
        and the largest simplex tableau."""
        wanted = set(requests)
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s, covered in zip(self.spans, child):
            if s.request not in wanted:
                continue
            t = out[s.name]
            t["calls"] += 1
            t["s"] += s.duration
            t["self_s"] += s.duration - covered
            t["own_s"] += s.own
            counts = dict(s.counts)
            if s.name == "milp.simplex":
                m, n = counts.pop("m"), counts.pop("n")
                t["rows_max"] = max(t["rows_max"], m)
                t["tableau_mb_max"] = max(t["tableau_mb_max"], m * (n + m) * 8 / 1e6)
            for key, value in counts.items():
                t[key] += value
        return out


def layer_metrics(totals: dict[str, dict[str, float]]) -> dict[str, float]:
    """The per-layer metrics of one pass, from ``Tracer.layer_totals``."""
    def get(name: str, key: str = "s") -> float:
        return float(totals.get(name, {}).get(key, 0.0))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    request_s = get("request")
    own = sum(t.get("own_s", 0.0) for t in totals.values())
    pivots = get("milp.simplex", "pivots")
    solves = get("milp.branch_bound", "calls")
    return {
        "instance.load_s": get("instance.load"),
        "instance.save_s": get("instance.save"),
        "formulation.build_s": get("formulation.build"),
        "formulation.build_calls": get("formulation.build", "calls"),
        "formulation.vars": get("formulation.build", "vars"),
        "formulation.rows": get("formulation.build", "rows"),
        "formulation.nnz": get("formulation.build", "nnz"),
        "formulation.exclusion_s": get("formulation.exclusion"),
        "planner.self_s": get("planner.plan", "self_s"),
        "planner.solves": solves,
        "milp.branch_bound.s": get("milp.branch_bound"),
        "milp.branch_bound.self_s": get("milp.branch_bound", "self_s"),
        "milp.branch_bound.nodes": get("milp.branch_bound", "nodes"),
        "milp.branch_bound.nodes_per_solve": ratio(get("milp.branch_bound", "nodes"), solves),
        "milp.simplex.s": get("milp.simplex"),
        "milp.simplex.calls": get("milp.simplex", "calls"),
        "milp.simplex.pivots": pivots,
        "milp.simplex.us_per_pivot": ratio(get("milp.simplex") * 1e6, pivots),
        "milp.simplex.pivots_per_call": ratio(pivots, get("milp.simplex", "calls")),
        "milp.simplex.rows_max": get("milp.simplex", "rows_max"),
        "milp.simplex.tableau_mb_max": get("milp.simplex", "tableau_mb_max"),
        "milp.lpformat.emit_s": get("milp.lpformat.emit"),
        "milp.lpformat.mb": get("milp.lpformat.emit", "bytes") / 1e6,
        "verify.s": (get("verify.enumerate") + get("verify.restorability")
                     + get("verify.disjointness")),
        "verify.scenarios": get("verify.enumerate", "scenarios"),
        "report.s": get("report.emit"),
        "trace.overhead_pct": ratio(100.0 * own, request_s - own),
        "trace.unaccounted_pct": ratio(100.0 * get("request", "self_s"), request_s),
    }
