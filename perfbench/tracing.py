"""Per-layer spans recorded from outside the numsgps package.

`installed(tracer)` replaces each traced function at every name a caller
looks it up by (module globals, the claim table, ClaimContext's cached
properties and methods, NumericalSemigroup's methods) with a wrapper
that records a span, and puts the originals back on exit.  A target the
package no longer has is reported as absent and its metrics read 0.

Spans live in flat arrays (name, start, end, parent, request) until the
run writes them out; self time is aggregated as spans close: a span's
duration minus the time its direct children cover.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
import time
from array import array
from functools import cached_property
from pathlib import Path

CLAIMS = (
    "HERZOG3", "NG4_TYPE3", "AS4_TYPE3", "THM_MAIN", "THM_3DISTINCT",
    "PF2_BOUND", "PF1_BOUND", "MU_BOUND", "COPPIE", "FIRST_ZERO",
    "NGV_PROPS", "AS_IMPLIES_NG", "TRACE_EQ", "PF2_TWO_ZEROES", "SAME2",
    "QUESTION_MS",
)
CONTEXT_FIELDS = ("pf", "candidates", "vectors", "classifications", "gap_table", "almost_symmetric")

# span name -> (module, attribute) of a module-level function
FUNCTIONS = {
    "verify.harness.check_all": ("numsgps.verify.harness", "check_all"),
    "verify.claims.run_claims": ("numsgps.verify.claims", "run_claims"),
    "gorenstein.ng_candidates": ("numsgps.gorenstein", "ng_candidates"),
    "gorenstein.pf_shift_mask": ("numsgps.gorenstein", "pf_shift_mask"),
    "gorenstein.is_ng_vector": ("numsgps.gorenstein", "is_ng_vector"),
    "gorenstein.ng_vectors": ("numsgps.gorenstein", "ng_vectors"),
    "gorenstein.is_symmetric": ("numsgps.gorenstein", "is_symmetric"),
    "gorenstein.is_almost_symmetric": ("numsgps.gorenstein", "is_almost_symmetric"),
    "gorenstein.nearly_gorenstein_via_trace": ("numsgps.gorenstein", "nearly_gorenstein_via_trace"),
    "rf.classify_pf": ("numsgps.rf", "classify_pf"),
    "rf.max_gap_table": ("numsgps.rf", "max_gap_table"),
    "rf.minus_row_lists": ("numsgps.rf", "minus_row_lists"),
    "rf.plus_row_lists": ("numsgps.rf", "plus_row_lists"),
    "rf.check_coppie": ("numsgps.rf", "check_coppie"),
    "construct.backelin": ("numsgps.construct", "backelin"),
    "construct.numerical_duplication": ("numsgps.construct", "numerical_duplication"),
    "construct.duplication_tower": ("numsgps.construct", "duplication_tower"),
    "cli.main": ("numsgps.cli", "main"),
}
# span name -> NumericalSemigroup method
METHODS = {
    "core.init": "__init__",
    "core.pseudo_frobenius": "pseudo_frobenius",
    "core.member_table": "member_table",
    "core.member_mask": "member_mask",
    "core.gaps": "gaps",
    "core.factorization_tuples": "factorization_tuples",
}

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    *((f"verify.claims.{c}.self_s", "s", "lower") for c in CLAIMS),
    *((f"verify.claims.ctx.{f}.self_s", "s", "lower") for f in CONTEXT_FIELDS),
    ("verify.claims.run_claims.self_s", "s", "lower"),
    ("verify.claims.run_claims.calls", "count", "lower"),
    ("verify.claims.route.literal", "count", "lower"),
    ("verify.claims.route.factored", "count", "higher"),
    ("verify.claims.fact.calls", "count", "lower"),
    ("verify.claims.fact.hit_ratio", "ratio", "higher"),
    ("rf.classify_pf.self_s", "s", "lower"),
    ("rf.classify_pf.calls", "count", "lower"),
    ("gorenstein.is_ng_vector.calls", "count", "lower"),
    ("gorenstein.ng_vectors.self_s", "s", "lower"),
    ("gorenstein.ng_vectors.calls", "count", "lower"),
    ("rf.max_gap_table.self_s", "s", "lower"),
    ("rf.max_gap_table.calls", "count", "lower"),
    ("rf.minus_row_lists.self_s", "s", "lower"),
    ("rf.minus_row_lists.calls", "count", "lower"),
    ("rf.check_coppie.calls", "count", "lower"),
    ("rf.plus_row_lists.self_s", "s", "lower"),
    ("verify.harness.self_s", "s", "lower"),
    ("verify.harness.parent_cpu_s", "s", "lower"),
    ("verify.harness.worker_cpu_s", "s", "lower"),
    ("verify.harness.worker_utilization", "ratio", "higher"),
    ("verify.enumeration.walk_s", "s", "lower"),
    ("verify.enumeration.build_s", "s", "lower"),
    ("verify.enumeration.nodes", "count", "lower"),
    ("core.init.self_s", "s", "lower"),
    ("core.pseudo_frobenius.self_s", "s", "lower"),
    ("core.member_table.self_s", "s", "lower"),
    ("core.member_mask.self_s", "s", "lower"),
    ("core.gaps.self_s", "s", "lower"),
    ("core.factorization_tuples.self_s", "s", "lower"),
    ("core.factorization_tuples.calls", "count", "lower"),
    ("gorenstein.is_symmetric.self_s", "s", "lower"),
    ("gorenstein.is_almost_symmetric.self_s", "s", "lower"),
    ("gorenstein.nearly_gorenstein_via_trace.self_s", "s", "lower"),
    ("gorenstein.ng_candidates.self_s", "s", "lower"),
    ("gorenstein.ng_candidates.calls", "count", "lower"),
    ("gorenstein.pf_shift_mask.self_s", "s", "lower"),
    ("gorenstein.pf_shift_mask.calls", "count", "lower"),
    ("construct.self_s", "s", "lower"),
    ("construct.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("trace_overhead", "ratio", "lower"),
)


class Tracer:
    """In-memory span store with per-name self time and call counts."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.calls: list[int] = []
        self.name_of = array("i")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[list] = []  # [span id, seconds covered by children]
        self.current_request = -1
        self.routes = {"literal": 0, "factored": 0}
        self.fact_calls = 0
        self.fact_hits = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self.calls.append(0)
        return self._ids[name]

    def span(self, name: str, fn):
        """`fn` wrapped so that every call records a span named `name`."""
        nid = self.name_id(name)
        clock = time.perf_counter
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name_of.append(nid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.request.append(self.current_request)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            self.start.append(t0)
            self.end.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.end[sid] = t1
                duration = t1 - t0
                self.self_s[nid] += duration - frame[1]
                self.total_s[nid] += duration
                self.calls[nid] += 1
                if stack:
                    stack[-1][1] += duration

        return traced

    def self_time(self, name: str) -> float:
        return self.self_s[self._ids[name]] if name in self._ids else 0.0

    def total_time(self, name: str) -> float:
        return self.total_s[self._ids[name]] if name in self._ids else 0.0

    def call_count(self, name: str) -> int:
        return self.calls[self._ids[name]] if name in self._ids else 0

    def prefixed(self, prefix: str) -> tuple[float, int]:
        """Summed self time and calls of every span named prefix.*"""
        ids = [i for n, i in self._ids.items() if n.startswith(prefix + ".")]
        return sum(self.self_s[i] for i in ids), sum(self.calls[i] for i in ids)

    def child_total(self, parent: str, child: str) -> float:
        """Seconds spent in `child` spans opened directly under `parent`."""
        if parent not in self._ids or child not in self._ids:
            return 0.0
        pid, cid = self._ids[parent], self._ids[child]
        name_of, parents, start, end = self.name_of, self.parent, self.start, self.end
        return sum(
            end[s] - start[s]
            for s in range(len(start))
            if name_of[s] == cid and parents[s] >= 0 and name_of[parents[s]] == pid
        )

    def write(self, path: Path) -> None:
        """All spans as gzipped TSV, times in seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        names = self.names
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tname\tstart_s\tend_s\tparent\trequest\n")
            out.writelines(
                f"{s}\t{names[self.name_of[s]]}\t{self.start[s] - t0:.7f}\t"
                f"{self.end[s] - t0:.7f}\t{self.parent[s]}\t{self.request[s]}\n"
                for s in range(len(self.start))
            )


def _route_probe(tracer: Tracer, run_claims, per_semigroup_requests: bool):
    """run_claims that numbers semigroups as requests and, afterwards,
    reads from the context's instance dict (computing nothing) whether
    the vector list was materialized (literal) or left to the factored
    route (None)."""

    @functools.wraps(run_claims)
    def probe(*args, **kwargs):
        if per_semigroup_requests:
            tracer.current_request += 1
        results, ctx = run_claims(*args, **kwargs)
        cached = getattr(ctx, "__dict__", {})
        if "vectors" in cached:
            tracer.routes["factored" if cached["vectors"] is None else "literal"] += 1
        return results, ctx

    return probe


def _fact_probe(tracer: Tracer, fact):
    """ClaimContext.fact counting calls and memo hits."""

    @functools.wraps(fact)
    def probe(self, value):
        tracer.fact_calls += 1
        if value in getattr(self, "_facts", ()):
            tracer.fact_hits += 1
        return fact(self, value)

    return probe


@contextlib.contextmanager
def installed(tracer: Tracer, per_semigroup_requests: bool = False):
    """Install every wrapper; yields the names of absent targets."""
    package = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "numsgps"]
    undo: list[tuple] = []
    absent: list[str] = []

    def rebind(original, replacement) -> None:
        for module in package:
            for attr, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, attr, original))
                    setattr(module, attr, replacement)

    def replace(owner, attr, replacement) -> None:
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    try:
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(sys.modules.get(module), attr, None)
            if not callable(original):
                absent.append(name)
                continue
            wrapper = tracer.span(name, original)
            if name == "verify.claims.run_claims":
                wrapper = _route_probe(tracer, wrapper, per_semigroup_requests)
            rebind(original, wrapper)

        semigroup = getattr(sys.modules.get("numsgps.core"), "NumericalSemigroup", None)
        for name, attr in METHODS.items():
            if semigroup is None or not callable(vars(semigroup).get(attr)):
                absent.append(name)
                continue
            replace(semigroup, attr, tracer.span(name, vars(semigroup)[attr]))

        claims = sys.modules.get("numsgps.verify.claims")
        context = getattr(claims, "ClaimContext", None)
        for field in CONTEXT_FIELDS:
            prop = vars(context).get(field) if context is not None else None
            if not isinstance(prop, cached_property):
                absent.append(f"verify.claims.ctx.{field}")
                continue
            wrapped = cached_property(tracer.span(f"verify.claims.ctx.{field}", prop.func))
            wrapped.__set_name__(context, field)
            replace(context, field, wrapped)
        if context is not None and callable(vars(context).get("fact")):
            replace(context, "fact", _fact_probe(tracer, vars(context)["fact"]))
        else:
            absent.append("verify.claims.fact")

        table = getattr(claims, "CLAIM_FUNCTIONS", {})
        for claim in CLAIMS:
            if claim not in table:
                absent.append(f"verify.claims.{claim}")
                continue
            undo.append((table, claim, table[claim]))
            table[claim] = tracer.span(f"verify.claims.{claim}", table[claim])
        yield absent
    finally:
        for owner, attr, original in reversed(undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, measured: dict[str, float]) -> dict[str, float]:
    """Every PER_LAYER value: span aggregates from the tracer, the rest
    (CPU split, enumeration timings, overhead) from `measured`."""
    check_all = "verify.harness.check_all"
    derived = {
        "verify.claims.route.literal": tracer.routes["literal"],
        "verify.claims.route.factored": tracer.routes["factored"],
        "verify.claims.fact.calls": tracer.fact_calls,
        "verify.claims.fact.hit_ratio": (
            tracer.fact_hits / tracer.fact_calls if tracer.fact_calls else 0.0
        ),
        # the check_all span minus the run_claims spans directly under it
        "verify.harness.self_s": tracer.total_time(check_all)
        - tracer.child_total(check_all, "verify.claims.run_claims"),
        **measured,
    }
    out = {}
    for name, _unit, _better in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif layer == "construct":
            out[name] = tracer.prefixed("construct")[0 if stat == "self_s" else 1]
        elif stat == "self_s":
            out[name] = tracer.self_time(layer)
        elif stat == "calls":
            out[name] = tracer.call_count(layer)
        else:
            raise KeyError(f"per-layer metric {name} has no source")
    return out
