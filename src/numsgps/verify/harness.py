"""Exhaustive verification harness: claims over every semigroup up to a
genus bound, or over ad-hoc generator systems.

The summary it produces is deterministic for a given configuration,
independent of the worker count: work units are genus-subtrees of the
enumeration, partial aggregates combine by sums and maxima (they count
each tuple of claim statuses, expanded into per-claim counts once), and all
collected lists are sorted by generator tuple before the summary is
assembled.  Timing lives on individual reports, never in the summary.
"""

from __future__ import annotations

import multiprocessing
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from ..core import NumericalSemigroup
from ..errors import InvalidArgumentError
from ..rf import resolve_matrix_cap
from .claims import (
    CLAIM_FUNCTIONS,
    CLAIM_NAMES,
    FAIL,
    ClaimContext,
    ClaimResult,
    run_claims,
)
from .enumeration import _ROOT, Node, _nodes_from, _semigroup_from_node

SCHEMA_VERSION = "1"

# genus at which the enumeration tree is cut into per-worker subtrees
SPLIT_DEPTH = 6


@dataclass(frozen=True)
class HarnessConfig:
    """Configuration for an exhaustive run.  `seed` drives no computation;
    it is only echoed into the summary."""

    genus_max: int
    embdim_filter: frozenset[int] | None = None
    claims: tuple[str, ...] = CLAIM_NAMES
    workers: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.genus_max < 0:
            raise InvalidArgumentError(f"genus_max must be nonnegative, got {self.genus_max}")
        if self.workers < 1:
            raise InvalidArgumentError(f"workers must be positive, got {self.workers}")
        unknown = [n for n in self.claims if n not in CLAIM_FUNCTIONS]
        if unknown:
            raise InvalidArgumentError(f"unknown claims: {unknown}")
        # normalize to canonical order with duplicates dropped
        chosen = frozenset(self.claims)
        object.__setattr__(
            self, "claims", tuple(n for n in CLAIM_NAMES if n in chosen)
        )
        if self.embdim_filter is not None:
            object.__setattr__(self, "embdim_filter", frozenset(self.embdim_filter))


@dataclass(frozen=True)
class ClaimRecord:
    claim: str
    status: str
    payload: dict | None = None

    def as_dict(self) -> dict:
        out = {"claim": self.claim, "status": self.status}
        if self.payload is not None:
            out["payload"] = self.payload
        return out


@dataclass(frozen=True)
class CheckReport:
    """Everything the harness knows about one semigroup: basic facts,
    one record per requested claim, advisory notes, and the time spent."""

    generators: tuple[int, ...]
    genus: int
    frobenius: int
    multiplicity: int
    embedding_dimension: int
    type: int
    nearly_gorenstein: bool | None
    almost_symmetric: bool | None
    vector_count: int
    claims: tuple[ClaimRecord, ...]
    notes: tuple[str, ...]
    seconds: float

    @property
    def failures(self) -> tuple[ClaimRecord, ...]:
        return tuple(r for r in self.claims if r.status == FAIL)

    def as_dict(self) -> dict:
        return {
            "generators": list(self.generators),
            "genus": self.genus,
            "frobenius": self.frobenius,
            "multiplicity": self.multiplicity,
            "embedding_dimension": self.embedding_dimension,
            "type": self.type,
            "nearly_gorenstein": self.nearly_gorenstein,
            "almost_symmetric": self.almost_symmetric,
            "vector_count": self.vector_count,
            "claims": [r.as_dict() for r in self.claims],
            "notes": list(self.notes),
            "seconds": self.seconds,
        }


def _classification_variance(ctx: ClaimContext) -> list[tuple[int, list[str]]]:
    """Pseudo-Frobenius numbers whose one-generator/two-generator class
    differs across the NG-vectors keeping them outside their entries.

    f is in the first class for a vector iff, at some position i,
    f + n_i or n_i + f_i - f > 0 is a multiple of another generator n_j.
    The first test does not depend on the vector, and the second depends
    only on the entry at position i.  So f varies iff some position has a candidate other than
    f that is a witness, and every position has one that is not.  Only
    the avoidable f (ClaimContext.avoidable) are kept outside some vector.
    No vector is enumerated, so the scan covers every semigroup, however
    many vectors it has.
    """
    if not ctx.avoidable:
        return []
    gens = ctx.S.generators

    def witness(i: int, value: int) -> bool:
        return value > 0 and any(value % n == 0 for j, n in enumerate(gens) if j != i)

    out = []
    for f in ctx.avoidable:
        if any(witness(i, f + n) for i, n in enumerate(gens)):
            continue
        options = [c - {f} for c in ctx.candidates]
        hits = [
            [witness(i, n + g - f) for g in opts]
            for i, (n, opts) in enumerate(zip(gens, options))
        ]
        if any(map(any, hits)) and not any(map(all, hits)):
            out.append((f, ["pf1", "pf2"]))
    return out


def _build_report(
    S: NumericalSemigroup,
    results: dict[str, ClaimResult],
    ctx: ClaimContext,
    variance: list[tuple[int, list[str]]],
    seconds: float,
) -> CheckReport:
    notes = []
    t = S.type
    nu = S.embedding_dimension
    if t > 2 * nu:
        notes.append(f"type {t} exceeds twice the embedding dimension {nu}")
    for f, kinds in variance:
        notes.append(
            f"classification of {f} varies across NG-vectors: {', '.join(kinds)}"
        )
    return CheckReport(
        generators=S.generators,
        genus=S.genus,
        frobenius=S.frobenius,
        multiplicity=S.multiplicity,
        embedding_dimension=nu,
        type=t,
        nearly_gorenstein=ctx.nearly_gorenstein,
        almost_symmetric=ctx.almost_symmetric,
        vector_count=ctx.vector_count,
        claims=tuple(
            ClaimRecord(n, results[n].status, results[n].payload) for n in results
        ),
        notes=tuple(notes),
        seconds=seconds,
    )


def check_semigroup(generators, claims: tuple[str, ...] = CLAIM_NAMES) -> CheckReport:
    """Run the named claims on one semigroup given by any generating set."""
    S = (
        generators
        if isinstance(generators, NumericalSemigroup)
        else NumericalSemigroup(generators)
    )
    start = time.perf_counter()
    results, ctx = run_claims(S, claims)
    seconds = time.perf_counter() - start
    return _build_report(S, results, ctx, _classification_variance(ctx), seconds)


# ----------------------------------------------------------------------
# aggregation


def _cell_key(nu: int, ng: bool | None, asym: bool | None) -> str:
    def render(v):
        return "none" if v is None else ("true" if v else "false")

    return f"nu={nu}|ng={render(ng)}|as={render(asym)}"


def _empty_aggregate() -> dict:
    return {
        "semigroups": 0,
        "by_genus": {},
        # tuple of the claims' statuses, in the configured order -> count
        "tally": {},
        "cells": {},
        "failures": [],
        "question_flags": [],
        "classification_varies": [],
    }


def _consume(agg: dict, cfg: HarnessConfig, node: Node, sink=None) -> None:
    # the filter reads the node's generator count, so a node it drops is
    # never built
    if cfg.embdim_filter is not None and len(node[0]) not in cfg.embdim_filter:
        return
    S = _semigroup_from_node(node)
    start = time.perf_counter()
    results, ctx = run_claims(S, cfg.claims)
    agg["semigroups"] += 1
    agg["by_genus"][S.genus] = agg["by_genus"].get(S.genus, 0) + 1
    key = _cell_key(ctx.nu, ctx.nearly_gorenstein, ctx.almost_symmetric)
    cell = agg["cells"].setdefault(key, {"count": 0, "max_type": 0})
    cell["count"] += 1
    cell["max_type"] = max(cell["max_type"], S.type)
    statuses = tuple([res.status for res in results.values()])
    agg["tally"][statuses] = agg["tally"].get(statuses, 0) + 1
    if FAIL in statuses:
        for name, res in results.items():
            if res.status == FAIL:
                agg["failures"].append({"claim": name, **res.payload})
    flag = results.get("QUESTION_MS")
    if flag is not None and flag.payload is not None and flag.status != FAIL:
        agg["question_flags"].append(flag.payload)
    variance = _classification_variance(ctx)
    for f, kinds in variance:
        agg["classification_varies"].append(
            {"generators": list(S.generators), "f": f, "classes": kinds}
        )
    if sink is not None:
        sink(_build_report(S, results, ctx, variance, time.perf_counter() - start))


def _merge(agg: dict, part: dict) -> None:
    agg["semigroups"] += part["semigroups"]
    for g, n in part["by_genus"].items():
        agg["by_genus"][g] = agg["by_genus"].get(g, 0) + n
    for statuses, n in part["tally"].items():
        agg["tally"][statuses] = agg["tally"].get(statuses, 0) + n
    for key, cell in part["cells"].items():
        dst = agg["cells"].setdefault(key, {"count": 0, "max_type": 0})
        dst["count"] += cell["count"]
        dst["max_type"] = max(dst["max_type"], cell["max_type"])
    agg["failures"].extend(part["failures"])
    agg["question_flags"].extend(part["question_flags"])
    agg["classification_varies"].extend(part["classification_varies"])


def _subtree_worker(args: tuple) -> dict:
    node, cfg = args
    agg = _empty_aggregate()
    for child in _nodes_from(node, cfg.genus_max):
        _consume(agg, cfg, child)
    return agg


def _finalize(agg: dict, cfg: HarnessConfig, matrix_cap: int) -> dict:
    agg["failures"].sort(key=lambda e: (e["generators"], e["claim"]))
    agg["question_flags"].sort(key=lambda e: e["generators"])
    agg["classification_varies"].sort(key=lambda e: (e["generators"], e["f"]))
    claims = {n: {"pass": 0, "fail": 0, "inapplicable": 0} for n in cfg.claims}
    for statuses, n in agg["tally"].items():
        for name, status in zip(cfg.claims, statuses):
            claims[name][status] += n
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "verify-summary",
        "genus_max": cfg.genus_max,
        "embdim_filter": (
            sorted(cfg.embdim_filter) if cfg.embdim_filter is not None else None
        ),
        "claims_checked": list(cfg.claims),
        "seed": cfg.seed,
        "caps": {
            # read by no computation; kept at its former default so that
            # summaries stay byte-identical
            "coppie_pair_cap": 10_000,
            "matrix_cap": matrix_cap,
        },
        "semigroups": agg["semigroups"],
        "by_genus": {str(g): agg["by_genus"][g] for g in sorted(agg["by_genus"])},
        "claims": claims,
        "cells": {k: agg["cells"][k] for k in sorted(agg["cells"])},
        "total_failures": len(agg["failures"]),
        "failures": agg["failures"],
        "question_flags": agg["question_flags"],
        "classification_varies": agg["classification_varies"],
    }


def check_all(cfg: HarnessConfig, sink: Callable[[CheckReport], None] | None = None) -> dict:
    """Run the configured claims on every semigroup of genus at most
    cfg.genus_max and return the summary dictionary.

    `sink` receives the per-semigroup CheckReport in enumeration order
    and requires workers == 1 (reports are not shipped across worker
    boundaries).
    """
    if sink is not None and cfg.workers > 1:
        raise InvalidArgumentError("per-semigroup reports require workers == 1")
    # read before the census so that a malformed value fails at once
    matrix_cap = resolve_matrix_cap()
    agg = _empty_aggregate()
    if cfg.workers == 1 or cfg.genus_max <= SPLIT_DEPTH:
        for node in _nodes_from(_ROOT, cfg.genus_max):
            _consume(agg, cfg, node, sink)
        return _finalize(agg, cfg, matrix_cap)
    units = []
    for node in _nodes_from(_ROOT, SPLIT_DEPTH):
        if node[2] == SPLIT_DEPTH:
            units.append((node, cfg))
        else:
            _consume(agg, cfg, node)
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=cfg.workers) as pool:
        for part in pool.imap_unordered(_subtree_worker, units):
            _merge(agg, part)
    return _finalize(agg, cfg, matrix_cap)
