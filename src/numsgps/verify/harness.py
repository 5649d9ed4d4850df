"""Exhaustive verification harness: claims over every semigroup up to a
genus bound, or over ad-hoc generator systems.

It only aggregates and reports: the enumeration hands it semigroups
built and filtered (part k of W for worker k of W), and one run_claims
call per semigroup gives the claims' results in the configured order,
read by position, and the context, whose facts were built with it:
among them ClaimContext.varying, the numbers that are pf1 for one
NG-vector and pf2 for another (genus 45 has one), so the harness writes
both classes itself.

The summary it produces is deterministic for a given configuration,
independent of the worker count: an aggregate is one tally of (genus,
nu, NG, AS, type, claim statuses) keys and three lists, so partial
aggregates merge by addition alone; the summary's counts are read off
the tally, and its lists sorted by generator tuple, once at the end.
Summary and reports depend on the configuration alone: neither carries
a timing or reads a setting from outside it.

Both are plain JSON dicts, emitted as built: a report is the record of
one semigroup (_report), which check_semigroup returns and a check_all
sink receives.

A serial run checks part 0 of 1 and a run with workers > 1 forks W =
min(workers, CPU count) processes, worker k checking part k of W by the
same loop; multiprocessing is imported only then, so a serial census
never loads it.
"""

from __future__ import annotations

import os
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass

from ..core import NumericalSemigroup
from ..errors import InvalidArgumentError
from .claims import (
    CLAIM_NAMES,
    FAIL,
    ClaimContext,
    canonical_claims,
    run_claims,
)
from .enumeration import is_int, require_embdim, require_genus_max, semigroups_up_to

SCHEMA_VERSION = "1"


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
        require_genus_max(self.genus_max)
        if not is_int(self.workers):
            raise InvalidArgumentError(f"workers must be an integer, got {self.workers!r}")
        if self.workers < 1:
            raise InvalidArgumentError(f"workers must be positive, got {self.workers}")
        object.__setattr__(self, "embdim_filter", require_embdim(self.embdim_filter))
        object.__setattr__(self, "claims", canonical_claims(self.claims))


def _report(S: NumericalSemigroup, names: tuple, results: tuple, ctx: ClaimContext) -> dict:
    """The record of one semigroup, a plain JSON dict in its output key
    order: basic facts, the result of each named claim in canonical order
    ({"claim", "status"} and a "payload" when the claim gives one) and
    advisory notes."""
    t = S.type
    nu = S.embedding_dimension
    notes = [f"type {t} exceeds twice the embedding dimension {nu}"] if t > 2 * nu else []
    notes += [f"classification of {f} varies across NG-vectors: pf1, pf2" for f in ctx.varying]
    claims = []
    for name, result in zip(names, results):
        claim = {"claim": name, "status": result.status}
        if result.payload is not None:
            claim["payload"] = result.payload
        claims.append(claim)
    return {
        "generators": list(S.generators),
        "genus": S.genus,
        "frobenius": S.frobenius,
        "multiplicity": S.multiplicity,
        "embedding_dimension": nu,
        "type": t,
        "nearly_gorenstein": ctx.nearly_gorenstein,
        "almost_symmetric": ctx.almost_symmetric,
        "vector_count": ctx.vector_count,
        "claims": claims,
        "notes": notes,
    }


def check_semigroup(generators, claims: tuple[str, ...] = CLAIM_NAMES) -> dict:
    """The record of the named claims on one semigroup given by any
    generating set (or a NumericalSemigroup): the dict `sgp verify --gens`
    emits as its payload."""
    S = (
        generators
        if isinstance(generators, NumericalSemigroup)
        else NumericalSemigroup(generators)
    )
    names = canonical_claims(claims)
    return _report(S, names, *run_claims(S, names))


# ----------------------------------------------------------------------
# aggregation


_RENDER = {None: "none", True: "true", False: "false"}


def _empty_aggregate() -> dict:
    return {
        # (genus, nu, nearly_gorenstein, almost_symmetric, type, statuses)
        # -> count, statuses the claims' statuses in the configured order
        "tally": Counter(),
        "failures": [],
        "question_flags": [],
        "classification_varies": [],
    }


def _consume(agg: dict, cfg: HarnessConfig, S: NumericalSemigroup, sink=None) -> None:
    results, ctx = run_claims(S, cfg.claims)
    statuses = tuple([res.status for res in results])
    key = (S.genus, ctx.nu, ctx.nearly_gorenstein, ctx.almost_symmetric, len(ctx.pf), statuses)
    agg["tally"][key] += 1
    if FAIL in statuses:
        for name, res in zip(cfg.claims, results):
            if res.status == FAIL:
                agg["failures"].append({"claim": name, **res.payload})
    flag = results[cfg.claims.index("QUESTION_MS")] if "QUESTION_MS" in cfg.claims else None
    if flag is not None and flag.payload is not None:
        agg["question_flags"].append(flag.payload)
    for f in ctx.varying:
        agg["classification_varies"].append(
            {"generators": list(S.generators), "f": f, "classes": ["pf1", "pf2"]}
        )
    if sink is not None:
        sink(_report(S, cfg.claims, results, ctx))


def _merge(agg: dict, part: dict) -> None:
    for key in agg:
        agg[key] += part[key]


def _check_part(cfg: HarnessConfig, part: int, parts: int, sink=None) -> dict:
    """The aggregate of part `part` of `parts` of the census."""
    agg = _empty_aggregate()
    for S in semigroups_up_to(cfg.genus_max, cfg.embdim_filter, part, parts):
        _consume(agg, cfg, S, sink)
    return agg


def _finalize(agg: dict, cfg: HarnessConfig) -> dict:
    agg["failures"].sort(key=lambda e: (e["generators"], e["claim"]))
    agg["question_flags"].sort(key=lambda e: e["generators"])
    agg["classification_varies"].sort(key=lambda e: (e["generators"], e["f"]))
    by_genus, cells = Counter(), {}
    claims = {n: {"pass": 0, "fail": 0, "inapplicable": 0} for n in cfg.claims}
    for (genus, nu, ng, asym, t, statuses), n in agg["tally"].items():
        by_genus[genus] += n
        key = f"nu={nu}|ng={_RENDER[ng]}|as={_RENDER[asym]}"
        cell = cells.setdefault(key, {"count": 0, "max_type": 0})
        cell["count"] += n
        cell["max_type"] = max(cell["max_type"], t)
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
            # read by no census computation; both keep their former
            # values so that summaries stay byte-identical
            "coppie_pair_cap": 10_000,
            "matrix_cap": 10**6,
        },
        "semigroups": sum(by_genus.values()),
        "by_genus": {str(g): by_genus[g] for g in sorted(by_genus)},
        "claims": claims,
        "cells": {k: cells[k] for k in sorted(cells)},
        "total_failures": len(agg["failures"]),
        "failures": agg["failures"],
        "question_flags": agg["question_flags"],
        "classification_varies": agg["classification_varies"],
    }


def check_all(cfg: HarnessConfig, sink: Callable[[dict], None] | None = None) -> dict:
    """Run the configured claims on every semigroup of genus at most
    cfg.genus_max and return the summary dictionary.

    `sink` receives each semigroup's record (the dict check_semigroup
    returns) in enumeration order and requires workers == 1 (records are
    not shipped across worker boundaries).
    """
    if sink is not None and cfg.workers > 1:
        raise InvalidArgumentError("per-semigroup reports require workers == 1")
    # every worker walks the whole tree, so more than one per CPU only
    # repeats the walk
    parts = min(cfg.workers, os.cpu_count() or 1)
    if parts == 1:
        partials = [_check_part(cfg, 0, 1, sink)]
    else:
        import multiprocessing  # only a worker pool needs it

        with multiprocessing.get_context("fork").Pool(processes=parts) as pool:
            partials = pool.starmap(_check_part, [(cfg, k, parts) for k in range(parts)])
    agg = _empty_aggregate()
    for part in partials:
        _merge(agg, part)
    return _finalize(agg, cfg)
