"""Exhaustive verification harness: claims over every semigroup up to a
genus bound, or over ad-hoc generator systems.

It only aggregates and reports: the enumeration hands it semigroups
built and filtered (as work units for worker processes), the claims
module decides the claims, and rf scans for a PF split that varies.

The summary it produces is deterministic for a given configuration,
independent of the worker count: partial aggregates combine by sums and
maxima (they count each tuple of claim statuses, expanded into
per-claim counts once), and all collected lists are sorted by generator
tuple before the summary is assembled.  Summary and reports depend on
the configuration alone: neither carries a timing or reads a setting
from outside it.

A run with workers > 1 forks a pool of at most one process per work
unit; multiprocessing is imported only then, so a serial census never
loads it.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, fields

from ..core import NumericalSemigroup
from ..errors import InvalidArgumentError
from ..rf import MATRIX_CAP, classification_variance
from .claims import (
    CLAIM_NAMES,
    FAIL,
    ClaimContext,
    ClaimResult,
    canonical_claims,
    run_claims,
)
from .enumeration import semigroups_up_to, work_units

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
        if self.genus_max < 0:
            raise InvalidArgumentError(f"genus_max must be nonnegative, got {self.genus_max}")
        if self.workers < 1:
            raise InvalidArgumentError(f"workers must be positive, got {self.workers}")
        object.__setattr__(self, "claims", canonical_claims(self.claims))
        if self.embdim_filter is not None:
            object.__setattr__(self, "embdim_filter", frozenset(self.embdim_filter))


@dataclass(frozen=True)
class CheckReport:
    """Everything the harness knows about one semigroup: basic facts,
    the result of each requested claim by name, and advisory notes."""

    generators: tuple[int, ...]
    genus: int
    frobenius: int
    multiplicity: int
    embedding_dimension: int
    type: int
    nearly_gorenstein: bool | None
    almost_symmetric: bool | None
    vector_count: int
    claims: dict[str, ClaimResult]
    notes: tuple[str, ...]

    @property
    def failures(self) -> dict[str, ClaimResult]:
        return {n: r for n, r in self.claims.items() if r.status == FAIL}

    def as_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        claims = []
        for name, result in self.claims.items():
            record = {"claim": name, "status": result.status}
            if result.payload is not None:
                record["payload"] = result.payload
            claims.append(record)
        out.update(generators=list(self.generators), claims=claims, notes=list(self.notes))
        return out


def _build_report(
    S: NumericalSemigroup,
    results: dict[str, ClaimResult],
    ctx: ClaimContext,
    variance: list[tuple[int, list[str]]],
) -> CheckReport:
    notes = []
    t = S.type
    nu = S.embedding_dimension
    if t > 2 * nu:
        notes.append(f"type {t} exceeds twice the embedding dimension {nu}")
    for f, kinds in variance:
        notes.append(f"classification of {f} varies across NG-vectors: {', '.join(kinds)}")
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
        claims=results,
        notes=tuple(notes),
    )


def check_semigroup(generators, claims: tuple[str, ...] = CLAIM_NAMES) -> CheckReport:
    """Run the named claims on one semigroup given by any generating set."""
    S = (
        generators
        if isinstance(generators, NumericalSemigroup)
        else NumericalSemigroup(generators)
    )
    results, ctx = run_claims(S, canonical_claims(claims))
    variance = classification_variance(S, ctx.candidates, ctx.avoidable)
    return _build_report(S, results, ctx, variance)


# ----------------------------------------------------------------------
# aggregation


_RENDER = {None: "none", True: "true", False: "false"}


def _cell_key(nu: int, ng: bool | None, asym: bool | None) -> str:
    return f"nu={nu}|ng={_RENDER[ng]}|as={_RENDER[asym]}"


def _empty_aggregate() -> dict:
    return {
        "by_genus": Counter(),
        # tuple of the claims' statuses, in the configured order -> count
        "tally": Counter(),
        "cells": {},
        "failures": [],
        "question_flags": [],
        "classification_varies": [],
    }


def _consume(agg: dict, cfg: HarnessConfig, S: NumericalSemigroup, sink=None) -> None:
    results, ctx = run_claims(S, cfg.claims)
    agg["by_genus"][S.genus] += 1
    key = _cell_key(ctx.nu, ctx.nearly_gorenstein, ctx.almost_symmetric)
    cell = agg["cells"].setdefault(key, {"count": 0, "max_type": 0})
    cell["count"] += 1
    cell["max_type"] = max(cell["max_type"], S.type)
    statuses = tuple([res.status for res in results.values()])
    agg["tally"][statuses] += 1
    if FAIL in statuses:
        for name, res in results.items():
            if res.status == FAIL:
                agg["failures"].append({"claim": name, **res.payload})
    flag = results.get("QUESTION_MS")
    if flag is not None and flag.payload is not None and flag.status != FAIL:
        agg["question_flags"].append(flag.payload)
    variance = classification_variance(S, ctx.candidates, ctx.avoidable)
    for f, kinds in variance:
        agg["classification_varies"].append(
            {"generators": list(S.generators), "f": f, "classes": kinds}
        )
    if sink is not None:
        sink(_build_report(S, results, ctx, variance))


def _merge(agg: dict, part: dict) -> None:
    agg["by_genus"].update(part["by_genus"])
    agg["tally"].update(part["tally"])
    for key, cell in part["cells"].items():
        dst = agg["cells"].setdefault(key, {"count": 0, "max_type": 0})
        dst["count"] += cell["count"]
        dst["max_type"] = max(dst["max_type"], cell["max_type"])
    agg["failures"].extend(part["failures"])
    agg["question_flags"].extend(part["question_flags"])
    agg["classification_varies"].extend(part["classification_varies"])


def _unit_worker(args: tuple) -> dict:
    unit, cfg = args
    agg = _empty_aggregate()
    for S in unit():
        _consume(agg, cfg, S)
    return agg


def _finalize(agg: dict, cfg: HarnessConfig) -> dict:
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
            # read by no census computation; both keep their former
            # values so that summaries stay byte-identical
            "coppie_pair_cap": 10_000,
            "matrix_cap": MATRIX_CAP,
        },
        "semigroups": sum(agg["by_genus"].values()),
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
    agg = _empty_aggregate()
    if cfg.workers == 1:
        above, units = semigroups_up_to(cfg.genus_max, cfg.embdim_filter), []
    else:
        above, units = work_units(cfg.genus_max, cfg.embdim_filter)
    for S in above:
        _consume(agg, cfg, S, sink)
    if units:
        import multiprocessing  # only a worker pool needs it

        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=min(cfg.workers, len(units))) as pool:
            for part in pool.imap_unordered(_unit_worker, [(u, cfg) for u in units]):
                _merge(agg, part)
    return _finalize(agg, cfg)
