"""Command-line interface with line-delimited structured output.

Every command emits one JSON record per line with the shape
{"schema_version": ..., "kind": ..., "payload": ...}; --pretty switches
to an indented human-readable rendering.  Exit codes: 0 on success, 1 on
a mathematical violation or positive report (non nearly Gorenstein
input, verification failures, enumeration over the cap), 2 on usage
errors including malformed generator lists and gcd != 1.

A handler only builds payloads: it takes (args, emit), passes each
payload to emit, and returns an exit code (None for 0).  A single
semigroup's answers are the library's own records, emitted unchanged:
classify-pf emits rf.classify_pf's, ng-vectors lists
gorenstein.ng_vectors' and verify --gens emits
harness.check_semigroup's, so their key order is the library's too.
Every record carries the package's one SCHEMA_VERSION.  The parser table
(build_parser) names each subcommand's handler and record kind and gives
every handler --pretty from one parent parser.  main alone binds emit to
the kind and --pretty, and turns a usage error (argparse's included) or a
SemigroupError into one error record of the subcommand's kind.  The
listings (ng-vectors, rf) stream through gorenstein.capped_product, so
their refusal above gorenstein.MATRIX_CAP is an EnumerationCapError
record like any other; no handler reads the cap.

The module loads only the single-semigroup layers (core, errors,
gorenstein, rf).  The verify handler imports the verification harness,
and the construct handlers import construct, when they run, so a
process that answers one `info` never loads either (or the
multiprocessing machinery the harness uses for a worker pool).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import SCHEMA_VERSION
from .core import NumericalSemigroup
from .errors import (
    EmptyGeneratorsError,
    EnumerationCapError,
    GcdNotOneError,
    GeneratorTooLargeError,
    InvalidArgumentError,
    SemigroupError,
    printable_count,
)
from .gorenstein import (
    capped_product,
    count_choices,
    is_almost_symmetric,
    is_nearly_gorenstein,
    is_symmetric,
    ng_vector_at,
    ng_vectors,
)
from .rf import classify_pf, minus_row_lists, plus_row_lists

# exceptions that are the caller's fault rather than a mathematical state
_USAGE_ERRORS = (
    EmptyGeneratorsError,
    GcdNotOneError,
    GeneratorTooLargeError,
    InvalidArgumentError,
)


def _parse_generators(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        )


def _parse_claims(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _pretty_lines(value, indent: str = "") -> list[str]:
    if isinstance(value, dict):
        lines = []
        for key, item in value.items():
            if isinstance(item, (dict, list)) and item:
                lines.append(f"{indent}{key}:")
                lines.extend(_pretty_lines(item, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {json.dumps(item)}")
        return lines
    if isinstance(value, list):
        if value and all(
            isinstance(row, list) and all(isinstance(c, int) for c in row)
            for row in value
        ):
            width = max(len(str(c)) for row in value for c in row)
            return [
                indent + "  ".join(f"{c:>{width}d}" for c in row) for row in value
            ]
        if all(isinstance(x, (int, str, bool, type(None))) for x in value):
            return [f"{indent}{json.dumps(value)}"]
        lines = []
        for i, item in enumerate(value):
            lines.append(f"{indent}- [{i}]")
            lines.extend(_pretty_lines(item, indent + "  "))
        return lines
    return [f"{indent}{json.dumps(value)}"]


def _emit(kind: str, payload: dict, pretty: bool) -> None:
    if pretty:
        print(f"[{kind}]")
        print("\n".join(_pretty_lines(payload)))
    else:
        record = {"schema_version": SCHEMA_VERSION, "kind": kind, "payload": payload}
        print(json.dumps(record, sort_keys=True, separators=(",", ":")))


def _error_payload(exc: SemigroupError) -> dict:
    payload = {
        "error": type(exc).__name__.removesuffix("Error"),
        "message": str(exc),
    }
    if isinstance(exc, EnumerationCapError):
        payload["count"] = printable_count(exc.count)
        payload["cap"] = exc.cap
    return payload


def _semigroup_payload(S: NumericalSemigroup) -> dict:
    return {
        "generators": list(S.generators),
        "multiplicity": S.multiplicity,
        "embedding_dimension": S.embedding_dimension,
        "frobenius": S.frobenius,
        "genus": S.genus,
        "type": S.type,
        "pf": list(S.pseudo_frobenius()),
        "symmetric": is_symmetric(S),
        "almost_symmetric": is_almost_symmetric(S),
        "nearly_gorenstein": is_nearly_gorenstein(S),
    }


# ----------------------------------------------------------------------
# commands


def _cmd_info(args, emit) -> None:
    emit(_semigroup_payload(NumericalSemigroup(args.generators)))


def _cmd_ng_vectors(args, emit) -> None:
    S = NumericalSemigroup(args.generators)
    vectors = ng_vectors(S)
    emit({
        "generators": list(S.generators),
        "pf": list(S.pseudo_frobenius()),
        "count": len(vectors),
        "vectors": vectors,
    })


def _cmd_rf(args, emit) -> None:
    S = NumericalSemigroup(args.generators)
    if args.kind == "plus":
        rows, tail = plus_row_lists(S, args.f), {}
    else:
        vec = ng_vector_at(S, args.ng_index)["entries"]
        rows, tail = minus_row_lists(S, vec, args.f), {"vector": vec}
    head = {"f": args.f, "kind": args.kind}
    if args.count:
        counts = [len(r) for r in rows]
        emit({**head, "count": count_choices(rows), "row_counts": counts, **tail})
        return
    for index, M in enumerate(capped_product(rows, "matrices")):
        emit({**head, "index": index, "rows": [list(row) for row in M], **tail})


def _cmd_classify_pf(args, emit) -> None:
    S = NumericalSemigroup(args.generators)
    emit(classify_pf(S, ng_vector_at(S, args.ng_index)["entries"]))


def _cmd_verify(args, emit) -> int:
    from .verify.claims import CLAIM_NAMES, FAIL
    from .verify.harness import HarnessConfig, check_all, check_semigroup

    # only an absent --claims means every claim; an empty list means none
    claims = CLAIM_NAMES if args.claims is None else args.claims
    if args.gens is not None:
        # the range flags have no meaning for one semigroup
        given = {"--embdim": args.embdim is not None, "--workers": args.workers != 1,
                 "--reports": args.reports}
        clashes = [flag for flag, on in given.items() if on]
        if clashes:
            raise InvalidArgumentError(f"--gens does not take {', '.join(clashes)}")
        report = check_semigroup(args.gens, claims=claims)
        emit(report)
        return 1 if any(claim["status"] == FAIL for claim in report["claims"]) else 0
    cfg = HarnessConfig(
        genus_max=args.genus_max,
        embdim_filter=args.embdim,
        claims=claims,
        workers=args.workers,
    )
    start = time.perf_counter()
    summary = check_all(cfg, sink=emit if args.reports else None)
    elapsed = time.perf_counter() - start
    emit(summary)
    print(
        f"checked {summary['semigroups']} semigroups in {elapsed:.1f}s: "
        f"{summary['total_failures']} failures",
        file=sys.stderr,
    )
    return 1 if summary["total_failures"] else 0


# the invariants a construct record carries, in its key order
_FAMILY_FIELDS = (
    "generators", "frobenius", "genus", "type", "pf", "nearly_gorenstein", "almost_symmetric"
)


def _family_payload(family: str, params: dict, S: NumericalSemigroup) -> dict:
    invariants = _semigroup_payload(S)
    return {"family": family, "params": params, **{k: invariants[k] for k in _FAMILY_FIELDS}}


def _construct_backelin(args, emit) -> None:
    from .construct import backelin

    emit(_family_payload("backelin", {"T": args.T}, backelin(args.T)))


def _construct_dim6(args, emit) -> None:
    from .construct import dim6_progression, dim6_raw_generators, family_dim6

    S = family_dim6(args.T, args.d, args.k)
    payload = _family_payload("dim6", {"T": args.T, "d": args.d, "k": args.k}, S)
    payload["generators_constructed"] = list(dim6_raw_generators(args.T, args.d, args.k))
    payload["progression"] = list(dim6_progression(args.T, args.d, args.k))
    emit(payload)


def _construct_duplication(args, emit) -> None:
    from .construct import RelativeIdeal, ideal_from_generators, numerical_duplication

    S = NumericalSemigroup(args.gens)
    if args.ideal is None:
        E = RelativeIdeal.maximal_ideal(S)
    else:
        E = ideal_from_generators(S, args.ideal)
    D = numerical_duplication(S, E, args.b)
    emit(_family_payload(
        "duplication",
        {"base": list(S.generators), "b": args.b,
         "ideal": None if args.ideal is None else sorted(args.ideal)},
        D,
    ))


def _construct_tower(args, emit) -> None:
    from .construct import duplication_tower

    seed = NumericalSemigroup(args.gens)
    chain = duplication_tower(seed, args.depth)
    emit({
        "family": "tower",
        "params": {"base": list(seed.generators), "depth": args.depth},
        "levels": [
            {
                "generators": list(level.generators),
                "embedding_dimension": level.embedding_dimension,
                "type": level.type,
                "excess": level.type - 2 * level.embedding_dimension,
            }
            for level in chain
        ],
    })


# ----------------------------------------------------------------------
# parser


class _ArgvError(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


class _Parser(argparse.ArgumentParser):
    """A subcommand's malformed argv (a generator list such as 3,x, or
    -3,5 read as an option) raises _ArgvError with the subcommand's
    record kind, which main turns into an InvalidArgument record; sgp
    itself keeps argparse's usage message."""

    def error(self, message):
        kind = self.get_default("record_kind")
        if kind is None:
            super().error(message)
        raise _ArgvError(kind, message)


def build_parser() -> argparse.ArgumentParser:
    """The parser table: each subcommand's arguments, handler and record
    kind.  Every subcommand that runs a handler takes --pretty."""
    parser = _Parser(
        prog="sgp",
        description="Numerical semigroup toolkit: invariants, NG-vectors, "
        "row-factorization matrices, verification, constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="human-readable output")

    def command(subparsers, name, func, kind, help):
        p = subparsers.add_parser(name, parents=[common], help=help)
        p.set_defaults(func=func, record_kind=kind)
        return p

    p = command(sub, "info", _cmd_info, "info", "invariants of one semigroup")
    p.add_argument("generators", type=_parse_generators)

    p = command(sub, "ng-vectors", _cmd_ng_vectors, "ngvectors",
                "all NG-vectors with h and ell")
    p.add_argument("generators", type=_parse_generators)

    p = command(sub, "rf", _cmd_rf, "rf", "row-factorization matrices for one f")
    p.add_argument("generators", type=_parse_generators)
    p.add_argument("f", type=int)
    p.add_argument("--kind", choices=("plus", "minus"), default="plus")
    p.add_argument(
        "--ng-index", type=int, default=0,
        help="which NG-vector the subtractive matrices use (default 0)",
    )
    p.add_argument("--count", action="store_true", help="matrix count only")

    p = command(sub, "classify-pf", _cmd_classify_pf, "classify",
                "one/two-generator split of PF outside a vector")
    p.add_argument("generators", type=_parse_generators)
    p.add_argument("--ng-index", type=int, default=0)

    p = command(sub, "verify", _cmd_verify, "verify", "claim verification harness")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--genus-max", type=int)
    target.add_argument("--gens", type=_parse_generators,
                        help="check one semigroup instead of a genus range")
    p.add_argument("--embdim", type=_parse_generators, default=None,
                   help="restrict to these embedding dimensions")
    p.add_argument("--claims", type=_parse_claims, default=None,
                   help="comma-separated claim names (default: all)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes, at most one per CPU; each walks the "
                        "genus tree and checks every W-th semigroup")
    p.add_argument("--reports", action="store_true",
                   help="stream one record per semigroup (workers 1 only)")

    construct = sub.add_parser("construct", help="named semigroup constructions")
    construct.set_defaults(record_kind="construct")
    families = construct.add_subparsers(dest="family", required=True)

    def family(name, func, help):
        # a family's own argv errors are construct records too
        return command(families, name, func, construct.get_default("record_kind"), help)

    q = family("backelin", _construct_backelin, "four-generated family with growing type")
    q.add_argument("--T", type=int, required=True)

    q = family("dim6", _construct_dim6, "six-generated family with a PF progression")
    q.add_argument("--T", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--d", type=int, required=True)

    q = family("duplication", _construct_duplication, "numerical duplication 2S u (2E+b)")
    q.add_argument("--gens", type=_parse_generators, required=True)
    q.add_argument("--b", type=int, required=True)
    q.add_argument("--ideal", type=_parse_generators, default=None,
                   help="ideal generators (default: the maximal ideal)")

    q = family("tower", _construct_tower, "iterated maximal-ideal duplication")
    q.add_argument("--gens", type=_parse_generators, required=True)
    q.add_argument("--depth", type=int, required=True)

    return parser


def main(argv=None) -> int:
    """Run one sgp command.  The handler's payloads become records of its
    subcommand's kind; a rejected argv or a SemigroupError becomes one
    error record of that kind, exit 2 for a usage error and 1 otherwise."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        args, extra = build_parser().parse_known_args(argv)
    except _ArgvError as exc:
        # rejected before any args exist, so --pretty is read off argv
        kind, pretty, error = exc.kind, "--pretty" in argv, InvalidArgumentError(str(exc))
    else:
        kind, pretty = args.record_kind, args.pretty
        try:
            if extra:
                raise InvalidArgumentError(f"unrecognized arguments: {' '.join(extra)}")
            return args.func(args, lambda payload: _emit(kind, payload, pretty)) or 0
        except SemigroupError as exc:
            error = exc
    _emit(kind, _error_payload(error), pretty)
    return 2 if isinstance(error, _USAGE_ERRORS) else 1


if __name__ == "__main__":
    sys.exit(main())
