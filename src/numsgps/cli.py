"""Command-line interface with line-delimited structured output.

Every command emits one JSON record per line with the shape
{"schema_version": ..., "kind": ..., "payload": ...}; --pretty switches
to an indented human-readable rendering.  Exit codes: 0 on success, 1 on
a mathematical violation or positive report (non nearly Gorenstein
input, verification failures, enumeration over the cap), 2 on usage
errors including malformed generator lists and gcd != 1.  A subcommand's
usage error, argparse's included, is one InvalidArgument record of that
subcommand's kind.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .construct import (
    DuplicationSpec,
    backelin,
    dim6_progression,
    dim6_raw_generators,
    duplication_tower,
    family_dim6,
    ideal_from_generators,
    numerical_duplication,
)
from .core import NumericalSemigroup
from .errors import (
    EmptyGeneratorsError,
    EnumerationCapError,
    GcdNotOneError,
    GeneratorTooLargeError,
    InvalidArgumentError,
    SemigroupError,
)
from .gorenstein import (
    RelativeIdeal,
    is_almost_symmetric,
    is_nearly_gorenstein,
    is_symmetric,
    ng_vectors,
)
from .rf import (
    classify_pf,
    matrix_count,
    minus_row_lists,
    plus_row_lists,
    rf_minus_iter,
    rf_plus_iter,
)
from .verify.claims import CLAIM_NAMES
from .verify.harness import HarnessConfig, check_all, check_semigroup

SCHEMA_VERSION = "1"

# exceptions that are the caller's fault rather than a mathematical state
_USAGE_ERRORS = (
    EmptyGeneratorsError,
    GcdNotOneError,
    GeneratorTooLargeError,
    InvalidArgumentError,
)


def _parse_generators(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        )
    return values


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
        payload["count"] = exc.count
        payload["cap"] = exc.cap
    return payload


def _semigroup_payload(S: NumericalSemigroup) -> dict:
    payload = {
        "generators": list(S.generators),
        "multiplicity": S.multiplicity,
        "embedding_dimension": S.embedding_dimension,
        "frobenius": S.frobenius,
        "genus": S.genus,
        "type": S.type,
        "pf": list(S.pseudo_frobenius()),
    }
    if S.is_full():
        # the trivial semigroup: Gorenstein by every convention
        payload.update(symmetric=True, almost_symmetric=True, nearly_gorenstein=True)
    else:
        payload.update(
            symmetric=is_symmetric(S),
            almost_symmetric=is_almost_symmetric(S),
            nearly_gorenstein=is_nearly_gorenstein(S),
        )
    return payload


# ----------------------------------------------------------------------
# commands


def _cmd_info(args) -> int:
    S = NumericalSemigroup(args.generators)
    _emit("info", _semigroup_payload(S), args.pretty)
    return 0


def _cmd_ng_vectors(args) -> int:
    S = NumericalSemigroup(args.generators)
    vectors = ng_vectors(S)
    payload = {
        "generators": list(S.generators),
        "pf": list(S.pseudo_frobenius()),
        "count": len(vectors),
        "vectors": [
            {"entries": list(v.entries), "h": v.h, "ell": v.ell} for v in vectors
        ],
    }
    _emit("ngvectors", payload, args.pretty)
    return 0


def _select_vector(S: NumericalSemigroup, index: int):
    vectors = ng_vectors(S)
    if not 0 <= index < len(vectors):
        raise InvalidArgumentError(
            f"NG-vector index {index} out of range (the semigroup has {len(vectors)})"
        )
    return vectors[index]


def _cmd_rf(args) -> int:
    S = NumericalSemigroup(args.generators)
    f = args.f
    vec = None if args.kind == "plus" else _select_vector(S, args.ng_index)

    def emit(**fields) -> None:
        payload = {"f": f, "kind": args.kind, **fields}
        if vec is not None:
            payload["vector"] = list(vec.entries)
        _emit("rf", payload, args.pretty)

    if args.count:
        row_lists = plus_row_lists(S, f) if vec is None else minus_row_lists(S, vec.entries, f)
        emit(count=matrix_count(row_lists), row_counts=[len(r) for r in row_lists])
        return 0
    matrices = rf_plus_iter(S, f) if vec is None else rf_minus_iter(S, vec.entries, f)
    for index, M in enumerate(matrices):
        emit(index=index, rows=[list(row) for row in M])
    return 0


def _cmd_classify_pf(args) -> int:
    S = NumericalSemigroup(args.generators)
    vec = _select_vector(S, args.ng_index)
    cls = classify_pf(S, vec.entries)
    witnesses = [
        {"f": f, "side": w.side, "i": w.i, "j": w.j, "lam": w.lam}
        for f in sorted(cls.witnesses)
        for w in cls.witnesses[f]
    ]
    payload = {
        "generators": list(S.generators),
        "vector": list(vec.entries),
        "pf1": list(cls.pf1),
        "pf2": list(cls.pf2),
        "witnesses": witnesses,
    }
    _emit("classify", payload, args.pretty)
    return 0


def _cmd_verify(args) -> int:
    if args.gens is not None:
        # the range flags have no meaning for one semigroup
        given = {"--embdim": args.embdim is not None, "--workers": args.workers != 1,
                 "--reports": args.reports}
        clashes = [flag for flag, on in given.items() if on]
        if clashes:
            raise InvalidArgumentError(f"--gens does not take {', '.join(clashes)}")
        report = check_semigroup(args.gens, claims=args.claims or CLAIM_NAMES)
        _emit("verify", report.as_dict(), args.pretty)
        return 1 if report.failures else 0
    cfg = HarnessConfig(
        genus_max=args.genus_max,
        embdim_filter=args.embdim,
        claims=args.claims or CLAIM_NAMES,
        workers=args.workers,
    )
    sink = None
    if args.reports:
        sink = lambda report: _emit("verify", report.as_dict(), args.pretty)
    start = time.perf_counter()
    summary = check_all(cfg, sink=sink)
    elapsed = time.perf_counter() - start
    _emit("verify", summary, args.pretty)
    print(
        f"checked {summary['semigroups']} semigroups in {elapsed:.1f}s: "
        f"{summary['total_failures']} failures",
        file=sys.stderr,
    )
    return 1 if summary["total_failures"] else 0


def _family_payload(family: str, params: dict, S: NumericalSemigroup) -> dict:
    return {
        "family": family,
        "params": params,
        "generators": list(S.generators),
        "frobenius": S.frobenius,
        "genus": S.genus,
        "type": S.type,
        "pf": list(S.pseudo_frobenius()),
        "nearly_gorenstein": is_nearly_gorenstein(S),
        "almost_symmetric": is_almost_symmetric(S),
    }


def _construct_backelin(args) -> int:
    S = backelin(args.T)
    _emit("construct", _family_payload("backelin", {"T": args.T}, S), args.pretty)
    return 0


def _construct_dim6(args) -> int:
    S = family_dim6(args.T, args.d, args.k)
    payload = _family_payload("dim6", {"T": args.T, "d": args.d, "k": args.k}, S)
    payload["generators_constructed"] = list(dim6_raw_generators(args.T, args.d, args.k))
    payload["progression"] = list(dim6_progression(args.T, args.d, args.k))
    _emit("construct", payload, args.pretty)
    return 0


def _construct_duplication(args) -> int:
    S = NumericalSemigroup(args.gens)
    if args.ideal is None:
        E = RelativeIdeal.maximal_ideal(S)
    else:
        E = ideal_from_generators(S, args.ideal)
    D = numerical_duplication(DuplicationSpec(S, E, args.b))
    payload = _family_payload(
        "duplication",
        {"base": list(S.generators), "b": args.b,
         "ideal": None if args.ideal is None else sorted(args.ideal)},
        D,
    )
    _emit("construct", payload, args.pretty)
    return 0


def _construct_tower(args) -> int:
    seed = NumericalSemigroup(args.gens)
    chain = duplication_tower(seed, args.depth)
    payload = {
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
    }
    _emit("construct", payload, args.pretty)
    return 0


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
    parser = _Parser(
        prog="sgp",
        description="Numerical semigroup toolkit: invariants, NG-vectors, "
        "row-factorization matrices, verification, constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pretty(p):
        p.add_argument("--pretty", action="store_true", help="human-readable output")

    p = sub.add_parser("info", help="invariants of one semigroup")
    p.add_argument("generators", type=_parse_generators)
    add_pretty(p)
    p.set_defaults(func=_cmd_info, record_kind="info")

    p = sub.add_parser("ng-vectors", help="all NG-vectors with h and ell")
    p.add_argument("generators", type=_parse_generators)
    add_pretty(p)
    p.set_defaults(func=_cmd_ng_vectors, record_kind="ngvectors")

    p = sub.add_parser("rf", help="row-factorization matrices for one f")
    p.add_argument("generators", type=_parse_generators)
    p.add_argument("f", type=int)
    p.add_argument("--kind", choices=("plus", "minus"), default="plus")
    p.add_argument(
        "--ng-index", type=int, default=0,
        help="which NG-vector the subtractive matrices use (default 0)",
    )
    p.add_argument("--count", action="store_true", help="matrix count only")
    add_pretty(p)
    p.set_defaults(func=_cmd_rf, record_kind="rf")

    p = sub.add_parser(
        "classify-pf", help="one/two-generator split of PF outside a vector"
    )
    p.add_argument("generators", type=_parse_generators)
    p.add_argument("--ng-index", type=int, default=0)
    add_pretty(p)
    p.set_defaults(func=_cmd_classify_pf, record_kind="classify")

    p = sub.add_parser("verify", help="claim verification harness")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--genus-max", type=int)
    target.add_argument("--gens", type=_parse_generators,
                        help="check one semigroup instead of a genus range")
    p.add_argument("--embdim", type=_parse_generators, default=None,
                   help="restrict to these embedding dimensions")
    p.add_argument("--claims", type=_parse_claims, default=None,
                   help="comma-separated claim names (default: all)")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--reports", action="store_true",
                   help="stream one record per semigroup (workers 1 only)")
    add_pretty(p)
    p.set_defaults(func=_cmd_verify, record_kind="verify")

    p = sub.add_parser("construct", help="named semigroup constructions")
    p.set_defaults(record_kind="construct")
    fam = p.add_subparsers(dest="family", required=True)

    q = fam.add_parser("backelin", help="four-generated family with growing type")
    q.add_argument("--T", type=int, required=True)
    add_pretty(q)
    q.set_defaults(func=_construct_backelin, record_kind="construct")

    q = fam.add_parser("dim6", help="six-generated family with a PF progression")
    q.add_argument("--T", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--d", type=int, required=True)
    add_pretty(q)
    q.set_defaults(func=_construct_dim6, record_kind="construct")

    q = fam.add_parser("duplication", help="numerical duplication 2S u (2E+b)")
    q.add_argument("--gens", type=_parse_generators, required=True)
    q.add_argument("--b", type=int, required=True)
    q.add_argument("--ideal", type=_parse_generators, default=None,
                   help="ideal generators (default: the maximal ideal)")
    add_pretty(q)
    q.set_defaults(func=_construct_duplication, record_kind="construct")

    q = fam.add_parser("tower", help="iterated maximal-ideal duplication")
    q.add_argument("--gens", type=_parse_generators, required=True)
    q.add_argument("--depth", type=int, required=True)
    add_pretty(q)
    q.set_defaults(func=_construct_tower, record_kind="construct")

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args, extra = build_parser().parse_known_args(argv)
    except _ArgvError as exc:
        payload = _error_payload(InvalidArgumentError(str(exc)))
        _emit(exc.kind, payload, "--pretty" in argv)
        return 2
    if extra:
        # parse_known_args reached a subcommand, so its record kind is set
        message = f"unrecognized arguments: {' '.join(extra)}"
        _emit(args.record_kind, _error_payload(InvalidArgumentError(message)), args.pretty)
        return 2
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        _emit(args.record_kind, _error_payload(exc), args.pretty)
        return 2
    except SemigroupError as exc:
        _emit(args.record_kind, _error_payload(exc), args.pretty)
        return 1


if __name__ == "__main__":
    sys.exit(main())
