"""The three workloads: what each feeds the program, how one unit of it
runs, and how its outputs are checked.

A unit is the repeated measurement: one `check_all` job for the census
workloads, one sweep of every generated CLI invocation for `queries`.
Nothing here imports the numsgps package at module level, so that the
import is part of the set-up time the benchmark measures.
"""

from __future__ import annotations

import contextlib
import heapq
import io
import json
import math
import random
import time
from dataclasses import dataclass

from measure import cpu_seconds, summary_digest

CENSUS_GENUS = 16
# number of semigroups of each genus 0..16 (OEIS A007323)
CENSUS_BY_GENUS = [
    1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693, 2857, 4806,
]

# the query mix: counts out of QUERY_COUNT, fixed so that every seed
# draws the same amount of each kind of work
QUERY_COUNT = 240
LARGE_INFO = 24          # info on <a, b> with F log-uniform in [2e4, 2e5]
BACKELIN = 19            # construct backelin --T 2..8
TOWER = 5                # construct tower on the six-generated seed below
TOWER_GENS = "455,497,574,589,631,708"
SMALL_COMMANDS = ("info", "ng-vectors", "classify-pf", "verify", "rf")
LARGE_F_RANGE = (2e4, 2e5)
SMALL_MULTIPLICITY_MAX = 40


# ----------------------------------------------------------------------
# census-serial, census-parallel


@dataclass
class CensusUnit:
    wall_s: float
    start: float
    end: float
    summary: dict
    parent_cpu_s: float
    worker_cpu_s: float


def census_config(seed: int, workers: int):
    from numsgps.verify import HarnessConfig

    return HarnessConfig(genus_max=CENSUS_GENUS, workers=workers, seed=seed)


def run_census(harness, cfg) -> CensusUnit:
    """One check_all job; `harness` is the numsgps.verify.harness module,
    looked up at call time so a traced run sees its wrapper."""
    own0, kids0 = cpu_seconds()
    start = time.perf_counter()
    summary = harness.check_all(cfg)
    end = time.perf_counter()
    own1, kids1 = cpu_seconds()
    return CensusUnit(end - start, start, end, summary, own1 - own0, kids1 - kids0)


def census_problems(summary: dict, reference_digest: str) -> list[str]:
    """Everything wrong with a genus-16 summary; empty when it passes."""
    problems = []
    by_genus = [summary.get("by_genus", {}).get(str(g)) for g in range(CENSUS_GENUS + 1)]
    if by_genus != CENSUS_BY_GENUS:
        problems.append(f"by_genus {by_genus} != {CENSUS_BY_GENUS}")
    if summary.get("total_failures") != 0:
        problems.append(f"total_failures = {summary.get('total_failures')}")
    digest = summary_digest(summary)
    if digest != reference_digest:
        problems.append(f"summary digest {digest} != reference {reference_digest}")
    return problems


# ----------------------------------------------------------------------
# queries


def _coprime_pair(rng: random.Random, frobenius: float) -> tuple[int, int]:
    """Coprime a < b whose Frobenius number ab - a - b is about the target."""
    a = rng.randint(3, 50)
    b = round((frobenius + a) / (a - 1))
    while math.gcd(a, b) != 1:
        b += 1
    return a, b


def _is_minimal(gens: list[int]) -> bool:
    """No generator is a sum of smaller ones (gens ascending)."""
    top = gens[-1]
    reach = bytearray(top + 1)
    reach[0] = 1
    for g in gens:
        if reach[g]:
            return False
        # make g available to the later generators
        for x in range(g, top + 1):
            if reach[x - g]:
                reach[x] = 1
    return True


def _small_generators(rng: random.Random, nu: int) -> list[int]:
    """A minimal generating system of nu elements with gcd 1 and
    multiplicity at most SMALL_MULTIPLICITY_MAX, the others in (m, 3m)."""
    while True:
        m = rng.randint(nu, SMALL_MULTIPLICITY_MAX)
        pool = [x for x in range(m + 1, 3 * m) if x % m]
        gens = sorted([m] + rng.sample(pool, nu - 1))
        if math.gcd(*gens) == 1 and _is_minimal(gens):
            return gens


def _frobenius(gens: list[int]) -> int:
    """Largest non-member, from the Apery set of the multiplicity found
    by Dijkstra on the residues."""
    m = gens[0]
    dist = [0] + [math.inf] * (m - 1)
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if d > dist[r]:
            continue
        for g in gens[1:]:
            nd = d + g
            if nd < dist[nd % m]:
                dist[nd % m] = nd
                heapq.heappush(heap, (nd, nd % m))
    return max(dist) - m


def make_queries(seed: int) -> list[list[str]]:
    """The seeded CLI invocations of one sweep, in a seeded order.

    The large Frobenius numbers sit at the midpoints of LARGE_INFO equal
    strata of the log range (log-uniform, without sampling noise), so
    every seed gets the same window sizes; the seed picks the generators
    that realize them and everything else.
    """
    rng = random.Random(seed)
    lo, hi = (math.log10(x) for x in LARGE_F_RANGE)
    queries = []
    for k in range(LARGE_INFO):
        frob = 10 ** (lo + (hi - lo) * (k + 0.5) / LARGE_INFO)
        a, b = _coprime_pair(rng, frob)
        queries.append(["info", f"{a},{b}"])
    for k in range(BACKELIN):
        queries.append(["construct", "backelin", "--T", str(2 + k % 7)])
    for _ in range(TOWER):
        queries.append(["construct", "tower", "--gens", TOWER_GENS, "--depth", "1"])
    for k in range(QUERY_COUNT - len(queries)):
        gens = _small_generators(rng, 3 + k % 4)
        text = ",".join(map(str, gens))
        command = SMALL_COMMANDS[k % len(SMALL_COMMANDS)]
        if command == "verify":
            queries.append(["verify", "--gens", text])
        elif command == "rf":
            queries.append(["rf", text, str(_frobenius(gens)), "--count"])
        else:
            queries.append([command, text])
    rng.shuffle(queries)
    return queries


@dataclass
class Outcome:
    """What one CLI invocation did: exit code, captured stdout, and the
    exception that escaped, if any."""

    code: int | None
    stdout: str
    raised: str | None = None


@dataclass
class SweepUnit:
    wall_s: float
    start: float
    end: float
    query_spans: list[tuple[float, float]]  # (start, end) of each query
    outcomes: list[Outcome]


def run_query(cli, argv: list[str]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects a malformed argv this way
        return Outcome(exc.code if isinstance(exc.code, int) else 2, out.getvalue())
    except Exception as exc:  # an escaped exception is a counted failure
        return Outcome(None, out.getvalue(), f"{type(exc).__name__}: {exc}")
    return Outcome(code, out.getvalue())


def run_sweep(cli, queries: list[list[str]], on_query=None) -> SweepUnit:
    """Closed loop with one client: each invocation starts when the
    previous one has returned.  `on_query(index)` runs untimed before each."""
    spans, outcomes = [], []
    clock = time.perf_counter
    start = clock()
    for index, argv in enumerate(queries):
        if on_query is not None:
            on_query(index)
        t0 = clock()
        outcomes.append(run_query(cli, argv))
        spans.append((t0, clock()))
    end = clock()
    return SweepUnit(end - start, start, end, spans, outcomes)


def error_kinds() -> frozenset[str]:
    """The documented `payload.error` values: every SemigroupError
    subclass name without its Error suffix."""
    from numsgps import errors

    kinds = set()
    todo = [errors.SemigroupError]
    while todo:
        cls = todo.pop()
        kinds.add(cls.__name__.removesuffix("Error"))
        todo.extend(cls.__subclasses__())
    return frozenset(kinds)


def query_problems(argv: list[str], outcome: Outcome, kinds, oracle=None) -> list[str]:
    """Everything wrong with one invocation's result; empty when it is a
    right answer or a documented structured error.  `oracle(generators)`
    returns (frobenius, genus, pf) and is consulted for `info` answers."""
    if outcome.raised is not None:
        return [f"raised {outcome.raised}"]
    if outcome.code not in (0, 1):
        return [f"exit code {outcome.code}"]
    try:
        records = [json.loads(line) for line in outcome.stdout.splitlines()]
    except json.JSONDecodeError:
        return ["output is not one JSON record per line"]
    if not records or any(set(r) != {"schema_version", "kind", "payload"} for r in records):
        return ["missing or malformed record"]
    payload = records[-1]["payload"]
    if outcome.code == 1:
        if not isinstance(payload, dict) or payload.get("error") not in kinds:
            return [f"exit 1 without a documented error kind: {payload!r:.200}"]
        return []
    if argv[0] == "info" and oracle is not None:
        gens = tuple(int(x) for x in argv[1].split(","))
        want = oracle(gens)
        got = (payload.get("frobenius"), payload.get("genus"), tuple(payload.get("pf", ())))
        if got != want:
            return [f"info {argv[1]}: got (F, g, pf) {got}, oracle says {want}"]
    return []


def sieve_oracle(generators: tuple[int, ...]) -> tuple[int, int, tuple[int, ...]]:
    """(frobenius, genus, pf) from the test suite's coin-problem sieve."""
    from oracles import sieve_invariants

    _members, frobenius, genus, pf, _contains = sieve_invariants(generators)
    return frobenius, genus, tuple(pf)
