"""Acceptance gate: one test and one printed pass/fail line per criterion.

Each criterion is exercised at its stated tolerance; verdict lines are
written with capture suspended so a plain pytest run log shows the seven
verdicts at a glance.
"""

import hashlib
import json
import random
import time

import pytest

from numsgps import (
    DuplicationSpec,
    FamilyPreconditionError,
    NumericalSemigroup,
    RelativeIdeal,
    backelin,
    duplication_tower,
    family_dim6,
    is_almost_symmetric,
    is_nearly_gorenstein,
    max_gap_table,
    ng_vectors,
    numerical_duplication,
    rf_plus_iter,
)
from numsgps.construct import dim6_progression
from numsgps.verify import (
    ASSERTED_CLAIMS,
    CLAIM_NAMES,
    HarnessConfig,
    check_all,
    run_claims,
    semigroups_up_to,
)
from oracles import random_generators, sieve_invariants, zero_pattern

WORKED = (13, 45, 72, 79, 99)
BIG_AS = (455, 497, 574, 589, 631, 708)

_CACHE = {}


def _verdict(capfd, number, label, failures):
    status = "pass" if not failures else "fail"
    with capfd.disabled():
        print(f"ACCEPTANCE {number} {label}: {status}", flush=True)
    assert not failures, failures


def test_criterion_1_worked_example(capfd):
    failures = []
    started = time.perf_counter()

    S = NumericalSemigroup(WORKED)
    if S.pseudo_frobenius() != (59, 185, 212, 244):
        failures.append(f"pf {S.pseudo_frobenius()}")
    if not is_nearly_gorenstein(S):
        failures.append("not recognized as nearly Gorenstein")
    if is_almost_symmetric(S):
        failures.append("wrongly recognized as almost symmetric")

    vectors = [v.entries for v in ng_vectors(S)]
    if vectors != [(244, 212, 244, 244, 244), (244, 212, 185, 244, 244)]:
        failures.append(f"vectors {vectors}")

    (result,), _ = run_claims(S, names=("THM_3DISTINCT",))
    if result.status != "pass":
        failures.append(f"THM_3DISTINCT {result.status}")
    distinct = [v for v in vectors if len(set(v[:3])) == 3]
    if distinct != [(244, 212, 185, 244, 244)]:
        failures.append(f"distinct-prefix vectors {distinct}")
    if 2 * 79 - 99 != 59 or max_gap_table(S).gap[(5, 4)] != 59:
        failures.append("59 is not the extremal gap 2*79 - 99")

    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, budget 1s")
    _verdict(capfd, 1, "five-generated worked example", failures)


def test_criterion_2_large_almost_symmetric(capfd):
    failures = []
    started = time.perf_counter()

    S = NumericalSemigroup(BIG_AS)
    expected_pf = (
        3079, 3289, 3521, 3655, 3674, 3789, 3923, 4057,
        4172, 4191, 4325, 4557, 4767, 7846,
    )
    if S.pseudo_frobenius() != expected_pf:
        failures.append(f"pf {S.pseudo_frobenius()}")
    if S.frobenius != 7846 or S.genus != 3930:
        failures.append(f"frobenius {S.frobenius}, genus {S.genus}")
    if S.type != 14 or S.type <= 2 * S.embedding_dimension:
        failures.append(f"type {S.type} does not exceed 2 nu = 12")
    if not is_almost_symmetric(S):
        failures.append("not recognized as almost symmetric")

    def template(lam):
        return (
            (-1, 8 - lam, 0, 0, lam, 0),
            (0, -1, 7 - lam, 0, 0, lam),
            (9 - lam, 0, -1, lam, 0, 0),
            (0, 7 - lam, 0, -1, lam + 1, 0),
            (0, 0, 6 - lam, 0, -1, lam + 1),
            (8 - lam, 0, 0, lam + 1, 0, -1),
        )

    patterns = set()
    for lam in range(1, 6):
        f = 3521 + 134 * lam
        matrices = list(rf_plus_iter(S, f))
        if len(matrices) != 1:
            failures.append(f"lambda {lam}: {len(matrices)} matrices")
            continue
        if matrices[0] != template(lam):
            failures.append(f"lambda {lam}: {matrices[0]}")
        patterns.add(zero_pattern(matrices[0]))
    if len(patterns) != 1:
        failures.append(f"{len(patterns)} distinct zero patterns")

    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.2f}s, budget 5s")
    _verdict(capfd, 2, "large almost symmetric and its matrix progression", failures)


def test_criterion_3_exhaustive_genus_20(capfd):
    failures = []
    started = time.perf_counter()
    summary = check_all(HarnessConfig(genus_max=20, workers=1))
    elapsed = time.perf_counter() - started
    _CACHE["summary20"] = summary

    if summary["semigroups"] != 93142:
        failures.append(f"{summary['semigroups']} semigroups")
    if summary["total_failures"] != 0:
        failures.append(f"{summary['total_failures']} claim failures")
    for name in ASSERTED_CLAIMS:
        if summary["claims"][name]["fail"] != 0:
            failures.append(f"{name} has failures")
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.1f}s, budget 60s")
    # the canonical summary JSON without `seed`, as the genus-12 pin hashes
    stripped = {k: v for k, v in summary.items() if k != "seed"}
    body = json.dumps(stripped, sort_keys=True, separators=(",", ":")).encode()
    if hashlib.sha256(body).hexdigest() != (
        "2f7dc6ff31242de2a11a0360ef95101b4d1620a7cce617a5882559e3e5790d0c"
    ):
        failures.append("summary bytes differ from the pinned digest")

    with capfd.disabled():
        print(f"exhaustive run: genus <= 20, {summary['semigroups']} semigroups, "
              f"{elapsed:.1f}s elapsed", flush=True)
        for key in sorted(summary["cells"]):
            cell = summary["cells"][key]
            print(f"  cell {key}: count={cell['count']} max_type={cell['max_type']}",
                  flush=True)
    _verdict(capfd, 3, "exhaustive claim suite to genus 20", failures)


def test_criterion_4_randomized_against_oracle(capfd):
    failures = []
    rng = random.Random(0)
    for trial in range(1000):
        gens = random_generators(rng, frobenius_cap=1500)
        S = NumericalSemigroup(gens)
        members, frob, genus, pf, contains = sieve_invariants(gens)
        same = (
            S.generators == gens
            and S.frobenius == frob
            and S.genus == genus
            and S.pseudo_frobenius() == pf
            and S.type == len(pf)
            and all(S.contains(x) == contains(x) for x in range(frob + 2))
        )
        if not same:
            failures.append(f"trial {trial}: {gens}")
            if len(failures) > 3:
                break
    _verdict(capfd, 4, "1000 random semigroups against the sieve oracle", failures)


def test_criterion_5_duplication_laws(capfd):
    failures = []

    def three_smallest_odd(S):
        out, x = [], 1
        while len(out) < 3:
            if S.contains(x):
                out.append(x)
            x += 2
        return out

    seeds = [
        S for S in semigroups_up_to(12)
        if not S.is_full() and is_almost_symmetric(S)
    ]
    checked = 0
    for S in seeds:
        M = RelativeIdeal.maximal_ideal(S)
        for b in three_smallest_odd(S):
            D = numerical_duplication(DuplicationSpec(S, M, b))
            if not is_almost_symmetric(D):
                failures.append(f"{S.generators} b={b}: lost almost symmetry")
            if D.type != 2 * S.type + 1:
                failures.append(f"{S.generators} b={b}: type {D.type}")
            if D.embedding_dimension != 2 * S.embedding_dimension:
                failures.append(f"{S.generators} b={b}: nu {D.embedding_dimension}")
            if D.frobenius != 2 * S.frobenius + b:
                failures.append(f"{S.generators} b={b}: frobenius {D.frobenius}")
            checked += 1
        chain = duplication_tower(S, 2)
        excess = S.type - 2 * S.embedding_dimension
        for level, T in enumerate(chain):
            want = (1 << level) * excess + (1 << level) - 1
            if T.type - 2 * T.embedding_dimension != want:
                failures.append(f"{S.generators} tower level {level}")
    if checked != 3 * len(seeds) or not seeds:
        failures.append(f"checked {checked} duplications over {len(seeds)} seeds")

    big = NumericalSemigroup(BIG_AS)
    S1 = duplication_tower(big, 1)[1]
    if S1.type != 2 * S1.embedding_dimension + 5:
        failures.append(f"depth-1 duplication type {S1.type}, nu {S1.embedding_dimension}")
    _verdict(capfd, 5, f"duplication laws over {len(seeds)} almost symmetric seeds", failures)


def test_criterion_6_families(capfd):
    failures = []

    types = []
    for T in range(2, 7):
        B = backelin(T)
        types.append(B.type)
        if B.type >= 4 and is_nearly_gorenstein(B):
            failures.append(f"backelin T={T} with type {B.type} is nearly Gorenstein")
    if types != sorted(set(types)):
        failures.append(f"types not strictly increasing: {types}")
    if min(types) < 4:
        failures.append(f"types {types} include a value below 4")

    for T, k, d in ((2, 3, 4), (4, 5, 16)):
        S = family_dim6(T, d, k)
        if S.embedding_dimension != 6:
            failures.append(f"dim6 {(T, k, d)}: {S.embedding_dimension} generators")
        pf = S.pseudo_frobenius()
        for value in dim6_progression(T, d, k):
            if value not in pf:
                failures.append(f"dim6 {(T, k, d)}: {value} not pseudo-Frobenius")
    try:
        family_dim6(3, 9, 3)
        failures.append("degenerate dim6 parameters were accepted")
    except FamilyPreconditionError:
        pass
    _verdict(capfd, 6, "extremal families", failures)


def test_criterion_7_parallel_determinism(capfd):
    failures = []
    base = _CACHE.get("summary20")
    if base is None:
        base = check_all(HarnessConfig(genus_max=20, workers=1))
    split = check_all(HarnessConfig(genus_max=20, workers=8))
    a = json.dumps(base, sort_keys=True).encode()
    b = json.dumps(split, sort_keys=True).encode()
    if a != b:
        failures.append("workers=1 and workers=8 summaries differ")
    _verdict(capfd, 7, "parallel summaries byte-identical", failures)
