"""Genus-tree enumeration, claim checking, and the parallel harness."""

import hashlib
import itertools
import json
import math
import multiprocessing
import os
import random
import re
import sys
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import pytest

from numsgps import NumericalSemigroup, core, is_nearly_gorenstein, ng_vectors, rf
from numsgps.errors import InvalidArgumentError
from numsgps.gorenstein import companions_complete
from numsgps.verify import (
    ASSERTED_CLAIMS,
    CLAIM_NAMES,
    ClaimContext,
    HarnessConfig,
    check_all,
    check_semigroup,
    claims,
    count_by_genus,
    enumeration,
    harness,
    run_claims,
    semigroups_up_to,
)
from numsgps.verify.claims import (
    CLAIM_FUNCTIONS,
    FAIL,
    INAPPLICABLE,
    NA,
    PASS,
    ClaimResult,
    claim_first_zero,
    claim_mu_bound,
    claim_ngv_props,
    claim_pf1_bound,
    claim_pf2_bound,
    claim_pf2_two_zeroes,
    claim_same2,
)
from numsgps.rf import classify_pf, max_gap_table
from oracles import (
    brute_almost_symmetric,
    brute_nearly_gorenstein,
    brute_ng_candidates,
    entry_scan_first_zero_applies,
    every_kept_child_generators,
    gap_scan_pseudo_frobenius,
    gaps_to_generators,
    genus_tree_semigroups,
    literal_apery_convolution,
    literal_classification_variance,
    literal_coppie,
    list_hit_cells,
    literal_first_zero,
    literal_ngv_props,
    literal_pf2_two_zeroes,
    literal_same2,
    random_generators,
    scan_classify_pf,
    set_difference_same2_applies,
    sieve_invariants,
)

# the number of numerical semigroups of each genus 0..20 (OEIS A007323)
KNOWN_COUNTS = [
    1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693,
    2857, 4806, 8045, 13467, 22464, 37396,
]

WORKED = (13, 45, 72, 79, 99)


def test_count_by_genus_matches_census():
    assert count_by_genus(20) == KNOWN_COUNTS


@pytest.mark.parametrize("genus_max", [-1, -3])
def test_count_by_genus_rejects_negative_genus(genus_max):
    with pytest.raises(ValueError, match="genus_max must be nonnegative"):
        count_by_genus(genus_max)


def _frontier_mismatches(S: NumericalSemigroup) -> list[str]:
    """The fields on which the walk-built S disagrees with S rebuilt from
    its generators, with the sieve oracle, or with the brute-force NG,
    AS and NG-vector count (no production count is used)."""
    gens = S.generators
    R = NumericalSemigroup(gens)
    results, ctx = run_claims(S)
    _, frobenius, genus, pf, contains = sieve_invariants(gens)
    # the claims' domain is nu >= 2: for N the verdicts are None and the count 0
    proper = len(gens) >= 2
    values = {
        "apery": (S.apery, R.apery),
        "frobenius": (S.frobenius, R.frobenius, frobenius),
        "genus": (S.genus, R.genus, genus),
        "pf": (S.pseudo_frobenius(), R.pseudo_frobenius(), pf),
        "convolution": (S.apery_convolution(), R.apery_convolution()),
        "claims": ([r.status for r in results], [r.status for r in run_claims(R)[0]]),
        "nearly_gorenstein": (
            ctx.nearly_gorenstein, brute_nearly_gorenstein(gens, pf, contains) if proper else None
        ),
        "almost_symmetric": (
            ctx.almost_symmetric, brute_almost_symmetric(frobenius, contains, pf) if proper else None
        ),
        "vector_count": (
            ctx.vector_count,
            math.prod(map(len, brute_ng_candidates(gens, pf, contains))) if proper else 0,
        ),
    }
    return [field for field, (first, *rest) in values.items() if any(v != first for v in rest)]


def test_frontier_audit_of_the_walk_against_the_oracles():
    # past genus 12 the walk's carried facts (Apery set, PF, convolution)
    # are otherwise checked only by digests recorded from the code they
    # check: every 9th semigroup of genus <= 18, spread over the whole
    # tree, m up to 19 (the ordinary semigroup of genus 18 is index 18)
    sampled = list(semigroups_up_to(18, None, 0, 9))
    assert len(sampled) == len(range(0, sum(KNOWN_COUNTS[:19]), 9))
    assert max(S.multiplicity for S in sampled) == 19
    mismatches = [(S.generators, fields) for S in sampled if (fields := _frontier_mismatches(S))]
    assert mismatches[:3] == []


def test_enumeration_matches_backtracking_oracle():
    # the same stream, not only the same set: a pre-order with siblings
    # by increasing removed generator
    expected = [gaps_to_generators(gaps) for gaps in genus_tree_semigroups(10)]
    walked = list(semigroups_up_to(10))
    assert [S.generators for S in walked] == expected
    assert len(set(expected)) == len(expected) == sum(KNOWN_COUNTS[:11]) == 478
    # the Apery sets carried down the tree (multiplicities 2..11) match
    # the shortest-path construction from the generators
    assert {S.multiplicity for S in walked} == set(range(1, 12))
    for S in walked:
        assert S.apery == NumericalSemigroup(S.generators).apery, S.generators


def test_census_counts_and_cells_match_the_oracles():
    # the summary's semigroup count, per-genus counts and (nu, NG, AS)
    # cells (count and largest type) rebuilt from the backtracking tree,
    # the coin-problem sieve and the brute quantifier scans alone
    render = {None: "none", True: "true", False: "false"}
    by_genus, cells = Counter(), {}
    for gaps in genus_tree_semigroups(10):
        gens = gaps_to_generators(gaps)
        _, frobenius, genus, pf, contains = sieve_invariants(gens)
        ng = asym = None  # the trivial semigroup's, as in its record
        if len(gens) > 1:
            ng = brute_nearly_gorenstein(gens, pf, contains)
            asym = brute_almost_symmetric(frobenius, contains, pf)
        by_genus[str(genus)] += 1
        cell = cells.setdefault(
            f"nu={len(gens)}|ng={render[ng]}|as={render[asym]}", {"count": 0, "max_type": 0}
        )
        cell["count"] += 1
        cell["max_type"] = max(cell["max_type"], len(pf))
    summary = check_all(HarnessConfig(genus_max=10))
    assert summary["semigroups"] == sum(by_genus.values()) == 478
    # key by key, in the summary's order
    assert list(summary["by_genus"].items()) == sorted(
        by_genus.items(), key=lambda item: int(item[0])
    )
    assert list(summary["cells"].items()) == sorted(cells.items())


def test_enumeration_embdim_filter():
    all_gens = list(semigroups_up_to(8))
    filtered = list(semigroups_up_to(8, embdim={3}))
    assert {S.generators for S in filtered} == {
        S.generators for S in all_gens if S.embedding_dimension == 3
    }
    assert all(S.embedding_dimension == 3 for S in filtered)


def _count_calls(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counting(*args):
        calls.append(name)
        return original(*args)

    monkeypatch.setattr(owner, name, counting)


def test_carried_convolution_matches_a_literal_one(monkeypatch):
    # every node of genus <= 12, spine children included: only the 12
    # spine children compute theirs from scratch, every other node
    # updates its parent's in O(m)
    fresh = []
    _count_calls(monkeypatch, enumeration, "_apery_convolution", fresh)
    _count_calls(monkeypatch, core, "_apery_convolution", fresh)
    walked = list(semigroups_up_to(12))
    assert len(walked) == sum(KNOWN_COUNTS[:13])
    ordinary = [
        S for S in walked if S.generators == tuple(range(S.multiplicity, 2 * S.multiplicity))
    ]
    assert len(fresh) == len(ordinary) - 1 == 12
    for S in walked:
        assert S.apery_convolution() == literal_apery_convolution(S.apery), S.generators
    assert len(fresh) == 12
    # a filtered walk resolves the convolution through ancestors it never built
    fresh.clear()
    for S in semigroups_up_to(12, embdim={4}):
        assert S.apery_convolution() == literal_apery_convolution(S.apery), S.generators
    assert 0 < len(fresh) <= 12


def test_walk_only_runs_compute_no_convolution(monkeypatch):
    calls = []
    _count_calls(monkeypatch, enumeration, "_resolve", calls)
    _count_calls(monkeypatch, enumeration, "_apery_convolution", calls)
    _count_calls(monkeypatch, core, "_apery_convolution", calls)
    assert count_by_genus(12) == KNOWN_COUNTS[:13]
    assert calls == []
    # every node that is built is resolved exactly once: one call each,
    # and each call finds its parent's cell resolved, so it steps one cell
    cells = []
    resolve = enumeration._resolve

    def stepping(node):
        cells.append(node[4][:])
        return resolve(node)

    monkeypatch.setattr(enumeration, "_resolve", stepping)
    walked = list(semigroups_up_to(12))
    assert len(walked) == len(cells) == sum(KNOWN_COUNTS[:13])
    # the root is resolved before any walk; every other node is pending
    # on its already resolved parent, or a spine node
    assert cells[0] == [[0], (-1,)]
    for cell in cells[1:]:
        assert cell == [] or len(cell[0][4]) == 2


def test_walked_pseudo_frobenius_frobenius_and_genus_match_the_oracles():
    # every node of genus <= 12, root and spine included, and the
    # five-generated ones of genus <= 14, which a filtered walk resolves
    # through ancestors it never built
    walked = [*semigroups_up_to(12), *semigroups_up_to(14, embdim={5})]
    assert len(walked) == sum(KNOWN_COUNTS[:13]) + 671
    for S in walked:
        T = NumericalSemigroup(S.generators)
        pf = gap_scan_pseudo_frobenius(S)
        assert S.pseudo_frobenius() == pf == T.pseudo_frobenius(), S.generators
        assert (S.frobenius, S.genus) == (T.frobenius, T.genus), S.generators


def _random_descent_nodes(rng, paths, depth):
    """The nodes on seeded random paths down the genus tree from the
    root, each path stopping at a leaf or at the given depth."""
    for _ in range(paths):
        node = enumeration._ROOT
        for _ in range(depth):
            gens, frob = node[0], node[1]
            children = [i for i in range(len(gens)) if gens[i] > frob]
            if not children:
                break
            node = enumeration._child(node, rng.choice(children))
            yield node


def test_child_generators_match_the_test_over_every_kept_generator():
    # the child step tests g + m against the generators strictly between
    # m and g only; the oracle tests every kept generator.  Every node of
    # genus <= 12, nodes made from seeded random systems, and the nodes of
    # seeded random paths to genus 40, whose multiplicities pass the
    # census's
    rng = random.Random(20)
    nodes = list(enumeration._nodes(12))
    for _ in range(200):
        S = NumericalSemigroup(random_generators(rng, frobenius_cap=400))
        nodes.append((S.generators, S.frobenius, S.genus, S.apery, []))
    nodes += _random_descent_nodes(rng, 100, 40)
    assert max(node[0][0] for node in nodes) > 30
    checked = joined = 0
    for node in nodes:
        gens, frob, _, apery, _ = node
        for i in range(1, len(gens)):
            if gens[i] > frob:
                child = enumeration._child(node, i)[0]
                assert child == every_kept_child_generators(gens, apery, gens[i]), (gens, i)
                checked += 1
                joined += child[-1] == gens[i] + gens[0]
    assert 0 < joined < checked


def test_run_claims_rejects_unknown_name(monkeypatch):
    S = NumericalSemigroup((3, 4, 5))
    with pytest.raises(ValueError):
        run_claims(S, names=("NO_SUCH_CLAIM",))
    with pytest.raises(InvalidArgumentError, match="NO_SUCH_CLAIM"):
        run_claims(S, names=("HERZOG3", "NO_SUCH_CLAIM"))

    def broken(ctx):
        raise KeyError("inside the claim")

    # a KeyError of a known claim's own is not an unknown claim name
    monkeypatch.setitem(CLAIM_FUNCTIONS, "HERZOG3", broken)
    with pytest.raises(KeyError, match="inside the claim"):
        run_claims(S, names=("HERZOG3",))


def test_run_claims_worked_example():
    S = NumericalSemigroup(WORKED)
    results, ctx = run_claims(S, names=CLAIM_NAMES)
    status = {name: result.status for name, result in zip(CLAIM_NAMES, results)}
    assert status["THM_MAIN"] == PASS
    assert status["THM_3DISTINCT"] == PASS
    assert status["PF1_BOUND"] == PASS
    assert status["PF2_BOUND"] == PASS
    assert status["MU_BOUND"] == PASS
    assert status["COPPIE"] == PASS
    assert status["FIRST_ZERO"] == PASS
    assert status["NGV_PROPS"] == PASS
    assert status["TRACE_EQ"] == PASS
    assert status["HERZOG3"] == NA
    assert status["NG4_TYPE3"] == NA
    assert status["AS4_TYPE3"] == NA
    assert status["AS_IMPLIES_NG"] == NA
    assert ctx.nearly_gorenstein


def test_no_failures_up_to_genus_ten():
    for S in semigroups_up_to(10):
        results, _ = run_claims(S, names=CLAIM_NAMES)
        bad = [n for n, r in zip(CLAIM_NAMES, results) if r.status == FAIL]
        assert not bad, (S.generators, bad)


def test_factored_claims_enumerate_no_factorizations_or_gaps(monkeypatch):
    # the factored routes decide by Apery-set lookups and NGV_PROPS's
    # reachability bitmask, and none of their failure payloads enumerates
    # factorizations
    def refuse(self, *args, **kwargs):
        raise AssertionError("enumerated")

    monkeypatch.setattr(NumericalSemigroup, "factorization_tuples", refuse)
    names = ("COPPIE", "FIRST_ZERO", "NGV_PROPS", "TRACE_EQ", "SAME2")
    for S in semigroups_up_to(10):
        results, _ = run_claims(S, names=names)
        assert FAIL not in {r.status for r in results}, S.generators


def test_factored_routes_agree_with_literal_enumeration():
    # same semigroup, every vector enumerated vs the factored route: all
    # of genus <= 8, and genus 9 and 10 up to 10**4 vectors (this leaves
    # out six, with 15,120 to 36,288,000 vectors)
    checked = 0
    for S in semigroups_up_to(10):
        if S.is_full() or not is_nearly_gorenstein(S):
            continue
        ctx = ClaimContext(S)
        if S.genus > 8 and ctx.vector_count > 10**4:
            continue
        a = literal_ngv_props(ctx)
        b = claim_ngv_props(ClaimContext(S))
        assert a.status == b.status == PASS, S.generators
        checked += 1
    assert checked == 289


def _hand_set_families(count, seed):
    """Seeded candidate families on the semigroups of genus <= 9 with
    2 <= nu <= 6: cands[0] = {F}, and each later position holds its forced
    value F - n_j + n_1 with probability 0.7 plus up to two values drawn
    from the forced values and PF."""
    pool_s = [S for S in semigroups_up_to(9) if 2 <= S.embedding_dimension <= 6]
    rng = random.Random(seed)
    for _ in range(count):
        S = rng.choice(pool_s)
        gens, F = S.generators, S.frobenius
        forced = [F - n + gens[0] for n in gens]
        values = sorted(set(forced) | set(S.pseudo_frobenius()))
        cands = [frozenset({F})]
        for j in range(1, len(gens)):
            c = {forced[j]} if rng.random() < 0.7 else set()
            for _ in range(rng.randint(0 if c else 1, 2)):
                c.add(rng.choice(values))
            cands.append(frozenset(c))
        yield S, cands


def _hand_set_context(S, cands):
    """A context of S whose facts are built from these candidate sets in
    place of S's own."""
    with mock.patch.object(claims, "candidate_prefix", return_value=cands):
        return ClaimContext(S)


def test_ngv_props_set_tests_match_literal_route_on_hand_set_families():
    # Each family is also taken with F + n_{h+1} - n_h added at a position
    # h: above F, it has no companion, yet its shift is some F + n, so
    # only a set test that grows with h rejects it.  Both sides of
    # companions_complete, as the claim calls it, occur
    statuses = set()
    settled = Counter()

    def recording(*args):
        verdict = companions_complete(*args)
        settled[verdict] += 1
        return verdict

    rng = random.Random(16)
    with mock.patch.object(claims, "companions_complete", recording):
        for S, cands in _hand_set_families(2000, 14):
            gens, F = S.generators, S.frobenius
            h = rng.randrange(1, max(2, len(gens) - 1))
            above = [*cands]
            if h + 1 < len(gens):
                above[h] = cands[h] | {F + gens[h + 1] - gens[h]}
            for family in (cands, above):
                ctx = _hand_set_context(S, family)
                a = literal_ngv_props(ctx).status
                b = claim_ngv_props(ctx).status
                assert a == b, (S.generators, family)
                statuses.add(b)
    assert statuses == {PASS, FAIL}
    assert min(settled[True], settled[False]) > 20, settled


def _literal_avoidable(ctx):
    # the definition: some set has a member other than f
    if not ctx.nearly_gorenstein:
        return ()
    return tuple(f for f in ctx.pf if all(c - {f} for c in ctx.candidates))


def test_avoidable_matches_the_set_difference_definition():
    kept = dropped = 0
    for S in semigroups_up_to(12):
        ctx = ClaimContext(S)
        assert ctx.avoidable == _literal_avoidable(ctx), S.generators
        kept += len(ctx.avoidable)
        dropped += bool(ctx.nearly_gorenstein) and len(ctx.pf) - len(ctx.avoidable)
    assert kept > 0 and dropped > 0
    families = 0
    for S, cands in _hand_set_families(2000, 14):
        if not all(cands):
            continue
        ctx = _hand_set_context(S, cands)
        assert ctx.avoidable == _literal_avoidable(ctx), (S.generators, cands)
        families += 1
    assert families > 1000


def test_first_zero_count_matches_the_entry_scan():
    # FIRST_ZERO asks for an avoidable f outside {F, g} by counting, and
    # returns before any companion lookup when none is avoidable; the
    # oracle scans the avoidable numbers per entry.  Each hand-set family
    # is also taken with position 0 widened by position 1's values, so
    # that F itself can be avoidable, which no true family allows
    contexts = [ClaimContext(S) for S in semigroups_up_to(12)]
    for S, cands in _hand_set_families(2000, 15):
        contexts.append(_hand_set_context(S, cands))
        contexts.append(_hand_set_context(S, [cands[0] | cands[1], *cands[1:]]))
    applies = Counter()
    for ctx in contexts:
        expected = entry_scan_first_zero_applies(ctx)
        assert (claim_first_zero(ctx).status != NA) == expected, (
            ctx.S.generators, ctx.candidates,
        )
        applies[expected, ctx.S.frobenius in ctx.avoidable] += 1
    assert len(applies) == 4 and min(applies.values()) > 20, applies
    exits = [ctx for ctx in contexts if ctx.nearly_gorenstein and not ctx.avoidable]
    assert len(exits) > 20


def test_same2_pair_lookup_matches_the_set_difference():
    # SAME2 reads whether a vector avoids a pair as a lookup among the
    # two-element candidate sets; the oracle takes all(c - {f, f2})
    rng = random.Random(20)
    contexts = [ClaimContext(S) for S in semigroups_up_to(12)]
    contexts += [
        ClaimContext(NumericalSemigroup(random_generators(rng, frobenius_cap=400)))
        for _ in range(200)
    ]
    contexts += [
        _hand_set_context(S, cands) for S, cands in _hand_set_families(2000, 14) if all(cands)
    ]
    applies = Counter()
    for ctx in contexts:
        expected = set_difference_same2_applies(ctx)
        assert (claim_same2(ctx).status != NA) == expected, (ctx.S.generators, ctx.candidates)
        applies[expected] += 1
    assert applies[True] > 0 and applies[False] > 0


def test_ngv_props_passes_without_a_matching(monkeypatch):
    # a passing input is decided by set tests on the forced prefix alone
    def refuse(*args):
        raise AssertionError("matched")

    monkeypatch.setattr("numsgps.verify.claims._augment", refuse)
    for S in semigroups_up_to(12):
        (result,), ctx = run_claims(S, names=("NGV_PROPS",))
        expected = PASS if ctx.nearly_gorenstein else NA
        assert result.status == expected, S.generators


# Hand-set candidate sets (and pf where the semigroup's own would not
# reach the reason) for every NGV_PROPS failure, with the full payloads.
# Only these payloads run a matching.  The last two need it to move an
# earlier position (9 from position 2 to 3 and back), and to see that
# the largest entry off the forced value at position 3 leaves no
# distinct prefix while the next one does.
NGV_FAILURES = [
    ((5, 7, 9), [{11, 13}, {13}, {13}], None,
     {"candidates": [11, 13], "reason": "first entry is not pinned to F"}),
    ((5, 7, 9), [{13}, {9}, {11}], (9, 11, 13),
     {"vector": [13, 9, 11], "reason": "all entries distinct"}),
    ((5, 7, 9), [{13}, {9}, {13}], None,
     {"vector": [13, 9, 13], "reason": "distinct prefix does not exhaust PF"}),
    ((5, 7, 9), [{13}, {9}, {13}], (9, 13),
     {"vector": [13, 9, 13], "position": 2,
      "reason": "distinct prefix entry off the forced value"}),
    ((4, 6, 7, 9), [{5}, {5}, {3}, {4}], (3, 4, 5),
     {"f": 4, "prefix_length": 1,
      "reason": "no factorization over the later generators"}),
    # F = 13 and F - f + 5 = 16, 14, 10 over the later generators 7, 9:
    # 16 = 7 + 9 needs the mask, 14 = 2 * 7 is one multiple, and 10, a
    # multiple of the pinned generator 5 only, is no combination of them
    ((5, 7, 9), [{13}, {13}, {13}], (2, 4, 8, 13),
     {"f": 8, "prefix_length": 1,
      "reason": "no factorization over the later generators"}),
    ((4, 6, 7, 9), [{5}, {5}, {3}, {2}], None,
     {"h": 3, "entry": 3, "reason": "first entry off F has no companion position"}),
    ((4, 6, 7, 9), [{5}, {3}, {3}, {5}], None,
     {"h": 2, "h_prime": 3, "entry": 3,
      "reason": "second entry off F fits neither branch"}),
    ((5, 7, 9), [{13}, {9, 11}, {9, 11}], (9, 11, 13),
     {"vector": [13, 9, 11], "reason": "all entries distinct"}),
    ((5, 6, 7, 8, 9), [{4}, {3}, {1, 4}, {1}, {2}], None,
     {"vector": [4, 3, 1, 1, 2], "position": 3,
      "reason": "distinct prefix entry off the forced value"}),
    # position 4 holds 0 besides its forced value 2, before imax = 4;
    # every later test passes (PF is exactly the forced prefix), so only
    # that spill finds the distinct prefix 8, 6, 4, 0
    ((5, 7, 9, 11, 13), [{8}, {6}, {4}, {0, 2}, {6}], None,
     {"vector": [8, 6, 4, 0, 6], "position": 4,
      "reason": "distinct prefix entry off the forced value"}),
    # two entries without a companion: the payload names the largest
    ((4, 6, 7, 9), [{5}, {5}, {1, 3}, {2}], None,
     {"h": 3, "entry": 3, "reason": "first entry off F has no companion position"}),
    ((4, 6, 7, 9), [{5}, {3}, {5}, {1, 4}], None,
     {"h": 2, "h_prime": 4, "entry": 4,
      "reason": "second entry off F fits neither branch"}),
]


@pytest.mark.parametrize(
    "gens, cands, pf, payload", NGV_FAILURES,
    ids=[f"{i}-{case[3]['reason']}" for i, case in enumerate(NGV_FAILURES)],
)
def test_ngv_props_failure_payloads(gens, cands, pf, payload):
    S = NumericalSemigroup(gens)
    ctx = _hand_set_context(S, [frozenset(c) for c in cands])
    if pf is not None:
        ctx.pf = pf
    result = claim_ngv_props(ctx)
    assert result.status == FAIL
    assert result.payload == {"generators": list(gens), "pf": list(ctx.pf), **payload}


# the literal scan classifies every vector, so it runs only up to this
# many; above it no semigroup checked here has a varying classification
LITERAL_VARIANCE_VECTORS = 128

# <23, 25, 26, 27, 37, 40, 43, 55> (F = 84, genus 45, almost symmetric)
# has two NG-vectors, (84, ..., 84) and (84, ..., 84, 56): 39 is pf1 for
# the first, as n_8 + 84 - 39 = 100 = 4 * n_2, and pf2 for the second
VARYING = (23, 25, 26, 27, 37, 40, 43, 55)

# two NG-vectors each, with a position mixing hits and misses that an
# all-hit position rescues: position 7 by position 2 alone for f = 63
# (position 1 holds only a miss), and position 8 by positions 1 and 3
# for f = 25
RESCUED = [(24, 34, 44, 51, 53, 56, 70), (16, 19, 20, 21, 24, 30, 33, 34)]


def _assert_variance_matches_literal_scan(S):
    ctx = ClaimContext(S)
    expected = []
    if ctx.nearly_gorenstein and ctx.vector_count <= LITERAL_VARIANCE_VECTORS:
        expected = literal_classification_variance(S, (v["entries"] for v in ng_vectors(S)))
    assert all(kinds == ["pf1", "pf2"] for _, kinds in expected), S.generators
    assert ctx.varying == tuple(f for f, _ in expected), S.generators
    return ctx.vector_count > LITERAL_VARIANCE_VECTORS


def test_factored_classification_variance_matches_literal_scan():
    above = sum(
        _assert_variance_matches_literal_scan(S)
        for S in semigroups_up_to(12)
        if not S.is_full()
    )
    # the production scan has no vector cap: 137 of these have more
    # vectors than the literal scan takes
    assert above == 137
    rng = random.Random(20)
    for _ in range(200):
        _assert_variance_matches_literal_scan(
            NumericalSemigroup(random_generators(rng, frobenius_cap=400))
        )
    for gens in [VARYING, *RESCUED]:
        S = NumericalSemigroup(gens)
        assert ClaimContext(S).vector_count == 2
        assert not _assert_variance_matches_literal_scan(S)


def _random_hit_cell_inputs(rng, count):
    """Seeded (generators, f, candidate sets) with no semigroup behind
    them: the hit cells are a function of these numbers alone, and such
    draws reach mixed positions and row values <= 0, which the census
    rarely or never gives."""
    for _ in range(count):
        gens = tuple(sorted(rng.sample(range(3, 40), rng.randint(2, 6))))
        cands = [frozenset(rng.sample(range(-20, 80), rng.randint(1, 3))) for _ in gens]
        yield gens, rng.randint(1, 60), cands


def test_hit_cells_match_the_listed_rows():
    # the variance scan asks each row value for one divisor; the oracle
    # lists every single-generator row
    rng = random.Random(20)
    contexts = [ClaimContext(S) for S in semigroups_up_to(12) if not S.is_full()]
    contexts += [
        ClaimContext(NumericalSemigroup(random_generators(rng, frobenius_cap=400)))
        for _ in range(200)
    ]
    S = NumericalSemigroup((8, 9, 10, 12, 15))
    contexts += [
        _hand_set_context(S, [frozenset(c) for c in cands]) for cands, _, _ in VARIANCE_CASES
    ]
    inputs = [
        (ctx.S.generators, f, ctx.candidates)
        for ctx in contexts
        if ctx.nearly_gorenstein
        for f in ctx.pf
    ]
    inputs += _random_hit_cell_inputs(rng, 5000)
    kinds = Counter()
    for gens, f, cands in inputs:
        cells = rf._hit_cells(gens, f, cands)
        assert cells == list_hit_cells(gens, f, cands), (gens, f, cands)
        kinds["all-hit" if cells is None else "cells" if cells else "no hit"] += 1
    assert min(kinds.values()) > 100 and len(kinds) == 3


def test_variance_scan_matches_the_listed_hit_cells():
    # f varies iff its listed hit cells are a nonempty set.  Candidate
    # sets drawn from the pseudo-Frobenius sets of seeded systems make
    # many numbers vary (a census makes almost none), so the scan's drop
    # of an f with a row of f + m meets varying numbers
    rng = random.Random(16)
    systems = [NumericalSemigroup(random_generators(rng, frobenius_cap=400)) for _ in range(300)]
    systems = [S for S in systems if not S.is_full()]
    varying = 0
    for _ in range(3000):
        S = rng.choice(systems)
        pf = S.pseudo_frobenius()
        cands = [frozenset(rng.sample(pf, min(len(pf), rng.randint(1, 3)))) for _ in S.generators]
        expected = tuple(f for f in pf if list_hit_cells(S.generators, f, cands))
        assert rf.classification_variance(S, cands, pf) == expected, (S.generators, cands)
        varying += len(expected)
    assert varying > 500  # 839 today


def test_pf_split_varies_with_the_ng_vector():
    S = NumericalSemigroup(VARYING)
    ctx = ClaimContext(S)
    assert ctx.varying == (39,)
    first, second = (v["entries"] for v in ng_vectors(S))
    assert literal_classification_variance(S, [first, second]) == [(39, ["pf1", "pf2"])]
    witnesses = classify_pf(S, first)["witnesses"]
    assert [w for w in witnesses if w["f"] == 39] == [
        {"f": 39, "side": "minus", "i": 8, "j": 2, "lam": 4}
    ]
    assert classify_pf(S, second)["pf2"] == [39]
    note = "classification of 39 varies across NG-vectors: pf1, pf2"
    assert check_semigroup(S)["notes"] == [note]
    agg = harness._empty_aggregate()
    harness._consume(agg, HarnessConfig(genus_max=0), [S])
    assert agg["classification_varies"] == [
        {"generators": list(VARYING), "f": 39, "classes": ["pf1", "pf2"]}
    ]


# <8, 9, 10, 12, 15>, F = 14, PF = (7, 11, 13, 14).  For f = 13 no f + n_i is a
# multiple of another generator, and the row value n_i + g - 13 is one
# (a hit) for g = 14 at positions 1, 2 and 5, for g = 11 at 3 and 4, and
# for g = 7 at 5 only.  For f = 11, f + n_2 = 20 = 2 * n_3 makes every
# candidate at position 2 a hit; of the row values n_i + g - 11 over the
# last case's sets, only g = 14 at position 4 gives one
VARIANCE_CASES = [
    # position 1 holds a hit and a miss, every other only a miss: 13 varies
    ([{7, 14}, {7}, {7}, {7}, {11}], 13, (13,)),
    # the same mixed position 1, rescued by position 3, which holds only
    # a hit: every vector puts 13 in pf1
    ([{7, 14}, {7}, {11}, {7}, {11}], 13, ()),
    # by the subtractive rows alone 11 would vary (position 4 mixes a hit
    # and a miss, every other holds only misses), but the additive row at
    # position 2 makes 11 pf1 for every vector
    ([{14}, {13}, {7}, {13, 14}, {7}], 11, ()),
]


@pytest.mark.parametrize("cands, f, expected", VARIANCE_CASES)
def test_classification_variance_on_hand_set_candidate_sets(cands, f, expected):
    S = NumericalSemigroup((8, 9, 10, 12, 15))
    ctx = _hand_set_context(S, [frozenset(c) for c in cands])
    assert f in ctx.avoidable
    assert ctx.varying == expected
    literal = literal_classification_variance(S, itertools.product(*cands))
    assert tuple(g for g, _ in literal) == expected


def test_classification_table_matches_per_vector_scan():
    # ctx.classifications reads each f's hit (position, entry) cells over
    # the product of the candidate sets; the scan classifies each vector of
    # ng_vectors on its own, in the same order, and classify_pf builds the
    # witnesses the table leaves out
    checked = 0
    for S in semigroups_up_to(14, embdim={5}):
        ctx = ClaimContext(S)
        if not ctx.nearly_gorenstein:
            continue
        classes = ctx.classifications
        assert [list(entries) for entries, _, _ in classes] == [
            v["entries"] for v in ng_vectors(S)
        ]
        for entries, pf1, pf2 in classes:
            scan = scan_classify_pf(S, entries)
            assert [list(entries), list(pf1), list(pf2)] == [
                scan["vector"], scan["pf1"], scan["pf2"]
            ], S.generators
            assert classify_pf(S, entries) == scan, S.generators
            checked += 1
    assert checked > 2000  # 2,097 vectors today


def test_census_builds_no_witness(monkeypatch):
    # no claim and no failure payload reads a witness: only classify_pf
    # builds them
    def refuse(*args):
        raise AssertionError("built a witness")

    monkeypatch.setattr(rf, "_single_generator_rows", refuse)
    assert _digest(check_all(HarnessConfig(genus_max=12))) == GENUS_TWELVE_DIGEST
    with pytest.raises(AssertionError, match="built a witness"):
        classify_pf(NumericalSemigroup(WORKED), (244, 212, 185, 244, 244))


MATRIX_ORACLES = {
    "COPPIE": literal_coppie,
    "FIRST_ZERO": literal_first_zero,
    "SAME2": literal_same2,
}


def _assert_matrix_claims_match_literal_routes(S, checked):
    results, _ = run_claims(S, names=tuple(MATRIX_ORACLES))
    for (name, oracle), result in zip(MATRIX_ORACLES.items(), results):
        literal = oracle(S)
        if literal is not None:
            status, instances = literal
            assert result.status == status, (S.generators, name)
            checked[name] += instances


def test_matrix_claims_match_literal_matrix_routes():
    # exhaustive wherever a semigroup has at most 256 vectors and each
    # (vector, f) at most 10**4 matrix pairs; instances are (vector, f),
    # and (p, q, s, vector) for SAME2
    checked = dict.fromkeys(MATRIX_ORACLES, 0)
    for S in semigroups_up_to(12):
        _assert_matrix_claims_match_literal_routes(S, checked)
    rng = random.Random(20)
    for _ in range(200):
        _assert_matrix_claims_match_literal_routes(
            NumericalSemigroup(random_generators(rng, frobenius_cap=400)), checked
        )
    assert checked["COPPIE"] > 25_000
    assert checked["FIRST_ZERO"] > 25_000
    assert checked["SAME2"] > 100_000  # 101,572 today


# the five-generated semigroups where PF2_TWO_ZEROES applies: the only one
# of genus <= 20 first, then the others among the 20,523 five-generated
# systems of 130,000 random_generators(random.Random(0)) draws with F <= 1500
PF2_INSTANCES = (
    (11, 12, 13, 15, 18),
    (11, 14, 17, 23, 32),
    (13, 21, 30, 31, 32),
    (15, 17, 18, 19, 27),
)


def _judged_as_pf2(S):
    """One context per NG-vector v and PF number f outside it, with
    {f} hand-set as v's PF2, so the claim judges matrices it never sees
    in a census."""
    for entries, _, _ in ClaimContext(S).classifications:
        for f in S.pseudo_frobenius():
            if f not in entries:
                ctx = ClaimContext(S)
                ctx.classifications = [(entries, (), (f,))]
                yield ctx


def _hand_set(gens, **fields):
    """A context of the semigroup with these fields set by hand."""
    ctx = ClaimContext(NumericalSemigroup(gens))
    for name, value in fields.items():
        setattr(ctx, name, value)
    return ctx


# no census comes near the paper's bounds (type <= 4, |PF1| <= 2 and PF2
# empty to genus 20), so each is judged on a semigroup the claim applies
# to, with the numbers it counts set by hand to the bound and one more

# claim, generators (nu = 3; 4 and NG; 4 and AS; 5, NG and not AS), bound
TYPE_BOUNDS = (
    ("HERZOG3", (3, 4, 5), 2),
    ("NG4_TYPE3", (7, 8, 10, 11), 3),
    ("AS4_TYPE3", (4, 5, 6, 7), 3),
    ("THM_MAIN", WORKED, 40),
)


@pytest.mark.parametrize("name, gens, bound", TYPE_BOUNDS, ids=[t[0] for t in TYPE_BOUNDS])
def test_type_bounds_are_exact(name, gens, bound):
    claim = CLAIM_FUNCTIONS[name]
    assert claim(_hand_set(gens, pf=tuple(range(1, bound + 1)))) == ClaimResult(PASS)
    over = claim(_hand_set(gens, pf=tuple(range(1, bound + 2))))
    assert over.status == FAIL and over.payload["type"] == bound + 1


def _judged_with_split(entries, pf1, pf2):
    cls = (entries, tuple(range(1, pf1 + 1)), tuple(range(1, pf2 + 1)))
    return _hand_set(WORKED, classifications=[cls])


def test_pf1_and_pf2_bounds_are_exact():
    # WORKED (F = 244) is five-generated, NG and not AS; its two vectors
    # have one and two entries other than F
    one_off, two_off = (244, 212, 244, 244, 244), (244, 212, 185, 244, 244)
    for entries, bound in ((one_off, 31), (two_off, 30)):
        assert claim_pf1_bound(_judged_with_split(entries, bound, 0)).status == PASS
        over = claim_pf1_bound(_judged_with_split(entries, bound + 1, 0))
        assert over.status == FAIL and over.payload["bound"] == bound, entries
    assert claim_pf2_bound(_judged_with_split(one_off, 0, 6)).status == PASS
    over = claim_pf2_bound(_judged_with_split(one_off, 0, 7))
    assert over.status == FAIL and len(over.payload["pf2"]) == 7


def test_mu_bound_is_exact():
    # the extremal gaps gap[(i, 2)] of WORKED are 212, 153, 146 and 126;
    # 153 and 126 are also gap[(i, 5)] for some i
    extremal = set(max_gap_table(NumericalSemigroup(WORKED)).values())
    filler = [x for x in range(1, 1000) if x not in extremal]
    three_over_2 = (146, 153, 212)  # mu = (0, 3, 0, 0, 1)
    for gaps, bound in (((), 38), (three_over_2, 37)):
        for size, status in ((bound, PASS), (bound + 1, FAIL)):
            pf1 = tuple(sorted([*gaps, *filler[: size - len(gaps)]]))
            cls = ((244, 212, 244, 244, 244), pf1, ())
            result = claim_mu_bound(_hand_set(WORKED, classifications=[cls]))
            assert result.status == status, (gaps, size)
        assert result.payload["bound"] == bound
        assert result.payload["mus"] == ([0, 3, 0, 0, 1] if gaps else [0] * 5)


def test_thm_3distinct_failure_names_the_vector_and_the_allowed_numbers():
    # WORKED's gaps[(4, 5)] and gaps[(5, 4)] are 218 and 59; of its two
    # vectors only the second has three distinct leading entries
    vectors = [((244, 212, 244, 244, 244), (), ()), ((244, 212, 185, 244, 244), (), ())]
    allowed = [59, 185, 212, 218, 244]
    claim = CLAIM_FUNCTIONS["THM_3DISTINCT"]
    assert claim(_hand_set(WORKED, classifications=vectors, pf=tuple(allowed))).status == PASS
    for pf in ((1,), (*allowed, 300)):
        result = claim(_hand_set(WORKED, classifications=vectors, pf=pf))
        assert result.status == FAIL, pf
        assert result.payload["vector"] == [244, 212, 185, 244, 244]
        assert result.payload["allowed"] == allowed
        assert result.payload["type"] == len(pf)


def test_pf2_two_zeroes_matches_literal_matrices():
    # no tier-1 census reaches the claim's matrix check, so it is compared
    # with the literal matrices on the instances where it applies, and on
    # hand-set PF2 numbers, which break its rows and columns
    for gens in PF2_INSTANCES:
        ctx = ClaimContext(NumericalSemigroup(gens))
        literal, instances = literal_pf2_two_zeroes(ctx)
        assert instances > 0 and literal.status == PASS, gens
        assert claim_pf2_two_zeroes(ctx).status == PASS, gens
    first = ClaimContext(NumericalSemigroup(PF2_INSTANCES[0])).classifications
    assert [(entries, pf2) for entries, _, pf2 in first] == [((32,) * 5, (16,))]
    reasons = set()
    # <12, 16, 17, 18, 21> with f = 23: each additive row has two zeroes,
    # but the first column has one
    hand_set = [NumericalSemigroup(gens) for gens in (*PF2_INSTANCES, (12, 16, 17, 18, 21))]
    for S in [*semigroups_up_to(12, embdim={5}), *hand_set]:
        if not is_nearly_gorenstein(S):
            continue
        for ctx in _judged_as_pf2(S):
            literal, _ = literal_pf2_two_zeroes(ctx)
            factored = claim_pf2_two_zeroes(ctx)
            assert factored.status == literal.status, S.generators
            if factored.status == FAIL:
                located = {k: factored.payload[k] for k in ("vector", "f", "side")}
                assert located == {k: literal.payload[k] for k in located}, S.generators
                reasons.add(factored.payload["reason"].lstrip("0123456789 "))
    assert reasons == {
        "zeroes in a row", "zeroes in a column", "zero positions vary across choices"
    }


def test_pf2_two_zeroes_fails_on_the_subtractive_side(monkeypatch):
    # hand-set rows: every additive matrix has two zeroes per row and
    # column, the subtractive rows at position 1 disagree on their zeroes
    vector, f = (244, 212, 244, 244, 244), 59
    ctx = _hand_set(WORKED, classifications=[(vector, (), (f,))])
    cycle = [tuple(0 if j in ((i + 1) % 5, (i + 2) % 5) else 1 for j in range(5)) for i in range(5)]
    monkeypatch.setattr(claims, "plus_row_lists", lambda S, f: [[row] for row in cycle])
    minus = [[row] for row in cycle]
    minus[0] = [cycle[0], cycle[1]]
    monkeypatch.setattr(claims, "minus_row_lists", lambda S, entries, f: minus)
    result = claim_pf2_two_zeroes(ctx)
    assert result.status == FAIL
    assert result.payload == {
        "generators": list(WORKED), "pf": [59, 185, 212, 244], "vector": list(vector),
        "f": f, "side": "minus", "row": 1, "reason": "zero positions vary across choices",
    }


def test_global_predicate_failure_payloads():
    # <3, 4, 5> is almost symmetric and nearly Gorenstein (PF = {1, 2});
    # with an empty second candidate set it is AS but not NG
    S = NumericalSemigroup((3, 4, 5))
    ctx = _hand_set_context(S, [frozenset({2}), frozenset()])
    assert (ctx.almost_symmetric, ctx.nearly_gorenstein) == (True, False)
    assert CLAIM_FUNCTIONS["AS_IMPLIES_NG"](ctx) == ClaimResult(FAIL, {
        "generators": [3, 4, 5], "pf": [1, 2],
        "reason": "almost symmetric but not nearly Gorenstein",
    })
    # the candidate-set verdict flipped against the trace route's
    for gens, pf, trace in (((3, 4, 5), [1, 2], True), ((7, 9, 11, 17), [13, 15, 19], False)):
        ctx = ClaimContext(NumericalSemigroup(gens))
        assert ctx.nearly_gorenstein is trace
        ctx.nearly_gorenstein = not trace
        assert CLAIM_FUNCTIONS["TRACE_EQ"](ctx) == ClaimResult(FAIL, {
            "generators": list(gens), "pf": pf, "candidates": not trace, "trace": trace,
        })


def test_question_ms_flags():
    # WORKED is five-generated and nearly Gorenstein; type and almost
    # symmetry are set by hand: type 6, or 5 while not AS, is flagged
    claim = CLAIM_FUNCTIONS["QUESTION_MS"]
    for t, almost_symmetric, flagged in (
        (6, False, True), (6, True, True), (5, False, True), (5, True, False), (4, False, False),
    ):
        ctx = _hand_set(WORKED, pf=tuple(range(1, t + 1)), almost_symmetric=almost_symmetric)
        payload = {"generators": list(WORKED), "type": t, "almost_symmetric": almost_symmetric}
        assert claim(ctx) == ClaimResult(PASS, payload if flagged else None), (t, almost_symmetric)


def test_pf_premise_names_a_frobenius_number_in_s():
    # <3, 4, 5> (F = 2) handed its member 3 as the Frobenius number
    S = NumericalSemigroup._from_minimal_data(
        (3, 4, 5), 3, 2, (0, 4, 5), literal_apery_convolution((0, 4, 5)), (1, 2)
    )
    ctx = ClaimContext(S)
    assert ctx.pf_premise == {"f": 3, "reason": "Frobenius number in S"}
    assert ctx.avoidable == (1,)
    assert CLAIM_FUNCTIONS["COPPIE"](ctx) == ClaimResult(FAIL, {
        "generators": [3, 4, 5], "pf": [1, 2], "f": 3, "reason": "Frobenius number in S",
    })


def _non_pf_gap(S):
    pf = S.pseudo_frobenius()
    return next(x for x in range(1, S.frobenius) if x not in S and x not in pf)


WRONG_PF_ENTRIES = {
    "member": lambda S: S.multiplicity,
    "gap leaving S": _non_pf_gap,  # some gap + n_i lies outside S
}


@pytest.mark.parametrize("kind", WRONG_PF_ENTRIES)
def test_matrix_claims_fail_on_a_wrong_pseudo_frobenius_entry(monkeypatch, kind):
    # a computed PF set with one wrong entry fails each matrix claim
    # wherever the claim applies, with the premise's payload
    names = tuple(MATRIX_ORACLES)
    applies = {name: [] for name in names}
    for S in semigroups_up_to(9):
        if S.genus == S.type:
            continue  # every gap is pseudo-Frobenius
        results, _ = run_claims(S, names=names)
        for name, result in zip(names, results):
            if result.status == PASS:
                applies[name].append(S)
    wrong = WRONG_PF_ENTRIES[kind]
    build = ClaimContext.__init__

    def with_wrong_entry(ctx, S):
        # the facts built from S's own set only decide where a claim applies
        build(ctx, S)
        ctx.pf = tuple(sorted({*ctx.pf, wrong(S)}))

    monkeypatch.setattr(ClaimContext, "__init__", with_wrong_entry)
    for name, group in applies.items():
        assert len(group) > 20, name
        for S in group:
            (result,), _ = run_claims(S, names=(name,))
            assert result.status == FAIL, (S.generators, name)
            assert result.payload["f"] == wrong(S), (S.generators, name)
            assert "reason" in result.payload
        # a failure's record carries its payload through a JSON round trip
        record = check_semigroup(S, claims=(name,))
        assert record["claims"] == [{"claim": name, "status": FAIL, "payload": result.payload}]
        assert json.loads(json.dumps(record)) == record


# the keys of a per-semigroup record, in the order --pretty prints them
REPORT_KEYS = [
    "generators", "genus", "frobenius", "multiplicity", "embedding_dimension", "type",
    "nearly_gorenstein", "almost_symmetric", "vector_count", "claims", "notes",
]


def test_check_semigroup_report_shape():
    report = check_semigroup(WORKED)
    assert list(report) == REPORT_KEYS
    assert report["generators"] == list(WORKED)
    assert report["genus"] == 126
    assert report["frobenius"] == 244
    assert report["type"] == 4
    assert report["nearly_gorenstein"] is True
    assert report["almost_symmetric"] is False
    assert report["vector_count"] == 2
    assert [c for c in report["claims"] if c["status"] == FAIL] == []
    assert [c["claim"] for c in report["claims"]] == list(CLAIM_NAMES)
    assert json.loads(json.dumps(report)) == report
    assert report["generators"] == [13, 45, 72, 79, 99]
    assert all(set(c) <= {"claim", "status", "payload"} for c in report["claims"])
    assert "seconds" not in report


def test_check_semigroup_accepts_semigroup_object():
    a = check_semigroup(WORKED)
    b = check_semigroup(NumericalSemigroup(WORKED))
    assert list(a) == list(b)
    assert a == b


def test_check_all_small_summary():
    cfg = HarnessConfig(genus_max=3)
    summary = check_all(cfg)
    assert summary["semigroups"] == 8
    assert summary["by_genus"] == {"0": 1, "1": 1, "2": 2, "3": 4}
    assert summary["total_failures"] == 0
    assert summary["failures"] == []
    assert summary["question_flags"] == []
    assert summary["classification_varies"] == []
    for name in ASSERTED_CLAIMS:
        assert summary["claims"][name]["fail"] == 0


GENUS_TWELVE_DIGEST = "bef995d089ab227adf7422ea8594babb2b86659f111b1198748ead0434292022"


def _digest(summary: dict) -> str:
    stripped = {k: v for k, v in summary.items() if k != "seed"}
    body = json.dumps(stripped, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(body).hexdigest()


def test_genus_twelve_summary_bytes_are_pinned(monkeypatch):
    # SHA-256 of the canonical summary JSON (sorted keys, no spaces)
    # without its `seed` field, the form the benchmark's census gate hashes;
    # the summary depends on its configuration alone, so a former matrix
    # cap setting in the environment changes nothing
    for value in ("5", "abc"):
        monkeypatch.setenv("SGP_MATRIX_CAP", value)
        assert _digest(check_all(HarnessConfig(genus_max=12))) == GENUS_TWELVE_DIGEST


def test_failures_are_counted_and_listed_like_the_reports(monkeypatch):
    # the census fails no claim, so HERZOG3 is made to fail on nu = 3
    def failing(ctx):
        if ctx.nu != 3:
            return INAPPLICABLE
        return ClaimResult(FAIL, {"generators": list(ctx.S.generators), "type": len(ctx.pf)})

    monkeypatch.setitem(CLAIM_FUNCTIONS, "HERZOG3", failing)
    reports = []
    summary = check_all(HarnessConfig(genus_max=8), sink=reports.append)
    counts = {name: {PASS: 0, FAIL: 0, NA: 0} for name in CLAIM_NAMES}
    failures = []
    for report in reports:
        for claim in report["claims"]:
            counts[claim["claim"]][claim["status"]] += 1
            if claim["status"] == FAIL:
                failures.append({"claim": claim["claim"], **claim["payload"]})
    failures.sort(key=lambda e: (e["generators"], e["claim"]))
    assert summary["claims"] == counts
    assert summary["failures"] == failures
    assert summary["total_failures"] == len(failures)
    assert json.loads(json.dumps(reports)) == reports
    assert counts["HERZOG3"][FAIL] == sum(
        1 for S in semigroups_up_to(8) if S.embedding_dimension == 3
    ) > 0
    split = check_all(HarnessConfig(genus_max=8, workers=2))
    assert json.dumps(summary, sort_keys=True) == json.dumps(split, sort_keys=True)


def test_question_flags_are_read_at_the_claims_position(monkeypatch):
    # no census semigroup up to genus 28 raises a flag, so QUESTION_MS is
    # made to flag every three-generated one; the harness reads its result
    # at index 15 of all claims, at index 1 of a subset, and at none when
    # it is left out, even when the last claim then gives payloads
    def flagging(ctx):
        if ctx.nu != 3:
            return INAPPLICABLE
        payload = {"generators": list(ctx.S.generators), "type": len(ctx.pf)}
        return ClaimResult(PASS, {**payload, "almost_symmetric": bool(ctx.almost_symmetric)})

    monkeypatch.setitem(CLAIM_FUNCTIONS, "QUESTION_MS", flagging)
    three = sorted(list(S.generators) for S in semigroups_up_to(7) if S.embedding_dimension == 3)
    assert len(three) > 10
    for names in (CLAIM_NAMES, ("HERZOG3", "QUESTION_MS")):
        summary = check_all(HarnessConfig(genus_max=7, claims=names))
        assert [flag["generators"] for flag in summary["question_flags"]] == three, names
        assert summary["claims"]["QUESTION_MS"]["pass"] == len(three)
        assert summary["total_failures"] == 0
    left_out = check_all(HarnessConfig(genus_max=7, claims=("HERZOG3", "TRACE_EQ")))
    assert left_out["question_flags"] == []
    monkeypatch.setitem(CLAIM_FUNCTIONS, "TRACE_EQ", flagging)
    left_out = check_all(HarnessConfig(genus_max=7, claims=("HERZOG3", "TRACE_EQ")))
    assert left_out["question_flags"] == []


def test_check_all_sink_streams_reports():
    seen = []
    summary = check_all(HarnessConfig(genus_max=3), sink=seen.append)
    assert len(seen) == summary["semigroups"] == 8
    assert all(list(r) == REPORT_KEYS for r in seen)
    gens = {tuple(r["generators"]) for r in seen}
    assert (1,) in gens and (2, 3) in gens


def test_check_all_sink_requires_single_worker():
    with pytest.raises(ValueError):
        check_all(HarnessConfig(genus_max=8, workers=2), sink=lambda r: None)


def test_harness_config_validation():
    with pytest.raises(ValueError):
        HarnessConfig(genus_max=-1)
    with pytest.raises(ValueError):
        HarnessConfig(genus_max=3, workers=0)
    with pytest.raises(ValueError):
        HarnessConfig(genus_max=3, claims=("BOGUS",))
    for embdim in (frozenset(), {0}, {-2, 3}):
        with pytest.raises(InvalidArgumentError, match="embdim values"):
            HarnessConfig(genus_max=3, embdim_filter=embdim)


@pytest.mark.parametrize(
    "build", [lambda claims: HarnessConfig(genus_max=3, claims=claims),
              lambda claims: check_semigroup((3, 5), claims=claims),
              lambda claims: run_claims(NumericalSemigroup((3, 5)), claims)],
    ids=["HarnessConfig", "check_semigroup", "run_claims"],
)
@pytest.mark.parametrize("claims", ["HERZOG3", "", None, 3, [["HERZOG3"]]], ids=repr)
def test_claims_that_are_no_collection_of_names_are_refused(build, claims):
    # a string was split into one-letter claim names (run_claims gave no
    # result for ""), and None and an unhashable entry ended in a bare
    # TypeError; an entry that is no claim name is named by itself
    if isinstance(claims, list):
        message = f"unknown claims: {claims}"
    else:
        message = f"claims must be a collection of claim names, got {claims!r}"
    with pytest.raises(InvalidArgumentError, match=f"^{re.escape(message)}$"):
        build(claims)


@pytest.mark.parametrize(
    "build, kwargs",
    [
        # a fractional bound would walk one genus past it
        (HarnessConfig, {"genus_max": 2.5}),
        (HarnessConfig, {"genus_max": 3, "workers": 2.0}),
        (semigroups_up_to, {"genus_max": 2.5}),
        # part >= parts would yield a stream overlapping part - parts
        (semigroups_up_to, {"genus_max": 3, "part": 3, "parts": 2}),
        (semigroups_up_to, {"genus_max": 3, "part": -1, "parts": 2}),
        (semigroups_up_to, {"genus_max": 3, "part": 0, "parts": 0}),
        (semigroups_up_to, {"genus_max": 3, "part": 0.0, "parts": 1}),
        (count_by_genus, {"genus_max": 2.5}),
        (count_by_genus, {"genus_max": "3"}),
        # a bool is an int to Python, but no bound
        (HarnessConfig, {"genus_max": True}),
        (HarnessConfig, {"genus_max": 3, "workers": True}),
        (semigroups_up_to, {"genus_max": True}),
        (semigroups_up_to, {"genus_max": 3, "part": False, "parts": True}),
        (count_by_genus, {"genus_max": False}),
    ],
    ids=lambda value: getattr(value, "__name__", None) or repr(value),
)
def test_walk_arguments_outside_their_domain_are_refused(build, kwargs):
    # refused when called, not at the first next() of a stream
    with pytest.raises(InvalidArgumentError):
        build(**kwargs)


@pytest.mark.parametrize(
    "build",
    [
        lambda embdim: HarnessConfig(genus_max=5, embdim_filter=embdim),
        lambda embdim: semigroups_up_to(5, embdim),
    ],
    ids=["HarnessConfig", "semigroups_up_to"],
)
@pytest.mark.parametrize(
    # a fraction or a bool would filter silently (True is nu = 1), a
    # string or a bare int would end in a TypeError, and a value below 1
    # or an empty set would check no semigroup
    "embdim", [{2.5}, {True}, {"3"}, 5, [0], [-1], ["3"], frozenset()], ids=repr
)
def test_embdim_outside_its_domain_is_refused(build, embdim):
    # one rule for both entry points, refused when called
    with pytest.raises(InvalidArgumentError, match="embdim values must be positive"):
        build(embdim)


def test_embdim_filter_is_kept_as_a_frozenset():
    cfg = HarnessConfig(genus_max=5, embdim_filter=[3, 4, 3])
    assert cfg.embdim_filter == frozenset({3, 4})
    assert hash(cfg) == hash(HarnessConfig(genus_max=5, embdim_filter={4, 3}))
    assert HarnessConfig(genus_max=5).embdim_filter is None


def test_harness_claims_normalized_to_canonical_order():
    cfg = HarnessConfig(genus_max=2, claims=("TRACE_EQ", "HERZOG3"))
    assert cfg.claims == ("HERZOG3", "TRACE_EQ")
    # a one-shot iterator is read once (its names were consumed by the
    # name check, and no claim was left)
    assert HarnessConfig(genus_max=2, claims=iter(("TRACE_EQ", "HERZOG3"))) == cfg
    summary = check_all(cfg)
    assert summary["claims_checked"] == ["HERZOG3", "TRACE_EQ"]
    assert set(summary["claims"]) == {"HERZOG3", "TRACE_EQ"}
    # one semigroup lists its claims in the same order as the census
    report = check_semigroup((3, 5), claims=("TRACE_EQ", "HERZOG3", "TRACE_EQ"))
    assert [c["claim"] for c in report["claims"]] == ["HERZOG3", "TRACE_EQ"]
    assert report == check_semigroup((3, 5), claims=("HERZOG3", "TRACE_EQ"))


def test_workers_summary_identical(monkeypatch):
    # two CPUs on any box, so workers=2 really forks two processes
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for embdim in (None, frozenset({3})):
        base = check_all(HarnessConfig(genus_max=8, embdim_filter=embdim, workers=1))
        split = check_all(HarnessConfig(genus_max=8, embdim_filter=embdim, workers=2))
        assert base == split
        assert json.dumps(base, sort_keys=True) == json.dumps(split, sort_keys=True)


def _stand_in_pool(monkeypatch) -> list[int]:
    """Replace the fork context by an in-process stand-in that runs the
    parts one after another and records each pool's size; no process
    starts."""
    sizes = []

    class Pool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, func, items):
            return list(itertools.starmap(func, items))

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: SimpleNamespace(Pool=Pool))
    return sizes


@pytest.mark.parametrize("embdim", [None, {3}, {4, 5}], ids=str)
def test_parts_partition_the_census_stream(embdim):
    whole = list(semigroups_up_to(10, embdim))
    for parts in range(1, 6):
        counts = Counter()
        for k in range(parts):
            part = [S.generators for S in semigroups_up_to(10, embdim, k, parts)]
            # every parts-th semigroup from index k, so sizes differ by <= 1
            assert len(part) == len(range(k, len(whole), parts))
            counts.update(part)
        assert counts == Counter(S.generators for S in whole)


def test_five_partials_merge_to_the_pinned_summary(monkeypatch):
    sizes = _stand_in_pool(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert _digest(check_all(HarnessConfig(genus_max=12, workers=5))) == GENUS_TWELVE_DIGEST
    assert sizes == [5]


def test_pool_has_at_most_one_process_per_cpu(monkeypatch):
    sizes = _stand_in_pool(monkeypatch)
    serial = check_all(HarnessConfig(genus_max=8))
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert check_all(HarnessConfig(genus_max=8, workers=100_000)) == serial
    assert sizes == [3]
    # an unknown CPU count runs serially: no pool, and multiprocessing
    # is never imported (an import of a None entry raises ImportError)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    monkeypatch.setitem(sys.modules, "multiprocessing", None)
    assert check_all(HarnessConfig(genus_max=8, workers=100_000)) == serial
    assert sizes == [3]


def test_embdim_filter_drops_nodes_before_building(monkeypatch):
    built = []

    def counting(node):
        built.append(node)
        return build(node)

    build = enumeration._semigroup_from_node
    monkeypatch.setattr(enumeration, "_semigroup_from_node", counting)
    summary = check_all(HarnessConfig(genus_max=8, embdim_filter=frozenset({3})))
    assert 0 < len(built) == summary["semigroups"]


def test_embdim_filter_summary():
    full = check_all(HarnessConfig(genus_max=7))
    only3 = check_all(HarnessConfig(genus_max=7, embdim_filter=frozenset({3})))
    expected = sum(
        1 for S in semigroups_up_to(7) if S.embedding_dimension == 3
    )
    assert only3["semigroups"] == expected
    assert only3["semigroups"] < full["semigroups"]
    assert set(only3["cells"]) <= {
        key for key in full["cells"] if key.startswith("nu=3|")
    }


def test_genus_zero_summary_is_trivial():
    summary = check_all(HarnessConfig(genus_max=0))
    assert summary["semigroups"] == 1
    assert summary["by_genus"] == {"0": 1}
    for name in CLAIM_NAMES:
        assert summary["claims"][name] == {
            "pass": 0,
            "fail": 0,
            "inapplicable": 1,
        }
