"""Genus-tree enumeration, claim checking, and the parallel harness."""

import hashlib
import json
import multiprocessing
import random
from types import SimpleNamespace

import pytest

from numsgps import NumericalSemigroup, core, is_nearly_gorenstein, ng_vectors
from numsgps.errors import InvalidArgumentError
from numsgps.verify import (
    ASSERTED_CLAIMS,
    CLAIM_NAMES,
    CheckReport,
    ClaimContext,
    HarnessConfig,
    check_all,
    check_semigroup,
    count_by_genus,
    enumeration,
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
    claim_ngv_props,
    claim_pf2_two_zeroes,
)
from numsgps.rf import PFClassification, classification_variance
from oracles import (
    gaps_to_generators,
    genus_tree_semigroups,
    literal_apery_convolution,
    literal_classification_variance,
    literal_coppie,
    literal_first_zero,
    literal_ngv_props,
    literal_pf2_two_zeroes,
    literal_same2,
    random_generators,
    scan_classify_pf,
)

KNOWN_COUNTS = [1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693]

WORKED = (13, 45, 72, 79, 99)


def test_count_by_genus_matches_census():
    counts = count_by_genus(14)
    assert [counts[g] for g in range(15)] == KNOWN_COUNTS


@pytest.mark.parametrize("genus_max", [-1, -3])
def test_count_by_genus_rejects_negative_genus(genus_max):
    with pytest.raises(ValueError, match="genus_max must be nonnegative"):
        count_by_genus(genus_max)


def test_enumeration_matches_backtracking_oracle():
    expected = {
        gaps_to_generators(gaps) for gaps in genus_tree_semigroups(9)
    }
    walked = list(semigroups_up_to(9))
    got = {S.generators for S in walked}
    assert got == expected
    assert len(got) == sum(KNOWN_COUNTS[:10])
    # the Apery sets carried down the tree (multiplicities 2..10) match
    # the shortest-path construction from the generators
    assert {S.multiplicity for S in walked} == set(range(1, 11))
    for S in walked:
        assert S.apery == NumericalSemigroup(S.generators).apery, S.generators


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
    _count_calls(monkeypatch, enumeration, "_convolution", calls)
    _count_calls(monkeypatch, enumeration, "_apery_convolution", calls)
    _count_calls(monkeypatch, core, "_apery_convolution", calls)
    assert count_by_genus(12) == KNOWN_COUNTS[:13]
    assert calls == []
    # the same helpers see every node that is built
    assert len(list(semigroups_up_to(12))) == calls.count("_convolution") > 0


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
    status = {name: results[name].status for name in CLAIM_NAMES}
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
        bad = [n for n, r in results.items() if r.status == FAIL]
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
        assert FAIL not in {r.status for r in results.values()}, S.generators


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


def test_ngv_props_set_tests_match_literal_route_on_hand_set_families():
    statuses = set()
    for S, cands in _hand_set_families(2000, 14):
        ctx = ClaimContext(S)
        ctx.candidates = cands
        a = literal_ngv_props(ctx).status
        b = claim_ngv_props(ctx).status
        assert a == b, (S.generators, cands)
        statuses.add(b)
    assert statuses == {PASS, FAIL}


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
        ctx = ClaimContext(S)
        ctx.candidates = cands
        assert ctx.avoidable == _literal_avoidable(ctx), (S.generators, cands)
        families += 1
    assert families > 1000


def test_ngv_props_passes_without_a_matching(monkeypatch):
    # a passing input is decided by set tests on the forced prefix alone
    def refuse(*args):
        raise AssertionError("matched")

    monkeypatch.setattr("numsgps.verify.claims._augment", refuse)
    for S in semigroups_up_to(12):
        results, ctx = run_claims(S, names=("NGV_PROPS",))
        expected = PASS if ctx.nearly_gorenstein else NA
        assert results["NGV_PROPS"].status == expected, S.generators


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
]


@pytest.mark.parametrize(
    "gens, cands, pf, payload", NGV_FAILURES,
    ids=[f"{i}-{case[3]['reason']}" for i, case in enumerate(NGV_FAILURES)],
)
def test_ngv_props_failure_payloads(gens, cands, pf, payload):
    S = NumericalSemigroup(gens)
    ctx = ClaimContext(S)
    ctx.candidates = [frozenset(c) for c in cands]
    if pf is not None:
        ctx.pf = pf
    result = claim_ngv_props(ctx)
    assert result.status == FAIL
    assert result.payload == {"generators": list(gens), "pf": list(ctx.pf), **payload}


# the literal scan classifies every vector, so it runs only up to this
# many; above it no semigroup checked here has a varying classification
LITERAL_VARIANCE_VECTORS = 128


def _assert_variance_matches_literal_scan(S):
    ctx = ClaimContext(S)
    expected = []
    if ctx.nearly_gorenstein and ctx.vector_count <= LITERAL_VARIANCE_VECTORS:
        expected = literal_classification_variance(S, ng_vectors(S))
    assert classification_variance(S, ctx.candidates, ctx.avoidable) == expected, S.generators
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


def test_classification_table_matches_per_vector_scan():
    # ctx.classifications reads a (f, position, entry) table over the
    # product of the candidate sets; the scan classifies each vector of
    # ng_vectors on its own, in the same order
    checked = 0
    for S in semigroups_up_to(14, embdim={5}):
        ctx = ClaimContext(S)
        if not ctx.nearly_gorenstein:
            continue
        classes = ctx.classifications
        assert [c.entries for c in classes] == [v.entries for v in ng_vectors(S)]
        for cls in classes:
            assert cls == scan_classify_pf(S, cls.entries), S.generators
            checked += 1
    assert checked > 2000  # 2,097 vectors today


MATRIX_ORACLES = {
    "COPPIE": literal_coppie,
    "FIRST_ZERO": literal_first_zero,
    "SAME2": literal_same2,
}


def _assert_matrix_claims_match_literal_routes(S, checked):
    results, _ = run_claims(S, names=tuple(MATRIX_ORACLES))
    for name, oracle in MATRIX_ORACLES.items():
        literal = oracle(S)
        if literal is not None:
            status, instances = literal
            assert results[name].status == status, (S.generators, name)
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
    for cls in ClaimContext(S).classifications:
        for f in S.pseudo_frobenius():
            if f not in cls.entries:
                ctx = ClaimContext(S)
                ctx.classifications = [PFClassification(cls.entries, (), (f,), {})]
                yield ctx


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
    assert [(c.entries, c.pf2) for c in first] == [((32,) * 5, (16,))]
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
        for name in names:
            if results[name].status == PASS:
                applies[name].append(S)
    wrong = WRONG_PF_ENTRIES[kind]
    monkeypatch.setattr(
        ClaimContext,
        "pf",
        property(lambda ctx: tuple(sorted({*ctx.S.pseudo_frobenius(), wrong(ctx.S)}))),
    )
    for name, group in applies.items():
        assert len(group) > 20, name
        for S in group:
            result = run_claims(S, names=(name,))[0][name]
            assert result.status == FAIL, (S.generators, name)
            assert result.payload["f"] == wrong(S), (S.generators, name)
            assert "reason" in result.payload


def test_check_semigroup_report_shape():
    report = check_semigroup(WORKED)
    assert isinstance(report, CheckReport)
    assert report.generators == WORKED
    assert report.genus == 126
    assert report.frobenius == 244
    assert report.type == 4
    assert report.nearly_gorenstein is True
    assert report.almost_symmetric is False
    assert report.vector_count == 2
    assert report.failures == {}
    assert list(report.claims) == list(CLAIM_NAMES)
    d = report.as_dict()
    assert d["generators"] == [13, 45, 72, 79, 99]
    assert [c["claim"] for c in d["claims"]] == list(CLAIM_NAMES)
    assert "seconds" not in d


def test_check_semigroup_accepts_semigroup_object():
    a = check_semigroup(WORKED)
    b = check_semigroup(NumericalSemigroup(WORKED))
    assert a.as_dict().keys() == b.as_dict().keys()
    assert a.generators == b.generators


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


def test_genus_twelve_summary_bytes_are_pinned(monkeypatch):
    # SHA-256 of the canonical summary JSON (sorted keys, no spaces)
    # without its `seed` field, the form the benchmark's census gate hashes;
    # the summary depends on its configuration alone, so a former matrix
    # cap setting in the environment changes nothing
    for value in ("5", "abc"):
        monkeypatch.setenv("SGP_MATRIX_CAP", value)
        summary = check_all(HarnessConfig(genus_max=12))
        stripped = {k: v for k, v in summary.items() if k != "seed"}
        body = json.dumps(stripped, sort_keys=True, separators=(",", ":")).encode()
        assert hashlib.sha256(body).hexdigest() == (
            "bef995d089ab227adf7422ea8594babb2b86659f111b1198748ead0434292022"
        )


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
        for name, result in report.claims.items():
            counts[name][result.status] += 1
        for name, result in report.failures.items():
            failures.append({"claim": name, **result.payload})
    failures.sort(key=lambda e: (e["generators"], e["claim"]))
    assert summary["claims"] == counts
    assert summary["failures"] == failures
    assert summary["total_failures"] == len(failures)
    assert counts["HERZOG3"][FAIL] == sum(
        1 for S in semigroups_up_to(8) if S.embedding_dimension == 3
    ) > 0
    split = check_all(HarnessConfig(genus_max=8, workers=2))
    assert json.dumps(summary, sort_keys=True) == json.dumps(split, sort_keys=True)


def test_check_all_sink_streams_reports():
    seen = []
    summary = check_all(HarnessConfig(genus_max=3), sink=seen.append)
    assert len(seen) == summary["semigroups"] == 8
    assert all(isinstance(r, CheckReport) for r in seen)
    gens = {r.generators for r in seen}
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


def test_harness_claims_normalized_to_canonical_order():
    cfg = HarnessConfig(genus_max=2, claims=("TRACE_EQ", "HERZOG3"))
    assert cfg.claims == ("HERZOG3", "TRACE_EQ")
    summary = check_all(cfg)
    assert summary["claims_checked"] == ["HERZOG3", "TRACE_EQ"]
    assert set(summary["claims"]) == {"HERZOG3", "TRACE_EQ"}
    # one semigroup lists its claims in the same order as the census
    report = check_semigroup((3, 5), claims=("TRACE_EQ", "HERZOG3", "TRACE_EQ"))
    assert tuple(report.claims) == ("HERZOG3", "TRACE_EQ")
    assert [c["claim"] for c in report.as_dict()["claims"]] == ["HERZOG3", "TRACE_EQ"]


def test_workers_summary_identical():
    # genus 8 exceeds the serial cutoff, so workers=2 really forks
    for embdim in (None, frozenset({3})):
        base = check_all(HarnessConfig(genus_max=8, embdim_filter=embdim, workers=1))
        split = check_all(HarnessConfig(genus_max=8, embdim_filter=embdim, workers=2))
        assert base == split
        assert json.dumps(base, sort_keys=True) == json.dumps(split, sort_keys=True)


def test_pool_has_at_most_one_process_per_unit(monkeypatch):
    # an in-process stand-in for the fork context records the pool size;
    # no process starts
    sizes = []

    class Pool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, func, items):
            return map(func, items)

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: SimpleNamespace(Pool=Pool))
    _above, units = enumeration.work_units(8, None)
    summary = check_all(HarnessConfig(genus_max=8, workers=100_000))
    assert sizes == [len(units)] == [23]
    assert summary == check_all(HarnessConfig(genus_max=8))


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
