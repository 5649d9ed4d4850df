"""Symmetry classes, canonical ideal, and NG-vector enumeration."""

import math
import random
import time

import pytest

from numsgps import (
    EnumerationCapError,
    InvalidArgumentError,
    NotNearlyGorensteinError,
    NumericalSemigroup,
    VectorEntryError,
    classify_pf,
    is_almost_symmetric,
    is_nearly_gorenstein,
    is_ng_vector,
    is_symmetric,
    max_gap_table,
    nearly_gorenstein_via_trace,
    ng_vectors,
    rf_minus_iter,
)
from numsgps.gorenstein import (
    _candidate_sets,
    candidate_prefix,
    companion_finder,
    companions_complete,
    count_choices,
    ng_vector_at,
)
from numsgps.verify import ClaimContext, check_semigroup, semigroups_up_to
from oracles import (
    brute_almost_symmetric,
    brute_nearly_gorenstein,
    brute_ng_candidates,
    brute_ng_vectors,
    brute_symmetric,
    canonical_ideal,
    canonical_ideal_symmetric,
    full_scan_candidate_sets,
    full_scan_trace_nearly_gorenstein,
    gap_scan_pseudo_frobenius,
    gaps_to_generators,
    gaps_trace_nearly_gorenstein,
    genus_tree_semigroups,
    literal_apery_convolution,
    mask_almost_symmetric,
    mask_is_ng_vector,
    mask_ng_candidates,
    random_generators,
    sieve_invariants,
)

WORKED = (13, 45, 72, 79, 99)


def census(genus_max):
    for gaps in genus_tree_semigroups(genus_max):
        if gaps:
            yield NumericalSemigroup(gaps_to_generators(gaps))


def test_symmetry_classes_match_bruteforce_census():
    for S in census(9):
        _, frob, _, pf, contains = sieve_invariants(S.generators)
        assert is_symmetric(S) == brute_symmetric(frob, contains)
        assert is_almost_symmetric(S) == brute_almost_symmetric(frob, contains, pf)
        assert is_nearly_gorenstein(S) == brute_nearly_gorenstein(
            S.generators, pf, contains
        )


def test_symmetry_classes_match_bruteforce_random():
    rng = random.Random(4242)
    for _ in range(30):
        S = NumericalSemigroup(random_generators(rng, frobenius_cap=400))
        _, frob, _, pf, contains = sieve_invariants(S.generators)
        assert is_symmetric(S) == brute_symmetric(frob, contains)
        assert is_almost_symmetric(S) == brute_almost_symmetric(frob, contains, pf)
        assert is_nearly_gorenstein(S) == brute_nearly_gorenstein(
            S.generators, pf, contains
        )


def test_symmetric_iff_type_one():
    for S in census(8):
        assert is_symmetric(S) == (S.type == 1)


def test_almost_symmetric_iff_gap_count_identity():
    # is_almost_symmetric decides by 2 * genus == frobenius + type; by
    # definition, S is almost symmetric iff (F, ..., F) is an NG-vector
    for S in semigroups_up_to(12):
        F = S.frobenius
        assert is_almost_symmetric(S) == is_ng_vector(S, (F,) * S.embedding_dimension)


def test_canonical_ideal_contents():
    S = NumericalSemigroup((5, 7, 9))
    K = canonical_ideal(S)
    for x in range(-2, S.frobenius + 10):
        assert (x in K) == (x >= 0 and not S.contains(S.frobenius - x))


def _one_lookup_misses(S):
    """Some generator n != m lies in the trace without being attained at
    v = F mod m, so the trace route's one lookup misses it and its full
    scan decides."""
    m = S.multiplicity
    a = S.apery
    c = literal_apery_convolution(a)
    v = S.frobenius % m
    return any(
        c[(n + v) % m] - a[v] != n and min(c[(n + u) % m] - a[u] for u in range(m)) == n
        for n in S.generators[1:]
    )


def _assert_trace_routes_agree(S):
    """Compares the trace route with the full scan, the trace built gap
    by gap and the candidate route; True when the route reached its full
    scan for a generator in the trace (every generator is tested when S
    is nearly Gorenstein)."""
    via_trace = nearly_gorenstein_via_trace(S)
    assert via_trace == full_scan_trace_nearly_gorenstein(S), S.generators
    assert via_trace == gaps_trace_nearly_gorenstein(S), S.generators
    assert via_trace == is_nearly_gorenstein(S), S.generators
    return via_trace and _one_lookup_misses(S)


def test_trace_route_agrees_with_candidate_route():
    # and with the trace route that builds K gap by gap
    count = fallbacks = 0
    for S in census(12):
        fallbacks += _assert_trace_routes_agree(S)
        count += 1
    assert count == 1412
    assert fallbacks > 0
    rng = random.Random(2718)
    frobs = []
    fallbacks = 0
    for _ in range(40):
        S = NumericalSemigroup(random_generators(rng, frobenius_cap=3000))
        fallbacks += _assert_trace_routes_agree(S)
        S = _sparse_generators(rng)
        fallbacks += _assert_trace_routes_agree(S)
        frobs.append(S.frobenius)
    assert max(frobs) > 2000
    # multiplicities past the census's, where the residue slices of the
    # Apery-set route are long enough for an off-by-one to show
    verdicts = []
    for _ in range(60):
        S = _wide_generators(rng)
        fallbacks += _assert_trace_routes_agree(S)
        verdicts.append(is_nearly_gorenstein(S))
    assert 0 < sum(verdicts) < len(verdicts)
    assert fallbacks > 0


def test_trace_route_reads_neither_pf_nor_candidate_sets(monkeypatch):
    # TRACE_EQ checks the candidate-set route against this one.  A
    # semigroup built from generators computes its Apery convolution
    # afresh; one built by the genus-tree walk carries it from its parent
    rng = random.Random(2718)
    fresh = [*census(10), *(_wide_generators(rng) for _ in range(60))]
    expected = [is_nearly_gorenstein(S) for S in [*fresh, *semigroups_up_to(10)]]

    def refuse(*args):
        raise AssertionError("the trace route read PF or the candidate sets")

    monkeypatch.setattr(NumericalSemigroup, "pseudo_frobenius", refuse)
    monkeypatch.setattr("numsgps.gorenstein._candidate_sets", refuse)
    systems = [*fresh, *semigroups_up_to(10)]
    assert [nearly_gorenstein_via_trace(S) for S in systems] == expected


def test_almost_symmetry_reads_neither_ng_vectors_nor_candidate_sets(monkeypatch):
    # AS_IMPLIES_NG checks Nari's identity against the candidate-set route
    rng = random.Random(1729)
    systems = [*census(10), *(_wide_generators(rng) for _ in range(60))]
    expected = []
    for S in systems:
        _, frob, _, pf, contains = sieve_invariants(S.generators)
        expected.append(brute_almost_symmetric(frob, contains, pf))
    assert 0 < sum(expected) < len(expected)

    def refuse(*args):
        raise AssertionError("almost symmetry read an NG-vector test or the candidate sets")

    monkeypatch.setattr("numsgps.gorenstein.is_ng_vector", refuse)
    monkeypatch.setattr("numsgps.gorenstein._candidate_sets", refuse)
    assert [is_almost_symmetric(S) for S in systems] == expected
    # the context builds its candidate sets too, but its verdict does not
    # follow them: with an empty first set in their place it stands
    monkeypatch.setattr("numsgps.verify.claims.candidate_prefix", lambda S: [frozenset()])
    assert [ClaimContext(S).almost_symmetric for S in systems] == expected


def _stopped_candidates_stop_early(S):
    """ClaimContext's candidate sets against the brute full list and the
    brute verdict; True when they stop before the last position."""
    _, _, _, pf, contains = sieve_invariants(S.generators)
    ctx = ClaimContext(S)
    full = [frozenset(c) for c in brute_ng_candidates(S.generators, pf, contains)]
    assert ctx.nearly_gorenstein == brute_nearly_gorenstein(
        S.generators, pf, contains
    ), S.generators
    if ctx.nearly_gorenstein:
        assert ctx.candidates == full, S.generators
        return False
    stop = next(i for i, c in enumerate(full) if not c)
    assert ctx.candidates == full[: stop + 1], S.generators
    return stop + 1 < len(full)


def test_claim_context_candidates_stop_at_the_first_empty_set():
    early = sum(_stopped_candidates_stop_early(S) for S in census(12))
    assert early > 500
    rng = random.Random(1618)
    wide = [_wide_generators(rng) for _ in range(60)]
    assert sum(_stopped_candidates_stop_early(S) for S in wide) > 0
    assert 0 < sum(map(is_nearly_gorenstein, wide)) < len(wide)


def _assert_candidate_sets_match_full_scan(S, extra, above):
    """The candidate sets against the full scan, on S's own
    pseudo-Frobenius set and on three computed ones: with F - m and these
    extra numbers added, without F, and with the number above F added,
    so that the largest computed number is not F in the last two.  True
    when F - m is a candidate at position 0 of the first, which only a
    true set of one number allows."""
    assert list(_candidate_sets(S)) == full_scan_candidate_sets(S), S.generators
    F, m = S.frobenius, S.multiplicity
    pf = set(S.pseudo_frobenius())

    def scan(computed):
        T = NumericalSemigroup(S.generators)
        T._pf = tuple(sorted(computed))
        full = full_scan_candidate_sets(T)
        assert list(_candidate_sets(T)) == full, (S.generators, T._pf)
        return full

    first = scan({*pf, F - m, *extra})
    if pf - {F}:
        scan(pf - {F})
    scan({*pf, above})
    return F - m in first[0]


def test_position_zero_shortcut_matches_the_full_scan():
    # position 0 keeps only F and F - m, F the largest computed number,
    # and a candidate is kept at the first shifted value above S's own
    # Frobenius number, so both must agree with the full scan on any
    # computed set, a wrong one included
    rng = random.Random(577)
    systems = [*census(12)]
    systems += [NumericalSemigroup(random_generators(rng, frobenius_cap=400)) for _ in range(200)]
    systems += [_wide_generators(rng) for _ in range(60)]
    kept = 0
    for S in systems:
        extra = [] if rng.random() < 0.5 else rng.sample(range(S.frobenius + 2), 2)
        above = S.frobenius + rng.randint(1, 2 * S.multiplicity)
        kept += _assert_candidate_sets_match_full_scan(S, extra, above)
    assert kept > 50  # 99 today


def test_ng_candidates_structure():
    S = NumericalSemigroup(WORKED)
    cands = candidate_prefix(S)
    _, _, _, pf, contains = sieve_invariants(WORKED)
    assert [tuple(sorted(c)) for c in cands] == list(
        brute_ng_candidates(WORKED, pf, contains)
    )
    # first coordinate can only hold the Frobenius number
    assert tuple(sorted(cands[0])) == (S.frobenius,)


def test_trivial_semigroup_is_answered_by_the_general_rules():
    # N (F = -1, PF = {-1}) is symmetric, so almost symmetric and nearly
    # Gorenstein, with the one NG-vector (-1,)
    N = NumericalSemigroup((1,))
    assert list(_candidate_sets(N)) == candidate_prefix(N) == [{-1}]
    assert ng_vectors(N) == [ng_vector_at(N, 0)] == [{"entries": [-1], "h": None, "ell": None}]
    assert is_ng_vector(N, (-1,))
    assert not is_ng_vector(N, ()) and not is_ng_vector(N, (-1, -1))
    assert is_symmetric(N) and is_almost_symmetric(N) and is_nearly_gorenstein(N)
    assert nearly_gorenstein_via_trace(N)
    assert classify_pf(N, (-1,)) == {
        "generators": [1], "vector": [-1], "pf1": [], "pf2": [], "witnesses": []
    }
    assert max_gap_table(N) == {}
    with pytest.raises(VectorEntryError):
        rf_minus_iter(N, (-1,), -1)
    # the claims' domain is nu >= 2: the verify layer leaves N's verdicts null
    report = check_semigroup((1,))
    assert report["nearly_gorenstein"] is report["almost_symmetric"] is None
    assert {claim["status"] for claim in report["claims"]} == {"inapplicable"}


def test_ng_vectors_refused_above_the_cap():
    # 439,084,800 vectors: refused with the exact count before one is built
    S = NumericalSemigroup(range(12, 24))
    start = time.perf_counter()
    with pytest.raises(EnumerationCapError) as exc:
        ng_vectors(S)
    assert time.perf_counter() - start < 1.0
    assert (exc.value.count, exc.value.cap) == (439084800, 10**6)


def test_ng_vectors_worked_example():
    S = NumericalSemigroup(WORKED)
    assert ng_vectors(S) == [
        {"entries": [244, 212, 244, 244, 244], "h": 2, "ell": 1},
        {"entries": [244, 212, 185, 244, 244], "h": 2, "ell": 1},
    ]
    # the key order `sgp ng-vectors --pretty` prints
    assert [list(v) for v in ng_vectors(S)] == [["entries", "h", "ell"]] * 2


def test_ng_vectors_match_product_filter():
    count = 0
    for S in census(8):
        if not is_nearly_gorenstein(S):
            continue
        _, _, _, pf, contains = sieve_invariants(S.generators)
        if len(pf) ** S.embedding_dimension > 20000:
            continue
        expected = set(brute_ng_vectors(S.generators, pf, contains))
        got = {tuple(v["entries"]) for v in ng_vectors(S)}
        assert got == expected
        count += 1
    assert count > 80


def test_ng_vector_h_ell_minimality():
    for S in census(8):
        if not is_nearly_gorenstein(S):
            continue
        F = S.frobenius
        gens = S.generators
        for v in ng_vectors(S):
            entries, h, ell = v["entries"], v["h"], v["ell"]
            if all(e == F for e in entries):
                assert h is None and ell is None
                continue
            assert entries[h - 1] != F
            assert all(entries[i] == F for i in range(h - 1))
            assert entries[h - 1] == F - gens[h - 1] + gens[ell - 1]
            for j in range(ell - 1):
                assert entries[h - 1] != F - gens[h - 1] + gens[j]


def test_companion_set_test_matches_the_rule_per_entry():
    # companions_complete against companion_finder entry by entry, on
    # every candidate set of genus <= 10 and on each with a value above F
    # added at position h whose shift F + n_{h+1} is some F + n: no
    # companion, so the set test must fail there
    verdicts = set()
    for S in census(10):
        gens, F = S.generators, S.frobenius
        cands = candidate_prefix(S)
        if len(gens) < 2 or not all(cands):
            continue
        families = [cands]
        families += [
            [*cands[:h], cands[h] | {F + gens[h + 1] - gens[h]}, *cands[h + 1 :]]
            for h in range(1, len(gens) - 1)
        ]
        for family in families:
            expected = all(
                g == F or companion_finder(gens, F, h, g) is not None
                for h, c in enumerate(family)
                for g in c
            )
            assert companions_complete(gens, F, family) == expected, (gens, family)
            verdicts.add(expected)
    assert verdicts == {True, False}


def test_is_ng_vector():
    S = NumericalSemigroup(WORKED)
    assert is_ng_vector(S, (244, 212, 244, 244, 244))
    assert is_ng_vector(S, (244, 212, 185, 244, 244))
    assert not is_ng_vector(S, (244, 244, 244, 244, 244))
    assert not is_ng_vector(S, (59, 212, 244, 244, 244))


def test_ng_vectors_requires_nearly_gorenstein():
    S = NumericalSemigroup((7, 9, 11, 17))
    assert not is_nearly_gorenstein(S)
    with pytest.raises(NotNearlyGorensteinError):
        ng_vectors(S)


def test_ng_vector_at_decodes_the_listing_order():
    # the index is decoded in mixed radix, never by listing the vectors.
    # On every semigroup of genus <= 9, N included, it agrees with the list at
    # every index when there are at most 10**4 vectors, else at the ends
    # and 50 seeded indices; the two lists above 10**5 (<9, ..., 17> and
    # <10, ..., 19>) take seconds to build and are left out.  The
    # out-of-range and not-NG errors keep their messages.
    rng = random.Random(9)
    checked = 0
    for S in semigroups_up_to(9):
        if not is_nearly_gorenstein(S):
            with pytest.raises(NotNearlyGorensteinError) as listed:
                ng_vectors(S)
            with pytest.raises(NotNearlyGorensteinError) as selected:
                ng_vector_at(S, 0)
            assert str(selected.value) == str(listed.value)
            continue
        count = count_choices(candidate_prefix(S))
        if count > 10**5:
            continue
        vectors = ng_vectors(S)
        assert len(vectors) == count
        indices = range(count)
        if count > 10**4:
            indices = [0, count - 1, *rng.sample(range(count), 50)]
        assert [ng_vector_at(S, i) for i in indices] == [vectors[i] for i in indices]
        checked += len(indices)
        for index in (-1, count):
            with pytest.raises(InvalidArgumentError) as exc:
                ng_vector_at(S, index)
            assert str(exc.value) == (
                f"NG-vector index {index} out of range (the semigroup has {count})"
            )
    assert checked > 20_000


def test_ng_vector_at_refuses_an_index_that_is_not_an_integer():
    # True would otherwise select vector 1, and 1.0 fail deep in the decoding
    S = NumericalSemigroup(WORKED)
    for index in (True, False, 1.0):
        with pytest.raises(InvalidArgumentError, match="must be an integer"):
            ng_vector_at(S, index)


def test_max_embedding_dimension_candidate_sizes():
    # for <m, m+1, ..., 2m-1> the i-th candidate set has min(i, m-1) entries
    for m in (3, 4, 5, 6, 7):
        S = NumericalSemigroup(tuple(range(m, 2 * m)))
        assert S.pseudo_frobenius() == tuple(range(1, m))
        sizes = [len(c) for c in candidate_prefix(S)]
        assert sizes == [min(i, m - 1) for i in range(1, m + 1)]
        assert is_nearly_gorenstein(S)


def _sparse_generators(rng):
    """A seeded system with a small multiplicity and a few large generators,
    so the Frobenius number reaches a few thousand."""
    while True:
        m = rng.randint(3, 30)
        gens = [m] + [rng.randint(m + 1, 1200) for _ in range(rng.randint(1, 3))]
        g = 0
        for n in gens:
            g = math.gcd(g, n)
        if g == 1:
            S = NumericalSemigroup(gens)
            if S.frobenius <= 6000:
                return S


def _wide_generators(rng):
    """A seeded system of multiplicity 30 to 60 with 1 to 4 more
    generators below three times the multiplicity."""
    while True:
        m = rng.randint(30, 60)
        gens = [m] + rng.sample(range(m + 1, 3 * m), rng.randint(1, 4))
        if math.gcd(*gens) == 1:
            return NumericalSemigroup(gens)


def _assert_apery_routes_match_window_routes(S, rng):
    pf = S.pseudo_frobenius()
    assert pf == gap_scan_pseudo_frobenius(S)
    assert is_symmetric(S) == canonical_ideal_symmetric(S)
    assert is_almost_symmetric(S) == mask_almost_symmetric(S)
    # production stops at the first empty set, so compare up to it
    cands = candidate_prefix(S)
    mask = mask_ng_candidates(S)
    stop = next((i + 1 for i, c in enumerate(mask) if not c), len(mask))
    assert [tuple(sorted(c)) for c in cands] == mask[:stop]
    probes = [(S.frobenius,) * S.embedding_dimension, (S.frobenius,)]
    probes += [tuple(rng.choice(pf) for _ in S.generators) for _ in range(4)]
    if all(cands):
        probes.append(tuple(max(c) for c in cands))
        probes.append(tuple(min(c) for c in cands))
    for entries in probes:
        assert is_ng_vector(S, entries) == mask_is_ng_vector(S, entries)


def test_apery_routes_agree_with_window_routes():
    rng = random.Random(3141)
    count = 0
    for S in census(12):
        _assert_apery_routes_match_window_routes(S, rng)
        count += 1
    assert count == 1412
    frobs = []
    for _ in range(60):
        S = NumericalSemigroup(random_generators(rng, frobenius_cap=3000))
        _assert_apery_routes_match_window_routes(S, rng)
        S = _sparse_generators(rng)
        _assert_apery_routes_match_window_routes(S, rng)
        frobs.append(S.frobenius)
    assert max(frobs) > 2000
    N = NumericalSemigroup((1,))
    assert N.pseudo_frobenius() == gap_scan_pseudo_frobenius(N)
    assert is_symmetric(N) == canonical_ideal_symmetric(N)
