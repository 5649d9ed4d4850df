"""Symmetry classes, canonical ideal, and NG-vector enumeration."""

import math
import random
import time

import pytest

from numsgps import (
    EmbeddingDimensionError,
    EnumerationCapError,
    InvalidArgumentError,
    NotNearlyGorensteinError,
    NumericalSemigroup,
    classify_pf,
    is_almost_symmetric,
    is_nearly_gorenstein,
    is_ng_vector,
    is_symmetric,
    max_gap_table,
    nearly_gorenstein_via_trace,
    ng_vectors,
)
from numsgps.gorenstein import candidate_prefix, ng_vector_at
from numsgps.verify import ClaimContext, semigroups_up_to
from oracles import (
    brute_almost_symmetric,
    brute_nearly_gorenstein,
    brute_ng_candidates,
    brute_ng_vectors,
    brute_symmetric,
    canonical_ideal,
    canonical_ideal_symmetric,
    gap_scan_pseudo_frobenius,
    gaps_to_generators,
    gaps_trace_nearly_gorenstein,
    genus_tree_semigroups,
    mask_almost_symmetric,
    mask_is_ng_vector,
    mask_ng_candidates,
    random_generators,
    sieve_invariants,
)

WORKED = (13, 45, 72, 79, 99)


def _proper_walk(genus_max):
    return [S for S in semigroups_up_to(genus_max) if not S.is_full()]


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
    for S in _proper_walk(12):
        F = S.frobenius
        assert is_almost_symmetric(S) == is_ng_vector(S, (F,) * S.embedding_dimension)


def test_canonical_ideal_contents():
    S = NumericalSemigroup((5, 7, 9))
    K = canonical_ideal(S)
    for x in range(-2, S.frobenius + 10):
        assert (x in K) == (x >= 0 and not S.contains(S.frobenius - x))


def _assert_trace_routes_agree(S):
    via_trace = nearly_gorenstein_via_trace(S)
    assert via_trace == gaps_trace_nearly_gorenstein(S), S.generators
    assert via_trace == is_nearly_gorenstein(S), S.generators


def test_trace_route_agrees_with_candidate_route():
    # and with the trace route that builds K gap by gap
    count = 0
    for S in census(12):
        _assert_trace_routes_agree(S)
        count += 1
    assert count == 1412
    rng = random.Random(2718)
    frobs = []
    for _ in range(40):
        S = NumericalSemigroup(random_generators(rng, frobenius_cap=3000))
        _assert_trace_routes_agree(S)
        S = _sparse_generators(rng)
        _assert_trace_routes_agree(S)
        frobs.append(S.frobenius)
    assert max(frobs) > 2000
    # multiplicities past the census's, where the residue slices of the
    # Apery-set route are long enough for an off-by-one to show
    verdicts = []
    for _ in range(60):
        S = _wide_generators(rng)
        _assert_trace_routes_agree(S)
        verdicts.append(is_nearly_gorenstein(S))
    assert 0 < sum(verdicts) < len(verdicts)


def test_trace_route_reads_neither_pf_nor_candidate_sets(monkeypatch):
    # TRACE_EQ checks the candidate-set route against this one.  A
    # semigroup built from generators computes its Apery convolution
    # afresh; one built by the genus-tree walk carries it from its parent
    rng = random.Random(2718)
    fresh = [*census(10), *(_wide_generators(rng) for _ in range(60))]
    expected = [is_nearly_gorenstein(S) for S in [*fresh, *_proper_walk(10)]]

    def refuse(*args):
        raise AssertionError("the trace route read PF or the candidate sets")

    monkeypatch.setattr(NumericalSemigroup, "pseudo_frobenius", refuse)
    monkeypatch.setattr("numsgps.gorenstein._candidate_sets", refuse)
    systems = [*fresh, *_proper_walk(10)]
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


def test_ng_candidates_structure():
    S = NumericalSemigroup(WORKED)
    cands = candidate_prefix(S)
    _, _, _, pf, contains = sieve_invariants(WORKED)
    assert [tuple(sorted(c)) for c in cands] == list(
        brute_ng_candidates(WORKED, pf, contains)
    )
    # first coordinate can only hold the Frobenius number
    assert tuple(sorted(cands[0])) == (S.frobenius,)


def test_ng_candidates_rejects_trivial_semigroup():
    N = NumericalSemigroup((1,))
    with pytest.raises(EmbeddingDimensionError):
        candidate_prefix(N)
    # every single-semigroup rule that needs two generators refuses N alike,
    # before it compares a vector's length with the embedding dimension
    with pytest.raises(EmbeddingDimensionError):
        is_ng_vector(N, (-1,))
    with pytest.raises(EmbeddingDimensionError):
        is_ng_vector(N, ())
    with pytest.raises(EmbeddingDimensionError):
        classify_pf(N, (-1,))
    with pytest.raises(EmbeddingDimensionError):
        max_gap_table(N)


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
    vectors = ng_vectors(S)
    assert [v.entries for v in vectors] == [
        (244, 212, 244, 244, 244),
        (244, 212, 185, 244, 244),
    ]
    first, second = vectors
    assert first.h == 2 and first.ell == 1
    assert second.h == 2 and second.ell == 1


def test_ng_vectors_match_product_filter():
    count = 0
    for S in census(8):
        if not is_nearly_gorenstein(S):
            continue
        _, _, _, pf, contains = sieve_invariants(S.generators)
        if len(pf) ** S.embedding_dimension > 20000:
            continue
        expected = set(brute_ng_vectors(S.generators, pf, contains))
        got = {v.entries for v in ng_vectors(S)}
        assert got == expected
        count += 1
    assert count > 80


def test_ng_vector_h_ell_minimality():
    for S in census(8):
        if not is_nearly_gorenstein(S) or S.is_full():
            continue
        F = S.frobenius
        gens = S.generators
        for v in ng_vectors(S):
            if all(e == F for e in v.entries):
                assert v.h is None and v.ell is None
                continue
            h = v.h
            assert v.entries[h - 1] != F
            assert all(v.entries[i] == F for i in range(h - 1))
            ell = v.ell
            assert v.entries[h - 1] == F - gens[h - 1] + gens[ell - 1]
            for j in range(ell - 1):
                assert v.entries[h - 1] != F - gens[h - 1] + gens[j]


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
    # On every proper semigroup of genus <= 9 it agrees with the list at
    # every index when there are at most 10**4 vectors, else at the ends
    # and 50 seeded indices; the two lists above 10**5 (<9, ..., 17> and
    # <10, ..., 19>) take seconds to build and are left out.  The
    # out-of-range and not-NG errors keep their messages.
    rng = random.Random(9)
    checked = 0
    for S in semigroups_up_to(9):
        if S.embedding_dimension < 2:
            continue
        if not is_nearly_gorenstein(S):
            with pytest.raises(NotNearlyGorensteinError) as listed:
                ng_vectors(S)
            with pytest.raises(NotNearlyGorensteinError) as selected:
                ng_vector_at(S, 0)
            assert str(selected.value) == str(listed.value)
            continue
        count = ClaimContext(S).vector_count
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
