"""Core semigroup arithmetic against independent sieve oracles."""

import gc
import random

import pytest

from numsgps import (
    EmptyGeneratorsError,
    GcdNotOneError,
    GeneratorTooLargeError,
    InvalidArgumentError,
    NotAMemberError,
    NumericalSemigroup,
    RelativeIdeal,
    backelin,
    classify_pf,
    family_dim6,
    ideal_from_generators,
    numerical_duplication,
    rf_minus_iter,
    rf_plus_iter,
)
from numsgps.core import require_int
from numsgps.rf import minus_row_lists, plus_row_lists
from oracles import (
    brute_factorizations,
    gaps,
    gaps_to_generators,
    genus_tree_semigroups,
    random_generators,
    sieve_invariants,
    sieve_membership,
)

WORKED = (13, 45, 72, 79, 99)


def test_constructor_reduces_to_minimal_generators():
    S = NumericalSemigroup((4, 6, 8, 9, 13))
    assert S.generators == (4, 6, 9)
    T = NumericalSemigroup((9, 6, 4, 6))
    assert T.generators == (4, 6, 9)


def test_constructor_rejects_bad_input():
    with pytest.raises(EmptyGeneratorsError):
        NumericalSemigroup(())
    with pytest.raises(GcdNotOneError):
        NumericalSemigroup((4, 6))
    with pytest.raises(GcdNotOneError):
        NumericalSemigroup((6,))
    with pytest.raises(ValueError):
        NumericalSemigroup((0, 5))
    with pytest.raises(GeneratorTooLargeError):
        NumericalSemigroup((2, 2**31 + 1))
    with pytest.raises(GeneratorTooLargeError):
        NumericalSemigroup((3, 2**31))
    # a bool or a float is no generator (core.is_int)
    for gens, bad in (((3, 5.0), "5.0"), ((3, True), "True")):
        with pytest.raises(TypeError, match=f"^generator {bad} is not an integer$"):
            NumericalSemigroup(gens)


BASE = NumericalSemigroup((3, 4, 5))
W = NumericalSemigroup(WORKED)
W_VECTOR = (244, 212, 244, 244, 244)


@pytest.mark.parametrize("name, valid, call", [
    ("b", 3, lambda b: numerical_duplication(BASE, RelativeIdeal.maximal_ideal(BASE), b)),
    ("T", 2, backelin),
    ("T", 2, lambda T: family_dim6(T, 4, 3)),
    ("d", 4, lambda d: family_dim6(2, d, 3)),
    ("k", 3, lambda k: family_dim6(2, 4, k)),
    ("f", 59, lambda f: plus_row_lists(W, f)),
    ("f", 59, lambda f: rf_plus_iter(W, f)),
    ("f", 59, lambda f: minus_row_lists(W, W_VECTOR, f)),
    ("f", 59, lambda f: rf_minus_iter(W, W_VECTOR, f)),
    ("NG-vector entry", 244, lambda e: classify_pf(W, (e, *W_VECTOR[1:]))),
    ("NG-vector entry", 244, lambda e: minus_row_lists(W, (e, *W_VECTOR[1:]), 59)),
    ("ideal generator", 3, lambda e: ideal_from_generators(BASE, [e])),
    ("n", 3, BASE.apery_set),
], ids=lambda value: value if isinstance(value, str) else None)
@pytest.mark.parametrize("bad", [1.5, True, float], ids=["1.5", "True", "integral float"])
def test_integer_arguments_refuse_what_is_not_an_int(name, valid, call, bad):
    # the integer itself is answered; 1.5 and an integral float used to
    # fail deep inside or be echoed, and True be taken as 1
    call(valid)
    bad = float(valid) if bad is float else bad
    with pytest.raises(InvalidArgumentError, match=f"^{name} must be an integer, got {bad!r}$"):
        call(bad)


@pytest.mark.parametrize("least, word", [(0, "nonnegative"), (1, "positive"), (2, "at least 2")])
def test_require_int_names_the_bound(least, word):
    require_int("x", least)
    with pytest.raises(InvalidArgumentError, match=f"^x must be {word}, got {least - 1}$"):
        require_int("x", least - 1, least)


def test_equality_and_hash_read_the_minimal_system():
    S = NumericalSemigroup((4, 6, 9))
    T = NumericalSemigroup((9, 13, 6, 8, 4))
    assert S == T and hash(S) == hash(T)
    assert S != NumericalSemigroup((4, 6, 11))
    assert S.__eq__((4, 6, 9)) is NotImplemented
    assert S != (4, 6, 9)


def test_trivial_semigroup_conventions():
    N = NumericalSemigroup((1,))
    assert N.is_full()
    assert N.generators == (1,)
    assert N.frobenius == -1
    assert N.genus == 0
    assert N.type == 1
    assert N.pseudo_frobenius() == (-1,)
    assert N.contains(0) and N.contains(7) and not N.contains(-1)


def test_worked_example_invariants():
    S = NumericalSemigroup(WORKED)
    assert S.multiplicity == 13
    assert S.embedding_dimension == 5
    assert S.frobenius == 244
    assert S.genus == 126
    assert S.type == 4
    assert S.pseudo_frobenius() == (59, 185, 212, 244)


def test_apery_set_structure():
    S = NumericalSemigroup((5, 7, 9))
    ap = S.apery_set(5)
    assert len(ap) == 5
    assert ap[0] == 0
    for r, w in enumerate(ap):
        assert w % 5 == r
        assert S.contains(w)
        assert not S.contains(w - 5)
    assert S.frobenius == max(ap) - 5
    # only a nonzero element has an Apery set
    for n in (0, -5, 8):
        with pytest.raises(NotAMemberError, match=f"^{n} is not a nonzero element"):
            S.apery_set(n)


def test_no_negative_integer_is_a_member():
    # the Apery lookup alone rejects every negative x, multiples of m included
    for gens in ((1,), (5, 7, 9), WORKED):
        S = NumericalSemigroup(gens)
        m = S.multiplicity
        assert not any(S.contains(x) or x in S for x in range(-3 * m, 0)), gens


def test_apery_set_of_every_small_member_matches_sieve():
    for gens in ((3, 5), (5, 7, 9), WORKED):
        S = NumericalSemigroup(gens)
        top = 2 * S.generators[-1]
        bound = S.frobenius + top + 1
        member = sieve_membership(S.generators, bound)
        for n in range(1, top + 1):
            if not member[n]:
                continue
            least = [min(x for x in range(r, bound + 1, n) if member[x]) for r in range(n)]
            assert S.apery_set(n) == least, (gens, n)


def test_invariants_match_sieve_on_census():
    for gap_set in genus_tree_semigroups(8):
        gens = gaps_to_generators(gap_set)
        S = NumericalSemigroup(gens)
        assert S.generators == gens
        assert S.genus == len(gap_set)
        assert S.frobenius == (max(gap_set) if gap_set else -1)
        assert gaps(S) == sorted(gap_set)


def test_invariants_match_sieve_random():
    rng = random.Random(20260824)
    for _ in range(40):
        gens = random_generators(rng, frobenius_cap=600)
        S = NumericalSemigroup(gens)
        members, frob, genus, pf, contains = sieve_invariants(gens)
        assert S.frobenius == frob
        assert S.genus == genus
        assert S.pseudo_frobenius() == pf
        for x in range(frob + 2):
            assert S.contains(x) == contains(x)


def test_factorizations_match_bruteforce():
    S = NumericalSemigroup((5, 7, 9))
    for x in (0, 5, 14, 31, 45, 61):
        assert sorted(S.factorization_tuples(x)) == brute_factorizations(
            (5, 7, 9), x
        )
    assert S.factorization_tuples(4) == []
    assert S.factorization_tuples(-3) == []


def test_factorizations_leave_no_reference_cycle():
    # a cycle would keep each result alive until the collector runs
    S = NumericalSemigroup((5, 7, 9))
    gc.collect()
    gc.disable()
    try:
        assert len(S.factorization_tuples(45)) == 5
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_gaps_and_pf_consistency():
    rng = random.Random(7)
    for _ in range(20):
        gens = random_generators(rng, frobenius_cap=300)
        S = NumericalSemigroup(gens)
        gap_set = set(gaps(S))
        assert len(gap_set) == S.genus
        pf = S.pseudo_frobenius()
        assert set(pf) <= gap_set
        assert pf[-1] == S.frobenius
        assert list(pf) == sorted(pf)
        for f in pf:
            assert all(S.contains(f + n) for n in gens)
        for g in gap_set - set(pf):
            assert any(not S.contains(g + n) for n in gens)
