"""Duplication, towers, and the named extremal families."""

import time
from functools import reduce
from math import gcd

import pytest

from numsgps import (
    EmptyGeneratorsError,
    FamilyPreconditionError,
    FamilyPropertyError,
    GeneratorTooLargeError,
    InvalidArgumentError,
    NotAlmostSymmetricError,
    NotAMemberError,
    NotAnIdealError,
    NotOddError,
    NumericalSemigroup,
    RelativeIdeal,
    backelin,
    duplication_tower,
    family_dim6,
    ideal_from_generators,
    is_almost_symmetric,
    is_nearly_gorenstein,
    is_symmetric,
    numerical_duplication,
    smallest_odd_generator,
)
from numsgps import construct
from numsgps.construct import _certified, dim6_progression, dim6_raw_generators
from numsgps.verify import semigroups_up_to
from oracles import literal_is_ideal_of


def test_duplication_spec_validation():
    S = NumericalSemigroup((3, 4, 5))
    M = RelativeIdeal.maximal_ideal(S)
    with pytest.raises(NotOddError):
        numerical_duplication(S, M, 4)
    with pytest.raises(NotAMemberError):
        numerical_duplication(S, M, 1)
    # 1 lies outside S; 4 + 5 = 9 is missing from the classes of 12, 4
    # and 5; 5 sits in the class of 1; an ideal given mod 4 is not one of
    # a semigroup of multiplicity 3
    for least in ((0, 1, 2), (12, 4, 5), (3, 5, 4), (4, 5, 6, 7)):
        bad = RelativeIdeal(least)
        assert not bad.is_ideal_of(S)
        with pytest.raises(NotAnIdealError):
            numerical_duplication(S, bad, 3)


def test_maximal_ideal_is_settled_by_one_comparison(monkeypatch):
    # every semigroup of genus <= 7: M(S) is accepted without one
    # membership test, and every near miss (one least element moved by
    # -m or +m) gets the element-by-element answer, so the lowered ones,
    # which put a gap into the set, are still refused
    semigroups = list(semigroups_up_to(7))
    near_misses = []
    for S in semigroups:
        least = RelativeIdeal.maximal_ideal(S).least
        m = len(least)
        for r in range(m):
            for step in (-m, m):
                near = (*least[:r], least[r] + step, *least[r + 1 :])
                near_misses.append((S, near, literal_is_ideal_of(S, near)))
    lookups = []
    contains = NumericalSemigroup.contains

    def counting(self, x):
        lookups.append(x)
        return contains(self, x)

    monkeypatch.setattr(NumericalSemigroup, "contains", counting)
    for S in semigroups:
        assert RelativeIdeal.maximal_ideal(S).is_ideal_of(S), S.generators
    assert lookups == []
    refused = 0
    for S, near, expected in near_misses:
        assert RelativeIdeal(near).is_ideal_of(S) == expected, (S.generators, near)
        refused += not expected
    assert 0 < refused < len(near_misses)


def test_duplication_example():
    S = NumericalSemigroup((3, 4, 5))
    D = numerical_duplication(S, RelativeIdeal.maximal_ideal(S), 3)
    assert D.generators == (6, 8, 9, 10, 11, 13)
    assert D.frobenius == 2 * S.frobenius + 3
    assert D.type == 2 * S.type + 1
    assert is_almost_symmetric(D)


def test_duplication_membership_identity():
    S = NumericalSemigroup((5, 7, 9))
    E = ideal_from_generators(S, (7, 10))
    for b in (5, 7, 19):
        D = numerical_duplication(S, E, b)
        for x in range(D.frobenius + D.generators[-1] + 2):
            if x % 2 == 0:
                assert D.contains(x) == S.contains(x // 2)
            else:
                assert D.contains(x) == ((x - b) // 2 in E)


def test_duplication_below_twice_the_multiplicity():
    # E = S and b = 5 give <5, 6>, whose multiplicity is below 2m = 6, so
    # the duplication identity is checked through apery_set(6)
    S = NumericalSemigroup((3, 5))
    E = ideal_from_generators(S, [0])
    D = numerical_duplication(S, E, 5)
    assert D.generators == (5, 6)
    for x in range(D.frobenius + 13):
        if x % 2 == 0:
            assert D.contains(x) == S.contains(x // 2)
        else:
            assert D.contains(x) == ((x - 5) // 2 in E)


def test_duplication_frobenius_law():
    # F(2S u (2E + b)) = 2 * (largest integer outside E) + b
    S = NumericalSemigroup((4, 9, 11))
    for elems in ((4, 9), (9, 11), (8, 13)):
        E = ideal_from_generators(S, elems)
        # everything from min(elems) + F + 1 on lies in min(elems) + S
        gap_top = max(x for x in range(min(elems) + S.frobenius + 1) if x not in E)
        for b in smallest_b_values(S, 2):
            D = numerical_duplication(S, E, b)
            assert D.frobenius == 2 * gap_top + b


def smallest_b_values(S, count):
    out = []
    x = 1
    while len(out) < count:
        if x % 2 == 1 and S.contains(x):
            out.append(x)
        x += 2
    return out


def test_duplication_type_law_on_almost_symmetric_bases():
    for gens in ((3, 4, 5), (4, 9, 11), (5, 6, 7, 8, 9), (6, 8, 9, 10, 11, 13)):
        S = NumericalSemigroup(gens)
        assert is_almost_symmetric(S)
        M = RelativeIdeal.maximal_ideal(S)
        for b in smallest_b_values(S, 2):
            D = numerical_duplication(S, M, b)
            assert D.type == 2 * S.type + 1
            assert D.embedding_dimension == 2 * S.embedding_dimension
            assert is_almost_symmetric(D)


def test_tower_on_small_base():
    S = NumericalSemigroup((3, 4, 5))
    chain = duplication_tower(S, 2)
    assert [T.embedding_dimension for T in chain] == [3, 6, 12]
    assert [T.type for T in chain] == [2, 5, 11]
    excess0 = S.type - 2 * S.embedding_dimension
    for i, T in enumerate(chain):
        assert T.type - 2 * T.embedding_dimension == (
            (1 << i) * excess0 + (1 << i) - 1
        )
        assert is_almost_symmetric(T)


def test_tower_rejects_non_almost_symmetric_seed():
    S = NumericalSemigroup((5, 6, 8))
    assert not is_almost_symmetric(S)
    with pytest.raises(NotAlmostSymmetricError):
        duplication_tower(S, 1)


def test_tower_from_trivial_seed():
    N = NumericalSemigroup((1,))
    chain = duplication_tower(N, 2)
    assert chain[1].generators == (2, 3)
    assert is_symmetric(chain[1])
    assert is_almost_symmetric(chain[2])


def test_tower_refuses_a_depth_that_is_not_an_integer():
    # True would otherwise build one level, and 1.5 fail at the limit's shift
    S = NumericalSemigroup((3, 4, 5))
    for depth in (True, 1.5, 1.0):
        with pytest.raises(InvalidArgumentError, match="must be an integer"):
            duplication_tower(S, depth)


def test_tower_depth_past_the_multiplicity_limit_is_refused_up_front():
    # the multiplicity doubles per level, so <3, 5> reaches 3 * 2^19 > 2^20
    # at depth 19; building the levels would take about a day
    S = NumericalSemigroup((3, 5))
    for depth in (19, 10**18):
        start = time.perf_counter()
        with pytest.raises(GeneratorTooLargeError):
            duplication_tower(S, depth)
        assert time.perf_counter() - start < 1


def test_tower_depth_bound_is_exact(monkeypatch):
    # with a limit of 24, <3, 5> may reach multiplicity 3 * 2^3 and N 2^4
    monkeypatch.setattr(construct, "MULTIPLICITY_LIMIT", 24)
    for S, deepest in ((NumericalSemigroup((3, 5)), 3), (NumericalSemigroup((1,)), 4)):
        chain = duplication_tower(S, deepest)
        assert chain[-1].multiplicity == S.multiplicity << deepest
        with pytest.raises(GeneratorTooLargeError):
            duplication_tower(S, deepest + 1)


def test_smallest_odd_generator():
    assert smallest_odd_generator(NumericalSemigroup((3, 4, 5))) == 3
    assert smallest_odd_generator(NumericalSemigroup((4, 6, 9))) == 9


def test_backelin_examples():
    B3 = backelin(3)
    assert B3.generators == (124, 127, 134, 135)
    assert not is_nearly_gorenstein(B3)
    B2 = backelin(2)
    assert B2.embedding_dimension == 4
    assert B2.type < B3.type
    with pytest.raises(FamilyPreconditionError) as info:
        backelin(1)
    assert info.value.condition == "T >= 2"


def test_family_certificate_fires_on_each_fault():
    # backelin(5)'s certificate as its docstring gives it: target f - 3 lam
    # with f = (3T+3) n_4 - n_1, and the predicted rows
    T = 5
    S = backelin(T)
    f = (3 * T + 3) * S.generators[3] - S.generators[0]
    cases = [
        (lam, f - 3 * lam, (
            (-1, 0, 3 * lam, 3 * T + 3 - 3 * lam),
            (0, -1, 3 * lam - 3, 3 * T + 6 - 3 * lam),
            (T + 4 + lam, 2 * T - lam, -1, 0),
            (2 * T + 3 + lam, T - lam, 1, -1),
        ))
        for lam in range(1, T + 1)
    ]
    assert _certified(S.generators, cases).generators == S.generators
    # raw and every printed row in reverse order certify the same
    # semigroup: the rows are read in raw's order
    reversed_cases = [
        (lam, target, tuple(row[::-1] for row in rows[::-1])) for lam, target, rows in cases
    ]
    assert _certified(S.generators[::-1], reversed_cases).generators == S.generators
    # 8 = 4 + 4 is redundant
    with pytest.raises(FamilyPropertyError, match="not a minimal system"):
        _certified((4, 6, 8, 9), [])
    lam, target, rows = cases[2]
    assert lam == 3
    broken_row = (rows[2][0] + 1,) + rows[2][1:]
    faults = {
        "is not pseudo-Frobenius": (lam, S.frobenius + 1, rows),
        f"for generator {S.generators[2]}": (lam, target, rows[:2] + (broken_row,) + rows[3:]),
        # lambda = 1's valid matrix, whose zero pattern is a boundary one
        "zero pattern": (lam, *cases[0][1:]),
    }
    for words, case in faults.items():
        with pytest.raises(FamilyPropertyError, match="lambda = 3") as exc:
            _certified(S.generators, cases[:2] + [case] + cases[3:])
        assert words in str(exc.value)


def test_duplication_checks_fire_on_each_fault():
    # numerical_duplication's four checks hold on every input, so each is
    # made to fire by a fault patched into what it reads
    S = NumericalSemigroup((3, 4, 5))
    M = RelativeIdeal.maximal_ideal(S)
    generated = ideal_from_generators(S, (3,))
    apery_set = NumericalSemigroup.apery_set

    def shifted_apery_set(mp):
        # the union's least elements mod 2m, each 2m too large
        mp.setattr(NumericalSemigroup, "apery_set", lambda T, n: [a + n for a in apery_set(T, n)])

    def generated_ideal_taken_for_maximal(mp):
        mp.setattr(RelativeIdeal, "maximal_ideal", classmethod(lambda cls, T: generated))

    def duplication_not_almost_symmetric(mp):
        mp.setattr(construct, "is_almost_symmetric", lambda T: T == S)

    def every_type_one(mp):
        # Nari's identity would refuse the base first, so AS is patched too
        mp.setattr(NumericalSemigroup, "type", property(lambda T: 1))
        mp.setattr(construct, "is_almost_symmetric", lambda T: True)

    faults = [
        (shifted_apery_set, M, "duplication identity fails mod 6: the least element "
                               "congruent to 0 is 6 instead of 0"),
        (generated_ideal_taken_for_maximal, generated,
         "embedding dimension 4 instead of 6 for a maximal-ideal duplication"),
        (duplication_not_almost_symmetric, M,
         "duplication of an almost symmetric base lost almost symmetry"),
        (every_type_one, M, "type 1 instead of 3"),
    ]
    for patch, E, message in faults:
        assert numerical_duplication(S, E, 3).generators
        with pytest.MonkeyPatch.context() as mp:
            patch(mp)
            with pytest.raises(FamilyPropertyError) as exc:
                numerical_duplication(S, E, 3)
        assert str(exc.value) == message


def test_dim6_example():
    S = family_dim6(2, 4, 3)
    assert dim6_raw_generators(2, 4, 3) == (30, 33, 51, 34, 37, 55)
    assert S.generators == (30, 33, 34, 37, 51, 55)
    progression = dim6_progression(2, 4, 3)
    assert progression == (69, 73)
    pf = S.pseudo_frobenius()
    for value in progression:
        assert value in pf
    assert is_almost_symmetric(S)
    assert S.type == 6


def test_dim6_preconditions():
    with pytest.raises(FamilyPreconditionError) as exc:
        family_dim6(3, 9, 3)
    assert "gcd" in exc.value.condition
    with pytest.raises(FamilyPreconditionError):
        family_dim6(6, 37, 6)
    with pytest.raises(FamilyPreconditionError):
        family_dim6(2, 3, 2)
    with pytest.raises(FamilyPreconditionError) as exc:
        family_dim6(3, 9, 2)
    assert (exc.value.condition, exc.value.value) == ("k >= T", 2)
    S = family_dim6(4, 16, 5)
    assert S.embedding_dimension == 6


def test_dim6_preconditions_settle_coprimality_and_distinctness():
    # family_dim6 checks neither: a common divisor of the six divides d,
    # so it is prime to k and divides T - 1 and T + 4, hence 5; and
    # n_j - n_i = d (i < j <= 3) would need k | d
    triples = fives = 0
    for T in range(1, 20):
        for k in range(1, 40):
            for d in range(1, 400):
                if gcd(d, k) != 1:
                    continue
                raw = dim6_raw_generators(T, d, k)
                common = reduce(gcd, raw)
                assert common in (1, 5)
                assert common == 1 or T % 5 == 1
                fives += common == 5
                if T % 5 != 1 and k >= T and d >= T * T:
                    assert len(set(raw)) == 6
                    triples += 1
    # the box reaches the excluded case, and many admissible triples
    assert fives > 0
    assert triples > 30000


def test_ideal_from_generators():
    S = NumericalSemigroup((3, 4, 5))
    E = ideal_from_generators(S, (4, 7))
    assert E.is_ideal_of(S)
    assert min(E.least) == 4
    for x in range(30):
        expected = (x - 4 >= 0 and S.contains(x - 4)) or (
            x - 7 >= 0 and S.contains(x - 7)
        )
        assert (x in E) == expected
    with pytest.raises(EmptyGeneratorsError):
        ideal_from_generators(S, [])


def test_family_round_trip():
    # regenerating from the printed generators reproduces every invariant
    for S in (
        backelin(3),
        family_dim6(2, 4, 3),
        numerical_duplication(
            NumericalSemigroup((3, 4, 5)),
            RelativeIdeal.maximal_ideal(NumericalSemigroup((3, 4, 5))),
            3,
        ),
    ):
        T = NumericalSemigroup(S.generators)
        assert T.generators == S.generators
        assert T.frobenius == S.frobenius
        assert T.genus == S.genus
        assert T.type == S.type
        assert T.pseudo_frobenius() == S.pseudo_frobenius()
