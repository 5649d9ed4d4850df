"""Row-factorization matrices, pair compatibility, and PF splitting."""

import random
import time

import pytest

from numsgps import (
    EnumerationCapError,
    InvalidArgumentError,
    MismatchedPairError,
    NotPseudoFrobeniusError,
    NumericalSemigroup,
    VectorEntryError,
    classify_pf,
    is_nearly_gorenstein,
    max_gap_table,
    ng_vectors,
    rf_minus_iter,
    rf_plus_iter,
)
from numsgps import gorenstein
from numsgps.gorenstein import count_choices
from numsgps.rf import (
    _single_generator_rows,
    minus_row_lists,
    mu_bound,
    plus_row_lists,
)
from oracles import (
    brute_factorizations,
    brute_rf_minus,
    brute_rf_plus,
    check_coppie,
    gaps_to_generators,
    genus_tree_semigroups,
    random_generators,
    zero_pattern,
)

WORKED = (13, 45, 72, 79, 99)


def census(genus_max):
    for gaps in genus_tree_semigroups(genus_max):
        if gaps:
            yield NumericalSemigroup(gaps_to_generators(gaps))


def test_rf_plus_row_equations():
    S = NumericalSemigroup(WORKED)
    for f in S.pseudo_frobenius():
        for M in rf_plus_iter(S, f):
            for i, row in enumerate(M):
                assert row[i] == -1
                assert all(c >= 0 for j, c in enumerate(row) if j != i)
                assert sum(c * n for c, n in zip(row, WORKED)) == f


def test_rf_minus_row_equations():
    S = NumericalSemigroup(WORKED)
    vec = ng_vectors(S)[1]
    f = 59
    for M in rf_minus_iter(S, vec["entries"], f):
        for i, row in enumerate(M):
            assert row[i] == -1
            assert sum(c * n for c, n in zip(row, WORKED)) == vec["entries"][i] - f


def test_rf_plus_matches_bruteforce_census():
    checked = 0
    for S in census(7):
        for f in S.pseudo_frobenius():
            if count_choices(plus_row_lists(S, f)) > 300:
                continue
            got = sorted(rf_plus_iter(S, f))
            want = sorted(brute_rf_plus(S.generators, f))
            assert got == want
            checked += 1
    assert checked > 100


def test_rf_minus_matches_bruteforce_census():
    checked = 0
    for S in census(7):
        if not is_nearly_gorenstein(S):
            continue
        pf = S.pseudo_frobenius()
        for vec in ng_vectors(S)[:3]:
            for f in pf:
                if f in vec["entries"]:
                    continue
                if count_choices(minus_row_lists(S, vec["entries"], f)) > 300:
                    continue
                got = sorted(rf_minus_iter(S, vec["entries"], f))
                want = sorted(brute_rf_minus(S.generators, vec["entries"], f))
                assert got == want
                checked += 1
    assert checked > 30


def test_counts_match_enumeration():
    S = NumericalSemigroup(WORKED)
    vec = ng_vectors(S)[0]
    for f in S.pseudo_frobenius():
        assert count_choices(plus_row_lists(S, f)) == len(list(rf_plus_iter(S, f)))
        if f not in vec["entries"]:
            rows = minus_row_lists(S, vec["entries"], f)
            assert count_choices(rows) == len(list(rf_minus_iter(S, vec["entries"], f)))


def test_enumeration_cap(monkeypatch):
    S = NumericalSemigroup((5, 6, 7, 8, 9))
    count = count_choices(plus_row_lists(S, 4))
    assert count == 4
    monkeypatch.setattr(gorenstein, "MATRIX_CAP", 3)
    with pytest.raises(EnumerationCapError) as exc:
        rf_plus_iter(S, 4)
    assert exc.value.count == 4
    assert exc.value.cap == 3
    monkeypatch.setattr(gorenstein, "MATRIX_CAP", 4)
    assert len(list(rf_plus_iter(S, 4))) == 4


def test_rf_plus_rejects_non_pf():
    S = NumericalSemigroup(WORKED)
    with pytest.raises(NotPseudoFrobeniusError):
        rf_plus_iter(S, 60)


def test_rf_minus_rejects_vector_entry():
    S = NumericalSemigroup(WORKED)
    vec = ng_vectors(S)[0]
    with pytest.raises(VectorEntryError):
        rf_minus_iter(S, vec["entries"], 244)


def test_check_coppie_holds_on_census():
    # the compatibility A[j][k] * B[k][j] == 0 for every additive and
    # subtractive pair over the same avoided pseudo-Frobenius number
    checked = 0
    for S in census(7):
        if not is_nearly_gorenstein(S):
            continue
        pf = S.pseudo_frobenius()
        for vec in ng_vectors(S)[:2]:
            for f in pf:
                if f in vec["entries"]:
                    continue
                plus = list(rf_plus_iter(S, f))
                minus = list(rf_minus_iter(S, vec["entries"], f))
                if len(plus) * len(minus) > 200:
                    continue
                for A in plus:
                    for B in minus:
                        assert check_coppie(A, B)
                        checked += 1
    assert checked > 100


def test_zero_pattern():
    S = NumericalSemigroup(WORKED)
    M = next(rf_plus_iter(S, 59))
    pattern = zero_pattern(M)
    for i, row in enumerate(M):
        for j, c in enumerate(row):
            if i == j:
                assert not pattern[i][j]
            else:
                assert pattern[i][j] == (c == 0)


def test_max_gap_table_defining_property():
    rng = random.Random(11)
    systems = [NumericalSemigroup(WORKED), NumericalSemigroup((5, 7, 9, 11))]
    systems += census(10)
    systems += [NumericalSemigroup(random_generators(rng)) for _ in range(100)]
    checked = 0
    for S in systems:
        gaps = max_gap_table(S)
        gens = S.generators
        nu = len(gens)
        for i in range(1, nu + 1):
            for j in range(1, nu + 1):
                if i == j:
                    continue
                lam = (gaps[(i, j)] + gens[i - 1]) // gens[j - 1]
                value = lam * gens[j - 1] - gens[i - 1]
                assert gaps[(i, j)] == value
                assert lam >= 1
                assert not S.contains(value)
                top = (S.frobenius + gens[i - 1]) // gens[j - 1] + 2
                for k in range(lam + 1, top + 1):
                    assert S.contains(k * gens[j - 1] - gens[i - 1])
                checked += 1
    assert checked > 5000


def test_max_gap_table_is_logarithmic_in_the_frobenius_number():
    # F = 12k - 2, about 1.2e9; a downward scan over lambda took 13 s
    k = 10**8
    S = NumericalSemigroup((6, 6 * k + 1, 6 * k + 2, 6 * k + 3, 6 * k + 5))
    start = time.perf_counter()
    gaps = max_gap_table(S)
    assert time.perf_counter() - start < 1.0
    gens = S.generators
    lams = {(i, j): (gap + gens[i - 1]) // gens[j - 1] for (i, j), gap in gaps.items()}
    # only the lambda * 6 - n_i grow with k; the scan gave the same table
    # at k = 10, 100, 1000 and 10**8
    small = {(1, 3): 2, (3, 4): 2, (4, 2): 2, (5, 2): 3, (5, 3): 2}
    assert lams == {
        (i, j): (3 * k if i == 3 else 2 * k) if j == 1 else small.get((i, j), 1)
        for i in range(1, 6)
        for j in range(1, 6)
        if i != j
    }
    for (i, j), lam in lams.items():
        ni, nj = gens[i - 1], gens[j - 1]
        assert gaps[(i, j)] == lam * nj - ni
        assert not S.contains(lam * nj - ni)
        assert S.contains((lam + 1) * nj - ni)


def test_classify_pf_worked_example():
    S = NumericalSemigroup(WORKED)
    vec = ng_vectors(S)[1]["entries"]
    cls = classify_pf(S, vec)
    # the key order `sgp classify-pf --pretty` prints
    assert list(cls) == ["generators", "vector", "pf1", "pf2", "witnesses"]
    assert cls["generators"] == list(WORKED)
    assert cls["vector"] == vec
    assert cls["pf1"] == [59]
    assert cls["pf2"] == []
    assert cls["witnesses"]
    for w in cls["witnesses"]:
        assert list(w) == ["f", "side", "i", "j", "lam"]
        assert w["f"] == 59
        i, j, lam = w["i"] - 1, w["j"] - 1, w["lam"]
        if w["side"] == "plus":
            assert 59 + WORKED[i] == lam * WORKED[j]
        else:
            assert WORKED[i] + vec[i] - 59 == lam * WORKED[j]
        assert lam >= 1 and i != j


def test_classify_pf_rejects_bad_vector():
    S = NumericalSemigroup(WORKED)
    with pytest.raises(MismatchedPairError):
        classify_pf(S, (244, 244, 244, 244, 244))


def test_classify_pf_matches_row_scan():
    # membership in the first class == some additive or subtractive row
    # with a single nonzero off-diagonal entry; rows are shared across
    # matrices, so scanning per-position factorizations is exhaustive
    checked = 0
    for S in census(7):
        if not is_nearly_gorenstein(S) or S.embedding_dimension < 3:
            continue
        gens = S.generators
        for vec in ng_vectors(S)[:2]:
            cls = classify_pf(S, vec["entries"])
            for f in cls["pf1"] + cls["pf2"]:
                single = False
                for i, n in enumerate(gens):
                    others = gens[:i] + gens[i + 1 :]
                    for value in (f + n, vec["entries"][i] - f + n):
                        for combo in brute_factorizations(others, value):
                            if sum(1 for c in combo if c > 0) == 1:
                                single = True
                assert (f in cls["pf1"]) == single
                checked += 1
    assert checked > 20


def test_single_generator_rows_need_a_positive_value_and_another_position():
    # the PF split's one test.  On NG-vectors a row value n_i + f_i - f
    # is never a nonpositive multiple of a generator (f would lie in S),
    # so the census cannot tell whether the test refuses one; ask it here
    gens = (4, 6, 9)
    assert _single_generator_rows(gens, 0, 36) == [(1, 6), (2, 4)]
    assert _single_generator_rows(gens, 1, 36) == [(0, 9), (2, 4)]
    assert _single_generator_rows(gens, 2, 8) == [(0, 2)]
    for value in (0, -12, -36):
        assert _single_generator_rows(gens, 0, value) == []


def test_mu_values_worked_example():
    S = NumericalSemigroup(WORKED)
    vec = ng_vectors(S)[1]
    cls = classify_pf(S, vec["entries"])
    gaps = max_gap_table(S)
    mus, bound = mu_bound(gaps, cls["pf1"])
    assert len(mus) == 5
    pf1 = set(cls["pf1"])
    for s in range(1, 6):
        expect = sum(1 for i in range(1, 6) if i != s and gaps[(i, s)] in pf1)
        assert mus[s - 1] == expect
    assert bound <= 38
    assert len(cls["pf1"]) <= bound


@pytest.mark.parametrize("gens", [(3, 5, 7), (6, 7, 8, 9, 10, 11)])
def test_mu_bound_refuses_a_table_not_of_five_generators(gens):
    # three generators lack the pair (4, 1); six have pairs with n_6,
    # which a bound over s = 1..5 would ignore
    with pytest.raises(InvalidArgumentError, match="five-generated"):
        mu_bound(max_gap_table(NumericalSemigroup(gens)), [])

