"""Row-factorization matrices and the induced splitting of the
pseudo-Frobenius set.

For a pseudo-Frobenius number f, an additive matrix has row i listing a
factorization of f + n_i with the diagonal entry replaced by -1, so every
row evaluates to f.  Given a nearly Gorenstein vector (f_1, ..., f_nu) and
f outside its entries, a subtractive matrix has row i factoring
n_i + f_i - f, again with diagonal -1, so row i evaluates to f_i - f.
Matrices of either kind are Cartesian products of independent row choices:
`plus_row_lists` / `minus_row_lists` give the choices per row,
`gorenstein.count_choices` (which counts the NG-vectors too) their
product, and `gorenstein.capped_product` (behind `rf_plus_iter` /
`rf_minus_iter`) streams the matrices as tuples of rows, row-major over
factorization lists that are themselves in descending lexicographic
order, or refuses them above `gorenstein.MATRIX_CAP`.

The extremal gaps lambda * n_j - n_i of max_gap_table are found by
bisection, since the qualifying lambda form an interval.

One hit test, a single-generator row of f + n_i or n_i + f_i - f, splits
the pseudo-Frobenius numbers outside each NG-vector (classify_vectors;
classify_pf alone lists the rows as witnesses) and finds those whose
split changes with the vector (classification_variance); 39 of
<23, 25, 26, 27, 37, 40, 43, 55> (genus 45) is one.

Row and column positions inside a matrix are plain 0-based Python
indices; the index fields of Witness and the keys of MaxGapTable are
1-based generator positions, matching the usual n_1 < ... < n_nu notation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from .core import NumericalSemigroup
from .errors import MismatchedPairError, NotPseudoFrobeniusError, VectorEntryError
from .gorenstein import _require_proper, capped_product, is_ng_vector, vector_axes


def rows_with_diagonal(factorizations: list[tuple[int, ...]], i: int) -> list[tuple[int, ...]]:
    """Factorizations of a row value as matrix rows with -1 at position i;
    the coefficient there vanishes because a nonzero one would place a
    pseudo-Frobenius difference inside S."""
    rows = []
    for coeffs in factorizations:
        assert coeffs[i] == 0
        rows.append(coeffs[:i] + (-1,) + coeffs[i + 1 :])
    return rows


def plus_row_lists(S: NumericalSemigroup, f: int) -> list[list[tuple[int, ...]]]:
    """Per-position row choices for the additive matrices of f."""
    if f not in S.pseudo_frobenius():
        raise NotPseudoFrobeniusError(f"{f} is not a pseudo-Frobenius number")
    return [
        rows_with_diagonal(S.factorization_tuples(f + n), i)
        for i, n in enumerate(S.generators)
    ]


def minus_row_lists(
    S: NumericalSemigroup, entries: Sequence[int], f: int
) -> list[list[tuple[int, ...]]]:
    """Per-position row choices for the subtractive matrices of f and the
    NG-vector with these entries."""
    entries = tuple(entries)
    if not is_ng_vector(S, entries):
        raise MismatchedPairError(f"{entries} is not a nearly Gorenstein vector of {S!r}")
    if f not in S.pseudo_frobenius():
        raise NotPseudoFrobeniusError(f"{f} is not a pseudo-Frobenius number")
    if f in entries:
        raise VectorEntryError(f"{f} occurs in the vector {entries}; no subtractive matrix")
    return [
        rows_with_diagonal(S.factorization_tuples(n + fi - f), i)
        for i, (n, fi) in enumerate(zip(S.generators, entries))
    ]


def rf_plus_iter(
    S: NumericalSemigroup, f: int
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The additive matrices of f, streamed by capped_product."""
    return capped_product(plus_row_lists(S, f), "matrices")


def rf_minus_iter(
    S: NumericalSemigroup, entries: Sequence[int], f: int
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The subtractive matrices of f for the NG-vector with these entries,
    streamed by capped_product."""
    return capped_product(minus_row_lists(S, entries, f), "matrices")


# ----------------------------------------------------------------------
# extremal gaps of the form lambda * n_j - n_i


@dataclass(frozen=True)
class MaxGapTable:
    """For each ordered pair of positions (i, j), i != j, 1-based:
    lam[(i, j)] is the largest lambda with lambda * n_j - n_i outside S,
    and gap[(i, j)] = lam[(i, j)] * n_j - n_i."""

    lam: dict[tuple[int, int], int]
    gap: dict[tuple[int, int], int]


def max_gap_table(S: NumericalSemigroup) -> MaxGapTable:
    """Largest non-member of the form lambda * n_j - n_i per pair.

    lambda = 1 always qualifies (n_j - n_i is negative or a non-member,
    as both are minimal generators), and the qualifying lambda form an
    interval 1..lambda*: adding n_j keeps a member in S.  So lambda* is
    found by bisection between 1 and the first lambda with
    lambda * n_j - n_i above the Frobenius number, in O(log(F / n_j))
    lookups per pair.
    """
    _require_proper(S)
    gens = S.generators
    F = S.frobenius
    m = gens[0]
    apery = S.apery
    lam: dict[tuple[int, int], int] = {}
    gap: dict[tuple[int, int], int] = {}
    for i, ni in enumerate(gens, start=1):
        for j, nj in enumerate(gens, start=1):
            if i == j:
                continue
            # lo * n_j - n_i lies outside S, hi * n_j - n_i inside
            lo, hi = 1, (F + ni) // nj + 1
            while hi - lo > 1:
                mid = (lo + hi) // 2
                x = mid * nj - ni
                if x >= apery[x % m]:
                    hi = mid
                else:
                    lo = mid
            lam[(i, j)] = lo
            gap[(i, j)] = lo * nj - ni
    return MaxGapTable(lam, gap)


# ----------------------------------------------------------------------
# splitting of the pseudo-Frobenius numbers outside a vector


@dataclass(frozen=True)
class Witness:
    """A single-generator factorization certifying membership in the
    first class: for side "plus", f + n_i = lam * n_j; for side "minus",
    n_i + f_i - f = lam * n_j.  Positions i, j are 1-based."""

    side: str
    i: int
    j: int
    lam: int


@dataclass(frozen=True)
class PFClassification:
    """Split of the pseudo-Frobenius numbers outside the vector entries.

    pf1 holds those with some matrix row carrying nu - 2 zeroes
    (equivalently: a single-generator factorization witness); pf2 the
    rest.  All witnesses are recorded per number.
    """

    entries: tuple[int, ...]
    pf1: tuple[int, ...]
    pf2: tuple[int, ...]
    witnesses: dict[int, tuple[Witness, ...]]


def _single_generator_rows(gens: tuple[int, ...], i: int, value: int) -> list[tuple[int, int]]:
    """(j, value // n_j) for each 0-based position j != i whose generator
    divides the positive row value: the rows at i with nu - 2 zeroes."""
    if value <= 0:
        return []
    return [(j, value // n) for j, n in enumerate(gens) if value % n == 0 and j != i]


def _hit_cells(
    gens: tuple[int, ...], f: int, candidates: list[frozenset[int]]
) -> set[tuple[int, int]] | None:
    """The hits for f as (position, entry) cells over the candidates other
    than f, or None once a position's are all hits.

    A candidate g at position i is a hit when f + n_i or n_i + g - f has a
    single-generator row, and a vector keeping f outside its entries puts
    f in pf1 iff one of them is a hit.  A row of f + n_i makes a position
    all hits, so it is tested first.  None thus means that every vector
    keeping f outside puts f in pf1 (none keeps it when a set is {f}).
    """
    cells = set()
    for i, (n, c) in enumerate(zip(gens, candidates)):
        if _single_generator_rows(gens, i, f + n):
            return None
        rest = [g for g in c if g != f]
        hits = [(i, g) for g in rest if _single_generator_rows(gens, i, n + g - f)]
        if len(hits) == len(rest):
            return None
        cells.update(hits)
    return cells


def classify_pf(S: NumericalSemigroup, entries: Sequence[int]) -> PFClassification:
    """Classify every pseudo-Frobenius number outside the vector entries,
    with the rows of _hit_cells' two values at each position as witnesses.

    A row with nu - 2 zeroes exists iff the row value is an exact multiple
    of a single generator, so the scan is O(nu^2) divisibility checks per
    number and never enumerates matrices.
    """
    entries = tuple(entries)
    if not is_ng_vector(S, entries):
        raise MismatchedPairError(f"{entries} is not a nearly Gorenstein vector of {S!r}")
    gens = S.generators
    pf1, pf2, witnesses = [], [], {}
    for f in S.pseudo_frobenius():
        if f in entries:
            continue
        found = []
        for i, (n, entry) in enumerate(zip(gens, entries)):
            plus = _single_generator_rows(gens, i, f + n)
            minus = _single_generator_rows(gens, i, n + entry - f)
            cell = [Witness("plus", i + 1, j + 1, lam) for j, lam in plus]
            cell += [Witness("minus", i + 1, j + 1, lam) for j, lam in minus]
            # by generator position, the additive witness first
            found += sorted(cell, key=attrgetter("j"))
        witnesses[f] = tuple(found)
        (pf1 if found else pf2).append(f)
    return PFClassification(entries, tuple(pf1), tuple(pf2), witnesses)


def classify_vectors(
    S: NumericalSemigroup, candidates: list[frozenset[int]]
) -> list[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """(entries, pf1, pf2) of every vector in the product of the candidate
    sets, in ng_vectors' order (gorenstein.vector_axes), without witnesses;
    the caller vouches that the sets are S's own, so no vector is
    re-validated.  Each f's hits are found once (_hit_cells), and each
    vector reads its split off them.
    """
    pf = S.pseudo_frobenius()
    hit = {f: _hit_cells(S.generators, f, candidates) for f in pf}
    out = []
    for entries in itertools.product(*vector_axes(candidates)):
        pf1, pf2 = [], []
        for f in pf:
            if f not in entries:
                cells = hit[f]
                if cells is None or not cells.isdisjoint(enumerate(entries)):
                    pf1.append(f)
                else:
                    pf2.append(f)
        out.append((entries, tuple(pf1), tuple(pf2)))
    return out


def classification_variance(
    S: NumericalSemigroup, candidates: list[frozenset[int]], avoidable: Iterable[int]
) -> tuple[int, ...]:
    """The avoidable f (some NG-vector keeps them outside its entries)
    that are pf1 for one such vector and pf2 for another.

    The vectors avoiding f are the product of the sets c_i - {f}, none
    empty, and one puts f in pf1 iff one of its entries is a hit.  So f is
    pf1 for some vector iff some candidate is a hit, and pf2 for some iff
    no position's candidates are all hits: iff _hit_cells finds cells and
    no all-hit position.  It enumerates no vector.
    """
    return tuple(f for f in avoidable if _hit_cells(S.generators, f, candidates))


@dataclass(frozen=True)
class MuBound:
    """The per-position counts mu_s = #{i : gap[(i, s)] in pf1} for
    s = 1..5 (mus[s-1]) and the induced bound on |pf1|."""

    mus: tuple[int, ...]
    bound: int


def mu_bound(table: MaxGapTable, pf1: Iterable[int]) -> MuBound:
    """Counts of extremal gaps landing in the first class pf1, and the
    bound 38 - sum(C(mu_s - 1, 2)) they induce, read off the extremal gap
    table of a five-generated semigroup."""
    pf1 = set(pf1)
    mus = tuple(
        sum(1 for i in range(1, 6) if i != s and table.gap[(i, s)] in pf1)
        for s in range(1, 6)
    )
    bound = 38 - sum(math.comb(max(mu - 1, 0), 2) for mu in mus)
    return MuBound(mus, bound)
