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
the pseudo-Frobenius numbers outside each NG-vector.  hit_table runs it
once per semigroup, mapping each avoidable f to its hit cells, and
classify_vectors reads every vector's split off that table.  The row rule
is written once, in multiple_of_one, one scan that stops at the first
divisor.  classify_pf alone lists the rows, as witnesses, and returns the
plain record `sgp classify-pf` emits.

Row and column positions inside a matrix are plain 0-based Python
indices; the i and j of a classify_pf witness and the keys of a
max_gap_table dict are 1-based generator positions, matching the usual
n_1 < ... < n_nu notation.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .core import NumericalSemigroup, require_int
from .errors import InvalidArgumentError, MismatchedPairError, NotPseudoFrobeniusError
from .errors import VectorEntryError
from .gorenstein import capped_product, is_ng_vector, vector_axes


def rows_with_diagonal(factorizations: list[tuple[int, ...]], i: int) -> list[tuple[int, ...]]:
    """Factorizations of a row value as matrix rows with -1 at position i;
    the coefficient there vanishes because a nonzero one would place a
    pseudo-Frobenius difference inside S."""
    rows = []
    for coeffs in factorizations:
        assert coeffs[i] == 0
        rows.append(coeffs[:i] + (-1,) + coeffs[i + 1 :])
    return rows


def _require_pseudo_frobenius(S: NumericalSemigroup, f: int) -> None:
    require_int("f", f)
    if f not in S.pseudo_frobenius():
        raise NotPseudoFrobeniusError(f"{f} is not a pseudo-Frobenius number")


def _require_ng_vector(S: NumericalSemigroup, entries: Sequence[int]) -> tuple[int, ...]:
    """The entries as a tuple, refused unless integers forming an NG-vector of S."""
    entries = tuple(entries)
    for f in entries:
        require_int("NG-vector entry", f)
    if not is_ng_vector(S, entries):
        raise MismatchedPairError(f"{entries} is not a nearly Gorenstein vector of {S!r}")
    return entries


def plus_row_lists(S: NumericalSemigroup, f: int) -> list[list[tuple[int, ...]]]:
    """Per-position row choices for the additive matrices of f."""
    _require_pseudo_frobenius(S, f)
    return [
        rows_with_diagonal(S.factorization_tuples(f + n), i)
        for i, n in enumerate(S.generators)
    ]


def minus_row_lists(
    S: NumericalSemigroup, entries: Sequence[int], f: int
) -> list[list[tuple[int, ...]]]:
    """Per-position row choices for the subtractive matrices of f and the
    NG-vector with these entries."""
    entries = _require_ng_vector(S, entries)
    _require_pseudo_frobenius(S, f)
    if f in entries:
        raise VectorEntryError(f"{f} occurs in the vector {entries}; no subtractive matrix")
    return [
        rows_with_diagonal(S.factorization_tuples(n + fi - f), i)
        for i, (n, fi) in enumerate(zip(S.generators, entries))
    ]


def rf_plus_iter(S: NumericalSemigroup, f: int) -> Iterator[tuple[tuple[int, ...], ...]]:
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


def max_gap_table(S: NumericalSemigroup) -> dict[tuple[int, int], int]:
    """Largest non-member of the form lambda * n_j - n_i per pair: the
    dict {(i, j): lambda* * n_j - n_i} over ordered pairs of 1-based
    positions i != j, lambda* the largest qualifying lambda, which is
    (gap + n_i) // n_j.

    lambda = 1 always qualifies (n_j - n_i is negative or a non-member,
    as both are minimal generators), and the qualifying lambda form an
    interval 1..lambda*: adding n_j keeps a member in S.  So lambda* is
    found by bisection between 1 and the first lambda with
    lambda * n_j - n_i above the Frobenius number, in O(log(F / n_j))
    lookups per pair.
    """
    gens = S.generators
    F = S.frobenius
    m = gens[0]
    apery = S.apery
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
            gap[(i, j)] = lo * nj - ni
    return gap


# ----------------------------------------------------------------------
# splitting of the pseudo-Frobenius numbers outside a vector


def multiple_of_one(numbers: tuple[int, ...], value: int) -> bool:
    """Whether value is positive and a multiple of one of these numbers:
    one scan that stops at the first divisor.  It is the PF split's one
    row rule, with numbers the generators other than the row's own: the
    row value has a row with nu - 2 zeroes iff it holds."""
    return value > 0 and 0 in map(value.__mod__, numbers)


def _single_generator_rows(gens: tuple[int, ...], i: int, value: int) -> list[tuple[int, int]]:
    """(j, value // n_j) for each 0-based position j != i whose generator
    alone passes multiple_of_one: the rows at i with nu - 2 zeroes, which
    classify_pf lists as witnesses."""
    return [(j, value // n) for j, n in enumerate(gens) if j != i and multiple_of_one((n,), value)]


def hit_table(
    gens: tuple[int, ...], pf: Iterable[int], candidates: list[frozenset[int]]
) -> dict[int, set[tuple[int, int]] | None]:
    """{f: cells} for the avoidable f of pf (no candidate set is {f}
    alone; the caller vouches that none is empty), in pf's order: the hits
    for f as (position, entry) cells over the candidates other than f, or
    None once a position's are all hits.

    g at position i is a hit when f + n_i or n_i + g - f passes
    multiple_of_one over the other generators, and a vector keeping f
    outside its entries puts f in pf1 iff one of them is a hit.  Such a
    vector can miss every hit iff no position is all hits, and meet one
    iff a hit exists: so None means pf1 for every such vector, and
    nonempty cells pf1 for one and pf2 for another.  Position 0's
    additive test, a row of f + m, comes first and settles most f (11,596
    of 12,444 at genus 16); it is the only test of f + m.  An f outside
    the entries of a vector e is avoidable (each c_i holds e_i != f), so
    the table holds every f a vector's split asks about.
    """
    sole = {f for c in candidates if len(c) == 1 for f in c}
    table = {}
    for f in pf:
        if f in sole:
            continue
        cells = set()
        for i, (n, c) in enumerate(zip(gens, candidates)):
            others = gens[:i] + gens[i + 1 :]
            if multiple_of_one(others, f + n):
                cells = None
                break
            rest = [g for g in c if g != f]
            hits = [(i, g) for g in rest if multiple_of_one(others, n + g - f)]
            if len(hits) == len(rest):
                cells = None
                break
            cells.update(hits)
        table[f] = cells
    return table


def classify_pf(S: NumericalSemigroup, entries: Sequence[int]) -> dict:
    """Classify every pseudo-Frobenius number outside the vector entries,
    with the rows of hit_table's two values at each position as witnesses:
    the record `sgp classify-pf` emits.  A witness {"f", "side", "i", "j",
    "lam"} says f + n_i = lam * n_j (side "plus") or
    n_i + f_i - f = lam * n_j (side "minus"), i and j 1-based; they come f
    ascending, then by i, then by j, the additive witness first.

    A row with nu - 2 zeroes exists iff the row value is an exact multiple
    of a single generator, so the scan is O(nu^2) divisibility checks per
    number and never enumerates matrices.
    """
    entries = _require_ng_vector(S, entries)
    gens = S.generators
    pf1, pf2, witnesses = [], [], []
    for f in S.pseudo_frobenius():
        if f in entries:
            continue
        found = []
        for i, (n, entry) in enumerate(zip(gens, entries)):
            cell = [
                (j, side, lam)
                for side, value in (("plus", f + n), ("minus", n + entry - f))
                for j, lam in _single_generator_rows(gens, i, value)
            ]
            # by generator position, the additive witness first
            cell.sort(key=itemgetter(0))
            for j, side, lam in cell:
                found.append({"f": f, "side": side, "i": i + 1, "j": j + 1, "lam": lam})
        (pf1 if found else pf2).append(f)
        witnesses += found
    return {
        "generators": list(gens),
        "vector": list(entries),
        "pf1": pf1,
        "pf2": pf2,
        "witnesses": witnesses,
    }


def classify_vectors(
    candidates: list[frozenset[int]], table: dict[int, set[tuple[int, int]] | None]
) -> list[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """(entries, pf1, pf2) of every vector in the product of the candidate
    sets, in ng_vectors' order (gorenstein.vector_axes), read off their
    hit_table: f is pf1 iff its cells are None or hold one of the vector's
    (position, entry) cells.  No hit test runs, no witness is built and no
    vector is re-validated (the caller vouches for the sets)."""
    out = []
    for entries in itertools.product(*vector_axes(candidates)):
        pf1, pf2 = [], []
        for f, cells in table.items():
            if f not in entries:
                hit = cells is None or not cells.isdisjoint(enumerate(entries))
                (pf1 if hit else pf2).append(f)
        out.append((entries, tuple(pf1), tuple(pf2)))
    return out


def mu_bound(gaps: dict[tuple[int, int], int], pf1: Iterable[int]) -> tuple[tuple[int, ...], int]:
    """(mus, bound): the per-position counts mu_s = #{i : gaps[(i, s)] in
    pf1} for s = 1..5 (mus[s-1]) of extremal gaps landing in the first
    class pf1, and the bound 38 - sum(C(mu_s - 1, 2)) they induce on
    |pf1|, read off the max_gap_table of a five-generated semigroup.
    Any other table is refused."""
    if gaps.keys() != set(itertools.permutations(range(1, 6), 2)):
        raise InvalidArgumentError("mu_bound needs the gap table of a five-generated semigroup")
    pf1 = set(pf1)
    mus = tuple(
        sum(1 for i in range(1, 6) if i != s and gaps[(i, s)] in pf1)
        for s in range(1, 6)
    )
    return mus, 38 - sum(math.comb(max(mu - 1, 0), 2) for mu in mus)
