"""Canonical ideal, symmetry predicates, and nearly Gorenstein vectors.

A relative ideal is held by its least element in each residue class mod
the multiplicity m (RelativeIdeal.least), so the canonical and maximal
ideals cost m Apery lookups.  The trace route reads the max-plus
convolution of the Apery set with itself (apery_convolution: m**2 steps
from scratch, O(m) when the genus-tree walk carries it from the parent)
and tests each generator in m steps.  Almost symmetry is Nari's identity
2 * genus == frobenius + type.  Symmetry, the candidate sets and the
NG-vector test read only the pseudo-Frobenius set and Apery-set lookups
(at most nu * t**2, t the type).  The candidate sets come one position
at a time, so a verdict of "not nearly Gorenstein" stops at the first
empty one (candidate_prefix).  The NG-vectors are the product of the
candidate sets in vector_axes order; ng_vector_count counts them and
ng_vector_at decodes one by its index, both without listing the others.
Nothing here builds a window as wide as the Frobenius number.

Two routes to near-Gorensteinness are kept deliberately separate: the
candidate-set route (for every generator n_i there is some pseudo-Frobenius
f_i with n_i + f_i - f in S for all pseudo-Frobenius f) and the trace route
(the canonical ideal K and its dual S - K satisfy K + (S - K) >= M).  They
are compared against each other by the verification harness.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass
from operator import sub

from .core import NumericalSemigroup
from .errors import EmbeddingDimensionError, InvalidArgumentError, NotNearlyGorensteinError


@dataclass(frozen=True)
class RelativeIdeal:
    """A relative ideal of a semigroup of multiplicity m, given by its
    least element in each residue class mod m: least[r] is congruent to
    r, and the ideal is the union of the least[r] + mN."""

    least: tuple[int, ...]

    def contains(self, x: int) -> bool:
        return x >= self.least[x % len(self.least)]

    __contains__ = contains

    def is_ideal_of(self, S: NumericalSemigroup) -> bool:
        """True iff the set is a nonempty ideal contained in S: it is
        given mod the multiplicity of S, each least element lies in S,
        and least[r] + n stays in the set for every generator n (adding
        m never leaves it)."""
        m = S.multiplicity
        least = self.least
        return (
            len(least) == m
            and all(e % m == r and S.contains(e) for r, e in enumerate(least))
            and all(e + n >= least[(e + n) % m] for e in least for n in S.generators)
        )

    @classmethod
    def maximal_ideal(cls, S: NumericalSemigroup) -> "RelativeIdeal":
        """M(S): all nonzero elements, (m, a[1], ..., a[m - 1]) with a
        the Apery set."""
        return cls((S.multiplicity, *S.apery[1:]))


def _require_proper(S: NumericalSemigroup) -> None:
    if S.embedding_dimension < 2:
        raise EmbeddingDimensionError("operation needs a proper semigroup (at least 2 generators)")


def canonical_ideal(S: NumericalSemigroup) -> RelativeIdeal:
    """K(S) = {x : frobenius - x not in S}.  Its least element in class
    r mod the multiplicity m: x is in K iff F - x lies outside S iff
    x > F - a[F - x] (indices mod m, a the Apery set), so
    k[r] = F + m - a[F - r]."""
    F = S.frobenius
    m = S.multiplicity
    return RelativeIdeal(tuple(F + m - S.apery[(F - r) % m] for r in range(m)))


def is_symmetric(S: NumericalSemigroup) -> bool:
    """True iff the canonical ideal equals S itself, i.e. iff the
    Frobenius number is the only pseudo-Frobenius number."""
    return S.type == 1


def _candidate_sets(S: NumericalSemigroup) -> Iterator[frozenset[int]]:
    """Position i's candidate set, yielded in generator order: those
    pseudo-Frobenius g with n_i + g - f in S for every pseudo-Frobenius f
    (t**2 Apery lookups, t the type).  A caller that stops at the first
    empty set pays only for the positions up to it."""
    _require_proper(S)
    m = S.generators[0]
    apery = S.apery
    pf = S.pseudo_frobenius()
    for n in S.generators:
        cands = []
        for g in pf:
            base = n + g
            for f in pf:
                x = base - f
                if x < apery[x % m]:
                    break
            else:
                cands.append(g)
        yield frozenset(cands)


def ng_candidates(S: NumericalSemigroup) -> list[frozenset[int]]:
    """Per-generator candidate sets: position i holds those pseudo-Frobenius
    g with n_i + g - f in S for every pseudo-Frobenius f.

    The semigroup is nearly Gorenstein iff every set is nonempty; the first
    set is always a subset of {frobenius}.  This is the full list;
    is_nearly_gorenstein and candidate_prefix stop at the first empty set.
    """
    return list(_candidate_sets(S))


def candidate_prefix(S: NumericalSemigroup) -> list[frozenset[int]]:
    """The candidate sets up to and including the first empty one: all of
    them iff S is nearly Gorenstein."""
    out = []
    for c in _candidate_sets(S):
        out.append(c)
        if not c:
            break
    return out


def is_nearly_gorenstein(S: NumericalSemigroup) -> bool:
    return all(_candidate_sets(S))


def is_almost_symmetric(S: NumericalSemigroup) -> bool:
    """True iff n + frobenius - f lies in S for every generator n and every
    pseudo-Frobenius f, i.e. iff (frobenius, ..., frobenius) is an
    NG-vector.  Decided instead by Nari's identity: every numerical
    semigroup has 2 * genus >= frobenius + type, with equality iff it is
    almost symmetric (H. Nari, "Symmetries on almost symmetric numerical
    semigroups", Semigroup Forum 86, 2013).  O(1) once the type is known,
    and it reads no candidate set, so AS_IMPLIES_NG checks a theorem
    against the candidate sets."""
    _require_proper(S)
    return 2 * S.genus == S.frobenius + S.type


def nearly_gorenstein_via_trace(S: NumericalSemigroup) -> bool:
    """Independent route: K(S) + (S - K(S)) contains every nonzero element.

    A relative ideal is fixed by its least element in each residue class
    mod m, the multiplicity; with a the Apery set and indices mod m:
    - K: k[r] = F + m - a[F - r] (canonical_ideal);
    - S - K: K is the union of the k[r] + mN, so x is in S - K iff every
      x + k[r] is in S, and dual[s] = max over r of a[s + r] - k[r];
    - the trace is an ideal of S and M the union of the n_i + S, so M lies
      in the trace iff each n_i has some k[r] + dual[n_i - r] <= n_i.
    Substituting k gives dual[s] = c[F + s] - F - m, with c[j] = max over
    u of a[u] + a[j - u] (S.apery_convolution), and then
    k[r] + dual[n - r] = c[n + v] - a[v] with v = F - r.  So n lies in the
    trace iff min over v of c[n + v] - a[v] <= n; k and dual are never built.
    K comes from the Apery set, not as the union of F - f + S over the
    pseudo-Frobenius f, and c comes from the Apery set alone (built here,
    or carried down the genus tree from the parent's): reading PF or the
    candidate sets would collapse this route into the candidate-set route
    it is checked against.
    """
    _require_proper(S)
    m = S.generators[0]
    a = S.apery
    c = S.apery_convolution()
    # cc[n % m + v] is c[(n + v) % m] for v in [0, m)
    cc = c + c
    return all(min(map(sub, cc[n % m : n % m + m], a)) <= n for n in S.generators)


@dataclass(frozen=True)
class NGVector:
    """A nearly Gorenstein vector (f_1, ..., f_nu).

    entries[i] is the pseudo-Frobenius number attached to the (i+1)-th
    generator.  h is the smallest 1-based position whose entry differs
    from the Frobenius number (None when all entries equal it), and ell
    is the smallest 1-based position with f_h = F - n_h + n_ell; both
    follow the mathematical 1-based indexing of generator positions.
    """

    entries: tuple[int, ...]
    h: int | None
    ell: int | None


def companion(gens: tuple[int, ...], F: int, h: int, g: int) -> int | None:
    """The companion of an NG-vector entry g != F at 0-based position h:
    the one position ell < h with g = F - n_h + n_ell, else None."""
    target = g - F + gens[h]
    ell = bisect_left(gens, target, 0, h)
    return ell if ell < h and gens[ell] == target else None


def _divergence(S: NumericalSemigroup, entries: tuple[int, ...]) -> tuple[int | None, int | None]:
    F = S.frobenius
    for h, f in enumerate(entries):
        if f != F:
            ell = companion(S.generators, F, h, f)
            if ell is None:
                raise RuntimeError(
                    f"minimum-index property violated for {entries} of {S!r}"
                )
            return h + 1, ell + 1
    return None, None


def vector_axes(cands: list[frozenset[int]]) -> list[list[int]]:
    """The order of the NG-vectors of these candidate sets, written once:
    positions in generator order, each position's candidates descending,
    the last position varying fastest (itertools.product over the lists
    returned).  So the all-frobenius vector, when present, is first."""
    return [sorted(c, reverse=True) for c in cands]


def _ng_axes(S: NumericalSemigroup) -> list[list[int]]:
    cands = candidate_prefix(S)
    if not cands[-1]:
        n = S.generators[len(cands) - 1]
        raise NotNearlyGorensteinError(f"no admissible pseudo-Frobenius number for generator {n}")
    return vector_axes(cands)


def _vector_count(axes: list[list[int]]) -> int:
    return math.prod(map(len, axes))


def ng_vector_count(S: NumericalSemigroup) -> int:
    """len(ng_vectors(S)) without listing the vectors: the product of the
    candidate-set sizes.  Raises NotNearlyGorensteinError as ng_vectors."""
    return _vector_count(_ng_axes(S))


def ng_vectors(S: NumericalSemigroup) -> list[NGVector]:
    """All nearly Gorenstein vectors, in vector_axes order.

    Raises NotNearlyGorensteinError when some position admits no entry.
    """
    return [NGVector(e, *_divergence(S, e)) for e in itertools.product(*_ng_axes(S))]


def ng_vector_at(S: NumericalSemigroup, index: int) -> NGVector:
    """ng_vectors(S)[index] without listing the vectors: the index is
    decoded in mixed radix over the vector_axes lists, the last position
    the least significant digit.  Raises InvalidArgumentError for an index
    outside [0, count), and NotNearlyGorensteinError as ng_vectors."""
    axes = _ng_axes(S)
    count = _vector_count(axes)
    if not 0 <= index < count:
        raise InvalidArgumentError(
            f"NG-vector index {index} out of range (the semigroup has {count})"
        )
    entries = []
    for axis in reversed(axes):
        index, digit = divmod(index, len(axis))
        entries.append(axis[digit])
    entries = tuple(reversed(entries))
    return NGVector(entries, *_divergence(S, entries))


def is_ng_vector(S: NumericalSemigroup, entries: tuple[int, ...]) -> bool:
    """Membership test for the defining condition, without enumerating."""
    if len(entries) != S.embedding_dimension:
        return False
    pf = S.pseudo_frobenius()
    if any(f not in pf for f in entries):
        return False
    m = S.generators[0]
    apery = S.apery
    for n, g in zip(S.generators, entries):
        for f in pf:
            x = n + g - f
            if x < apery[x % m]:
                return False
    return True
