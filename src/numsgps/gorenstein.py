"""Symmetry predicates and nearly Gorenstein vectors.

The trace route reads the max-plus convolution of the Apery set with
itself (apery_convolution: m**2 steps from scratch, O(m) when the
genus-tree walk carries it from the parent) and settles most generators
by one lookup in the Frobenius number's class (m steps for the rest,
and for the multiplicity), returning at the first generator outside the
trace.  Almost symmetry is Nari's identity 2 * genus == frobenius + type.  Symmetry and the candidate sets read
only the pseudo-Frobenius set and Apery-set lookups (at most nu * t**2,
t the type).  A candidate is tested against the pseudo-Frobenius numbers
largest first, whose shifted values are the likeliest gaps, dropped at
the first gap and kept at the first shifted value above the Frobenius
number, as every later one is larger; at the multiplicity's position
only F and F - m can pass.  The candidate sets come one position at a
time, so a
verdict of "not nearly Gorenstein" stops at the first empty one
(candidate_prefix), and so does the NG-vector test, which reads them.
The companion rule of an NG-vector entry is written once, in
companion_finder, a plain function of the generators, the Frobenius
number, the position and the entry (one search of the generators), and
companions_complete decides it for every entry of the candidate sets at
once by one set test.
The NG-vectors are the product of the candidate sets in vector_axes
order; ng_vector_at decodes one by its index without listing the
others.  Both it and ng_vectors return each vector as the plain record
`sgp ng-vectors` lists ({"entries", "h", "ell"}), built by _ng_record
alone.  count_choices counts such a product and capped_product lists
it, for ng_vectors and rf's matrices alike: above MATRIX_CAP it refuses
with the exact count before building a tuple.
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
from collections.abc import Iterator
from operator import sub

from .core import NumericalSemigroup, require_int
from .errors import EnumerationCapError, InvalidArgumentError, NotNearlyGorensteinError

# the most NG-vectors or matrices capped_product will stream
MATRIX_CAP = 10**6


def is_symmetric(S: NumericalSemigroup) -> bool:
    """True iff the canonical ideal equals S itself, i.e. iff the
    Frobenius number is the only pseudo-Frobenius number."""
    return S.type == 1


def _candidate_sets(S: NumericalSemigroup) -> Iterator[frozenset[int]]:
    """Position i's candidate set, yielded in generator order: those
    pseudo-Frobenius g with n_i + g - f in S for every pseudo-Frobenius f
    (at most t**2 Apery lookups, t the type).  A caller that stops at the
    first empty set pays only for the positions up to it.

    Each g is tested against f largest first, F first, and dropped at the
    first shifted value n_i + g - f outside S.  The test is a conjunction
    over f, so its order changes no set; it changes only how soon a
    rejection is found.  The largest f gives the smallest shifted value,
    and the smaller a number the likelier it is a gap (every number above
    F lies in S), so that order finds most rejections first: at genus 16
    it cuts the census's Apery lookups by about a third.

    The same order ends the test early on the other side: g is kept at
    the first f whose shifted value lies above S.frobenius, since every
    later f is smaller, so every later shifted value is larger and lies
    in S too.  The bound is S's own Frobenius number, not the largest
    computed pseudo-Frobenius number, so the sets are the full scan's
    for any computed set.  At genus 16 the census's Apery lookups here
    fall from 513,830 to 246,928.

    At position 0, n = m, only F and F - m are tested, F here the largest
    computed pseudo-Frobenius number: against f = F the shifted value
    m + g - F is negative for g < F - m and lies in (0, m) for
    F - m < g < F, a gap either way, as m is the least nonzero element.
    So the shortcut gives the full scan's set for any computed set (a
    true one never holds F - m, as F - m + m = F is a gap); at genus 16
    it drops 44,618 of the census's 206,653 (position, candidate)
    tests."""
    gens = S.generators
    m = gens[0]
    apery = S.apery
    frobenius = S.frobenius
    pf = S.pseudo_frobenius()
    descending = pf[::-1]
    F = descending[0]
    pools = [pf] * len(gens)
    pools[0] = (F - m, F) if F - m in pf else (F,)
    for n, pool in zip(gens, pools):
        cands = []
        for g in pool:
            base = n + g
            for f in descending:
                x = base - f
                if x > frobenius:
                    cands.append(g)
                    break
                if x < apery[x % m]:
                    break
            else:
                cands.append(g)
        yield frozenset(cands)


def candidate_prefix(S: NumericalSemigroup) -> list[frozenset[int]]:
    """The candidate sets up to and including the first empty one: all of
    them iff S is nearly Gorenstein.  The first set is always a subset of
    {frobenius}."""
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
    return 2 * S.genus == S.frobenius + S.type


def nearly_gorenstein_via_trace(S: NumericalSemigroup) -> bool:
    """Independent route: K(S) + (S - K(S)) contains every nonzero element.

    A relative ideal is fixed by its least element in each residue class
    mod m, the multiplicity; with a the Apery set and indices mod m:
    - K = {x : F - x not in S}: x is in K iff x > F - a[F - x], so
      k[r] = F + m - a[F - r];
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
    it is checked against.  M lies in the trace iff every generator does,
    so the loop returns False at the first generator outside it.

    A generator n != m is the Apery element of its class r = n mod m
    (n - m would make it reducible), so a[r] = n, and taking u = r in the
    max gives c[r + v] >= a[r] + a[v]: every c[n + v] - a[v] is at least
    n.  So n lies in the trace iff some v attains n.  The likeliest is
    v = F mod m, whose a[v] = F + m is the largest Apery element: over
    the proper semigroups of genus <= 16, it attains n for 61,654 of the
    68,178 generators n != m in the trace, and only a miss scans every
    v.  For n = m the minimum is compared as above.
    """
    m = S.generators[0]
    a = S.apery
    c = S.apery_convolution()
    if min(map(sub, c, a)) > m:
        return False
    top = S.frobenius + m
    v = top % m
    # cc[r + v] is c[(r + v) % m] for v in [0, m)
    cc = c + c
    for n in S.generators[1:]:
        r = n % m
        if cc[r + v] != n + top and n not in map(sub, cc[r : r + m], a):
            return False
    return True


def companion_finder(gens: tuple[int, ...], F: int, h: int, g: int) -> int | None:
    """The companion rule, written once: for an NG-vector entry g != F at
    0-based position h, the one position ell < h with g = F - n_h + n_ell,
    else None."""
    n = g - F + gens[h]
    if n in gens:
        ell = gens.index(n)
        if ell < h:
            return ell
    return None


def companions_complete(gens: tuple[int, ...], F: int, cands: list[frozenset[int]]) -> bool:
    """Whether every entry of every candidate set is F or has a companion
    position (companion_finder), by one set test over the semigroup:
    g + n_h lies in {F + n_ell : ell <= h} for every g at position h.

    g = F gives ell = h, and a companion ell < h gives g + n_h = F + n_ell.
    Conversely g + n_h = F + n_ell with ell <= h gives g = F at ell = h
    and the companion ell otherwise.  Every true candidate is a
    pseudo-Frobenius number, a gap, so at most F, and then F + n_ell
    with ell > h exceeds g + n_h: the test is {g + n_h} <= {F + n} over
    all generators.  The set grows with h, so the test stays exact for
    any candidate sets: a g above F whose g + n_h is F + n_ell for some
    ell > h has no companion, and fails it.
    """
    top = set()
    for n, c in zip(gens, cands):
        top.add(F + n)
        for g in c:
            if g + n not in top:
                return False
    return True


def _ng_record(S: NumericalSemigroup, entries: tuple[int, ...]) -> dict:
    """The record of one NG-vector, as `sgp ng-vectors` lists it: the
    pseudo-Frobenius number attached to each generator, then h, the first
    1-based position whose entry is not the Frobenius number, and ell,
    the 1-based companion position of h (f_h = F - n_h + n_ell); both
    None when every entry is the Frobenius number."""
    F = S.frobenius
    h = ell = None
    for pos, f in enumerate(entries):
        if f != F:
            ell = companion_finder(S.generators, F, pos, f)
            if ell is None:
                raise RuntimeError(f"minimum-index property violated for {entries} of {S!r}")
            h, ell = pos + 1, ell + 1
            break
    return {"entries": list(entries), "h": h, "ell": ell}


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


def count_choices(choices: list) -> int:
    """The number of tuples that take one item from each of these lists
    or sets of independent choices: the product of their sizes.  It counts
    the NG-vectors of candidate sets (or their vector_axes lists) and the
    matrices of per-row factorization lists."""
    return math.prod(map(len, choices))


def capped_product(choices: list, items: str) -> Iterator[tuple]:
    """Lazy stream of the tuples that take one item from each of these
    lists of choices, the last varying fastest.  Raises
    EnumerationCapError carrying the exact count, before any tuple is
    built, when there are more than MATRIX_CAP; items names what the
    tuples are ("matrices", "NG-vectors") in its message."""
    count = count_choices(choices)
    if count > MATRIX_CAP:
        raise EnumerationCapError(count, MATRIX_CAP, items)
    return itertools.product(*choices)


def ng_vectors(S: NumericalSemigroup) -> list[dict]:
    """The records (_ng_record) of all nearly Gorenstein vectors, in
    vector_axes order.

    Raises NotNearlyGorensteinError when some position admits no entry,
    and EnumerationCapError, before a vector is built, when there are
    more than MATRIX_CAP.
    """
    return [_ng_record(S, e) for e in capped_product(_ng_axes(S), "NG-vectors")]


def ng_vector_at(S: NumericalSemigroup, index: int) -> dict:
    """ng_vectors(S)[index] without listing the vectors: the index is
    decoded in mixed radix over the vector_axes lists, the last position
    the least significant digit.  Raises InvalidArgumentError for an index
    that is not an integer (core.require_int) or lies outside [0, count),
    and NotNearlyGorensteinError as ng_vectors."""
    require_int("NG-vector index", index)
    axes = _ng_axes(S)
    count = count_choices(axes)
    if not 0 <= index < count:
        raise InvalidArgumentError(
            f"NG-vector index {index} out of range (the semigroup has {count})"
        )
    entries = []
    for axis in reversed(axes):
        index, digit = divmod(index, len(axis))
        entries.append(axis[digit])
    return _ng_record(S, tuple(reversed(entries)))


def is_ng_vector(S: NumericalSemigroup, entries: tuple[int, ...]) -> bool:
    """Membership test for the defining condition, without enumerating:
    each entry lies in its position's candidate set, read up to the first
    position that fails.  A tuple of the wrong length is no NG-vector;
    N's one NG-vector is (-1,)."""
    if len(entries) != S.embedding_dimension:
        return False
    return all(g in c for g, c in zip(entries, _candidate_sets(S)))
