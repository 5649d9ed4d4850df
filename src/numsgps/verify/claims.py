"""Per-semigroup checkers for the structural claims the harness verifies.

Each claim is a pure function of a ClaimContext and returns a status
(pass, fail, inapplicable) plus an optional payload; fail payloads carry
a full counterexample.  Claims quantified over an NG-vector hold for
every NG-vector of the semigroup.  Vector sets are Cartesian products of
per-position candidate sets and can be astronomically large (factorial in
the embedding dimension for maximal-embedding-dimension semigroups), so
the quantified claims are decided through the product structure instead
of enumeration:

- the matrix statements COPPIE, FIRST_ZERO and SAME2 can fail only if a
  computed pseudo-Frobenius number lies in S, so once one applies it is
  decided by a single check of the pseudo-Frobenius set per semigroup
  (ClaimContext.pf_premise); each claim's docstring carries its proof.
  Whether one applies is read off the pseudo-Frobenius numbers some
  vector keeps outside its entries (ClaimContext.avoidable: those no
  candidate set holds alone, nu + t steps), and none applies when none
  is avoidable.  SAME2 reads its extremal gaps off the pseudo-Frobenius
  set instead of the extremal gap table, compares no lambda (the pairs
  are unordered), and asks whether a vector avoids a pair by one lookup
  among the two-element candidate sets;
- vector-entry statements (all entries distinct, forced prefix values)
  become distinct-representative questions over the candidate sets.
  While no position j admits an entry outside the forced values
  F - n_k + n_1 for k <= j, the forced prefix is the only distinct
  choice, so each question is a set test on it (see claim_ngv_props).
  Only a failure payload runs a bipartite matching;
- NGV_PROPS's companion statements can fail only at an entry off F
  without a companion position, so one set test over all the candidate
  sets (gorenstein.companions_complete) passes most semigroups, and the
  per-position scan runs only when it finds such an entry.

Work shared between claims is done once per semigroup (the facts every
record reads are built with the context, the others on their first
access, without a lock), every pass or inapplicable verdict without a
payload is one shared ClaimResult, and NGV_PROPS asks whether a number
is a combination of the later generators without enumerating
factorizations: by one divisor scan over them, and only for the numbers
none of them divides, through one reachability bitmask.  NGV_PROPS keeps each
position's entries without a companion unsorted and only tests whether
they exist; a failure payload names the largest, found only then.  The
candidate prefix, the companion rule (companion_finder, a plain function
of the generators, F, the position and the entry, which FIRST_ZERO and
NGV_PROPS call per entry) and its set test come from gorenstein;
canonical_claims is the one check of claim names and their order, and
run_claims gives the results in it.

Vectors are enumerated only for five-generated semigroups, as the
product of the candidate sets: THM_3DISTINCT, the PF1/PF2/MU bounds and
PF2_TWO_ZEROES read each vector's (entries, pf1, pf2) from
ClaimContext.classifications (read off each pseudo-Frobenius number's
hit cells, with no witness and no vector re-validated).  No explicit
matrix is built; PF2_TWO_ZEROES reads per-row factorization lists.  The
literal per-vector and per-matrix routes are kept in the tests as
cross-checks of the factored ones and of the matrix statements.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from ..core import NumericalSemigroup
from ..errors import InvalidArgumentError
from ..gorenstein import (
    candidate_prefix,
    companion_finder,
    companions_complete,
    count_choices,
    is_almost_symmetric,
    nearly_gorenstein_via_trace,
)
from ..rf import (
    classification_variance,
    classify_vectors,
    max_gap_table,
    minus_row_lists,
    mu_bound,
    plus_row_lists,
)

PASS = "pass"
FAIL = "fail"
NA = "inapplicable"

@dataclass(frozen=True)
class ClaimResult:
    status: str
    payload: dict | None = None


# every pass or inapplicable verdict without a payload is one of these
PASSED = ClaimResult(PASS)
INAPPLICABLE = ClaimResult(NA)


class _field(cached_property):
    """cached_property without the RLock Python 3.11 takes on every first
    access; a context is used by one thread only."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


class ClaimContext:
    """The shared facts of one semigroup.

    The facts every record reads (pseudo-Frobenius set, candidate sets,
    NG and AS verdicts, the avoidable pseudo-Frobenius numbers and the
    varying ones) are computed with the context; the rest (vector count,
    premise, classifications, extremal gap table) at most once, on the
    first access of a claim that reads them.

    The claims' domain is nu >= 2: for N, which the single-semigroup
    layers answer, the candidates and both verdicts stay None (null in
    the report), and every claim is inapplicable.

    candidate_prefix's sets: nearly_gorenstein is all(candidates), and
    vector_count is 0 unless it holds; every other reader checks
    nearly_gorenstein or avoidable first, so sees full lists only.
    avoidable holds the pseudo-Frobenius numbers f that some NG-vector
    keeps outside its entries: every candidate set has a member other
    than f.  Empty unless the semigroup is proper and nearly Gorenstein;
    then every set is nonempty, so c - {f} is empty iff c == {f}, and the
    avoidable f are those no set holds alone.  varying is
    classification_variance: the avoidable f that are pf1 for some
    NG-vector and pf2 for another, by one hit test per candidate; 39 of
    <23, 25, 26, 27, 37, 40, 43, 55> (genus 45) is one.
    """

    def __init__(self, S: NumericalSemigroup):
        self.S = S
        self.nu = len(S.generators)
        self.pf = pf = S.pseudo_frobenius()
        self.candidates = self.nearly_gorenstein = self.almost_symmetric = None
        self.avoidable = self.varying = ()
        if self.nu < 2:
            return
        self.candidates = cands = candidate_prefix(S)
        self.nearly_gorenstein = all(cands)
        self.almost_symmetric = is_almost_symmetric(S)
        if self.nearly_gorenstein:
            sole = {f for c in cands if len(c) == 1 for f in c}
            self.avoidable = avoidable = tuple(f for f in pf if f not in sole)
            if avoidable:
                self.varying = classification_variance(S, cands, avoidable)

    @_field
    def vector_count(self) -> int:
        return 0 if self.candidates is None else count_choices(self.candidates)

    @_field
    def classifications(self) -> list[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
        """(entries, pf1, pf2) of every NG-vector, in ng_vectors' order
        (rf.classify_vectors); only the five-generated claims read it."""
        return classify_vectors(self.S, self.candidates)

    @_field
    def gap_table(self) -> dict[tuple[int, int], int]:
        """max_gap_table; only the five-generated claims read it."""
        return max_gap_table(self.S)

    @_field
    def pf_premise(self) -> dict | None:
        """None when the computed pseudo-Frobenius set passes the textbook
        test: the Frobenius number and every f in it lie outside S, and
        f + n_i lies in S for every generator n_i; else the failure
        payload naming the first offending number.

        The premise puts f + s in S for every nonzero s in S, which is
        all the matrix claims need (see their docstrings).  It costs
        (nu + 1) * t + 1 Apery lookups, t the type, and reuses neither
        route that produces the set: Apery maximality for a semigroup
        built from generators, the parent's set for one built by the
        genus-tree walk.  x is in S iff x >= a[x % m], a the Apery set
        (no negative x passes).
        """
        S = self.S
        a, m, F = S.apery, S.generators[0], S.frobenius
        if F >= a[F % m]:
            return {"f": F, "reason": "Frobenius number in S"}
        for f in self.pf:
            if f >= a[f % m]:
                return {"f": f, "reason": "pseudo-Frobenius number in S"}
            for n in S.generators:
                x = f + n
                if x < a[x % m]:
                    return {"f": f, "generator": n, "reason": "f + n not in S"}
        return None


def _fail(ctx: ClaimContext, **payload) -> ClaimResult:
    base = {"generators": list(ctx.S.generators), "pf": list(ctx.pf)}
    base.update(payload)
    return ClaimResult(FAIL, base)


def _premise_result(ctx: ClaimContext) -> ClaimResult:
    bad = ctx.pf_premise
    return PASSED if bad is None else _fail(ctx, **bad)


def _augment(
    pools: list[list[int]], owner: dict[int, int], i: int, banned: set[int]
) -> bool:
    """Give set i a value, moving earlier owners along an augmenting path."""
    for v in pools[i]:
        if v in banned:
            continue
        banned.add(v)
        if v not in owner or _augment(pools, owner, owner[v], banned):
            owner[v] = i
            return True
    return False


def _distinct_choice(sets: list) -> list[int] | None:
    """A pairwise-distinct choice (one value per set) when one exists,
    else None: augmenting-path matching, one set at a time, values tried
    largest first."""
    pools = [sorted(s, reverse=True) for s in sets]
    owner: dict[int, int] = {}
    for i in range(len(pools)):
        if not _augment(pools, owner, i, set()):
            return None
    choice = [0] * len(pools)
    for v, i in owner.items():
        choice[i] = v
    return choice


# ----------------------------------------------------------------------
# type bounds


def _type_at_most(ctx: ClaimContext, bound: int) -> ClaimResult:
    t = len(ctx.pf)
    return PASSED if t <= bound else _fail(ctx, type=t)


def claim_herzog3(ctx: ClaimContext) -> ClaimResult:
    """Three-generated semigroups have type at most 2."""
    return _type_at_most(ctx, 2) if ctx.nu == 3 else INAPPLICABLE


def claim_ng4_type3(ctx: ClaimContext) -> ClaimResult:
    """Four-generated nearly Gorenstein semigroups have type at most 3."""
    return _type_at_most(ctx, 3) if ctx.nu == 4 and ctx.nearly_gorenstein else INAPPLICABLE


def claim_as4_type3(ctx: ClaimContext) -> ClaimResult:
    """Four-generated almost symmetric semigroups have type at most 3."""
    return _type_at_most(ctx, 3) if ctx.nu == 4 and ctx.almost_symmetric else INAPPLICABLE


def claim_thm_main(ctx: ClaimContext) -> ClaimResult:
    """Five-generated, nearly Gorenstein, not almost symmetric: type <= 40."""
    five = ctx.nu == 5 and ctx.nearly_gorenstein and not ctx.almost_symmetric
    return _type_at_most(ctx, 40) if five else INAPPLICABLE


def claim_thm_3distinct(ctx: ClaimContext) -> ClaimResult:
    """Five-generated nearly Gorenstein with an NG-vector whose first
    three entries are pairwise distinct: type <= 5 and every
    pseudo-Frobenius number is one of f_1, f_2, f_3 and the two extremal
    gaps between the last two generators."""
    if ctx.nu != 5 or not ctx.nearly_gorenstein:
        return INAPPLICABLE
    eligible = [entries for entries, _, _ in ctx.classifications if len(set(entries[:3])) == 3]
    if not eligible:
        return INAPPLICABLE
    allowed_tail = {ctx.gap_table[(4, 5)], ctx.gap_table[(5, 4)]}
    for entries in eligible:
        allowed = set(entries[:3]) | allowed_tail
        if len(ctx.pf) > 5 or not set(ctx.pf) <= allowed:
            return _fail(ctx, vector=list(entries), allowed=sorted(allowed), type=len(ctx.pf))
    return PASSED


def claim_pf2_bound(ctx: ClaimContext) -> ClaimResult:
    """|PF2| <= 6 for every NG-vector (nu = 5, NG, not AS)."""
    if ctx.nu != 5 or not ctx.nearly_gorenstein or ctx.almost_symmetric:
        return INAPPLICABLE
    for entries, _, pf2 in ctx.classifications:
        if len(pf2) > 6:
            return _fail(ctx, vector=list(entries), pf2=list(pf2))
    return PASSED


def claim_pf1_bound(ctx: ClaimContext) -> ClaimResult:
    """|PF1| <= 31, and <= 30 once the NG-vector has at least two entries
    different from the Frobenius number (nu = 5, NG, not AS)."""
    if ctx.nu != 5 or not ctx.nearly_gorenstein or ctx.almost_symmetric:
        return INAPPLICABLE
    F = ctx.S.frobenius
    for entries, pf1, _ in ctx.classifications:
        bound = 30 if sum(1 for e in entries if e != F) >= 2 else 31
        if len(pf1) > bound:
            return _fail(ctx, vector=list(entries), pf1=list(pf1), bound=bound)
    return PASSED


def claim_mu_bound(ctx: ClaimContext) -> ClaimResult:
    """|PF1| <= 38 - sum C(mu_s - 1, 2) (nu = 5, NG, not AS).  The bound
    reads a vector through its pf1 alone, so each pf1 is bounded once."""
    if ctx.nu != 5 or not ctx.nearly_gorenstein or ctx.almost_symmetric:
        return INAPPLICABLE
    bounds = {}
    for entries, pf1, _ in ctx.classifications:
        if pf1 not in bounds:
            bounds[pf1] = mu_bound(ctx.gap_table, pf1)
        mus, bound = bounds[pf1]
        if len(pf1) > bound:
            return _fail(ctx, vector=list(entries), pf1=list(pf1), mus=list(mus), bound=bound)
    return PASSED


# ----------------------------------------------------------------------
# matrix statements


def claim_coppie(ctx: ClaimContext) -> ClaimResult:
    """For every NG-vector and every f outside it, every (additive,
    subtractive) matrix pair multiplies to zero entrywise off the
    diagonal.

    A row entry at column k is nonzero only if the row value minus n_k
    lies in S.  So column k of the additive row at j and column j of the
    subtractive row at k (vector entry g) are both nonzero only if
    d = f + n_j - n_k and g - d both lie in S.  Then g = d + (g - d) lies
    in S; but g is a candidate, so a pseudo-Frobenius number, which the
    premise keeps outside S.  Inapplicable when no f lies outside some
    vector.
    """
    return _premise_result(ctx) if ctx.avoidable else INAPPLICABLE


def claim_first_zero(ctx: ClaimContext) -> ClaimResult:
    """With h the first vector position whose entry leaves the Frobenius
    number and ell its companion, every subtractive matrix of every f
    outside the vector vanishes at (h, ell) and (ell, h), and the h-row
    and ell-row choices coincide outside those two columns.

    Both rows factor the same value F + n_ell - f, so the statements fail
    only if F - f or f_h - f lies in S.  F - f in S (nonzero, as f != F)
    would put F = f + (F - f) in S, and f_h - f in S with f_h != f would
    put the candidate f_h in S; the premise excludes both.  Inapplicable
    when no such (h, ell) exists or no f other than F and f_h lies
    outside some vector; so at once when no number is avoidable, which
    covers every semigroup that is not nearly Gorenstein.
    """
    avoidable = ctx.avoidable
    if not avoidable:
        return INAPPLICABLE
    gens = ctx.S.generators
    F = ctx.S.frobenius
    cands = ctx.candidates
    # an avoidable f outside {F, g} exists iff more numbers are avoidable
    # than F and g account for (g != F below)
    spare = len(avoidable) - (F in avoidable)
    for h0 in range(1, len(cands)):
        if F not in cands[h0 - 1]:
            break
        # F has no companion: F - F + n_h0 is n_h0 itself
        for g in cands[h0]:
            if spare > (g in avoidable) and companion_finder(gens, F, h0, g) is not None:
                return _premise_result(ctx)
    return INAPPLICABLE


def _two_zero_payload(lists) -> dict | None:
    """Exact decision of: every matrix assembled from these row lists has
    exactly two zeroes in every row and every column.  Each row choice
    must carry exactly two zeroes at positions independent of the choice
    (otherwise some assembled matrix breaks a column count), and the
    fixed positions must hit every column twice."""
    fixed = []
    for i, lst in enumerate(lists):
        shapes = {frozenset(j for j, c in enumerate(row) if c == 0) for row in lst}
        if len(shapes) != 1:
            return {"row": i + 1, "reason": "zero positions vary across choices"}
        (shape,) = shapes
        if len(shape) != 2:
            return {"row": i + 1, "reason": f"{len(shape)} zeroes in a row"}
        fixed.append(shape)
    for j in range(len(lists)):
        col = sum(1 for shape in fixed if j in shape)
        if col != 2:
            return {"column": j + 1, "reason": f"{col} zeroes in a column"}
    return None


def claim_pf2_two_zeroes(ctx: ClaimContext) -> ClaimResult:
    """Every matrix of an f in PF2 (nu = 5) has exactly two zeroes in
    each row and each column, on both the additive and subtractive side."""
    if ctx.nu != 5 or not ctx.nearly_gorenstein:
        return INAPPLICABLE
    checked = False
    for entries, _, pf2 in ctx.classifications:
        for f in pf2:
            checked = True
            bad = _two_zero_payload(plus_row_lists(ctx.S, f))
            if bad is not None:
                return _fail(ctx, vector=list(entries), f=f, side="plus", **bad)
            bad = _two_zero_payload(minus_row_lists(ctx.S, entries, f))
            if bad is not None:
                return _fail(ctx, vector=list(entries), f=f, side="minus", **bad)
    return PASSED if checked else INAPPLICABLE


def claim_same2(ctx: ClaimContext) -> ClaimResult:
    """If two distinct pseudo-Frobenius numbers are both extremal gaps
    over the same generator, f = M_{p,s} and f' = M_{q,s} with
    lambda_{ps} >= lambda_{qs}, then for every NG-vector keeping both
    outside its entries, every subtractive matrix of f has a zero at
    (q, p).

    Both extremal gaps carry single-generator additive rows, so they land
    in PF1 for every such vector and the hypotheses reduce to the numeric
    ones.  The q-row (vector entry g) has a nonzero entry at p only if g - d
    lies in S, d = f + n_p - n_q.  As M_{p,s} = lambda_{ps} * n_s - n_p,
    d = f' + (lambda_{ps} - lambda_{qs}) * n_s: either d = f', and g - f'
    is nonzero (g != f'), or d lies in S by the premise.  Either way g
    lands in S, which the premise excludes for a candidate.  Inapplicable
    when no such pair is avoided by some vector.

    Whether the claim applies needs no lambda.  The lambdas order the two
    numbers of a pair, one of its two orders has lambda_{ps} >=
    lambda_{qs}, and whether a vector keeps both outside its entries does
    not depend on the order.  So the claim applies iff, for some n_s, two
    avoidable extremal gaps over n_s are kept outside its entries by some
    vector, and the pairs are taken unordered.

    The extremal gaps that are pseudo-Frobenius numbers are read off the
    pseudo-Frobenius set, without the gap table.  If f is
    pseudo-Frobenius and n_s divides f + n_p (p != s), then f = M_{p,s}
    with lambda_{ps} = (f + n_p) / n_s: f lies outside S, f + k * n_s lies
    in S for every k >= 1, and lambda_{ps} >= 1 as f > 0.  Conversely an
    M_{p,s} in the pseudo-Frobenius set is such an f.  So f is one over
    n_s iff -f mod n_s is the residue of another generator: one lookup.
    Both numbers of a pair must be avoidable, so only those are scanned.
    A wrong extra entry in the computed set can only add extremal gaps,
    so the claim still applies, and the premise then fails it, wherever
    it applied before.

    Some vector keeps both f and f' outside its entries iff no set c has
    c - {f, f'} empty.  Avoidable numbers exist only when S is nearly
    Gorenstein, so every c is nonempty, and neither f nor f' is a set
    alone, so c - {f, f'} is empty iff c == {f, f'}: one lookup among
    the two-element sets per pair, built only once some n_s has two
    avoidable extremal gaps.
    """
    avoidable = ctx.avoidable
    if len(avoidable) < 2:
        return INAPPLICABLE
    gens = ctx.S.generators
    pairs = None
    for ns in gens:
        residues = {n % ns for n in gens if n != ns}
        group = [f for f in avoidable if -f % ns in residues]
        if len(group) < 2:
            continue
        if pairs is None:
            pairs = {c for c in ctx.candidates if len(c) == 2}
        if not pairs.issuperset(map(frozenset, combinations(group, 2))):
            return _premise_result(ctx)
    return INAPPLICABLE


# ----------------------------------------------------------------------
# NG-vector structure


def _reachable(gens: tuple[int, ...], bound: int) -> int:
    """Bit x set, for 0 <= x <= bound, iff x is a nonnegative combination
    of gens: each generator closes the set under adding it by doubling
    shifts (multiples 0..2**k - 1 after k of them)."""
    window = (1 << (bound + 1)) - 1
    reach = 1
    for n in gens:
        step = n
        while step <= bound:
            reach = (reach | reach << step) & window
            step <<= 1
    return reach


def _matching_failure(ctx: ClaimContext, forced: list[int]) -> ClaimResult:
    """The first of NGV_PROPS's distinct-choice statements to fail, with
    its payload: no full distinct choice, a distinct prefix of length
    nu - 1 exhausts PF, no distinct prefix entry leaves its forced value.
    Called only when one of them fails."""
    cands = ctx.candidates
    nu = len(cands)
    full = _distinct_choice(cands)
    if full is not None:
        return _fail(ctx, vector=full, reason="all entries distinct")
    prefix = _distinct_choice(cands[: nu - 1])
    if prefix is not None and set(ctx.pf) != set(prefix):
        vector = prefix + [max(cands[nu - 1])]
        return _fail(ctx, vector=vector, reason="distinct prefix does not exhaust PF")
    for j in range(1, nu):
        for a in sorted(cands[j] - {forced[j]}, reverse=True):
            head = _distinct_choice([c - {a} for c in cands[:j]])
            if head is not None:
                vector = head + [a] + [max(c) for c in cands[j + 1 :]]
                return _fail(
                    ctx, vector=vector, position=j + 1,
                    reason="distinct prefix entry off the forced value",
                )
    raise AssertionError("no distinct-choice statement fails")


def claim_ngv_props(ctx: ClaimContext) -> ClaimResult:
    """Structural facts holding for every NG-vector: the first entry is
    the Frobenius number; two entries coincide; a pairwise-distinct
    prefix forces entry j to F - n_j + n_1 and pushes every other
    pseudo-Frobenius number to a factorization over the later
    generators; a fully distinct prefix of length nu - 1 pins down the
    whole pseudo-Frobenius set; the first entry off F has a companion
    position, and the second one obeys the two-branch dichotomy.

    The last two statements fail only at an entry off F without a
    companion position: the first names such an entry, and an entry
    with a companion fits the dichotomy's first branch.  So when every
    candidate entry is F or has a companion (companions_complete, one
    set test over all the candidate sets) the claim passes without the
    per-position scan; at genus 16 that settles 3,913 of the 4,186
    nearly Gorenstein semigroups.  The test's proof is in its
    docstring."""
    if not ctx.nearly_gorenstein:
        return INAPPLICABLE
    S = ctx.S
    gens = S.generators
    nu = len(gens)
    F = S.frobenius
    cands = ctx.candidates

    if cands[0] != {F}:
        return _fail(
            ctx, candidates=sorted(cands[0]),
            reason="first entry is not pinned to F",
        )

    # forced[0] = F is cands[0].  If every position k < j has
    # cands[k] <= {forced[0], ..., forced[k]}, the only distinct choice of
    # cands[:j] is forced[:j] (none once j > imax).  So the forced-entry
    # rule first fails at the first j <= imax with an entry outside
    # forced[:j + 1]; without one, a full distinct choice exists iff
    # imax == nu, and one of cands[:nu - 1] iff imax >= nu - 1, where it
    # is forced[:nu - 1].  pinned grows to forced[:imax]; at j = imax,
    # forced[j] is not in cands[j], so testing it against forced[:j] is
    # the same test.
    m = gens[0]
    forced = [F - n + m for n in gens]
    pinned = {F}
    imax = 1
    while imax < nu and forced[imax] in cands[imax]:
        pinned.add(forced[imax])
        if not cands[imax] <= pinned:
            return _matching_failure(ctx, forced)
        imax += 1
    if (
        imax == nu
        or not cands[imax] <= pinned
        or (imax == nu - 1 and set(ctx.pf) != pinned)
    ):
        return _matching_failure(ctx, forced)

    # An unpinned f needs F - f + m to be a combination of the later
    # generators.  A multiple of one of them settles it; only the f left
    # over read the reachability mask, which is F bits wide, built on the
    # first of them, and for nu = 2 (every f pinned) never.
    later = gens[imax:]
    reach = None
    for f in ctx.pf:
        if f in pinned:
            continue
        v = F - f + m
        if 0 in map(v.__mod__, later):
            continue
        if reach is None:
            reach = _reachable(later, F + m)
        if not reach >> v & 1:
            return _fail(
                ctx, f=f, prefix_length=imax,
                reason="no factorization over the later generators",
            )

    # with every entry F or with a companion there is no orphan below,
    # so neither statement can fail (most semigroups end here); else
    # each position's entries off F without a companion position
    # (unsorted: a failure payload names the largest), and whether it
    # holds F, so that it has an entry off F iff len(c) > holds_f
    if companions_complete(gens, F, cands):
        return PASSED
    orphans = [
        [g for g in c if g != F and companion_finder(gens, F, h, g) is None]
        for h, c in enumerate(cands)
    ]
    holds_f = [F in c for c in cands]
    for h0 in range(1, nu):
        # every position before h0 holds F (earlier passes saw the others)
        if not holds_f[h0 - 1]:
            break
        if orphans[h0]:
            return _fail(
                ctx, h=h0 + 1, entry=max(orphans[h0]),
                reason="first entry off F has no companion position",
            )
        if len(cands[h0]) > holds_f[h0]:
            n0 = gens[h0]
            for h1 in range(h0 + 1, nu):
                # an entry without a companion needs gp - F + n_h1 to be a
                # positive multiple of n_h0 (most positions have none, and
                # the test skips building an empty list for them)
                if orphans[h1]:
                    shift = gens[h1] - F
                    misfits = [gp for gp in orphans[h1] if gp + shift <= 0 or (gp + shift) % n0]
                    if misfits:
                        return _fail(
                            ctx, h=h0 + 1, h_prime=h1 + 1, entry=max(misfits),
                            reason="second entry off F fits neither branch",
                        )
                if not holds_f[h1]:
                    break
    return PASSED


# ----------------------------------------------------------------------
# global predicates


def claim_as_implies_ng(ctx: ClaimContext) -> ClaimResult:
    """Almost symmetric (Nari's identity, which reads no candidate set)
    implies nearly Gorenstein (every candidate set nonempty).  N's
    almost_symmetric is None, so it is inapplicable."""
    if not ctx.almost_symmetric:
        return INAPPLICABLE
    if ctx.nearly_gorenstein:
        return PASSED
    return _fail(ctx, reason="almost symmetric but not nearly Gorenstein")


def claim_trace_eq(ctx: ClaimContext) -> ClaimResult:
    """The candidate-set route and the trace-ideal route agree (nu >= 2)."""
    if ctx.nu < 2:
        return INAPPLICABLE
    via_trace = nearly_gorenstein_via_trace(ctx.S)
    if via_trace == ctx.nearly_gorenstein:
        return PASSED
    return _fail(ctx, candidates=ctx.nearly_gorenstein, trace=via_trace)


def claim_question_ms(ctx: ClaimContext) -> ClaimResult:
    """Report-only: candidates against the open question (five-generated
    nearly Gorenstein with type above 5, or with type exactly 5 while not
    almost symmetric).  Never fails."""
    if ctx.nu != 5 or not ctx.nearly_gorenstein:
        return INAPPLICABLE
    t = len(ctx.pf)
    if t > 5 or (t == 5 and not ctx.almost_symmetric):
        return ClaimResult(
            PASS,
            {
                "generators": list(ctx.S.generators),
                "type": t,
                "almost_symmetric": bool(ctx.almost_symmetric),
            },
        )
    return PASSED


CLAIM_FUNCTIONS = {
    "HERZOG3": claim_herzog3,
    "NG4_TYPE3": claim_ng4_type3,
    "AS4_TYPE3": claim_as4_type3,
    "THM_MAIN": claim_thm_main,
    "THM_3DISTINCT": claim_thm_3distinct,
    "PF2_BOUND": claim_pf2_bound,
    "PF1_BOUND": claim_pf1_bound,
    "MU_BOUND": claim_mu_bound,
    "COPPIE": claim_coppie,
    "FIRST_ZERO": claim_first_zero,
    "NGV_PROPS": claim_ngv_props,
    "AS_IMPLIES_NG": claim_as_implies_ng,
    "TRACE_EQ": claim_trace_eq,
    "PF2_TWO_ZEROES": claim_pf2_two_zeroes,
    "SAME2": claim_same2,
    "QUESTION_MS": claim_question_ms,
}

CLAIM_NAMES = tuple(CLAIM_FUNCTIONS)

# QUESTION_MS is report-only: it never fails, it only flags candidates
ASSERTED_CLAIMS = tuple(n for n in CLAIM_NAMES if n != "QUESTION_MS")


def canonical_claims(names: tuple[str, ...]) -> tuple[str, ...]:
    """The named claims in CLAIM_NAMES order with duplicates dropped; InvalidArgumentError
    for a str or non-iterable names, or naming every entry of names that is no claim
    name (a list or any other entry that is no str included)."""
    if isinstance(names, str) or not isinstance(names, Iterable):
        raise InvalidArgumentError(f"claims must be a collection of claim names, got {names!r}")
    names = tuple(names)
    unknown = [n for n in names if not isinstance(n, str) or n not in CLAIM_FUNCTIONS]
    if unknown:
        raise InvalidArgumentError(f"unknown claims: {unknown}")
    chosen = frozenset(names)
    return tuple(n for n in CLAIM_NAMES if n in chosen)


def run_claims(
    S: NumericalSemigroup, names: tuple[str, ...] = CLAIM_NAMES
) -> tuple[tuple[ClaimResult, ...], ClaimContext]:
    """Evaluate the named claims on one semigroup; returns their results
    in the order of names, and the context (whose facts the caller may
    reuse).  The names are checked (canonical_claims) only when a lookup
    fails, and when names is a str, as "" would pass without one; so a
    census whose configuration checked them once pays one type test per
    semigroup."""
    if isinstance(names, str):
        canonical_claims(names)
    ctx = ClaimContext(S)
    try:
        results = tuple([CLAIM_FUNCTIONS[name](ctx) for name in names])
    except (KeyError, TypeError):
        canonical_claims(names)
        raise
    return results, ctx
