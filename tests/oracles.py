"""Independent reference implementations used to cross-check the package.

Everything here recomputes invariants from first principles with
deliberately different algorithms (coin-problem sieves, brute-force
quantifier scans, product-filter enumeration) so that agreement with the
library is meaningful evidence rather than a tautology.
"""

from __future__ import annotations

import random
from itertools import product
from math import gcd, prod
from operator import sub

from numsgps.construct import RelativeIdeal
from numsgps.gorenstein import candidate_prefix, companion_finder, ng_vectors
from numsgps.rf import minus_row_lists, plus_row_lists
from numsgps.verify.claims import FAIL, NA, PASS, ClaimResult, _fail


def sieve_membership(generators, bound):
    """Boolean table t[x] for 0 <= x <= bound via the coin-problem DP."""
    table = [False] * (bound + 1)
    table[0] = True
    for x in range(1, bound + 1):
        table[x] = any(x >= n and table[x - n] for n in generators)
    return table


def sieve_invariants(generators):
    """(member set, frobenius, genus, pf) computed only from the sieve."""
    g = 0
    for n in generators:
        g = gcd(g, n)
    assert g == 1, "oracle needs coprime generators"
    bound = max(generators) * min(generators) + max(generators)
    table = sieve_membership(generators, bound)
    gaps = [x for x in range(bound + 1) if not table[x]]
    frobenius = gaps[-1] if gaps else -1
    members = {x for x in range(bound + 1) if table[x]}

    def contains(x):
        return x >= 0 and (x > bound or x in members)

    pf = [f for f in gaps if all(contains(f + n) for n in generators)]
    if not gaps:
        pf = [-1]
    return members, frobenius, len(gaps), tuple(pf), contains


def brute_factorizations(generators, x):
    """All coefficient tuples c with sum(c[i] * generators[i]) == x."""
    out = []

    def rec(i, rest, acc):
        if i == len(generators) - 1:
            if rest % generators[i] == 0:
                out.append(tuple(acc + [rest // generators[i]]))
            return
        n = generators[i]
        for c in range(rest // n + 1):
            rec(i + 1, rest - c * n, acc + [c])

    if x >= 0:
        rec(0, x, [])
    return sorted(out)


def brute_symmetric(frobenius, contains):
    if frobenius == -1:
        return True
    return all(contains(x) != contains(frobenius - x) for x in range(frobenius + 1))


def brute_almost_symmetric(frobenius, contains, pf):
    """Canonical-ideal test: every x with F - x outside S is in S or PF."""
    if frobenius == -1:
        return True
    pf_set = set(pf)
    for x in range(frobenius + 1):
        if not contains(frobenius - x) and not contains(x) and x not in pf_set:
            return False
    return True


def brute_ng_candidates(generators, pf, contains):
    """Per-generator sets {f' in PF : n + f' - f in S for all f in PF}."""
    return [
        tuple(
            fp for fp in pf if all(contains(n + fp - f) for f in pf)
        )
        for n in generators
    ]


def brute_nearly_gorenstein(generators, pf, contains):
    return all(brute_ng_candidates(generators, pf, contains))


def gaps(S):
    """All positive integers outside S, ascending, read class by class off
    the Apery set: in class r they are r, r + m, ... below its Apery entry."""
    m = S.multiplicity
    return sorted(x for r, a in enumerate(S.apery) for x in range(r, a, m) if x > 0)


def gap_scan_pseudo_frobenius(S):
    """Pseudo-Frobenius numbers by scanning every gap f for f + n in S
    over the generators n."""
    if S.is_full():
        return (-1,)
    gens = S.generators
    return tuple(g for g in gaps(S) if all(S.contains(g + n) for n in gens))


def canonical_ideal(S):
    """K(S) = {x : frobenius - x not in S} as a RelativeIdeal.  Its least
    element in class r mod the multiplicity m: x is in K iff F - x lies
    outside S iff x > F - a[F - x] (indices mod m, a the Apery set), so
    k[r] = F + m - a[F - r]."""
    F = S.frobenius
    m = S.multiplicity
    return RelativeIdeal(tuple(F + m - S.apery[(F - r) % m] for r in range(m)))


def literal_is_ideal_of(S, least):
    """Whether the set with least element least[r] in each class r mod
    m = len(least) is an ideal of S contained in S, element by element:
    every member below the window's top lies in S, and every member plus
    every element of S below it stays a member.  The window reaches past
    each least element plus each Apery element, which suffices as both
    sets are closed under adding m."""
    m = len(least)
    top = max(least) + S.frobenius + S.multiplicity + 1
    members = [x for x in range(min(least), top) if x >= least[x % m]]
    elements = [s for s in range(top) if S.contains(s)]
    return all(S.contains(e) for e in members) and all(
        e + s >= least[(e + s) % m] for e in members for s in elements
    )


def canonical_ideal_symmetric(S):
    """Symmetry as K(S) == S, with K built gap by gap: below F + 1, K is
    F - g for the gaps g, and S is its members."""
    F = S.frobenius
    K = sorted(F - g for g in gaps(S))
    return K == [x for x in range(F + 1) if S.contains(x)]


def window(S):
    """Width of the window [0, window) that reaches past the Frobenius
    number by the largest generator."""
    return S.frobenius + S.generators[-1] + 2


def window_mask(S):
    """Bit x set iff x lies in S, for x in [0, window)."""
    bits = "".join("1" if S.contains(x) else "0" for x in reversed(range(window(S))))
    return int(bits, 2)


def pf_shift_mask(S):
    """Bit v set iff v - f lies in S for every pseudo-Frobenius f (from the
    gap scan), for v in [0, window): shifted membership masks intersected."""
    mask = window_mask(S)
    w = window(S)
    # everything at or above the window is a member as far as shifts care
    mask |= ((1 << w) - 1) << w
    pf = gap_scan_pseudo_frobenius(S)
    acc = mask << pf[0]
    for f in pf[1:]:
        acc &= mask << f
    return acc


def mask_ng_candidates(S):
    """Candidate sets read off pf_shift_mask, ascending tuples."""
    acc = pf_shift_mask(S)
    pf = gap_scan_pseudo_frobenius(S)
    return [tuple(g for g in pf if (acc >> (n + g)) & 1) for n in S.generators]


def mask_almost_symmetric(S):
    """n + F - f in S for every generator n and pseudo-Frobenius f, read
    off pf_shift_mask."""
    acc = pf_shift_mask(S)
    F = S.frobenius
    return all((acc >> (n + F)) & 1 for n in S.generators)


def mask_is_ng_vector(S, entries):
    """The NG-vector condition read off pf_shift_mask."""
    if len(entries) != S.embedding_dimension:
        return False
    if any(f not in gap_scan_pseudo_frobenius(S) for f in entries):
        return False
    acc = pf_shift_mask(S)
    return all((acc >> (n + f)) & 1 for n, f in zip(S.generators, entries))


def literal_apery_convolution(apery):
    """c[j] = max over u of apery[u] + apery[(j - u) mod m], term by term."""
    m = len(apery)
    return [max(apery[u] + apery[(j - u) % m] for u in range(m)) for j in range(m)]


def full_scan_trace_nearly_gorenstein(S):
    """The trace route's test with every generator n scanned in full:
    min over v of c[n + v] - a[v] <= n (indices mod m, c the Apery
    convolution), with no one-lookup shortcut."""
    m = S.multiplicity
    a = S.apery
    c = literal_apery_convolution(a)
    cc = c + c
    return all(min(map(sub, cc[n % m : n % m + m], a)) <= n for n in S.generators)


def full_scan_candidate_sets(S):
    """The candidate sets at every position, each pseudo-Frobenius g tested
    against every f (largest first), position 0 included: no shortcut at
    the multiplicity's position.  Reads S.pseudo_frobenius(), so a
    hand-set computed set is scanned as it stands."""
    m = S.multiplicity
    apery = S.apery
    pf = S.pseudo_frobenius()
    out = []
    for n in S.generators:
        cands = []
        for g in pf:
            for f in pf[::-1]:
                x = n + g - f
                if x < apery[x % m]:
                    break
            else:
                cands.append(g)
        out.append(frozenset(cands))
    return out


def every_kept_child_generators(gens, apery, g):
    """The minimal generators of the child that removes g != m (g above
    the Frobenius number) from the semigroup with these generators and
    Apery set: the kept generators, and g + m unless g + m - n is a
    nonzero member of the child for some kept generator n, every kept
    one tested."""
    m = gens[0]
    x = g + m
    r = g % m
    child = apery[:r] + (x,) + apery[r + 1 :]
    kept = [n for n in gens if n != g]
    if not any(x - n >= child[(x - n) % m] for n in kept):
        kept.append(x)
    return tuple(kept)


def gaps_trace_nearly_gorenstein(S):
    """The trace route with K built gap by gap: K(S) + (S - K(S)) holds
    every nonzero element, decided on the window [0, frobenius + largest
    generator + 1], where K is everything past F plus F - g for each gap g."""
    F = S.frobenius
    w = window(S)
    full = (1 << (2 * w)) - 1
    members = window_mask(S)
    mask = members | (full ^ ((1 << w) - 1))

    k_mask = (full ^ ((1 << (F + 1)) - 1)) & ((1 << w) - 1)
    for g in gaps(S):
        k_mask |= 1 << (F - g)

    # dual: x with x + k in S for every k of K up to F
    dual = (1 << w) - 1
    for k in range(F + 1):
        if (k_mask >> k) & 1:
            dual &= mask >> k

    trace = 0
    for x in range(w):
        if (dual >> x) & 1:
            trace |= k_mask << x

    m_bits = (members & ~1) & ((1 << w) - 1)
    return m_bits & ~trace & ((1 << w) - 1) == 0


def brute_ng_vectors(generators, pf, contains):
    """Product-filter enumeration; only safe when len(pf)**nu is small."""
    vectors = []
    for tup in product(pf, repeat=len(generators)):
        ok = all(
            contains(n + fi - f)
            for n, fi in zip(generators, tup)
            for f in pf
        )
        if ok:
            vectors.append(tup)
    return vectors


def brute_rf_plus(generators, f):
    """All additive row-factorization matrices for f, row by row."""
    rows_per_i = []
    for i, n in enumerate(generators):
        rows = []
        others = generators[:i] + generators[i + 1 :]
        for combo in brute_factorizations(others, f + n):
            row = list(combo[:i]) + [-1] + list(combo[i:])
            rows.append(tuple(row))
        rows_per_i.append(rows)
    return [tuple(choice) for choice in product(*rows_per_i)]


def brute_rf_minus(generators, vector, f):
    """All subtractive matrices for (vector, f): row i dotted with the
    generators equals vector[i] - f, diagonal -1, so the off-diagonal
    part factors vector[i] - f + generators[i]."""
    rows_per_i = []
    for i in range(len(generators)):
        value = vector[i] - f + generators[i]
        rows = []
        others = generators[:i] + generators[i + 1 :]
        if value >= 0:
            for combo in brute_factorizations(others, value):
                row = list(combo[:i]) + [-1] + list(combo[i:])
                rows.append(tuple(row))
        rows_per_i.append(rows)
    return [tuple(choice) for choice in product(*rows_per_i)]


def off_diagonal_support(M, transpose=False):
    """The positions (j, k), j != k, with M[j][k] != 0, or with
    M[k][j] != 0 when transposed."""
    return frozenset(
        (k, j) if transpose else (j, k)
        for j, row in enumerate(M)
        for k, c in enumerate(row)
        if c and j != k
    )


def check_coppie(A, B):
    """Product-zero compatibility of an additive matrix A and a
    subtractive matrix B for the same pseudo-Frobenius number:
    A[j][k] * B[k][j] = 0 off the diagonal."""
    return off_diagonal_support(A).isdisjoint(off_diagonal_support(B, transpose=True))


def zero_pattern(M):
    """Boolean mask of the zero entries of a matrix, diagonal excluded."""
    return tuple(
        tuple(i != j and c == 0 for j, c in enumerate(row)) for i, row in enumerate(M)
    )


def gaps_to_generators(gaps):
    """Minimal generating system of the semigroup with this gap set.

    Minimal generators never exceed frobenius + multiplicity, so a scan
    up to that bound sees all of them.  A member is minimal exactly when
    subtracting any smaller minimal generator leaves a gap.
    """
    if not gaps:
        return (1,)
    gap_set = set(gaps)
    frob = max(gaps)

    def member(x):
        return x >= 0 and x not in gap_set

    mult = next(x for x in range(1, frob + 2) if member(x))
    gens = []
    for x in range(1, frob + mult + 1):
        if member(x) and not any(member(x - g) for g in gens if x > g):
            gens.append(x)
    return tuple(gens)


def genus_tree_semigroups(genus_max):
    """All semigroups of genus <= genus_max by gap-set backtracking.

    Represents a semigroup as its sorted gap tuple.  A child removes one
    minimal generator larger than the current Frobenius number; adding
    the largest gap back recovers the unique parent, so every semigroup
    appears exactly once.  The list is a pre-order, siblings by
    increasing removed generator.
    """
    out = []

    def rec(gaps):
        out.append(tuple(gaps))
        if len(gaps) == genus_max:
            return
        frob = gaps[-1] if gaps else -1
        for n in gaps_to_generators(gaps):
            if n > frob:
                rec(sorted(gaps + [n]))

    rec([])
    return out


def random_generators(rng, frobenius_cap=1500):
    """A random coprime minimal generating system with modest Frobenius.

    Draws a multiplicity, samples generator candidates above it, forces
    gcd 1, then strips non-minimal elements.
    """
    while True:
        m = rng.randint(2, 40)
        count = rng.randint(1, min(m - 1, 8))
        cands = {m}
        while len(cands) < count + 1:
            cands.add(rng.randint(m + 1, 3 * m))
        gens = sorted(cands)
        g = 0
        for n in gens:
            g = gcd(g, n)
        if g != 1:
            extra = m + 1
            while gcd(g, extra) != 1:
                extra += 1
            gens = sorted(set(gens) | {extra})
        members, frob, _, _, contains = sieve_invariants(tuple(gens))
        if frob > frobenius_cap or frob < 1:
            continue
        minimal = []
        for n in gens:
            rest = [x for x in gens if x != n]
            if not rest:
                minimal.append(n)
                continue
            table = sieve_membership(tuple(rest), n)
            if not table[n]:
                minimal.append(n)
        return tuple(minimal)


def literal_ngv_props(ctx):
    """The NGV_PROPS statements checked vector by vector over the product
    of ctx.candidates, each position's values descending (ng_vectors(S)'s
    order), with the tail factorizations found by the coin-problem sieve;
    returns a ClaimResult like the factored route.  The vectors come from
    ctx.candidates alone, so hand-set candidate sets are judged too."""
    S = ctx.S
    gens = S.generators
    nu = len(gens)
    F = S.frobenius
    tails = {}

    def tail_factors(start, value):
        if start not in tails:
            tails[start] = sieve_membership(gens[start:], F + gens[0])
        return tails[start][value]

    ordered = [sorted(c, reverse=True) for c in ctx.candidates]
    for e in product(*ordered):
        if e[0] != F:
            return _fail(ctx, vector=list(e), reason="first entry is not F")
        if len(set(e)) == nu:
            return _fail(ctx, vector=list(e), reason="all entries distinct")
        if len(set(e[: nu - 1])) == nu - 1 and set(ctx.pf) != set(e[: nu - 1]):
            return _fail(ctx, vector=list(e), reason="distinct prefix does not exhaust PF")
        istar = 1
        while istar < nu and len(set(e[: istar + 1])) == istar + 1:
            istar += 1
        for j in range(istar):
            if F - e[j] != gens[j] - gens[0]:
                return _fail(
                    ctx, vector=list(e), position=j + 1,
                    reason="distinct prefix entry off the forced value",
                )
        for f in ctx.pf:
            if f not in e[:istar] and not tail_factors(istar, F - f + gens[0]):
                return _fail(
                    ctx, vector=list(e), f=f,
                    reason="no factorization over the later generators",
                )
        divergent = [i for i in range(nu) if e[i] != F]
        if divergent:
            h0 = divergent[0]
            if e[h0] - F + gens[h0] not in gens[:h0]:
                return _fail(
                    ctx, vector=list(e), h=h0 + 1,
                    reason="first entry off F has no companion position",
                )
        if len(divergent) >= 2:
            h0, h1 = divergent[0], divergent[1]
            delta = e[h1] - F + gens[h1]
            companion = any(delta == gens[l] for l in range(h1))
            if not companion and not (delta > 0 and delta % gens[h0] == 0):
                return _fail(
                    ctx, vector=list(e), h=h0 + 1, h_prime=h1 + 1,
                    reason="second entry off F fits neither branch",
                )
    return ClaimResult(PASS)


def literal_classification_variance(S, vectors):
    """Pseudo-Frobenius numbers classified pf1 for some of the vectors
    (entry tuples) and pf2 for others, from one scan_classify_pf call per
    vector; the vectors are not checked to be NG-vectors, so hand-set
    candidate sets can be scanned too."""
    seen = {}
    for entries in vectors:
        cls = scan_classify_pf(S, entries)
        for kind in ("pf1", "pf2"):
            for f in cls[kind]:
                seen.setdefault(f, set()).add(kind)
    return [(f, sorted(kinds)) for f, kinds in sorted(seen.items()) if len(kinds) > 1]


def list_hit_cells(gens, f, candidates):
    """rf.hit_table's cells for f with every single-generator row
    listed: (position, entry) cells over the candidates other than f, or
    None once a position's are all hits.  A row value has a row with
    nu - 2 zeroes iff the list of positions j != i whose generator divides
    the positive value is nonempty."""

    def rows(i, value):
        if value <= 0:
            return []
        return [(j, value // n) for j, n in enumerate(gens) if value % n == 0 and j != i]

    cells = set()
    for i, (n, c) in enumerate(zip(gens, candidates)):
        if rows(i, f + n):
            return None
        rest = [g for g in c if g != f]
        hits = [(i, g) for g in rest if rows(i, n + g - f)]
        if len(hits) == len(rest):
            return None
        cells.update(hits)
    return cells


def set_difference_same2_applies(ctx):
    """Whether SAME2 applies, with each pair's avoidance read as
    all(c - {f, f2}) over the candidate sets: two distinct avoidable
    numbers f = M_{p,s} and f2 = M_{q,s} with lambda_p >= lambda_q (read
    off the pseudo-Frobenius set as the claim does) that some vector of
    the sets keeps outside its entries."""
    gens = ctx.S.generators
    for ns in gens:
        residues = {n % ns: n for n in gens if n != ns}
        group = [
            (f, (f + residues[-f % ns]) // ns) for f in ctx.avoidable if -f % ns in residues
        ]
        for f, lam_p in group:
            for f2, lam_q in group:
                if f != f2 and lam_p >= lam_q and all(c - {f, f2} for c in ctx.candidates):
                    return True
    return False


def entry_scan_first_zero_applies(ctx):
    """Whether FIRST_ZERO applies, with an avoidable f outside {F, g}
    sought by scanning every avoidable number for each entry g that has a
    companion position, at each position h0 whose predecessors all hold
    F."""
    if not ctx.nearly_gorenstein:
        return False
    F = ctx.S.frobenius
    cands = ctx.candidates
    for h0 in range(1, len(cands)):
        if F not in cands[h0 - 1]:
            break
        for g in cands[h0]:
            if companion_finder(ctx.S.generators, F, h0, g) is not None and any(
                f != F and f != g for f in ctx.avoidable
            ):
                return True
    return False


def scan_classify_pf(S, entries):
    """classify_pf's record by a fresh divisibility scan of this one
    vector: f goes to the first class iff f + n_i or n_i + f_i - f > 0 is
    a multiple of another generator n_j, with every such (side, i, j,
    lambda) recorded in scan order."""
    gens = S.generators
    pf1, pf2, witnesses = [], [], []
    for f in S.pseudo_frobenius():
        if f in entries:
            continue
        found = []
        for i, ni in enumerate(gens, start=1):
            for j, nj in enumerate(gens, start=1):
                if i == j:
                    continue
                if (f + ni) % nj == 0:
                    found.append({"f": f, "side": "plus", "i": i, "j": j, "lam": (f + ni) // nj})
                value = ni + entries[i - 1] - f
                if value > 0 and value % nj == 0:
                    found.append({"f": f, "side": "minus", "i": i, "j": j, "lam": value // nj})
        witnesses += found
        (pf1 if found else pf2).append(f)
    return {
        "generators": list(gens),
        "vector": list(entries),
        "pf1": pf1,
        "pf2": pf2,
        "witnesses": witnesses,
    }


def _literal_vectors(S, vector_cap):
    """The records of the NG-vectors of S (ng_vectors), [] when S is
    trivial or not nearly Gorenstein, None when there are more than
    vector_cap of them."""
    if S.embedding_dimension < 2:
        return []
    cands = candidate_prefix(S)
    if not all(cands):
        return []
    if prod(len(c) for c in cands) > vector_cap:
        return None
    return ng_vectors(S)


def literal_coppie(S, vector_cap=256, pair_cap=10**4):
    """COPPIE pair by pair: for every NG-vector v and every f in PF outside
    v, every (additive, subtractive) matrix pair satisfies check_coppie's
    predicate, each matrix's support computed once.

    Returns (status, instances), instances counting the (v, f) checked, or
    None when S has more than vector_cap vectors or some (v, f) more than
    pair_cap pairs."""
    vectors = _literal_vectors(S, vector_cap)
    if vectors is None:
        return None
    plus = {}
    instances = 0
    for v in vectors:
        for f in S.pseudo_frobenius():
            if f in v["entries"]:
                continue
            if f not in plus:
                rows = plus_row_lists(S, f)
                if prod(map(len, rows)) > pair_cap:
                    return None
                plus[f] = [off_diagonal_support(A) for A in product(*rows)]
            rows = minus_row_lists(S, v["entries"], f)
            if len(plus[f]) * prod(map(len, rows)) > pair_cap:
                return None
            minus = [off_diagonal_support(B, transpose=True) for B in product(*rows)]
            instances += 1
            for a in plus[f]:
                if not all(a.isdisjoint(b) for b in minus):
                    return FAIL, instances
    return (PASS if instances else NA), instances


def literal_same2(S, vector_cap=256, pair_cap=10**4):
    """SAME2 matrix by matrix: for generators n_p, n_q, n_s (p, q, s
    distinct) whose extremal gaps f = M_{p,s} and f' = M_{q,s} (the
    largest lambda * n_s - n_p, lambda * n_s - n_q outside S, found by the
    coin-problem sieve) are distinct pseudo-Frobenius numbers with
    lambda_p >= lambda_q, every NG-vector keeping f and f' outside its
    entries and every subtractive matrix of f has a zero at (q, p).

    Returns (status, instances), instances counting the (p, q, s, vector)
    checked, or None as literal_coppie."""
    vectors = _literal_vectors(S, vector_cap)
    if vectors is None:
        return None
    gens = S.generators
    _, frobenius, _, pf, contains = sieve_invariants(gens)

    def extremal(i, s):
        lam = (frobenius + gens[i]) // gens[s] + 1
        while contains(lam * gens[s] - gens[i]):
            lam -= 1
        return lam, lam * gens[s] - gens[i]

    minus = {}
    instances = 0
    nu = len(gens)
    for s in range(nu):
        for p in range(nu):
            for q in range(nu):
                if len({p, q, s}) < 3:
                    continue
                (lam_p, f), (lam_q, f2) = extremal(p, s), extremal(q, s)
                if f == f2 or lam_p < lam_q or f not in pf or f2 not in pf:
                    continue
                for v in vectors:
                    if f in v["entries"] or f2 in v["entries"]:
                        continue
                    key = (tuple(v["entries"]), f)
                    if key not in minus:
                        rows = minus_row_lists(S, v["entries"], f)
                        if prod(map(len, rows)) > pair_cap:
                            return None
                        minus[key] = list(product(*rows))
                    instances += 1
                    if any(M[q][p] != 0 for M in minus[key]):
                        return FAIL, instances
    return (PASS if instances else NA), instances


def literal_first_zero(S, vector_cap=256):
    """FIRST_ZERO row list by row list: for every NG-vector v with its
    divergence positions (h, ell) and every f in PF outside v, each
    subtractive h-row is zero at ell, each ell-row is zero at h, and the
    two lists agree outside columns h and ell.

    Returns (status, instances) or None, as literal_coppie."""
    vectors = _literal_vectors(S, vector_cap)
    if vectors is None:
        return None
    instances = 0
    for v in vectors:
        if v["h"] is None:
            continue
        h, ell = v["h"] - 1, v["ell"] - 1

        def off(row):
            return tuple(c for i, c in enumerate(row) if i not in (h, ell))

        for f in S.pseudo_frobenius():
            if f in v["entries"]:
                continue
            instances += 1
            lists = minus_row_lists(S, v["entries"], f)
            if (
                any(row[ell] != 0 for row in lists[h])
                or any(row[h] != 0 for row in lists[ell])
                or {off(r) for r in lists[h]} != {off(r) for r in lists[ell]}
            ):
                return FAIL, instances
    return (PASS if instances else NA), instances


def _two_zeroes_in_every_line(M):
    return all(row.count(0) == 2 for row in M) and all(
        col.count(0) == 2 for col in zip(*M)
    )


def literal_pf2_two_zeroes(ctx):
    """PF2_TWO_ZEROES matrix by matrix: for every (entries, pf1, pf2) in
    ctx.classifications and every f in its pf2, each additive matrix of f
    (brute_rf_plus) and each subtractive matrix of the vector and f
    (brute_rf_minus) has exactly two zeroes in every row and every column.

    Returns (result, instances), instances counting the (vector, f)
    checked, and result a ClaimResult whose failure payload names the
    vector, f and side, additive first, as the factored route's does.  The
    classifications are read from ctx alone, so hand-set ones are judged
    too."""
    gens = ctx.S.generators
    instances = 0
    for entries, _, pf2 in ctx.classifications:
        for f in pf2:
            instances += 1
            sides = (
                ("plus", brute_rf_plus(gens, f)),
                ("minus", brute_rf_minus(gens, entries, f)),
            )
            for side, matrices in sides:
                if not all(map(_two_zeroes_in_every_line, matrices)):
                    return _fail(ctx, vector=list(entries), f=f, side=side), instances
    return ClaimResult(PASS if instances else NA), instances
