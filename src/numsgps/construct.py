"""Builders for explicit semigroup families and the numerical duplication.

Each property a builder promises is checked once, on the instance it
returns, by the step that settles it (a docstring proves what follows
from an earlier check); a violated property raises FamilyPropertyError.
A family is built by _certified alone: it refuses formula generators
that are not a minimal system and checks the family's certificate, the
printed rows of a row-factorization matrix for each promised
pseudo-Frobenius number, read in the formula's order.  A relative ideal
is held by its least element in each residue class mod the multiplicity
m (RelativeIdeal.least), so the maximal ideal costs m Apery lookups, and
the duplication identity is checked on Apery sets, so no builder walks a
window as wide as the Frobenius number.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .core import MULTIPLICITY_LIMIT, NumericalSemigroup, require_int
from .errors import (
    EmptyGeneratorsError,
    FamilyPreconditionError,
    FamilyPropertyError,
    GeneratorTooLargeError,
    NotAlmostSymmetricError,
    NotAMemberError,
    NotAnIdealError,
    NotOddError,
)
from .gorenstein import is_almost_symmetric
from .rf import plus_row_lists


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
        m never leaves it).  S's own maximal ideal is settled by one
        comparison before that O(m nu) scan: it is always an ideal of S
        that lies in S."""
        if self == self.maximal_ideal(S):
            return True
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


def ideal_from_generators(S: NumericalSemigroup, elements) -> RelativeIdeal:
    """The integral ideal generated by the given elements of S:
    everything of the form element + member, whose least element in
    class r mod m is the least e + a[r - e] (a the Apery set, indices
    mod m)."""
    elems = set(elements)
    for e in elems:
        require_int("ideal generator", e)
    if not elems:
        raise EmptyGeneratorsError("an ideal needs at least one generator")
    m = S.multiplicity
    a = S.apery
    least = (min(e + a[(r - e) % m] for e in elems) for r in range(m))
    return RelativeIdeal(tuple(least))


def numerical_duplication(S: NumericalSemigroup, E: RelativeIdeal, b: int) -> NumericalSemigroup:
    """The numerical duplication 2*S union (2*E + b).

    E is an integral ideal of S (closed under adding elements of S), and
    b an odd element of S.  They are checked in that order before
    anything is built: b an integer, then odd, then in S, then E an ideal of S.

    The doubled generators of S together with the shifted doubles of the
    ideal generators of E (the least elements e of E with no e - n_i in
    E) generate the union; the constructor prunes them to a minimal
    system.  The element-level identity (even x: x/2 in S; odd x:
    (x - b)/2 in E) is then checked on the Apery set mod 2m, m the
    multiplicity of S: both sides are closed under adding 2m, so they
    agree iff their least elements per class do, which are 2 a[r/2] for
    even r and 2 least[(r - b)/2] + b for odd r (a the Apery set of S,
    indices mod m).  When E is the maximal ideal the embedding
    dimension must double, and when the base is additionally almost
    symmetric the result must be almost symmetric of type 2 t + 1; both
    facts are asserted here.  The trivial base N is excluded from those
    assertions: its duplication is two-generated and symmetric, so the
    type law genuinely fails there.
    """
    require_int("b", b)
    if b % 2 == 0:
        raise NotOddError(f"b = {b} must be odd")
    if b not in S:
        raise NotAMemberError(f"b = {b} does not belong to the semigroup")
    if not E.is_ideal_of(S):
        raise NotAnIdealError("the given set is not an ideal of the semigroup contained in it")
    m = S.multiplicity
    gens = S.generators
    raw = {2 * n for n in gens} | {
        2 * e + b for e in E.least if not any(e - n in E for n in gens)
    }
    dup = NumericalSemigroup(sorted(raw))

    for r, got in enumerate(dup.apery_set(2 * m)):
        if r % 2 == 0:
            want = 2 * S.apery[r // 2]
        else:
            want = 2 * E.least[(r - b) // 2 % m] + b
        if got != want:
            raise FamilyPropertyError(
                f"duplication identity fails mod {2 * m}: the least element "
                f"congruent to {r} is {got} instead of {want}"
            )

    if not S.is_full() and E == RelativeIdeal.maximal_ideal(S):
        if dup.embedding_dimension != 2 * S.embedding_dimension:
            raise FamilyPropertyError(
                f"embedding dimension {dup.embedding_dimension} instead of "
                f"{2 * S.embedding_dimension} for a maximal-ideal duplication"
            )
        if is_almost_symmetric(S):
            if not is_almost_symmetric(dup):
                raise FamilyPropertyError(
                    "duplication of an almost symmetric base lost almost symmetry"
                )
            if dup.type != 2 * S.type + 1:
                raise FamilyPropertyError(
                    f"type {dup.type} instead of {2 * S.type + 1}"
                )
    return dup


def smallest_odd_generator(S: NumericalSemigroup) -> int:
    # gcd 1 forces an odd generator, so the scan always succeeds
    return next(n for n in S.generators if n % 2 == 1)


def duplication_tower(S: NumericalSemigroup, depth: int) -> list[NumericalSemigroup]:
    """Iterated maximal-ideal duplication [S, S_1, ..., S_depth].

    Each level S_i duplicates S_{i-1} with E = M(S_{i-1}) and b its
    smallest odd generator.  The seed must be almost symmetric, as N is.
    Past the seed's check, numerical_duplication settles every level:
    from a base other than N it asserts almost symmetry, type 2t + 1 and
    nu' = 2 nu, so t' - 2 nu' = 2 (t - 2 nu) + 1 (the excess law, by
    induction); from N, level 1 is <2, 3>, pinned by the duplication
    identity.  A level's multiplicity is twice its base's, so
    m(S) * 2^depth > MULTIPLICITY_LIMIT is refused before level 1, and a
    depth that is not an integer >= 0 (core.require_int) before that.
    """
    require_int("depth", depth, 0)
    if S.multiplicity > MULTIPLICITY_LIMIT >> depth:  # m * 2^depth > limit, exactly
        raise GeneratorTooLargeError(
            f"level {depth} would have multiplicity {S.multiplicity} * 2^{depth}, "
            f"above {MULTIPLICITY_LIMIT}"
        )
    if not is_almost_symmetric(S):
        raise NotAlmostSymmetricError(f"{S!r} is not almost symmetric")
    chain = [S]
    for _ in range(depth):
        prev = chain[-1]
        chain.append(numerical_duplication(
            prev, RelativeIdeal.maximal_ideal(prev), smallest_odd_generator(prev)
        ))
    return chain


def _certified(raw: tuple[int, ...], cases) -> NumericalSemigroup:
    """The semigroup a family's formula generators raw build, with its
    certificate checked: raw is a minimal system, and for each
    (lam, target, printed) of cases, target is pseudo-Frobenius and each
    predicted row is one of its additive rows, and the rows' zero pattern
    is constant on the interior lambda range (the boundary values turn
    single entries to zero).  The printed rows, and the entries of each,
    follow the order of raw, which need not be ascending."""
    S = NumericalSemigroup(raw)
    if S.generators != tuple(sorted(raw)):
        raise FamilyPropertyError(f"formula generators {raw} are not a minimal system")
    # order[p] = index in raw of the generator at ascending position p
    order = sorted(range(len(raw)), key=raw.__getitem__)
    pf = set(S.pseudo_frobenius())
    patterns = []
    for lam, target, printed in cases:
        if target not in pf:
            raise FamilyPropertyError(f"lambda = {lam}: {target} is not pseudo-Frobenius")
        rows = [tuple(printed[i][j] for j in order) for i in order]
        for n, row, choices in zip(S.generators, rows, plus_row_lists(S, target)):
            if row not in choices:
                raise FamilyPropertyError(
                    f"lambda = {lam}: predicted row {row} for generator {n} "
                    f"is not a factorization of {target} + {n}"
                )
        patterns.append((lam, tuple(tuple(c == 0 for c in row) for row in rows)))
    interior = patterns[1:-1]
    for lam, pattern in interior[1:]:
        if pattern != interior[0][1]:
            raise FamilyPropertyError(
                f"zero pattern at interior lambda = {lam} differs from lambda = {interior[0][0]}"
            )
    return S


def backelin(T: int) -> NumericalSemigroup:
    """The four-generated family <s, s+3, s+3T+1, s+3T+2> with
    s = (3T+2)^2 + 3, whose type grows with T.

    Asserts the advertised shape: with f = (3T+3) n_4 - n_1, every
    f - 3 lambda for lambda = 1..T is pseudo-Frobenius and owns a row
    factorization matrix with rows

        (-1, 0, 3L, 3T+3-3L)
        (0, -1, 3L-3, 3T+6-3L)
        (T+4+L, 2T-L, -1, 0)
        (2T+3+L, T-L, 1, -1)

    whose zero pattern is constant on the interior range 2..T-1 (the
    boundary values turn single entries to zero).
    """
    require_int("T", T)
    if T < 2:
        raise FamilyPreconditionError("T >= 2", T)
    s = (3 * T + 2) ** 2 + 3
    gens = (s, s + 3, s + 3 * T + 1, s + 3 * T + 2)

    def rows(lam: int) -> tuple[tuple[int, ...], ...]:
        return (
            (-1, 0, 3 * lam, 3 * T + 3 - 3 * lam),
            (0, -1, 3 * lam - 3, 3 * T + 6 - 3 * lam),
            (T + 4 + lam, 2 * T - lam, -1, 0),
            (2 * T + 3 + lam, T - lam, 1, -1),
        )

    f = (3 * T + 3) * gens[3] - gens[0]
    return _certified(gens, ((lam, f - 3 * lam, rows(lam)) for lam in range(1, T + 1)))


def dim6_raw_generators(T: int, d: int, k: int) -> tuple[int, ...]:
    """Six-generator system in construction order (n_1, n_2, n_3,
    n_1 + d, n_2 + d, n_3 + d); not ascending in general."""
    sq = (T + 1) ** 2
    raw = (k * (sq + 1), k * (sq + T), k * (sq + 2 * T + 4))
    return raw + tuple(n + d for n in raw)


def dim6_progression(T: int, d: int, k: int) -> tuple[int, ...]:
    """The arithmetic progression of pseudo-Frobenius numbers the
    six-generated family is built to contain."""
    f = k * (T * (T + 1) * (T + 2) - 1)
    return tuple(f + lam * d for lam in range(T))


def family_dim6(T: int, d: int, k: int) -> NumericalSemigroup:
    """Six-generated family with an arithmetic progression of
    pseudo-Frobenius numbers f, f + d, ..., f + (T-1) d.

    Generators come from n_1 = k[(T+1)^2 + 1], n_2 = k[(T+1)^2 + T],
    n_3 = k[(T+1)^2 + 2T + 4] and n_{i+3} = n_i + d, with
    f = k[T(T+1)(T+2) - 1].  Sufficient conditions k >= T, d >= T^2,
    gcd(d, k) = 1, T not congruent to 1 mod 5 are enforced as
    preconditions, and the conclusion is still verified per instance.

    Two facts follow from the preconditions and are not checked again.
    Coprime: a common divisor of the six divides n_4 - n_1 = d, so it is
    prime to k and divides T - 1 and T + 4, hence 5, which T not 1 mod 5
    excludes.  Distinct: T >= 2 gives n_1 < n_2 < n_3, and n_j - n_i = d
    would need k | d, so k = 1 < T.  So the minimal-system test alone
    pins nu = 6.  The construction order is not ascending (n_4 < n_3 for
    small d), so _certified reads the printed rows in construction order.
    """
    for name, value in (("T", T), ("d", d), ("k", k)):
        require_int(name, value)
        if value < 1:
            raise FamilyPreconditionError(f"{name} >= 1", value)
    if T % 5 == 1:
        raise FamilyPreconditionError("T not congruent to 1 mod 5", T)
    if k < T:
        raise FamilyPreconditionError("k >= T", k)
    if d < T * T:
        raise FamilyPreconditionError("d >= T^2", d)
    if gcd(d, k) != 1:
        raise FamilyPreconditionError("gcd(d, k) = 1", gcd(d, k))

    def rows(lam: int) -> tuple[tuple[int, ...], ...]:
        return (
            (-1, T + 1 - lam, 0, 0, lam, 0),
            (0, -1, T - lam, 0, 0, lam),
            (T + 2 - lam, 0, -1, lam, 0, 0),
            (0, T - lam, 0, -1, lam + 1, 0),
            (0, 0, T - 1 - lam, 0, -1, lam + 1),
            (T + 1 - lam, 0, 0, lam + 1, 0, -1),
        )

    return _certified(
        dim6_raw_generators(T, d, k),
        ((lam, target, rows(lam)) for lam, target in enumerate(dim6_progression(T, d, k))),
    )
