"""Builders for explicit semigroup families and the numerical duplication.

Each property a builder promises is checked once, on the instance it
returns, by the step that settles it (a docstring proves what follows
from an earlier check); a violated property raises FamilyPropertyError.
Ideals are RelativeIdeals (least element per residue class mod the
multiplicity), and the duplication identity is checked on Apery sets, so
no builder walks a window as wide as the Frobenius number.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .core import MULTIPLICITY_LIMIT, NumericalSemigroup
from .errors import (
    EmptyGeneratorsError,
    FamilyPreconditionError,
    FamilyPropertyError,
    GeneratorTooLargeError,
    InvalidArgumentError,
    NotAlmostSymmetricError,
    NotAMemberError,
    NotAnIdealError,
    NotOddError,
    ParameterTooSmallError,
)
from .gorenstein import RelativeIdeal, is_almost_symmetric
from .rf import plus_row_lists


@dataclass(frozen=True)
class DuplicationSpec:
    """Input triple for the numerical duplication 2*S union (2*E + b).

    base is the semigroup S, ideal an integral ideal E of S (closed under
    adding elements of S), and b an odd element of S.  Validation happens
    here so an instance is usable as soon as it exists.
    """

    base: NumericalSemigroup
    ideal: RelativeIdeal
    b: int

    def __post_init__(self) -> None:
        if self.b % 2 == 0:
            raise NotOddError(f"b = {self.b} must be odd")
        if self.b not in self.base:
            raise NotAMemberError(f"b = {self.b} does not belong to the semigroup")
        if not self.ideal.is_ideal_of(self.base):
            raise NotAnIdealError(
                "the given set is not an ideal of the semigroup contained in it"
            )


def numerical_duplication(spec: DuplicationSpec) -> NumericalSemigroup:
    """The semigroup 2*S union (2*E + b) for S = base, E = ideal.

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
    S, E, b = spec.base, spec.ideal, spec.b
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
    smallest odd generator.  Past the seed's check, numerical_duplication
    settles every level: from a base other than N it asserts almost
    symmetry, type 2t + 1 and nu' = 2 nu, so t' - 2 nu' = 2 (t - 2 nu) + 1
    (the excess law, by induction); from N, level 1 is <2, 3>, pinned by
    the duplication identity.  A level's multiplicity is twice its base's,
    so m(S) * 2^depth > MULTIPLICITY_LIMIT is refused before level 1.
    """
    if depth < 0:
        raise InvalidArgumentError(f"depth must be nonnegative, got {depth}")
    if S.multiplicity > MULTIPLICITY_LIMIT >> depth:  # m * 2^depth > limit, exactly
        raise GeneratorTooLargeError(
            f"level {depth} would have multiplicity {S.multiplicity} * 2^{depth}, "
            f"above {MULTIPLICITY_LIMIT}"
        )
    if not (S.is_full() or is_almost_symmetric(S)):
        raise NotAlmostSymmetricError(f"{S!r} is not almost symmetric")
    chain = [S]
    for _ in range(depth):
        prev = chain[-1]
        spec = DuplicationSpec(
            prev, RelativeIdeal.maximal_ideal(prev), smallest_odd_generator(prev)
        )
        chain.append(numerical_duplication(spec))
    return chain


def _require_matrices(S: NumericalSemigroup, cases) -> None:
    """A family's certificate: for each (lam, target, rows) of cases,
    target is pseudo-Frobenius and each predicted row is one of its
    additive rows, and the rows' zero pattern is constant on the interior
    lambda range (the boundary values turn single entries to zero)."""
    pf = set(S.pseudo_frobenius())
    patterns = []
    for lam, target, rows in cases:
        if target not in pf:
            raise FamilyPropertyError(f"lambda = {lam}: {target} is not pseudo-Frobenius")
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
    if T < 2:
        raise ParameterTooSmallError(f"family parameter T = {T} must be at least 2")
    s = (3 * T + 2) ** 2 + 3
    gens = (s, s + 3, s + 3 * T + 1, s + 3 * T + 2)
    S = NumericalSemigroup(gens)
    if S.generators != gens:
        raise FamilyPropertyError(
            f"formula generators {gens} are not a minimal system"
        )

    def rows(lam: int) -> tuple[tuple[int, ...], ...]:
        return (
            (-1, 0, 3 * lam, 3 * T + 3 - 3 * lam),
            (0, -1, 3 * lam - 3, 3 * T + 6 - 3 * lam),
            (T + 4 + lam, 2 * T - lam, -1, 0),
            (2 * T + 3 + lam, T - lam, 1, -1),
        )

    f = (3 * T + 3) * gens[3] - gens[0]
    _require_matrices(S, ((lam, f - 3 * lam, rows(lam)) for lam in range(1, T + 1)))
    return S


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


def ideal_from_generators(S: NumericalSemigroup, elements) -> RelativeIdeal:
    """The integral ideal generated by the given elements of S:
    everything of the form element + member, whose least element in
    class r mod m is the least e + a[r - e] (a the Apery set, indices
    mod m)."""
    elems = set(elements)
    if not elems:
        raise EmptyGeneratorsError("an ideal needs at least one generator")
    m = S.multiplicity
    a = S.apery
    least = (min(e + a[(r - e) % m] for e in elems) for r in range(m))
    return RelativeIdeal(tuple(least))


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
    would need k | d, so k = 1 < T.  So the set test alone pins nu = 6.
    The construction order is not ascending (n_4 < n_3 for small d), so
    predicted rows are permuted into generator order before checking.
    """
    for name, value in (("T", T), ("d", d), ("k", k)):
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

    raw = dim6_raw_generators(T, d, k)
    S = NumericalSemigroup(sorted(raw))
    if set(S.generators) != set(raw):
        raise FamilyPropertyError(
            f"formula generators {raw} are not a minimal system"
        )
    # order[p] = construction index sitting at ascending position p
    order = sorted(range(6), key=lambda i: raw[i])

    def rows(lam: int) -> list[tuple[int, ...]]:
        printed = (
            (-1, T + 1 - lam, 0, 0, lam, 0),
            (0, -1, T - lam, 0, 0, lam),
            (T + 2 - lam, 0, -1, lam, 0, 0),
            (0, T - lam, 0, -1, lam + 1, 0),
            (0, 0, T - 1 - lam, 0, -1, lam + 1),
            (T + 1 - lam, 0, 0, lam + 1, 0, -1),
        )
        return [tuple(printed[order[p]][order[q]] for q in range(6)) for p in range(6)]

    _require_matrices(
        S, ((lam, target, rows(lam)) for lam, target in enumerate(dim6_progression(T, d, k)))
    )
    return S
