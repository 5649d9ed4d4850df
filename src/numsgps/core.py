"""Core arithmetic of numerical semigroups.

A numerical semigroup S is an additive submonoid of the natural numbers
whose complement (the set of gaps) is finite; equivalently it is generated
by finitely many positive integers with gcd 1.  Everything here is exact
integer arithmetic: the Apery set with respect to the multiplicity is the
structure everything else derives from.  Membership, Frobenius number,
genus, pseudo-Frobenius numbers and factorizations read off it, and so
does its max-plus self-convolution (apery_convolution, cached like the
pseudo-Frobenius set).  A semigroup built from generators finds its
pseudo-Frobenius set by Apery maximality; one built by the genus-tree
walk (_from_minimal_data) is handed its Frobenius number, genus,
convolution and pseudo-Frobenius set, which the walk carries from parent
to child along with the Apery set.  Nothing here builds a structure that
grows with the Frobenius number; in the package, the reachability mask
of the NGV_PROPS claim does, and it is built only for an unpinned
pseudo-Frobenius number that no single later generator settles.

The full semigroup N (generated by 1) needs no special case: its Apery
set mod 1 is (0,), so the general code gives frobenius = -1, genus 0
and, the one Apery element being maximal, pseudo-Frobenius set {-1} and
type 1.
"""

from __future__ import annotations

import math
from operator import add
from typing import Iterable, Sequence

from .errors import (
    EmptyGeneratorsError,
    GcdNotOneError,
    GeneratorTooLargeError,
    InvalidArgumentError,
    NotAMemberError,
)

GENERATOR_LIMIT = 2**31
# the Apery set is a list with one entry per residue class mod the
# multiplicity; 2**20 entries take about 80 MB while it is built
MULTIPLICITY_LIMIT = 2**20

_INF = float("inf")


def is_int(value) -> bool:
    """An int other than a bool: a bool is an int to Python, but no
    generator, bound, count, index or depth."""
    return isinstance(value, int) and not isinstance(value, bool)


def require_int(name: str, value, least: int | None = None) -> None:
    """The integer rule of every public argument: value passes is_int and
    is at least least when given, else InvalidArgumentError naming it."""
    if not is_int(value):
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        bound = {0: "nonnegative", 1: "positive"}.get(least, f"at least {least}")
        raise InvalidArgumentError(f"{name} must be {bound}, got {value}")


def _apery_by_relaxation(modulus: int, generators: Sequence[int]) -> list[int]:
    """Least element of <generators> in each residue class mod `modulus`.

    Shortest paths on the residue graph, edge r -> (r + g) mod m of
    weight g for each generator g, relaxed one generator at a time in
    round-robin order (Boecker & Liptak, "A fast and simple algorithm for
    the money changing problem", Algorithmica 2007): the edges of g split
    the residues into gcd(g, m) cycles, and one walk around each cycle
    from its least entry adds every multiple of g.  Exact because all
    weights are positive; O(m * len(generators)) steps.  A modulus above
    MULTIPLICITY_LIMIT is a GeneratorTooLargeError, raised before any
    allocation.
    """
    if modulus > MULTIPLICITY_LIMIT:
        raise GeneratorTooLargeError(
            f"the Apery set mod {modulus} would need {modulus} entries; "
            f"the limit is {MULTIPLICITY_LIMIT}"
        )
    dist: list[float] = [_INF] * modulus
    dist[0] = 0
    for g in generators:
        step = g % modulus
        if step == 0:
            continue
        cycles = math.gcd(step, modulus)
        for start in range(cycles):
            r = min(range(start, modulus, cycles), key=dist.__getitem__)
            d = dist[r]
            if d == _INF:
                continue
            for _ in range(modulus // cycles - 1):
                r += step
                if r >= modulus:
                    r -= modulus
                d += g
                if dist[r] < d:
                    d = dist[r]
                else:
                    dist[r] = d
    return [int(d) for d in dist]


def _apery_convolution(a: tuple[int, ...]) -> list[int]:
    """c[j] = max over u of a[u] + a[(j - u) mod m], m = len(a), in m**2
    steps."""
    m = len(a)
    # aa[j + m - u] is a[(j - u) % m] for u in [0, m)
    aa = a + a
    return [max(map(add, a, aa[j + m : j : -1])) for j in range(m)]


def _complete(
    gens: tuple[int, ...], k: int, rest: int, coeffs: list[int], out: list
) -> None:
    """Append to out every coefficient tuple that extends coeffs[k + 1:]
    to a factorization, rest being what positions 0..k still owe."""
    g = gens[k]
    if k == 0:
        if rest % g == 0:
            coeffs[0] = rest // g
            out.append(tuple(coeffs))
            coeffs[0] = 0
        return
    for c in range(rest // g, -1, -1):
        coeffs[k] = c
        _complete(gens, k - 1, rest - c * g, coeffs, out)
    coeffs[k] = 0


class NumericalSemigroup:
    """Numerical semigroup given by an arbitrary generating set.

    The constructor validates the input (nonempty, positive, gcd 1,
    below 2**31), reduces it to the unique minimal system of generators,
    and computes the Apery set with respect to the multiplicity.
    """

    __slots__ = (
        "generators",
        "apery",
        "frobenius",
        "genus",
        "_pf",
        "_conv",
    )

    def __init__(self, generators: Iterable[int]) -> None:
        raw = sorted(set(generators))
        if not raw:
            raise EmptyGeneratorsError("need at least one generator")
        for g in raw:
            if not is_int(g):
                raise TypeError(f"generator {g!r} is not an integer")
            if g <= 0:
                raise InvalidArgumentError(f"generator {g} is not positive")
            if g >= GENERATOR_LIMIT:
                raise GeneratorTooLargeError(f"generator {g} is not below {GENERATOR_LIMIT}")
        if math.gcd(*raw) != 1:
            raise GcdNotOneError(f"gcd of {raw} is {math.gcd(*raw)}, not 1")

        m = raw[0]
        apery = _apery_by_relaxation(m, raw)

        def member(x: int) -> bool:
            return x >= apery[x % m]

        # g is redundant iff g = g' + s with g' a listed generator and s a
        # nonzero element; any decomposition can be rewritten in that form.
        self.generators = tuple(
            g for g in raw if not any(gp < g and member(g - gp) for gp in raw)
        )
        self.apery = tuple(apery)
        self.frobenius = max(apery) - m
        self.genus = sum(a // m for a in apery)
        self._pf = None
        self._conv = None

    @classmethod
    def _from_minimal_data(
        cls,
        generators: tuple[int, ...],
        frobenius: int,
        genus: int,
        apery: tuple[int, ...],
        convolution: list[int],
        pf: tuple[int, ...],
    ) -> "NumericalSemigroup":
        """Trusted fast path for the genus-tree walk, which carries every
        field from parent to child: `generators` already minimal and
        ascending, `apery` the Apery set with respect to generators[0],
        `convolution` its apery_convolution and `pf` the ascending
        pseudo-Frobenius set.  Nothing is rescanned."""
        self = object.__new__(cls)
        self.generators = generators
        self.apery = apery
        self.frobenius = frobenius
        self.genus = genus
        self._pf = pf
        self._conv = convolution
        return self

    # ------------------------------------------------------------------
    # basic invariants

    @property
    def multiplicity(self) -> int:
        return self.generators[0]

    @property
    def embedding_dimension(self) -> int:
        return len(self.generators)

    @property
    def type(self) -> int:
        return len(self.pseudo_frobenius())

    def is_full(self) -> bool:
        """True iff S = N."""
        return self.generators == (1,)

    # ------------------------------------------------------------------
    # membership

    def contains(self, x: int) -> bool:
        return x >= self.apery[x % self.generators[0]]

    __contains__ = contains

    # ------------------------------------------------------------------
    # gap structure

    def apery_set(self, n: int) -> list[int]:
        """The n smallest elements of S, one per residue class mod n.

        Entry r is the least element congruent to r; requires an integer n in S.
        """
        require_int("n", n)
        if n <= 0 or not self.contains(n):
            raise NotAMemberError(f"{n} is not a nonzero element of the semigroup")
        if n == self.generators[0]:
            return list(self.apery)
        return _apery_by_relaxation(n, self.generators)

    def pseudo_frobenius(self) -> tuple[int, ...]:
        """Ascending tuple of pseudo-Frobenius numbers: gaps f with
        f + s in S for every nonzero element s.

        f is pseudo-Frobenius iff w = f + m is maximal in the Apery set
        under the order induced by S, i.e. iff w + n leaves the Apery set
        for every generator n; O(m * embedding dimension) lookups.  A
        semigroup built by the genus-tree walk holds it already.
        """
        if self._pf is None:
            m = self.generators[0]
            apery = self.apery
            others = self.generators[1:]
            out = []
            for w in apery:
                for n in others:
                    x = w + n
                    if x == apery[x % m]:
                        break
                else:
                    out.append(w - m)
            out.sort()
            self._pf = tuple(out)
        return self._pf

    def apery_convolution(self) -> list[int]:
        """The max-plus self-convolution of the Apery set a: entry j is
        the max over u of a[u] + a[(j - u) mod m], m the multiplicity.
        The trace route reads it.  Computed once in m**2 steps unless the
        constructor was given it; the caller must not mutate the list.
        """
        if self._conv is None:
            self._conv = _apery_convolution(self.apery)
        return self._conv

    # ------------------------------------------------------------------
    # factorizations

    def factorization_tuples(self, x: int) -> list[tuple[int, ...]]:
        """All expressions of x as nonnegative combinations of the minimal
        generators, as coefficient tuples (entry k multiplies the k-th
        generator) in lexicographically descending order; [] when x has
        none.

        The search fixes the largest generators first and solves for the
        smallest by division, which visits far fewer partial sums than the
        ascending order; the result is then sorted into descending order.
        x obeys require_int with no lower bound.
        """
        require_int("x", x)
        out: list[tuple[int, ...]] = []
        if x >= 0:
            gens = self.generators
            _complete(gens, len(gens) - 1, x, [0] * len(gens), out)
        out.sort(reverse=True)
        return out

    # ------------------------------------------------------------------
    # dunder plumbing

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NumericalSemigroup):
            return NotImplemented
        return self.generators == other.generators

    def __hash__(self) -> int:
        return hash(self.generators)

    def __repr__(self) -> str:
        return f"NumericalSemigroup({', '.join(map(str, self.generators))})"
