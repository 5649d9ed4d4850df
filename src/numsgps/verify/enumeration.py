"""Genus-tree enumeration of numerical semigroups.

Removing a minimal generator larger than the Frobenius number takes a
semigroup of genus g to one of genus g + 1, and every semigroup arises
exactly once this way (put the Frobenius number back to recover the
parent).  A node is (mask, generators, frobenius, genus, apery): the
membership bitmask, the minimal generators, and the Apery set with
respect to the multiplicity.  Child generator systems and Apery sets are
maintained incrementally instead of recomputed: removing a generator
g != m changes only the Apery entry of g mod m, from g to g + m, and only
the spine of ordinary semigroups (g = m) rescans the mask.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from ..core import NumericalSemigroup


def _mask_width(genus_max: int) -> int:
    # generators stay below 3 * genus and candidate probes below 4 * genus
    return 4 * genus_max + 8


def _child_generators(mask: int, gens: tuple[int, ...], g: int) -> tuple[int, ...]:
    """Minimal generators after removing g, given the child mask.

    Surviving generators keep their minimality.  A new generator must be
    g + s for a member s between the old and the new multiplicity, which
    leaves one candidate (g + m) in general and two (2m, m + m') when the
    multiplicity m itself was removed.
    """
    m = gens[0]
    if g == m:
        mp = m + 1
        while not (mask >> mp) & 1:
            mp += 1
        lo = mp
        cand = (2 * m, m + mp)
    else:
        lo = m
        cand = (g + m,)
    kept = [n for n in gens if n != g]
    for x in cand:
        if x in kept:
            continue
        a = lo
        reducible = False
        while 2 * a <= x:
            if (mask >> a) & 1 and (mask >> (x - a)) & 1:
                reducible = True
                break
            a += 1
        if not reducible:
            kept.append(x)
    kept.sort()
    return tuple(kept)


Node = tuple[int, tuple[int, ...], int, int, tuple[int, ...]]


def _apery_from_mask(mask: int, m: int) -> tuple[int, ...]:
    """Least member of each residue class mod m, by scanning the mask
    upward from m."""
    apery = [-1] * m
    apery[0] = 0
    found = 1
    x = m
    while found < m:
        if (mask >> x) & 1:
            r = x % m
            if apery[r] < 0:
                apery[r] = x
                found += 1
        x += 1
    return tuple(apery)


def _child_apery(
    mask: int, gens: tuple[int, ...], apery: tuple[int, ...], g: int
) -> tuple[int, ...]:
    """Apery set of the child that removes the generator g, given the
    child mask.

    For g != m, g is the Apery element of its class (g - m would make it
    reducible) and g + m the next member of that class, so one entry
    changes.  Removing g = m (then m > F, so the child's multiplicity is
    m + 1) changes the modulus, and the child's set is rebuilt from the
    mask.
    """
    m = gens[0]
    if g == m:
        return _apery_from_mask(mask, m + 1)
    r = g % m
    return apery[:r] + (g + m,) + apery[r + 1 :]


def _root_node(genus_max: int) -> Node:
    width = _mask_width(genus_max)
    return ((1 << width) - 1, (1,), -1, 0, (0,))


def _nodes_from(start: Node, genus_max: int) -> Iterator[Node]:
    """Depth-first stream of (mask, generators, frobenius, genus, apery)
    nodes in the subtree of `start`, children visited by increasing
    removed generator.  The start mask must have been built for a width
    covering genus_max."""
    stack = [start]
    while stack:
        node = stack.pop()
        yield node
        mask, gens, frob, genus, apery = node
        if genus >= genus_max:
            continue
        children = []
        for g in gens:
            if g <= frob:
                continue
            child_mask = mask & ~(1 << g)
            children.append(
                (
                    child_mask,
                    _child_generators(child_mask, gens, g),
                    g,
                    genus + 1,
                    _child_apery(child_mask, gens, apery, g),
                )
            )
        stack.extend(reversed(children))


def _nodes(genus_max: int) -> Iterator[Node]:
    return _nodes_from(_root_node(genus_max), genus_max)


def _semigroup_from_node(node: Node) -> NumericalSemigroup:
    return NumericalSemigroup._from_minimal_data(node[1], node[4])


def semigroups_up_to(
    genus_max: int,
    embdim: Iterable[int] | None = None,
) -> Iterator[NumericalSemigroup]:
    """Every numerical semigroup of genus <= genus_max, exactly once, in a
    deterministic depth-first order.  embdim restricts the yielded (not
    the visited) semigroups to the given embedding dimensions."""
    if genus_max < 0:
        raise ValueError(f"genus_max must be nonnegative, got {genus_max}")
    wanted = None if embdim is None else frozenset(embdim)
    for node in _nodes(genus_max):
        if wanted is None or len(node[1]) in wanted:
            yield _semigroup_from_node(node)


def count_by_genus(genus_max: int) -> list[int]:
    """Number of semigroups of each genus 0..genus_max (no construction,
    walk only)."""
    counts = [0] * (genus_max + 1)
    for node in _nodes(genus_max):
        counts[node[3]] += 1
    return counts
