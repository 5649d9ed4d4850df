"""Genus-tree enumeration of numerical semigroups.

Removing a minimal generator larger than the Frobenius number takes a
semigroup of genus g to one of genus g + 1, and every semigroup arises
exactly once this way (put the Frobenius number back to recover the
parent).  A node is (generators, frobenius, genus, apery, cell): the
minimal generators, the Apery set with respect to the multiplicity,
which is the walk's only membership structure, and a cell that yields
the Apery set's max-plus self-convolution and the pseudo-Frobenius set
on demand.  Each child is built from its parent in O(embedding
dimension) steps: removing a generator g != m changes only the Apery
entry of g mod m, from g to g + m, and removing g = m steps down the
spine of ordinary semigroups, whose child has a closed form.  The
convolution follows the same single entry in O(m) steps and the
pseudo-Frobenius set the same removed generator in O(type) steps, but
only for a node that is built into a semigroup: a walk that only counts
or filters nodes never pays for either.

Nodes never leave this module: callers get semigroups, filtered by
embedding dimension before they are built, as one stream or as part k of
W of it: every W-th semigroup of the stream from index k.  Each part
walks the whole tree and builds only its own nodes (and resolves the
cells of their ancestors); neighbours in depth-first order cost about
the same, so the parts balance without any estimate of subtree sizes.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import islice

from ..core import NumericalSemigroup, _apery_convolution, is_int, require_int
from ..errors import InvalidArgumentError

# the cell is [] (not yet resolved; the spine children start so),
# [parent, r, x] (the parent's, with Apery entry r raised to x) or
# [c, pf] (resolved: convolution and pseudo-Frobenius set); see _resolve
Node = tuple[tuple[int, ...], int, int, tuple[int, ...], list]

# the semigroup N = <1>, with frobenius -1 and pseudo-Frobenius set
# {-1}; its cell is already resolved, so no walk mutates this shared node
_ROOT: Node = ((1,), -1, 0, (0,), [[0], (-1,)])


def _child(node: Node, i: int) -> Node:
    """The child that removes the generator g = gens[i] > frobenius.

    For g = m we have m > F, so the node is {0} u [m, oo) and the child
    {0} u [m + 1, oo): generators m + 1..2m + 1, Apery set
    (0, m + 2, ..., 2m + 1).  For g != m, g is the Apery element of its
    class (g - m would make it reducible) and g + m the next member of
    that class, so one entry changes.  Every other generator stays
    minimal, and the only new one can be x = g + m, which joins unless
    x - n is a nonzero member of the child for a kept generator n.
    Every generator is at most F + m < x, so x - n > 0 and appending x
    keeps the generators ascending.  Only the n strictly between m and g
    need testing: for n > g, x - n lies in (0, m), below the child's
    multiplicity m, and for n = m, x - n = g, which the child drops.
    The test is a plain loop, not any() over a generator expression:
    most nodes test one or two n, and a generator frame per node costs
    more than the test.
    """
    gens, _, genus, apery, _ = node
    m = gens[0]
    if i == 0:
        top = 2 * m + 2
        return (tuple(range(m + 1, top)), m, genus + 1, (0, *range(m + 2, top)), [])
    g = gens[i]
    r = g % m
    x = g + m
    apery = (*apery[:r], x, *apery[r + 1 :])
    kept = gens[:i] + gens[i + 1 :]
    for n in gens[1:i]:
        if x - n >= apery[(x - n) % m]:
            break
    else:
        kept += (x,)
    return kept, g, genus + 1, apery, [node, r, x]


def _resolve(node: Node) -> list:
    """The node's resolved cell [c, pf], resolved in place in its cell
    and in every cell on the way up: c[j] = max over u of a[u] + a[j - u]
    (indices mod m) is the Apery convolution, pf the ascending
    pseudo-Frobenius set.

    A child that removes g != m raises only a[r], r = g mod m, to x, so
    every term of its convolution that avoids index r is the parent's,
    and the terms through r are x + a'[j - r]; since the parent's terms
    through r are no larger, c'[j] = max(c[j], x + a'[j - r]), O(m) steps
    from the parent's c.

    Its pseudo-Frobenius set is the parent's f with g - f outside S,
    followed by g: t Apery lookups, t the parent's type.  Each f <= F < g,
    so g - f > 0.  If g - f lies in S, then f + (g - f) = g leaves the
    child and f is no longer pseudo-Frobenius; otherwise no nonzero s of
    the child has f + s = g, and f stays.  g + s lies in the child for
    every nonzero s of it.  A gap that is not pseudo-Frobenius in S has
    f + s outside S for some nonzero s of S, and s != g as f + g > F, so
    it stays non-pseudo-Frobenius.  g - f < g lies in S iff it lies in
    the child, so the child's Apery set decides it.

    The spine children, {0} u [m, oo), compute c from scratch and have
    pf = 1..F.

    The step is one list comprehension with the sum and the maximum
    inline: a call of max or x.__add__ per entry costs more than both.
    """
    pending = []
    cell = node[4]
    while len(cell) == 3:
        pending.append(node)
        node = cell[0]
        cell = node[4]
    if not cell:
        cell += (_apery_convolution(node[3]), tuple(range(1, node[1] + 1)))
    c, pf = cell
    for node in reversed(pending):
        cell = node[4]
        _, r, x = cell
        a = node[3]
        m = len(a)
        # a[s:] + a[:s] is a'[(j - r) % m] for j in [0, m)
        s = m - r
        c = [q if (q := x + b) > p else p for p, b in zip(c, a[s:] + a[:s])]
        g = x - m
        pf = (*[f for f in pf if (y := g - f) < a[y % m]], g)
        cell[:] = (c, pf)
    return cell


def require_embdim(embdim) -> frozenset[int] | None:
    """The walk's embedding-dimension filter as a frozenset: None, or a
    nonempty collection of integers >= 1 (is_int), else
    InvalidArgumentError; each entry point checks it when it is called."""
    if embdim is None:
        return None
    try:
        wanted = frozenset(embdim)
    except TypeError:
        wanted = frozenset()
    if not wanted or not all(is_int(n) and n >= 1 for n in wanted):
        raise InvalidArgumentError(f"embdim values must be positive integers, got {embdim!r}")
    return wanted


def _nodes(genus_max: int) -> Iterator[Node]:
    """Depth-first stream of the nodes of the tree down to genus_max,
    children visited by increasing removed generator."""
    stack = [_ROOT]
    while stack:
        node = stack.pop()
        yield node
        gens, frob, genus, _, _ = node
        if genus < genus_max:
            stack += [_child(node, i) for i in range(len(gens) - 1, -1, -1) if gens[i] > frob]


def _semigroup_from_node(node: Node) -> NumericalSemigroup:
    gens, frob, genus, apery, _ = node
    c, pf = _resolve(node)
    return NumericalSemigroup._from_minimal_data(gens, frob, genus, apery, c, pf)


def semigroups_up_to(
    genus_max: int,
    embdim: Iterable[int] | None = None,
    part: int = 0,
    parts: int = 1,
) -> Iterator[NumericalSemigroup]:
    """Every numerical semigroup of genus <= genus_max, exactly once, in a
    deterministic depth-first order.  embdim restricts the yielded (not
    the visited) semigroups to the given embedding dimensions; the filter
    reads the node's generator count, so a node it drops is never built.
    Of that stream, only every parts-th semigroup from index part is
    built and yielded, so parts 0..parts - 1 partition it.  genus_max,
    parts and part pass core.require_int (>= 0, >= 1, >= 0), part < parts
    and embdim passes require_embdim, else InvalidArgumentError when
    called (the walk itself starts at the first next())."""
    require_int("genus_max", genus_max, 0)
    require_int("parts", parts, 1)
    require_int("part", part, 0)
    if part >= parts:
        raise InvalidArgumentError(f"part must be below parts, got part {part} of {parts}")
    wanted = require_embdim(embdim)
    nodes = _nodes(genus_max)
    if wanted is not None:
        nodes = (node for node in nodes if len(node[0]) in wanted)
    return map(_semigroup_from_node, islice(nodes, part, None, parts))


def count_by_genus(genus_max: int) -> list[int]:
    """Number of semigroups of each genus 0..genus_max (no construction,
    walk only); genus_max passes core.require_int (>= 0)."""
    require_int("genus_max", genus_max, 0)
    counts = [0] * (genus_max + 1)
    for node in _nodes(genus_max):
        counts[node[2]] += 1
    return counts
