"""Density classes of a cover and their Hasse digraph.

Each point of a covered space gets the set of cover members containing it;
the distinct such sets, ordered by inclusion, form a finite poset whose Hasse
diagram is the graph everything downstream consumes.  Elements comparable to
nothing stay edgeless.

A class is an integer bitmask of members: member i of n is bit n-1-i, so
member 0 is the leading digit.  ``cell_classes`` is the one encoder, of the
cells of ``arrangements`` and the points of ``hpartition_of_cover``;
``class_order`` is the one order, by size and then by descending mask, which
is the order of sorted member indices; ``class_members`` is the one decoder.
``hasse_edges`` finds the cover pairs.

The class poset is the T0 quotient of the topology the members generate:
points share a class when they have the same smallest neighbourhood in it,
and a class lies below another when its neighbourhood is larger.  So a
cover's ``neighbourhoods`` fix its Hasse digraph up to isomorphism.
"""

from __future__ import annotations

from itertools import accumulate
from operator import xor
from typing import Iterable, NamedTuple, Sequence

from .digraphs import DiGraph, canonical_form, check_vertices
from .errors import DEFAULT_VERTEX_CAP


class HPartition(NamedTuple):
    """The distinct classes of a cover as member bitmasks, in
    ``class_order``; ``source`` says where the cover came from."""

    member_count: int
    classes: tuple
    source: str = ""


def class_order(masks: Iterable[int]) -> tuple:
    """The distinct class masks in canonical order: by size, then by
    descending mask."""
    return tuple(sorted(sorted(set(masks), reverse=True), key=int.bit_count))


def class_members(mask: int, n: int) -> tuple:
    """The member indices, ascending, of a class of an n-member cover."""
    members = []
    while mask:  # the highest bit left is the lowest member left
        members.append(n - mask.bit_length())
        mask ^= 1 << n - 1 - members[-1]
    return tuple(members)


def cell_classes(member_cells: Sequence[int], cells: range) -> list:
    """For each cell of the range ``cells``, the class of the members whose
    cell mask has it; a member's bit flips where its mask changes."""
    flips, full = [0] * len(cells), (1 << len(cells)) - 1
    for i, m in enumerate(reversed(member_cells)):  # member i of n is bit n-1-i
        m = m >> cells.start & full
        change = (m ^ m << 1) & full  # the first cell changes from no member
        while change:
            flips[(change & -change).bit_length() - 1] ^= 1 << i
            change &= change - 1
    return list(accumulate(flips, xor))


def hpartition_of_cover(cover: Cover) -> HPartition:
    """The classes of ``cover``: the sets of members that contain a point."""
    space, n = cover.space, len(cover.members)
    # nonempty: cover members jointly contain every point
    classes = cell_classes([space.open_masks[i] for i in cover.members],
                           range(len(space.points)))
    return HPartition(n, class_order(classes),
                      f"cover(n={n}) of space({len(space.points)} points)")


def hasse_edges(classes: Sequence[int]) -> frozenset:
    """Cover pairs of strict inclusion among distinct bitmask sets listed by
    size: (i, j) when ``classes[i]`` is a maximal proper subset of
    ``classes[j]`` among them."""
    below = []  # below[j]: bitmask of the indices of the sets inside set j
    edges = []
    for j, c in enumerate(classes):
        inside = reach = 0
        for i in range(j):  # a proper subset is smaller, so listed earlier
            a = classes[i]
            if a & c == a:
                inside |= 1 << i
                reach |= below[i]
        below.append(inside)
        # a set inside another set inside c is no cover of c
        covers = inside & ~reach
        while covers:
            low = covers & -covers
            edges.append((low.bit_length() - 1, j))
            covers ^= low
    return frozenset(edges)


def hasse_digraph(partition: HPartition) -> DiGraph:
    """Cover relations of the classes under strict inclusion.

    Vertex i is the i-th canonical class; edge i->j means class i is a
    maximal proper subset of class j among the classes.
    """
    cls = partition.classes
    return DiGraph(n=len(cls), edges=hasse_edges(cls))


def canonical_key(partition: HPartition) -> HPartition:
    """The canonical representative of a partition's combinatorial type,
    with an empty ``source``: two keys are equal exactly when the partitions
    agree up to relabeling the members.

    It is read off the canonical order of the member->class incidence
    digraph: members 0..n-1, then one vertex per class, and an edge i->n+j
    when member i lies in class j.  Members are exactly the vertices of
    in-degree 0, so the canonical order of two such digraphs maps members to
    members, and the representative numbers the members in that order.  A
    digraph above the default vertex cap raises CapExceeded.  Its neighbour
    sets are read off the class masks, with no ``DiGraph``, and it is not
    cached: each partition arrives here once.
    """
    n, classes = partition.member_count, partition.classes
    check_vertices(n + len(classes), DEFAULT_VERTEX_CAP)
    out, inc = [], [set() for _ in range(n + len(classes))]
    for i in range(n):
        bit = 1 << n - 1 - i
        out.append({j for j, c in enumerate(classes, n) if c & bit})
        for j in out[i]:
            inc[j].add(i)
    out += [frozenset()] * len(classes)
    order = canonical_form(out, inc)[1]
    masks, bit = [0] * len(out), 1 << n
    for v in order:  # the members in canonical order take bits n-1, n-2, ...
        if v < n:
            bit >>= 1
            for j in out[v]:
                masks[j] |= bit
    return HPartition(n, class_order(masks[n:]))
