"""Density classes of a cover and their Hasse digraph.

Each point of a covered space gets the set of cover members containing it;
the distinct such sets, ordered by inclusion, form a finite poset whose Hasse
diagram is the graph everything downstream consumes.  Elements comparable to
nothing stay edgeless.

A class is an integer bitmask of members, from every source (the cell walks
in ``arrangements`` and ``cover_class_masks`` here): member i of n is bit
n-1-i, so member 0 is the leading digit.  ``class_order`` is the one order
of classes, by size and then by descending mask, which is the order of
their sorted member indices; ``class_members`` is the one decoder, for
output and ``canonical_key``.  ``hasse_edges`` finds the cover pairs.

The class poset is the T0 quotient of the topology the members generate:
points share a class when they have the same smallest neighbourhood in it,
and a class lies below another when its neighbourhood is larger.  So
``cover_neighbourhoods`` fixes the Hasse digraph up to isomorphism.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .digraphs import CanonicalCert, DiGraph, uncached_cert
from .spaces import Cover


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


def cover_class_masks(cover: Cover) -> tuple:
    """The classes of ``cover`` in ``class_order``.  Each point gets the
    mask of the members that contain it, from the point indices the space
    lists for each open."""
    point_indices = cover.space.open_point_indices
    masks = [0] * len(cover.space.points)
    bit = 1 << len(cover.members)
    for member in cover.members:
        bit >>= 1
        for p in point_indices[member]:
            masks[p] |= bit
    # nonempty: cover members jointly contain every point
    return class_order(masks)


def cover_neighbourhoods(cover: Cover) -> tuple:
    """Each point's smallest neighbourhood in the topology that the members
    of ``cover`` generate, as a bitmask of points: the AND of the members
    that contain the point."""
    space = cover.space
    point_indices, mask_by_open = space.open_point_indices, space.mask_by_open
    nbhds = [space.full_mask] * len(space.points)
    for member in cover.members:
        m = mask_by_open[member]
        for p in point_indices[member]:
            nbhds[p] &= m
    return tuple(nbhds)


def hpartition_of_cover(cover: Cover) -> HPartition:
    """The classes of ``cover``: the sets of members that contain a point."""
    n = len(cover.members)
    return HPartition(n, cover_class_masks(cover),
                      f"cover(n={n}) of space({len(cover.space.points)} points)")


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


def canonical_key(partition: HPartition) -> CanonicalCert:
    """Label-independent identity of a partition, used to deduplicate
    combinatorial cover types.

    The canonical certificate of the member->class incidence digraph:
    members 0..n-1, then one vertex per class, and an edge i->n+j when member
    i lies in class j.  Members are exactly the vertices of in-degree 0, so
    two keys are equal exactly when the partitions agree up to relabeling
    the members.  A digraph above the default vertex cap raises CapExceeded.
    Each partition arrives here once, so the canonicalisation is not cached.
    """
    n = partition.member_count
    edges = frozenset((i, n + j) for j, c in enumerate(partition.classes)
                      for i in class_members(c, n))
    return uncached_cert(DiGraph(n=n + len(partition.classes), edges=edges))
