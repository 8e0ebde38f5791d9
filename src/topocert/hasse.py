"""Density classes of a cover and their Hasse digraph.

Each point of a covered space gets the set of cover members containing it;
the distinct such sets, ordered by inclusion, form a finite poset whose Hasse
diagram is the graph everything downstream consumes.  Elements comparable to
nothing stay edgeless.

Both steps run on integer bitmasks.  ``cover_class_masks`` gives each point
the bitmask of the members that contain it, through the point indices the
space keeps for each open, and returns the distinct masks in canonical class
order; ``hasse_edges`` finds the cover pairs among bitmask sets.
``hpartition_of_cover``, ``hasse_digraph`` and, on a memo miss,
``fingerprints.fingerprint_of`` all go through these two, and the
fingerprint of a finite-space cover builds no frozenset and no partition.

The class poset is the T0 quotient of the topology the members generate:
points share a class when they have the same smallest neighbourhood in it,
and a class lies below another when its neighbourhood is larger.  So
``cover_neighbourhoods`` fixes the Hasse digraph up to isomorphism.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .digraphs import CanonicalCert, DiGraph, uncached_cert
from .errors import Frozen
from .spaces import Cover


class HPartition(Frozen):
    """The distinct member-index sets of a cover (frozensets of member
    indices), canonically sorted; ``source`` is ignored by equality."""

    def __init__(self, member_count: int, classes: tuple, source: str = ""):
        d = self.__dict__
        d["member_count"] = member_count
        d["classes"] = classes
        d["source"] = source

    def __eq__(self, other):
        if other.__class__ is not HPartition:
            return NotImplemented
        return (self.member_count, self.classes) == (other.member_count, other.classes)

    def __hash__(self):
        return hash((self.member_count, self.classes))


def _class_key(c: frozenset) -> tuple:
    return (len(c), tuple(sorted(c)))


def make_hpartition(classes: Iterable[frozenset], member_count: int,
                    source: str = "") -> HPartition:
    out = []
    seen = set()
    for c in classes:
        fc = frozenset(c)
        if not fc:
            raise ValueError("density classes must be nonempty")
        if fc in seen:
            raise ValueError("density classes must be pairwise distinct")
        if any(not (0 <= i < member_count) for i in fc):
            raise ValueError("class mentions a member index out of range")
        seen.add(fc)
        out.append(fc)
    if not out:
        raise ValueError("a partition needs at least one class")
    if len(out) > 2 ** member_count - 1:
        raise ValueError("more classes than an n-member cover can produce")
    out.sort(key=_class_key)
    return HPartition(member_count=member_count, classes=tuple(out), source=source)


def cover_class_masks(cover: Cover) -> list:
    """The classes of ``cover`` as bitmasks of members, in canonical class
    order: by size, then by sorted member indices.

    Member i of n is bit n-1-i, so a class reads as a binary word with member
    0 as its leading digit, and classes of one size sort in descending order
    of their masks.  Each point gets the mask of the members that contain
    it, from the point indices the space lists for each open.
    """
    point_indices = cover.space.open_point_indices
    masks = [0] * len(cover.space.points)
    bit = 1 << len(cover.members)
    for member in cover.members:
        bit >>= 1
        for p in point_indices[member]:
            masks[p] |= bit
    # nonempty: cover members jointly contain every point
    return sorted(sorted(set(masks), reverse=True), key=int.bit_count)


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
    """Classes of the map sending each point to its set of covering members.

    Works on the classes directly, so no choice of class representatives ever
    arises; the classes are those of ``cover_class_masks``, as frozensets of
    member indices.
    """
    n = len(cover.members)
    classes = [frozenset(i for i in range(n) if c >> (n - 1 - i) & 1)
               for c in cover_class_masks(cover)]
    src = f"cover(n={n}) of space({len(cover.space.points)} points)"
    return make_hpartition(classes, n, src)


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
    masks = [sum(1 << i for i in c) for c in cls]
    return DiGraph(n=len(cls), edges=hasse_edges(masks), labels=cls)


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
    edges = frozenset(
        (i, n + j) for j, c in enumerate(partition.classes) for i in c
    )
    return uncached_cert(DiGraph(n=n + len(partition.classes), edges=edges))
