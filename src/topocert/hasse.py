"""Density classes of a cover and their Hasse digraph.

Each point of a covered space gets the set of cover members containing it;
the distinct such sets, ordered by inclusion, form a finite poset whose Hasse
diagram is the graph everything downstream consumes.  Elements comparable to
nothing stay edgeless.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .digraphs import CanonicalCert, DiGraph, uncached_cert
from .spaces import Cover


@dataclass(frozen=True)
class HPartition:
    """The distinct member-index sets of a cover, canonically sorted."""

    member_count: int
    classes: tuple  # of frozensets of member indices
    source: str = field(default="", compare=False)


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


def hpartition_of_cover(cover: Cover) -> HPartition:
    """Classes of the map sending each point to its set of covering members.

    Works on the classes directly, so no choice of class representatives ever
    arises.
    """
    classes = set()
    for p in cover.space.points:
        h = frozenset(i for i, m in enumerate(cover.members) if p in m)
        classes.add(h)  # nonempty: cover members jointly contain every point
    src = f"cover(n={len(cover.members)}) of space({len(cover.space.points)} points)"
    return make_hpartition(classes, len(cover.members), src)


def hasse_digraph(partition: HPartition) -> DiGraph:
    """Cover relations of the classes under strict inclusion.

    Vertex i is the i-th canonical class; edge i->j means class i is a
    maximal proper subset of class j among the classes.
    """
    cls = partition.classes
    k = len(cls)
    edges = set()
    for i in range(k):
        for j in range(k):
            if i == j or not cls[i] < cls[j]:
                continue
            if any(cls[i] < cls[m] < cls[j] for m in range(k) if m not in (i, j)):
                continue
            edges.add((i, j))
    return DiGraph(n=k, edges=frozenset(edges), labels=cls)


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
