"""Invariant fingerprints of covers, and the comparable sets they form.

A fingerprint bundles everything the pipeline extracts from one cover: the
canonical certificate of its Hasse digraph, the matrix-block multiset, the
K-group pair and the primitive-spectrum poset.  Fingerprint sets collect the
distinct fingerprints over all covers of a given size, projected to one of
three comparison levels:

  graph    - full graph isomorphism class (finest),
  cstar    - block multiset together with the spectrum poset,
  ktheory  - the K-group pair (coarsest).
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from .arrangements import (
    DEFAULT_COVER_SIZE_CAP,
    enumerate_interval_cover_types,
)
from .digraphs import DEFAULT_VERTEX_CAP, CanonicalCert, DiGraph, canonical_cert
from .errors import Frozen, LevelMismatch
from .graphalgebra import (
    BlockDecomposition,
    KPair,
    PrimPoset,
    block_decomposition,
    k_theory,
    prim_space,
)
from .hasse import (
    HPartition,
    cover_class_masks,
    hasse_digraph,
    hasse_edges,
    make_hpartition,
)
from .spaces import Cover, FiniteSpace, enumerate_covers

LEVELS = ("graph", "cstar", "ktheory")


class Fingerprint(Frozen):
    def __init__(self, graph_cert: CanonicalCert, blocks: BlockDecomposition,
                 kpair: KPair, prim: PrimPoset):
        # the pipeline only produces acyclic graphs, where these counts agree
        if len(blocks.blocks) != len(prim.points):
            raise ValueError("block count and spectrum size disagree")
        if kpair.k0_rank != len(blocks.blocks) or kpair.k0_torsion:
            raise ValueError("K-groups inconsistent with the block picture")
        d = self.__dict__
        d["graph_cert"] = graph_cert
        d["blocks"] = blocks
        d["kpair"] = kpair
        d["prim"] = prim

    def __eq__(self, other):
        if other.__class__ is not Fingerprint:
            return NotImplemented
        return ((self.graph_cert, self.blocks, self.kpair, self.prim)
                == (other.graph_cert, other.blocks, other.kpair, other.prim))

    def __hash__(self):
        return hash((self.graph_cert, self.blocks, self.kpair, self.prim))

    def project(self, level: str) -> tuple:
        """Hashable, sortable key of the fingerprint at a comparison level."""
        if level == "graph":
            return (self.graph_cert.vertex_count, self.graph_cert.blob)
        if level == "cstar":
            return (
                self.blocks.blocks,
                len(self.prim.points),
                self.prim.cert.blob,
            )
        if level == "ktheory":
            return (self.kpair.k0_rank, self.kpair.k0_torsion, self.kpair.k1_rank)
        raise LevelMismatch(f"unknown level {level!r}")

    def to_json(self) -> dict:
        return {
            "graph": {
                "vertices": self.graph_cert.vertex_count,
                "cert": self.graph_cert.hex(),
            },
            "blocks": list(self.blocks.blocks),
            "k": self.kpair.to_json(),
            "prim": {
                "points": len(self.prim.points),
                "order": sorted([i, j] for i, j in self.prim.order),
            },
        }


def fingerprint_of(source: Union[Cover, HPartition],
                   cap_vertices: int = DEFAULT_VERTEX_CAP,
                   memo: Optional[dict] = None) -> Fingerprint:
    """Run one cover (or its precomputed partition) through the pipeline.

    A cover's Hasse digraph is built from its class bitmasks, with no
    partition and no vertex labels; it equals ``hasse_digraph`` of
    ``hpartition_of_cover`` on ``(n, edges)``.  Everything after the Hasse
    digraph depends on that digraph alone, so ``memo``, when given, maps each
    labelled digraph already seen (``DiGraph`` compares on ``(n, edges)``) to
    its fingerprint.  The caller owns it for one fingerprint set; results are
    the same with or without it.
    """
    if isinstance(source, Cover):
        classes = cover_class_masks(source)
        g = DiGraph(n=len(classes), edges=hasse_edges(classes))
    else:
        g = hasse_digraph(source)
    if memo is not None and g in memo:
        return memo[g]
    fp = Fingerprint(
        graph_cert=canonical_cert(g, cap=cap_vertices),
        blocks=block_decomposition(g),
        kpair=k_theory(g),
        prim=prim_space(g, cap=cap_vertices),
    )
    if memo is not None:
        memo[g] = fp
    return fp


def singleton_fingerprint() -> Fingerprint:
    """The one-vertex fingerprint (trivial cover; also the empty-space
    convention)."""
    return fingerprint_of(make_hpartition([frozenset({0})], 1))


class FingerprintSet(Frozen):
    """Deduplicated, canonically sorted fingerprint keys at one level.

    ``n`` is the cover-size scope (None = union over every size).  ``details``
    carries one readable fingerprint report per element, for output only,
    and is ignored by equality.
    """

    def __init__(self, level: str, n: Optional[int], elements: tuple,
                 details: tuple = ()):
        d = self.__dict__
        d["level"] = level
        d["n"] = n
        d["elements"] = elements
        d["details"] = details

    def __eq__(self, other):
        if other.__class__ is not FingerprintSet:
            return NotImplemented
        return (self.level, self.n, self.elements) == (other.level, other.n, other.elements)

    def __hash__(self):
        return hash((self.level, self.n, self.elements))

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "n": "all" if self.n is None else self.n,
            "count": len(self.elements),
            "fingerprints": list(self.details),
        }


def collect_fingerprints(fps: Iterable[Fingerprint], level: str,
                         n: Optional[int]) -> FingerprintSet:
    """Distinct keys at ``level``; each key's detail is the realizing
    fingerprint with the smallest content, so it depends only on the set of
    fingerprints and never on the order they arrive in."""
    if level not in LEVELS:
        raise LevelMismatch(f"unknown level {level!r}")
    chosen = {}
    # a memo hands out the same object many times; holding each one keeps
    # its id from being reused
    seen = {}
    for fp in fps:
        if id(fp) in seen:
            continue
        seen[id(fp)] = fp
        key = fp.project(level)
        k = fp.kpair
        # everything to_json reports, as one sortable tuple
        content = (fp.graph_cert.blob, fp.blocks.blocks,
                   (k.k0_rank, k.k0_torsion, k.k1_rank), tuple(sorted(fp.prim.order)))
        if key not in chosen or content < chosen[key][0]:
            chosen[key] = (content, fp)
    keys = sorted(chosen)
    return FingerprintSet(
        level=level,
        n=n,
        elements=tuple(keys),
        details=tuple(chosen[k][1].to_json() for k in keys),
    )


def fingerprint_set(sources: Iterable[Union[Cover, HPartition]], level: str,
                    n: Optional[int], cap_vertices: int = DEFAULT_VERTEX_CAP
                    ) -> FingerprintSet:
    """Distinct fingerprints of ``sources`` (covers or their partitions) at
    ``level``, under the size scope ``n``; one memo serves the whole set."""
    memo: dict = {}
    return collect_fingerprints(
        (fingerprint_of(s, cap_vertices, memo) for s in sources), level, n)


def fingerprints_of_space(space: FiniteSpace, n: Optional[int], level: str,
                          cap_vertices: int = DEFAULT_VERTEX_CAP
                          ) -> FingerprintSet:
    """Distinct fingerprints over all covers of ``space`` with exactly ``n``
    members (every size when ``n`` is None)."""
    return fingerprint_set(enumerate_covers(space, n), level, n, cap_vertices)


def fingerprints_of_domain(domain, n: int, level: str,
                           cap_cover: int = DEFAULT_COVER_SIZE_CAP,
                           cap_vertices: int = DEFAULT_VERTEX_CAP
                           ) -> FingerprintSet:
    """Distinct fingerprints over all combinatorial types of n-interval
    covers of a segment or line domain."""
    return fingerprint_set(enumerate_interval_cover_types(domain, n, cap_cover),
                           level, n, cap_vertices)


def empty_space_fingerprints(level: str) -> FingerprintSet:
    """Fingerprint set assigned to the empty space by convention: the single
    one-vertex fingerprint, at size scope 1."""
    return collect_fingerprints([singleton_fingerprint()], level, 1)


def sets_match(a: FingerprintSet, b: FingerprintSet) -> bool:
    """Mutual containment of two fingerprint sets.

    Both directions of the existential matching collapse to set equality
    once fingerprints are reduced to canonical keys, which makes the
    relation an equivalence by construction.
    """
    if a.level != b.level:
        raise LevelMismatch(f"levels differ: {a.level} vs {b.level}")
    if a.n != b.n:
        raise LevelMismatch(f"size scopes differ: {a.n} vs {b.n}")
    return set(a.elements) == set(b.elements)
