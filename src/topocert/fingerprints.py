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

from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from .arrangements import (
    DEFAULT_COVER_SIZE_CAP,
    enumerate_interval_cover_types,
)
from .digraphs import DEFAULT_VERTEX_CAP, CanonicalCert, DiGraph, canonical_cert
from .errors import LevelMismatch
from .graphalgebra import (
    BlockDecomposition,
    KPair,
    PrimPoset,
    block_decomposition,
    k_theory,
    prim_space,
)
from .hasse import HPartition, hasse_digraph, hpartition_of_cover
from .spaces import Cover, FiniteSpace, enumerate_covers

LEVELS = ("graph", "cstar", "ktheory")


@dataclass(frozen=True)
class Fingerprint:
    graph_cert: CanonicalCert
    blocks: BlockDecomposition
    kpair: KPair
    prim: PrimPoset

    def __post_init__(self):
        # the pipeline only produces acyclic graphs, where these counts agree
        if len(self.blocks.blocks) != len(self.prim.points):
            raise ValueError("block count and spectrum size disagree")
        if self.kpair.k0_rank != len(self.blocks.blocks) or self.kpair.k0_torsion:
            raise ValueError("K-groups inconsistent with the block picture")

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
                   cap_vertices: int = DEFAULT_VERTEX_CAP) -> Fingerprint:
    """Run one cover (or its precomputed partition) through the pipeline."""
    partition = (
        hpartition_of_cover(source) if isinstance(source, Cover) else source
    )
    g = hasse_digraph(partition)
    return Fingerprint(
        graph_cert=canonical_cert(g, cap=cap_vertices),
        blocks=block_decomposition(g),
        kpair=k_theory(g),
        prim=prim_space(g, cap=cap_vertices),
    )


def singleton_fingerprint() -> Fingerprint:
    """The one-vertex fingerprint (trivial cover; also the empty-space
    convention)."""
    g = DiGraph(n=1, edges=frozenset())
    return Fingerprint(
        graph_cert=canonical_cert(g),
        blocks=block_decomposition(g),
        kpair=k_theory(g),
        prim=prim_space(g),
    )


@dataclass(frozen=True)
class FingerprintSet:
    """Deduplicated, canonically sorted fingerprint keys at one level.

    ``n`` is the cover-size scope (None = union over every size).  ``details``
    carries one readable fingerprint report per element, for output only.
    """

    level: str
    n: Optional[int]
    elements: tuple
    details: tuple = field(default=(), compare=False)

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "n": "all" if self.n is None else self.n,
            "count": len(self.elements),
            "fingerprints": list(self.details),
        }


def collect_fingerprints(fps: Iterable[Fingerprint], level: str,
                         n: Optional[int]) -> FingerprintSet:
    if level not in LEVELS:
        raise LevelMismatch(f"unknown level {level!r}")
    chosen = {}
    for fp in fps:
        key = fp.project(level)
        if key not in chosen:
            chosen[key] = fp.to_json()
    keys = sorted(chosen)
    return FingerprintSet(
        level=level,
        n=n,
        elements=tuple(keys),
        details=tuple(chosen[k] for k in keys),
    )


def fingerprints_of_space(space: FiniteSpace, n: Optional[int], level: str,
                          cap_vertices: int = DEFAULT_VERTEX_CAP
                          ) -> FingerprintSet:
    """Distinct fingerprints over all covers of ``space`` with exactly ``n``
    members (every size when ``n`` is None)."""
    fps = (
        fingerprint_of(c, cap_vertices) for c in enumerate_covers(space, n)
    )
    return collect_fingerprints(fps, level, n)


def fingerprints_of_domain(domain, n: int, level: str,
                           cap_cover: int = DEFAULT_COVER_SIZE_CAP,
                           cap_vertices: int = DEFAULT_VERTEX_CAP
                           ) -> FingerprintSet:
    """Distinct fingerprints over all combinatorial types of n-interval
    covers of a segment or line domain."""
    fps = (
        fingerprint_of(p, cap_vertices)
        for p in enumerate_interval_cover_types(domain, n, cap_cover)
    )
    return collect_fingerprints(fps, level, n)


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
