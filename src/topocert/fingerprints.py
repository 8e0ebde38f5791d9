"""Invariant fingerprints of covers, and the comparable sets they form.

A fingerprint is what the comparison levels read off one cover: the
canonical certificate of its Hasse digraph and the block sizes of its graph
algebra.  That digraph is acyclic, so the algebra is a finite sum of matrix
blocks, one per sink: its primitive spectrum is one point per block with no
order, and its K-groups are (Z^blocks, 0), both written from the block
count.  Fingerprint sets collect the distinct fingerprints over all covers
of a given size, projected to one of three comparison levels:

  graph    - the canonical certificate, the isomorphism class of the Hasse
             digraph (finest),
  cstar    - the block sizes,
  ktheory  - the number of blocks, one per maximal class (coarsest).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Union

from .digraphs import canonical_cert, check_vertices
from .errors import DEFAULT_COVER_SIZE_CAP, DEFAULT_VERTEX_CAP, LEVELS, LevelMismatch
from .graphalgebra import KPair, block_decomposition
from .hasse import HPartition, hasse_digraph, hpartition_of_cover


class Fingerprint(NamedTuple):
    """Isomorphism invariants of one Hasse digraph: its canonical
    certificate and its block sizes, ascending."""

    graph_cert: bytes
    blocks: tuple

    def project(self, level: str):
        """Hashable, sortable key of the fingerprint at a comparison level."""
        if level == "graph":
            return self.graph_cert
        if level == "cstar":
            return self.blocks
        if level == "ktheory":
            return len(self.blocks)
        raise LevelMismatch(f"unknown level {level!r}")

    def to_json(self) -> dict:
        k = len(self.blocks)
        return {
            "graph": {
                "vertices": int.from_bytes(self.graph_cert[:4], "big"),
                "cert": self.graph_cert.hex(),
            },
            "blocks": list(self.blocks),
            "k": KPair(k0_rank=k, k0_torsion=(), k1_rank=0).to_json(),
            "prim": {"points": k, "order": []},
        }


def fingerprint_of(source: Union[Cover, HPartition],
                   cap_vertices: int = DEFAULT_VERTEX_CAP,
                   memo: Optional[dict] = None) -> Fingerprint:
    """Run one cover (or its precomputed partition) through the pipeline.

    A fingerprint depends only on the isomorphism class of the Hasse
    digraph.  ``memo``, when given, maps each key already seen to its
    fingerprint: each labelled Hasse digraph (vertex i being class i;
    ``DiGraph`` compares on ``(n, edges)``), and for a cover also its
    ``neighbourhoods``, which fix that class.  The caller owns the memo for
    one fingerprint set; results are the same with or without it.  A cover's
    partition is built only on a neighbourhood miss.  Its classes, the
    digraph's vertices, meet the cap before the digraph is built, and a
    digraph is canonicalised and decomposed only on its own miss.
    """
    if memo is None:
        memo = {}
    partition = source
    if not isinstance(source, HPartition):
        fp = memo.get(source.neighbourhoods)
        if fp is not None:
            return fp
        partition = hpartition_of_cover(source)
    check_vertices(len(partition.classes), cap_vertices)
    g = hasse_digraph(partition)
    fp = memo.get(g)
    if fp is None:
        fp = memo[g] = Fingerprint(graph_cert=canonical_cert(g, cap=cap_vertices),
                                   blocks=block_decomposition(g))
    if partition is not source:  # a cover
        memo[source.neighbourhoods] = fp
    return fp


class FingerprintSet(NamedTuple):
    """Deduplicated, canonically sorted fingerprint keys at one level.

    ``n`` is the cover-size scope (None = union over every size).  ``details``
    carries one readable fingerprint report per element.
    """

    level: str
    n: Optional[int]
    elements: tuple
    details: tuple = ()

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "n": "all" if self.n is None else self.n,
            "count": len(self.elements),
            "fingerprints": list(self.details),
        }


def collect_fingerprints(fps: Iterable[Fingerprint], level: str,
                         n: Optional[int]) -> FingerprintSet:
    """Distinct keys at ``level``; each key's detail is the least realizing
    fingerprint, so it depends only on the set of fingerprints and never on
    the order they arrive in."""
    if level not in LEVELS:
        raise LevelMismatch(f"unknown level {level!r}")
    chosen = {}
    for fp in set(fps):
        key = fp.project(level)
        if key not in chosen or fp < chosen[key]:
            chosen[key] = fp
    keys = sorted(chosen)
    return FingerprintSet(
        level=level,
        n=n,
        elements=tuple(keys),
        details=tuple(chosen[k].to_json() for k in keys),
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
    from .spaces import enumerate_covers

    return fingerprint_set(enumerate_covers(space, n), level, n, cap_vertices)


def fingerprints_of_domain(domain, n: int, level: str,
                           cap_cover: int = DEFAULT_COVER_SIZE_CAP,
                           cap_vertices: int = DEFAULT_VERTEX_CAP
                           ) -> FingerprintSet:
    """Distinct fingerprints over all combinatorial types of n-interval
    covers of a segment or line domain."""
    from .arrangements import enumerate_interval_cover_types

    return fingerprint_set(enumerate_interval_cover_types(domain, n, cap_cover),
                           level, n, cap_vertices)


def empty_space_fingerprints(level: str) -> FingerprintSet:
    """Fingerprint set assigned to the empty space by convention: the single
    one-vertex fingerprint, that of a one-member cover, at size scope 1."""
    return fingerprint_set([HPartition(1, (1,))], level, 1)


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
