"""Algebra invariants of finite digraphs.

For the acyclic Hasse digraphs produced here, the associated algebra is a
finite direct sum of matrix blocks, one per sink, of size equal to the number
of directed paths into that sink (trivial path included):
``block_decomposition`` gives their sizes, which is all a fingerprint keeps.
Its K-pair is then (Z^blocks, 0) and its primitive spectrum a discrete space
with one point per block.  For any digraph (a graph file may be cyclic),
``k_theory`` takes the Smith normal form of the
transposed-adjacency-minus-identity matrix restricted to non-sink columns;
``prim_space`` lists the maximal tails of an acyclic digraph, which are
never nested, so the spectrum has no order.
"""

from __future__ import annotations

from typing import NamedTuple

from .digraphs import DEFAULT_VERTEX_CAP, DiGraph, find_cycle, topological_order
from .errors import CapExceeded, NotAcyclic
from .snf import diagonal, smith_normal_form


class KPair(NamedTuple):
    """K0 as (free rank, torsion divisor chain), K1 as a free rank."""

    k0_rank: int
    k0_torsion: tuple
    k1_rank: int

    def to_json(self) -> dict:
        return {
            "k0": {"rank": self.k0_rank, "torsion": list(self.k0_torsion)},
            "k1": {"rank": self.k1_rank},
        }


class PrimPoset(NamedTuple):
    """Maximal tails, canonically sorted, as the points of the primitive
    spectrum.

    Its specialization order (reverse tail containment) is empty:
    ``maximal_tails`` takes an acyclic graph, where each maximal tail is the
    ancestor closure of one sink, and a sink reaches no other vertex, so no
    tail contains another.  ``to_json`` writes that empty order.
    """

    points: tuple

    def to_json(self) -> dict:
        return {"points": [sorted(t) for t in self.points], "order": []}


def _require_acyclic(g: DiGraph) -> list:
    order = topological_order(g)
    if order is None:
        raise NotAcyclic(find_cycle(g))
    return order


def block_decomposition(g: DiGraph) -> tuple:
    """The block sizes, ascending: one block per sink, whose size counts the
    directed paths into the sink, the trivial path included."""
    order = _require_acyclic(g)
    paths = [0] * g.n
    for v in order:
        paths[v] = 1 + sum(paths[u] for u in g.in_sets[v])
    return tuple(sorted(paths[s] for s in g.sinks))


def k_theory(g: DiGraph) -> KPair:
    """K-groups from the cokernel/kernel of A^T - I on non-sink columns.

    Defined for arbitrary finite digraphs; on the acyclic graphs in scope it
    must agree with the block picture (free K0 of rank = number of sinks,
    trivial K1) - that agreement is a test, not an assumption here.
    """
    regular = [v for v in range(g.n) if g.out_sets[v]]
    mat = [
        [
            (1 if (r, i) in g.edges else 0) - (1 if i == r else 0)
            for r in regular
        ]
        for i in range(g.n)
    ]
    _, d, _ = smith_normal_form(mat)
    diag = diagonal(d)
    rank = sum(1 for x in diag if x)
    torsion = tuple(x for x in diag if x > 1)
    return KPair(
        k0_rank=g.n - rank,
        k0_torsion=torsion,
        k1_rank=len(regular) - rank,
    )


def _ancestors_closure(g: DiGraph, v: int) -> frozenset:
    seen = {v}
    stack = [v]
    while stack:
        w = stack.pop()
        for u in g.in_sets[w]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return frozenset(seen)


def maximal_tails(g: DiGraph, cap: int = DEFAULT_VERTEX_CAP) -> list:
    """All maximal tails of an acyclic digraph.

    A tail is a nonempty vertex set closed under predecessors, downward
    directed under reachability, and with every non-sink member emitting an
    edge back into the set.  For acyclic graphs these are precisely the
    ancestor closures of the sinks, which is how they are computed here; the
    axiom-by-axiom computation lives in the test suite and must agree.
    """
    if g.n > cap:
        raise CapExceeded("graph vertices for maximal tails", cap, g.n)
    _require_acyclic(g)
    tails = [_ancestors_closure(g, s) for s in g.sinks]
    tails.sort(key=lambda t: (len(t), tuple(sorted(t))))
    return tails


def prim_space(g: DiGraph, cap: int = DEFAULT_VERTEX_CAP) -> PrimPoset:
    """Primitive spectrum: one point per maximal tail, with no order."""
    return PrimPoset(points=tuple(maximal_tails(g, cap)))
