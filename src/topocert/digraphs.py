"""Directed graphs, canonical certificates and isomorphism.

Certificates are computed by iterated color refinement (seeded with in/out
degrees and, on DAGs, the longest-path level) followed by backtracking over
ambiguous color classes, minimizing the adjacency encoding, all on the
graph's own neighbour sets.  Disconnected graphs are canonicalized component
by component, which keeps the search small for the antichain-heavy graphs
this package produces.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import NamedTuple, Optional, Sequence

from .errors import CapExceeded, Frozen

DEFAULT_VERTEX_CAP = 40
# Defensive bound on backtracking leaves; far above anything the test corpus
# or the poset graphs in scope can reach.
_SEARCH_LEAF_CAP = 500_000


class CanonicalCert(NamedTuple):
    """Canonical certificate: equal certs iff isomorphic digraphs."""

    vertex_count: int
    blob: bytes

    def hex(self) -> str:
        return self.blob.hex()


class DiGraph(Frozen):
    """Immutable digraph on vertices 0..n-1 without self-loops."""

    def __init__(self, n: int, edges: frozenset):
        if n < 1:
            raise ValueError("digraph needs at least one vertex")
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValueError(f"self-loop at {u} not allowed")
        d = self.__dict__
        d["n"] = n
        d["edges"] = edges

    def __eq__(self, other):
        if other.__class__ is not DiGraph:
            return NotImplemented
        return (self.n, self.edges) == (other.n, other.edges)

    def __hash__(self):
        return hash((self.n, self.edges))

    @cached_property
    def out_sets(self) -> tuple:
        out = [set() for _ in range(self.n)]
        for u, v in self.edges:
            out[u].add(v)
        return tuple(frozenset(s) for s in out)

    @cached_property
    def in_sets(self) -> tuple:
        inc = [set() for _ in range(self.n)]
        for u, v in self.edges:
            inc[v].add(u)
        return tuple(frozenset(s) for s in inc)

    @cached_property
    def sinks(self) -> tuple:
        return tuple(v for v in range(self.n) if not self.out_sets[v])


def relabel(g: DiGraph, perm: Sequence[int]) -> DiGraph:
    """Relabeled copy: vertex v becomes perm[v]."""
    return DiGraph(n=g.n, edges=frozenset((perm[u], perm[v]) for u, v in g.edges))


def topological_order(g: DiGraph) -> Optional[list]:
    """The vertices by longest-path level, ties in ascending order, or None
    if the graph has a directed cycle."""
    levels = _dag_levels(g.out_sets, g.in_sets)
    return None if levels is None else sorted(range(g.n), key=levels.__getitem__)


def find_cycle(g: DiGraph) -> list:
    """Some directed cycle, as a vertex list; assumes one exists.  The first
    edge back into the depth-first path, successors taken in ascending order."""
    color = [0] * g.n  # 0 fresh, 1 on the path, 2 done
    for root in range(g.n):
        if color[root]:
            continue
        color[root] = 1
        path = [root]
        pending = [iter(sorted(g.out_sets[root]))]
        while pending:
            for w in pending[-1]:
                if color[w] == 1:
                    return path[path.index(w):]
                if color[w] == 0:
                    color[w] = 1
                    path.append(w)
                    pending.append(iter(sorted(g.out_sets[w])))
                    break
            else:
                color[path.pop()] = 2
                pending.pop()
    raise ValueError("graph is acyclic")


def _dag_levels(out: list, inc: list) -> Optional[list]:
    """Longest-path level of each vertex by Kahn's algorithm, or None if
    the graph has a directed cycle."""
    indeg = [len(s) for s in inc]
    ready = [v for v, d in enumerate(indeg) if not d]
    level = [0] * len(out)
    while ready:
        v = ready.pop()
        up = level[v] + 1
        for w in out[v]:
            if level[w] < up:
                level[w] = up
            indeg[w] -= 1
            if not indeg[w]:
                ready.append(w)
    return None if any(indeg) else level


def _normalize(keys: list) -> list:
    rank = {k: i for i, k in enumerate(sorted(set(keys)))}
    return list(map(rank.__getitem__, keys))


def _refine(out: list, inc: list, colors: list) -> list:
    """Stable color refinement; colors come out rank-normalized."""
    ncolors = max(colors) + 1
    while True:
        get = colors.__getitem__
        sigs = [(c, tuple(sorted(map(get, o))) if o else (),
                 tuple(sorted(map(get, i))) if i else ())
                for c, o, i in zip(colors, out, inc)]
        rank = {k: r for r, k in enumerate(sorted(set(sigs)))}
        if len(rank) == ncolors:  # stable: the ranks are the colors again
            return colors
        colors, ncolors = list(map(rank.__getitem__, sigs)), len(rank)


def _twins(out: list, inc: list, u: int, v: int) -> bool:
    """True when swapping u and v is provably an automorphism."""
    return ((out[u] - {v}) == (out[v] - {u}) and (inc[u] - {v}) == (inc[v] - {u})
            and (v in out[u]) == (u in out[v]))


def _encode_rows(out: list, pos: list) -> tuple:
    """Adjacency rows with vertex v at position ``pos[v]``."""
    n = len(out)
    rows = [0] * n
    for u, ws in enumerate(out):
        for w in ws:
            rows[pos[u]] |= 1 << (n - 1 - pos[w])
    return tuple(rows)


def _search_connected(out: list, inc: list) -> tuple:
    """Min adjacency encoding over refinement-compatible orderings."""
    n = len(out)
    levels = _dag_levels(out, inc)
    if levels is None:
        seed = [(len(out[v]), len(inc[v])) for v in range(n)]
    else:
        seed = [(len(out[v]), len(inc[v]), levels[v]) for v in range(n)]
    start = _refine(out, inc, _normalize(seed))
    best: list = [None, None]  # rows, order
    leaves = [0]

    def rec(colors):
        cells = [[] for _ in range(n)]
        for v, c in enumerate(colors):
            cells[c].append(v)
        target = next((cell for cell in cells if len(cell) > 1), None)
        if target is None:
            leaves[0] += 1
            if leaves[0] > _SEARCH_LEAF_CAP:
                raise CapExceeded("canonicalization search leaves",
                                  _SEARCH_LEAF_CAP, leaves[0])
            # every color is a distinct position
            rows = _encode_rows(out, colors)
            if best[0] is None or rows < best[0]:
                best[0], best[1] = rows, [cell[0] for cell in cells]
            return
        tried: list = []
        c = colors[target[0]]
        for v in target:
            if any(_twins(out, inc, v, u) for u in tried):
                continue
            tried.append(v)
            # individualize v: it keeps color c, the rest of its cell and
            # every higher color move up by one
            split = [d + (d >= c) for d in colors]
            split[v] = c
            rec(_refine(out, inc, split))

    rec(start)
    return best[0], best[1]


def _weak_components(out: list, inc: list) -> list:
    seen = [False] * len(out)
    comps = []
    for s in range(len(out)):
        if seen[s]:
            continue
        comp, stack = [], [s]
        seen[s] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for ws in (out[v], inc[v]):
                for w in ws:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
        comps.append(sorted(comp))
    return comps


def _canonical_order(g: DiGraph) -> tuple:
    """(canonical adjacency rows, the vertex order realizing them)."""
    n, out, inc = g.n, g.out_sets, g.in_sets
    comps = _weak_components(out, inc)
    if len(comps) == 1:
        rows, order = _search_connected(out, inc)
        return rows, tuple(order)
    pieces = []
    for comp in comps:
        pos = {v: i for i, v in enumerate(comp)}
        rows, order = _search_connected([{pos[w] for w in out[v]} for v in comp],
                                        [{pos[w] for w in inc[v]} for v in comp])
        # components sort by (size, local encoding); min original vertex only
        # breaks ties between isomorphic components, deterministically
        pieces.append((len(comp), rows, comp[0], [comp[i] for i in order]))
    pieces.sort(key=lambda p: (p[0], p[1], p[2]))
    order = [v for p in pieces for v in p[3]]
    pos = sorted(range(n), key=order.__getitem__)  # the inverse permutation
    return _encode_rows(out, pos), tuple(order)


# Process-wide, for graphs that recur across calls; a graph that is
# canonicalised once (see ``uncached_cert``) stays out of it.  Distinct
# neighbourhood tuples, the fingerprint memo's key for a finite-space cover,
# often give the same Hasse digraph: those repeats hit here.
_canonical_order_key = lru_cache(maxsize=65536)(_canonical_order)


def canonical_order(g: DiGraph) -> list:
    """Vertex ordering realizing the canonical adjacency encoding."""
    _, order = _canonical_order_key(g)
    return list(order)


def canonical_cert(g: DiGraph, cap: int = DEFAULT_VERTEX_CAP) -> CanonicalCert:
    """Canonical certificate of ``g``; equal certs iff isomorphic graphs."""
    return _cert(g, cap, _canonical_order_key)


def uncached_cert(g: DiGraph, cap: int = DEFAULT_VERTEX_CAP) -> CanonicalCert:
    """``canonical_cert`` without the process-wide cache, for a caller that
    never asks about the same graph twice."""
    return _cert(g, cap, _canonical_order)


def _cert(g: DiGraph, cap: int, order_key) -> CanonicalCert:
    if g.n > cap:
        raise CapExceeded("graph vertices for canonicalization", cap, g.n)
    rows, _ = order_key(g)
    width = (g.n + 7) // 8
    blob = g.n.to_bytes(4, "big") + b"".join(r.to_bytes(width, "big") for r in rows)
    return CanonicalCert(vertex_count=g.n, blob=blob)


def is_isomorphic(g1: DiGraph, g2: DiGraph,
                  cap: int = DEFAULT_VERTEX_CAP) -> tuple:
    """(True, witness bijection) when isomorphic, else (False, None).

    The witness maps vertices of g1 to vertices of g2 and is re-validated
    edge by edge in both directions before being returned.
    """
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return False, None
    if canonical_cert(g1, cap) != canonical_cert(g2, cap):
        return False, None
    o1 = canonical_order(g1)
    o2 = canonical_order(g2)
    mapping = {o1[i]: o2[i] for i in range(g1.n)}
    for u, v in g1.edges:
        if (mapping[u], mapping[v]) not in g2.edges:
            raise AssertionError("certificate collision: invalid witness")
    inverse = {b: a for a, b in mapping.items()}
    for u, v in g2.edges:
        if (inverse[u], inverse[v]) not in g1.edges:
            raise AssertionError("certificate collision: invalid witness")
    return True, mapping


def to_dot(g: DiGraph, labels: Optional[Sequence] = None) -> str:
    """Deterministic DOT rendering; vertex v carries the set ``labels[v]``
    of member indices when labels are given."""
    lines = ["digraph {"]
    for v in range(g.n):
        if labels is not None:
            members = ",".join(str(x) for x in sorted(labels[v]))
            lines.append(f'  v{v} [label="{{{members}}}"];')
        else:
            lines.append(f"  v{v};")
    for u, v in sorted(g.edges):
        lines.append(f"  v{u} -> v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
