"""Directed graphs, canonical certificates and isomorphism.

Certificates are computed by iterated color refinement (seeded with in/out
degrees and, on DAGs, the longest-path level) followed by backtracking over
ambiguous color classes, minimizing the adjacency encoding.
``canonical_form`` is that one canonicaliser, and it reads only the graph's
neighbour sets.  Disconnected graphs are canonicalized component by
component, which keeps the search small for the antichain-heavy graphs this
package produces.

Every Hasse digraph has its edges from a lower to a higher index, so index
order is topological: ``_dag_levels`` reads the levels and the weak
connectivity off one pass in that order, for the canonicaliser and for
``topological_order``.  A graph file may give a downward edge; then one
depth-first walk finds an order for the pass, or the cycle that
``find_cycle`` reports.  ``_weak_components`` runs on a split or cyclic one.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Optional, Sequence

from .errors import DEFAULT_VERTEX_CAP, CapExceeded, Frozen

# Defensive bound on backtracking leaves; far above anything the test corpus
# or the poset graphs in scope can reach.
_SEARCH_LEAF_CAP = 500_000


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
    levels = _dag_levels(g.out_sets, g.in_sets)[0]
    return None if levels is None else sorted(range(g.n), key=levels.__getitem__)


def find_cycle(g: DiGraph) -> list:
    """Some directed cycle, as a vertex list; assumes one exists.  The first
    edge back into the depth-first path, successors taken in ascending order."""
    cycle = _depth_first(g.out_sets)[1]
    if cycle is None:
        raise ValueError("graph is acyclic")
    return cycle


def _depth_first(out: Sequence) -> tuple:
    """(a topological order, None), or (None, a directed cycle): one
    depth-first walk, roots and successors in ascending order, that stops at
    the first edge back into its path.  The order is the reversed finish order."""
    color, finished = [0] * len(out), []  # 0 fresh, 1 on the path, 2 done
    for root in range(len(out)):
        if color[root]:
            continue
        color[root] = 1
        path = [(root, iter(sorted(out[root])))]  # (vertex, successors left)
        while path:
            for w in path[-1][1]:
                if color[w] == 1:
                    on = [v for v, _ in path]
                    return None, on[on.index(w):]
                if color[w] == 0:
                    color[w] = 1
                    path.append((w, iter(sorted(out[w]))))
                    break
            else:
                finished.append(path.pop()[0])
                color[finished[-1]] = 2
    return finished[::-1], None


def _dag_levels(out: Sequence, inc: Sequence) -> tuple:
    """(the longest-path level of each vertex, whether the digraph is weakly
    connected), or (None, None) on a directed cycle: one pass in index order,
    which reads both while every edge goes up, as in every Hasse digraph, and
    at a downward edge the same pass once more, in the depth-first walk's order."""
    levels = _level_pass(out, inc, range(len(inc)))
    if levels is None:  # a downward edge, or a cycle
        order = _depth_first(out)[0]
        levels = (None, None) if order is None else _level_pass(out, inc, order)
    return levels


def _level_pass(out: Sequence, inc: Sequence, order: Sequence) -> Optional[tuple]:
    """``_dag_levels``' pass in ``order``; None at an in-neighbour not passed
    yet.  Each vertex gets the bitmask of the sources below it.  Every vertex
    is on a path from a source to a sink, so the digraph is weakly connected
    when the sinks' masks, linked where two share a source, reach them all."""
    level, below, sources, sinks = [-1] * len(inc), [0] * len(inc), 0, []
    for v in order:
        mask = up = 0
        for u in inc[v]:
            at = level[u]
            if at < 0:
                return None
            mask |= below[u]
            if at >= up:
                up = at + 1
        if not mask:
            mask = 1 << v
            sources |= mask
        level[v], below[v] = up, mask
        if not out[v]:
            sinks.append(mask)
    reach, grown = 0, sinks[-1] if sinks else 0
    while grown != reach:
        reach = grown
        for mask in sinks:
            if mask & reach:
                grown |= mask
    return level, reach == sources


def _refine(out: list, inc: list, colors: list, cells: list) -> tuple:
    """Stable color refinement of ``cells``, the cells of two or more
    vertices in color order, each ascending and of one out- and in-degree;
    a vertex's color is its cell's first position.  Each round splits each
    cell by (sorted out-colors, sorted in-colors) under the colors before
    it, pieces in that order.  Recolors in place; returns (colors, cells)."""
    get = colors.__getitem__
    while cells:
        refined, moved = [], []
        for cell in cells:
            v = cell[0]  # the cell's one degree: sign by the sides it has
            if not inc[v]:
                sigs = [sorted(map(get, out[v])) for v in cell]
            elif not out[v]:
                sigs = [sorted(map(get, inc[v])) for v in cell]
            else:
                sigs = [(sorted(map(get, out[v])), sorted(map(get, inc[v]))) for v in cell]
            if sigs.count(sigs[0]) == len(sigs):
                refined.append(cell)
                continue
            last = None
            for at, (sig, v) in enumerate(sorted(zip(sigs, cell)), colors[cell[0]]):
                if sig != last:
                    last, start, piece = sig, at, []
                    refined.append(piece)
                piece.append(v)
                moved.append((v, start))
        if not moved:
            break
        for v, at in moved:
            colors[v] = at
        cells = [cell for cell in refined if len(cell) > 1]
    return colors, cells


def _twins(out: list, inc: list, u: int, v: int) -> bool:
    """True when swapping u and v, two vertices of one cell, is provably an
    automorphism.  They share an out-degree, so when their out-sets agree
    apart from each other an edge between them runs both ways or neither."""
    return (out[u] - {v}) == (out[v] - {u}) and (inc[u] - {v}) == (inc[v] - {u})


def _encode_rows(out: list, pos: list) -> tuple:
    """Adjacency rows with vertex v at position ``pos[v]``."""
    n = len(out)
    rows = [0] * n
    for u, ws in enumerate(out):
        for w in ws:
            rows[pos[u]] |= 1 << (n - 1 - pos[w])
    return tuple(rows)


def _search_connected(out: list, inc: list, levels: Optional[list]) -> tuple:
    """Min adjacency encoding over refinement-compatible orderings, seeded
    by (out-degree, in-degree) and the longest-path ``levels`` of a DAG
    (None on a cyclic graph)."""
    n = len(out)
    degrees = map(len, out), map(len, inc)
    seed = zip(*degrees) if levels is None else zip(*degrees, levels)
    colors, cells, last = [0] * n, [], None
    for at, (key, v) in enumerate(sorted(zip(seed, range(n)))):
        if key != last:  # a new cell, whose color is its first position
            last, start, cell = key, at, []
            cells.append(cell)
        cell.append(v)
        colors[v] = start
    cells = [cell for cell in cells if len(cell) > 1]
    best, leaves = [None, None], [0]  # (rows, positions), leaves reached

    def rec(colors, cells):
        colors, cells = _refine(out, inc, colors, cells)
        if not cells:
            leaves[0] += 1
            if leaves[0] > _SEARCH_LEAF_CAP:
                raise CapExceeded("canonicalization search leaves",
                                  _SEARCH_LEAF_CAP, leaves[0])
            # every color is a distinct position
            rows = _encode_rows(out, colors)
            if best[0] is None or rows < best[0]:
                best[0], best[1] = rows, colors
            return
        target, tried = cells[0], []
        at = colors[target[0]]
        for v in target:
            if any(_twins(out, inc, v, u) for u in tried):
                continue
            tried.append(v)
            # individualize v: it keeps the cell's position, the rest move up one
            split = [at + 1 if c == at else c for c in colors]
            split[v], rest = at, [u for u in target if u != v]
            rec(split, [rest] + cells[1:] if len(rest) > 1 else cells[1:])

    rec(colors, cells)
    return best[0], tuple(sorted(range(n), key=best[1].__getitem__))


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


def canonical_form(out: Sequence, inc: Sequence) -> tuple:
    """(canonical adjacency rows, the vertex order realizing them) of the
    digraph on 0..n-1 whose vertex v has out-neighbours ``out[v]`` and
    in-neighbours ``inc[v]``, both sets.  It neither caches nor checks a
    cap, for a caller that never asks about the same graph twice.  The
    level pass tells a weakly connected digraph, searched at once, from one
    that is split into components."""
    levels, connected = _dag_levels(out, inc)
    if not connected:  # split, or cyclic
        comps = _weak_components(out, inc)
        connected = len(comps) == 1
    if connected:
        return _search_connected(out, inc, levels)
    pieces = []
    for comp in comps:
        pos = {v: i for i, v in enumerate(comp)}
        sub = [[{pos[w] for w in ws[v]} for v in comp] for ws in (out, inc)]
        rows, order = _search_connected(*sub, _dag_levels(*sub)[0])
        # components sort by (size, local encoding); min original vertex only
        # breaks ties between isomorphic components, deterministically
        pieces.append((len(comp), rows, comp[0], [comp[i] for i in order]))
    pieces.sort(key=lambda p: (p[0], p[1], p[2]))
    order = [v for p in pieces for v in p[3]]
    pos = sorted(range(len(out)), key=order.__getitem__)  # the inverse permutation
    return _encode_rows(out, pos), tuple(order)


# Process-wide, for graphs that recur across calls.  Distinct neighbourhood
# tuples, the fingerprint memo's key for a finite-space cover, often give the
# same Hasse digraph: those repeats hit here.
@lru_cache(maxsize=65536)
def _canonical_order_key(g: DiGraph) -> tuple:
    return canonical_form(g.out_sets, g.in_sets)


def check_vertices(n: int, cap: int,
                   what: str = "graph vertices for canonicalization") -> None:
    """Refuse ``n`` vertices over ``cap``: CapExceeded naming ``what``."""
    if n > cap:
        raise CapExceeded(what, cap, n)


def canonical_cert(g: DiGraph, cap: int = DEFAULT_VERTEX_CAP) -> bytes:
    """Canonical certificate of ``g``; equal certificates iff isomorphic
    graphs.  It is the vertex count n as 4 big-endian bytes, then each
    canonical adjacency row as (n + 7) // 8 big-endian bytes, so
    certificates sort by vertex count first."""
    check_vertices(g.n, cap)
    rows, _ = _canonical_order_key(g)
    width = (g.n + 7) // 8
    return g.n.to_bytes(4, "big") + b"".join(r.to_bytes(width, "big") for r in rows)


def is_isomorphic(g1: DiGraph, g2: DiGraph,
                  cap: int = DEFAULT_VERTEX_CAP) -> tuple:
    """(True, witness bijection) when isomorphic, else (False, None).

    The witness maps vertices of g1 to vertices of g2, and is checked before
    it is returned: g1 relabelled by it must be g2.
    """
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return False, None
    check_vertices(g1.n, cap)
    (rows1, o1), (rows2, o2) = _canonical_order_key(g1), _canonical_order_key(g2)
    if rows1 != rows2:
        return False, None
    # equal canonical rows: the canonical orders line the graphs up
    mapping = dict(zip(o1, o2))
    if relabel(g1, [mapping[v] for v in range(g1.n)]) != g2:
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
