import random

import pytest

from topocert import (
    CapExceeded,
    DiGraph,
    FullLine,
    NotAcyclic,
    block_decomposition,
    enumerate_covers,
    enumerate_interval_cover_types,
    hasse_digraph,
    hpartition_of_cover,
    k_theory,
    maximal_tails,
    prim_space,
    relabel,
)
from topocert.digraphs import DEFAULT_VERTEX_CAP

from conftest import space_fixtures
from oracles import maximal_tails_axioms, random_dag


def path(n):
    return DiGraph(n=n, edges=frozenset((i, i + 1) for i in range(n - 1)))


def antichain(n):
    return DiGraph(n=n, edges=frozenset())


ZIGZAG7 = DiGraph(n=7, edges=frozenset(
    {(0, 1), (2, 1), (2, 3), (4, 3), (4, 5), (6, 5)}))


class TestBlocks:
    def test_single_vertex(self):
        assert block_decomposition(antichain(1)) == (1,)

    def test_paths(self):
        for k in range(1, 7):
            assert block_decomposition(path(k)) == (k,)

    def test_first_interval_graph(self):
        assert block_decomposition(ZIGZAG7) == (3, 3, 3)

    def test_rejects_cycles(self):
        g = DiGraph(n=2, edges=frozenset({(0, 1), (1, 0)}))
        with pytest.raises(NotAcyclic):
            block_decomposition(g)

    def test_square_sum_counts_path_pairs_with_common_sink(self):
        # dimension bookkeeping: sum of b^2 = ordered path pairs per sink
        rng = random.Random(8)
        for _ in range(50):
            g = random_dag(rng, rng.randint(1, 7))
            blocks = block_decomposition(g)
            paths = _all_paths(g)
            pairs = 0
            by_end = {}
            for p in paths:
                by_end.setdefault(p[-1], 0)
                by_end[p[-1]] += 1
            sinks = set(g.sinks)
            pairs = sum(c * c for v, c in by_end.items() if v in sinks)
            assert sum(b * b for b in blocks) == pairs


def _all_paths(g):
    paths = [[v] for v in range(g.n)]
    frontier = [[v] for v in range(g.n)]
    while frontier:
        nxt = []
        for p in frontier:
            for w in g.out_sets[p[-1]]:
                q = p + [w]
                paths.append(q)
                nxt.append(q)
        frontier = nxt
    return paths


class TestKTheory:
    def test_paths_have_integer_k0(self):
        for k in range(1, 9):
            kp = k_theory(path(k))
            assert (kp.k0_rank, kp.k0_torsion, kp.k1_rank) == (1, (), 0)

    def test_antichain(self):
        for m in (1, 2, 5):
            kp = k_theory(antichain(m))
            assert (kp.k0_rank, kp.k0_torsion, kp.k1_rank) == (m, (), 0)

    def test_dag_agrees_with_block_picture(self):
        rng = random.Random(77)
        for _ in range(60):
            g = random_dag(rng, rng.randint(1, 7))
            kp = k_theory(g)
            blocks = block_decomposition(g)
            assert kp.k0_rank == len(blocks)
            assert kp.k0_torsion == ()
            assert kp.k1_rank == 0

    def test_disjoint_union_adds(self):
        rng = random.Random(13)
        for _ in range(40):
            g1 = random_dag(rng, rng.randint(1, 5))
            g2 = random_dag(rng, rng.randint(1, 5))
            union = DiGraph(
                n=g1.n + g2.n,
                edges=frozenset(g1.edges)
                | frozenset((u + g1.n, v + g1.n) for u, v in g2.edges),
            )
            ku, k1, k2 = k_theory(union), k_theory(g1), k_theory(g2)
            assert ku.k0_rank == k1.k0_rank + k2.k0_rank
            assert ku.k1_rank == k1.k1_rank + k2.k1_rank
            assert tuple(sorted(ku.k0_torsion)) == tuple(
                sorted(k1.k0_torsion + k2.k0_torsion))

    def test_two_cycle_has_k1(self):
        g = DiGraph(n=2, edges=frozenset({(0, 1), (1, 0)}))
        kp = k_theory(g)
        assert (kp.k0_rank, kp.k1_rank) == (1, 1)

    def test_default_cap_is_the_vertex_cap(self):
        with pytest.raises(CapExceeded):
            k_theory(antichain(DEFAULT_VERTEX_CAP + 1))
        kp = k_theory(antichain(DEFAULT_VERTEX_CAP + 1), DEFAULT_VERTEX_CAP + 1)
        assert kp.k0_rank == DEFAULT_VERTEX_CAP + 1


class TestMaximalTails:
    def test_single_vertex(self):
        assert maximal_tails(antichain(1)) == [frozenset({0})]

    def test_path_single_tail(self):
        for k in (2, 4, 6):
            assert maximal_tails(path(k)) == [frozenset(range(k))]

    def test_three_isolated(self):
        assert maximal_tails(antichain(3)) == [
            frozenset({0}), frozenset({1}), frozenset({2})
        ]

    def test_axioms_agree_exhaustively_small(self):
        """Every DAG on <= 5 vertices, via the upper-triangular census."""
        for n in range(1, 6):
            slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
            for mask in range(1 << len(slots)):
                edges = frozenset(s for i, s in enumerate(slots) if mask >> i & 1)
                g = DiGraph(n=n, edges=edges)
                assert maximal_tails(g) == maximal_tails_axioms(g)

    def test_axioms_agree_random_6_7(self):
        rng = random.Random(21)
        for _ in range(500):
            g = random_dag(rng, rng.randint(6, 7))
            assert maximal_tails(g) == maximal_tails_axioms(g)


class TestPrimSpace:
    def test_single_vertex(self):
        ps = prim_space(antichain(1))
        assert len(ps.points) == 1

    def test_path(self):
        ps = prim_space(path(5))
        assert len(ps.points) == 1

    def test_first_interval_graph_three_discrete_points(self):
        ps = prim_space(ZIGZAG7)
        assert len(ps.points) == 3

    def test_point_count_equals_block_count(self):
        rng = random.Random(3)
        for _ in range(80):
            g = random_dag(rng, rng.randint(1, 7))
            assert len(prim_space(g).points) == len(block_decomposition(g))

    def test_no_maximal_tail_contains_another(self):
        # the spectrum's order is reverse tail containment, and it is written
        # empty; the tails here come from the axioms, not from maximal_tails
        rng = random.Random(5)
        graphs = {random_dag(rng, rng.randint(1, 7)) for _ in range(200)}
        for n in range(1, 5):
            graphs.update(hasse_digraph(p)
                          for p in enumerate_interval_cover_types(FullLine(), n))
        for space in space_fixtures():
            graphs.update(hasse_digraph(hpartition_of_cover(c))
                          for c in enumerate_covers(space))
        for g in graphs:
            tails = maximal_tails_axioms(g)
            assert not any(s < t for s in tails for t in tails)
            ps = prim_space(g)
            assert ps.points == tuple(tails)
            assert ps.to_json()["order"] == []

    def test_default_cap_is_the_vertex_cap(self):
        with pytest.raises(CapExceeded):
            prim_space(antichain(DEFAULT_VERTEX_CAP + 1))
        ps = prim_space(antichain(DEFAULT_VERTEX_CAP + 1), DEFAULT_VERTEX_CAP + 1)
        assert len(ps.points) == DEFAULT_VERTEX_CAP + 1


class TestInvarianceUnderIso:
    def test_relabeling_preserves_all_invariants(self):
        rng = random.Random(99)
        for _ in range(80):
            g = random_dag(rng, rng.randint(1, 7))
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = relabel(g, perm)
            assert block_decomposition(g) == block_decomposition(h)
            assert k_theory(g) == k_theory(h)
            assert len(prim_space(g).points) == len(prim_space(h).points)

