import hashlib
import json
import random
from fractions import Fraction as F
from itertools import combinations, product

import pytest

from topocert import (
    CapExceeded,
    Circle,
    DiGraph,
    FullLine,
    HPartition,
    Interval,
    IntervalSpec,
    NotACover,
    canonical_cert,
    canonical_key,
    enumerate_interval_cover_types,
    hasse_digraph,
    hclasses_of_intervals,
    is_isomorphic,
    relabel,
    to_dot,
    topological_order,
)

from topocert import digraphs, hasse
from topocert.arrangements import _covers_up_to_mirror, _line_covers
from topocert.cli import run
from topocert.digraphs import (_dag_levels, _refine, _weak_components, canonical_form,
                               find_cycle)
from topocert.errors import NotAcyclic
from topocert.graphalgebra import block_decomposition
from topocert.hasse import class_order
from topocert.jsonio import load_input

from oracles import (
    brute_force_isomorphic,
    class_sets,
    kahn_levels,
    random_dag,
    random_digraph,
    random_partition,
    reference_canonical_form,
    reference_canonical_key,
    slot_pool_types,
    weak_components,
)


def path(n):
    return DiGraph(n=n, edges=frozenset((i, i + 1) for i in range(n - 1)))


@pytest.mark.parametrize("n, edges", [
    (2, {(0, 0)}),
    (2, {(0, 2)}),
    (2, {(-1, 0)}),
    (0, set()),
], ids=["self-loop", "edge-past-n", "negative-vertex", "no-vertex"])
def test_invalid_digraph_raises_when_built(n, edges):
    with pytest.raises(ValueError):
        DiGraph(n=n, edges=frozenset(edges))


def test_topological_order_none_on_cycle():
    g = DiGraph(n=2, edges=frozenset({(0, 1), (1, 0)}))
    assert topological_order(g) is None


def test_topological_order_on_random_dags():
    rng = random.Random(2027)
    for _ in range(300):
        g = random_dag(rng, rng.randint(1, 9), rng.choice([0.1, 0.35, 0.7]))
        order = topological_order(g)
        assert sorted(order) == list(range(g.n))
        pos = {v: i for i, v in enumerate(order)}
        assert all(pos[u] < pos[v] for u, v in g.edges)
        if g.edges:
            # the reverse of an edge closes a 2-cycle
            u, v = rng.choice(sorted(g.edges))
            cyclic = DiGraph(n=g.n, edges=g.edges | {(v, u)})
            assert topological_order(cyclic) is None


def upward_dag(rng, n: int, p: float) -> DiGraph:
    """A random DAG whose every edge goes from a lower to a higher index."""
    return DiGraph(n=n, edges=frozenset(
        (i, j) for i, j in combinations(range(n), 2) if rng.random() < p))


def line_hasse_digraphs(n: int) -> list:
    """The distinct labelled Hasse digraphs of the line's n-member covers."""
    return list(dict.fromkeys(hasse_digraph(HPartition(n, class_order(cells)))
                              for cells in _line_covers(n)))


class TestLevelPass:
    """``_dag_levels`` reads the levels and weak connectivity of a digraph
    whose edges all go up in one pass in index order, and passes a digraph
    with a downward edge once more, in the depth-first walk's order."""

    def test_upward_dags_and_their_relabellings(self):
        rng = random.Random(31)
        split = downward = 0
        for _ in range(600):
            g = upward_dag(rng, rng.randint(1, 12), rng.choice((0.05, 0.15, 0.35, 0.7)))
            levels, connected = _dag_levels(g.out_sets, g.in_sets)
            assert levels == kahn_levels(g.out_sets, g.in_sets)
            assert connected == (len(weak_components(g.out_sets, g.in_sets)) == 1)
            split += not connected
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = relabel(g, perm)
            levels, connected = _dag_levels(h.out_sets, h.in_sets)
            assert levels == kahn_levels(h.out_sets, h.in_sets)
            assert connected == (len(weak_components(h.out_sets, h.in_sets)) == 1)
            downward += any(u > v for u, v in h.edges)
        assert split > 100 and downward > 300

    def test_the_walk_orders_random_dags(self):
        rng = random.Random(36)
        for _ in range(400):
            g = random_dag(rng, rng.randint(1, 12), rng.choice((0.1, 0.3, 0.6)))
            order, cycle = digraphs._depth_first(g.out_sets)
            assert cycle is None and sorted(order) == list(range(g.n))
            pos = {v: i for i, v in enumerate(order)}
            assert all(pos[u] < pos[v] for u, v in g.edges)
            assert _dag_levels(g.out_sets, g.in_sets)[0] == kahn_levels(g.out_sets,
                                                                         g.in_sets)

    def test_the_walk_closes_a_cycle_of_real_edges(self):
        rng = random.Random(37)
        cyclic = 0
        for _ in range(400):
            g = random_digraph(rng, rng.randint(2, 10), rng.choice((0.15, 0.3, 0.5)))
            if kahn_levels(g.out_sets, g.in_sets) is not None:
                continue
            cyclic += 1
            cycle = find_cycle(g)
            assert len(set(cycle)) == len(cycle) >= 2
            assert all((u, v) in g.edges for u, v in zip(cycle, cycle[1:] + cycle[:1]))
            assert _dag_levels(g.out_sets, g.in_sets) == (None, None)
        assert cyclic > 200

    def test_every_line_hasse_digraph_up_to_four_members(self):
        for n in range(1, 5):
            for g in line_hasse_digraphs(n):
                assert all(u < v for u, v in g.edges)
                levels, connected = _dag_levels(g.out_sets, g.in_sets)
                assert levels == kahn_levels(g.out_sets, g.in_sets)
                assert connected

    def test_line_hasse_digraphs_need_neither_walk_nor_components(self, monkeypatch):
        calls = {"_depth_first": 0, "_weak_components": 0}
        for name in calls:
            def counted(*args, name=name, wrapped=getattr(digraphs, name)):
                calls[name] += 1
                return wrapped(*args)
            monkeypatch.setattr(digraphs, name, counted)
        graphs = [g for n in range(1, 6) for g in line_hasse_digraphs(n)]
        for g in graphs:
            canonical_form(g.out_sets, g.in_sets)
            block_decomposition(g)
            assert topological_order(g) is not None
        assert len(graphs) > 1000
        # every kept line set links all its members, so no incidence digraph
        # canonical_key builds is split or has a downward edge
        for n in range(1, 6):
            list(enumerate_interval_cover_types(FullLine(), n))
        assert calls == {"_depth_first": 0, "_weak_components": 0}
        # a split digraph still gets its components
        g = DiGraph(n=4, edges=frozenset({(0, 1), (2, 3)}))
        canonical_form(g.out_sets, g.in_sets)
        assert calls == {"_depth_first": 0, "_weak_components": 1}
        # a downward edge takes the walk, and its pass finds the digraph connected
        g = DiGraph(n=3, edges=frozenset({(2, 1), (1, 0)}))
        canonical_form(g.out_sets, g.in_sets)
        assert calls == {"_depth_first": 1, "_weak_components": 1}

    def test_a_cyclic_graph_file_ends_in_not_acyclic(self, fixtures, capsys):
        # its edge 2 -> 0 goes down, so the walk runs, and finds the cycle
        path = str(fixtures / "errors" / "cycle_3.json")
        g = load_input(path).graph
        assert _dag_levels(g.out_sets, g.in_sets) == (None, None)
        with pytest.raises(NotAcyclic) as exc:
            block_decomposition(g)
        assert exc.value.fields["cycle"] == find_cycle(g) == [0, 1, 2]
        assert run(["cstar", "--input", path]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == {
            "kind": "NotAcyclic", "message": "digraph contains a cycle: [0, 1, 2]",
            "cycle": [0, 1, 2]}


class TestCanonicalCert:
    def test_relabeled_paths_agree(self):
        g = path(3)
        h = relabel(g, [2, 0, 1])
        assert canonical_cert(g) == canonical_cert(h)

    def test_path_vs_zigzag(self):
        g = path(3)
        zig = DiGraph(n=3, edges=frozenset({(0, 1), (2, 1)}))
        assert canonical_cert(g) != canonical_cert(zig)
        assert not brute_force_isomorphic(g, zig)

    def test_seven_vs_eight_vertices(self):
        zig7 = DiGraph(n=7, edges=frozenset(
            {(0, 1), (2, 1), (2, 3), (4, 3), (4, 5), (6, 5)}))
        cyc8 = DiGraph(n=8, edges=frozenset(
            {(0, 4), (1, 4), (1, 5), (2, 5), (2, 6), (3, 6), (3, 7), (0, 7)}))
        assert canonical_cert(zig7) != canonical_cert(cyc8)

    def test_cap(self):
        g = DiGraph(n=5, edges=frozenset())
        with pytest.raises(CapExceeded):
            canonical_cert(g, cap=4)

    def test_invariant_under_random_relabeling(self):
        rng = random.Random(101)
        for _ in range(200):
            n = rng.randint(1, 9)
            g = random_digraph(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_cert(g) == canonical_cert(relabel(g, perm))

    def test_large_antichain_is_cheap(self):
        # all-twin graphs must not trigger factorial search
        g = DiGraph(n=30, edges=frozenset())
        assert canonical_cert(g)[:4] == (30).to_bytes(4, "big")

    def test_certificates_sort_by_vertex_count_past_one_byte(self):
        # the count is 4 bytes: 255 vertices (00 00 00 ff) sort before 256
        # (00 00 01 00) though both graphs have 32-byte rows of zeros
        small, large = (canonical_cert(DiGraph(n=k, edges=frozenset()), cap=256)
                        for k in (255, 256))
        assert small < large
        assert (len(small), len(large)) == (4 + 255 * 32, 4 + 256 * 32)

    def test_exhaustive_4_vertex_census(self):
        """Cert equality must match brute-force isomorphism on every
        4-vertex digraph (cyclic ones included)."""
        slots = [(u, v) for u, v in product(range(4), repeat=2) if u != v]
        graphs = []
        for mask in range(1 << len(slots)):
            edges = frozenset(s for i, s in enumerate(slots) if mask >> i & 1)
            graphs.append(DiGraph(n=4, edges=edges))
        by_cert = {}
        for g in graphs:
            by_cert.setdefault(canonical_cert(g), []).append(g)
        # within a cert class: brute force must confirm isomorphism
        rng = random.Random(7)
        for members in by_cert.values():
            sample = rng.sample(members, min(3, len(members)))
            for g in sample[1:]:
                assert brute_force_isomorphic(sample[0], g)
        # across cert classes: representatives must be non-isomorphic.
        # group by cheap invariants first to keep the pair count honest
        reps = [members[0] for members in by_cert.values()]
        buckets = {}
        for g in reps:
            key = (len(g.edges),
                   tuple(sorted((len(g.out_sets[v]), len(g.in_sets[v]))
                                for v in range(4))))
            buckets.setdefault(key, []).append(g)
        for bucket in buckets.values():
            for g1, g2 in combinations(bucket, 2):
                assert not brute_force_isomorphic(g1, g2)
        # the census count itself is a known quantity: 218 unlabeled
        # digraphs on 4 nodes
        assert len(by_cert) == 218


def test_refine_returns_a_discrete_coloring_unchanged():
    # a discrete coloring is stable, so refinement gives it back as it is,
    # for any graph
    rng = random.Random(26)
    for _ in range(200):
        g = random_digraph(rng, rng.randint(1, 9), rng.choice((0.2, 0.35, 0.5)))
        colors = list(range(g.n))
        rng.shuffle(colors)
        cells = [[v] for v in sorted(range(g.n), key=colors.__getitem__)]
        assert _refine(g.out_sets, g.in_sets, list(colors), cells)[0] == colors


class TestIsIsomorphic:
    def test_self_identity_witness(self):
        g = path(4)
        ok, witness = is_isomorphic(g, g)
        assert ok
        assert all((witness[u], witness[v]) in g.edges for u, v in g.edges)

    def test_first_vs_second_interval_graphs(self):
        first = DiGraph(n=7, edges=frozenset(
            {(0, 1), (2, 1), (2, 3), (4, 3), (4, 5), (6, 5)}))
        second = DiGraph(n=7, edges=frozenset(
            {(0, 1), (1, 2), (3, 2), (3, 4), (5, 6), (6, 4)}))
        ok, _ = is_isomorphic(first, second)
        assert not ok

    def test_cycle_zigzag_vs_path_zigzag(self):
        cyc = DiGraph(n=8, edges=frozenset(
            {(0, 4), (1, 4), (1, 5), (2, 5), (2, 6), (3, 6), (3, 7), (0, 7)}))
        pth = DiGraph(n=8, edges=frozenset(
            {(0, 1), (2, 1), (2, 3), (4, 3), (4, 5), (6, 5), (6, 7)}))
        ok, _ = is_isomorphic(cyc, pth)
        assert not ok
        assert not brute_force_isomorphic(cyc, pth)

    def test_a_witness_that_maps_an_edge_off_raises(self, monkeypatch):
        # equal canonical rows with orders that do not line the graphs up:
        # the witness check is all that stands between them and (True, ...)
        g = path(3)
        orders = iter([(0, 1, 2), (2, 1, 0)])
        monkeypatch.setattr(digraphs, "_canonical_order_key",
                            lambda _: ((1, 2, 0), next(orders)))
        with pytest.raises(AssertionError, match="invalid witness"):
            is_isomorphic(g, g)

    def test_agrees_with_brute_force_on_random_pairs(self):
        rng = random.Random(42)
        for trial in range(500):
            n = rng.randint(1, 7)
            g1 = random_digraph(rng, n)
            if trial % 2 == 0:
                perm = list(range(n))
                rng.shuffle(perm)
                g2 = relabel(g1, perm)
            else:
                g2 = random_digraph(rng, n)
            ok, witness = is_isomorphic(g1, g2)
            assert ok == brute_force_isomorphic(g1, g2)
            if ok:
                assert all((witness[u], witness[v]) in g2.edges
                           for u, v in g1.edges)


def pin_corpus():
    """Seeded digraphs for the canonicaliser pin: random ones (most with a
    cycle), disjoint unions of relabelled isomorphic copies, the 30-vertex
    antichain, and the member->class incidence digraph of every line type
    at n <= 4, taken as the slot pool oracle first meets it."""
    rng = random.Random(2024)
    for _ in range(300):
        yield random_digraph(rng, rng.randint(1, 9), rng.choice((0.2, 0.35, 0.5)))
    for _ in range(60):
        comp, copies = random_digraph(rng, rng.randint(1, 5), 0.4), rng.randint(2, 4)
        perm = list(range(comp.n * copies))
        rng.shuffle(perm)
        yield DiGraph(n=comp.n * copies, edges=frozenset(
            (perm[c * comp.n + u], perm[c * comp.n + v])
            for c in range(copies) for u, v in comp.edges))
    yield DiGraph(n=30, edges=frozenset())
    for n in range(1, 5):
        for t in slot_pool_types(n):
            yield DiGraph(n=n + len(t.classes), edges=frozenset(
                (i, n + j) for j, c in enumerate(class_sets(t)) for i in c))


class TestCanonicalOrderPin:
    def test_orders_and_certs_are_pinned(self):
        # the canonical order reaches no CLI output (it picks is_isomorphic's
        # witness), so the golden digests cannot see a changed leaf order
        digest, graphs, cyclic = hashlib.sha256(), 0, 0
        for g in pin_corpus():
            order = list(canonical_form(g.out_sets, g.in_sets)[1])
            digest.update(repr((order, canonical_cert(g).hex())).encode())
            graphs += 1
            cyclic += topological_order(g) is None
        assert (graphs, cyclic > 150) == (490, True)
        assert digest.hexdigest() == (
            "6a8690f897d11c5c80b33b99df02b9548ed0fc0de2fbbd224cbfc04c0046242d")


def circle_cover(rng, n: int, slots: int = 24) -> IntervalSpec:
    """n distinct arcs with ends on ``slots`` even steps round the unit
    circle, in shuffled order: some overlap all the way round, the rest
    are random."""
    c = rng.randint(2, n)
    ends = sorted(rng.sample(range(slots), 2 * c))
    arcs = {(ends[2 * i], ends[(2 * i + 3) % (2 * c)]) for i in range(c)}
    while len(arcs) < n:
        arcs.add(tuple(rng.sample(range(slots), 2)))
    arcs = sorted(arcs)
    rng.shuffle(arcs)
    return IntervalSpec(Circle(F(1)), tuple(Interval(F(lo, slots), F(hi, slots))
                                            for lo, hi in arcs))


class TestReferenceCanonicaliser:
    """``canonical_form`` refines only the cells that can split; the
    reference in ``oracles`` signs every vertex in every round.  Both give
    the same rows and the same order."""

    def assert_same(self, out, inc) -> int:
        rows, order, leaves = reference_canonical_form(out, inc)
        assert canonical_form(out, inc) == (rows, order)
        return leaves

    def test_random_digraphs(self):
        rng = random.Random(30)
        cyclic = split = 0
        for _ in range(1500):
            g = random_digraph(rng, rng.randint(1, 14), rng.choice((0.05, 0.1, 0.2, 0.35)))
            self.assert_same(g.out_sets, g.in_sets)
            cyclic += topological_order(g) is None
            split += len(_weak_components(g.out_sets, g.in_sets)) > 1
        assert cyclic > 500 and split > 300

    def test_every_line_incidence_digraph_up_to_five_members(self, monkeypatch):
        # the incidence digraphs canonical_key hands to canonical_form, with
        # the form it takes from them
        searched, search = [], hasse.canonical_form

        def recording(out, inc):
            searched.append((out, inc, search(out, inc)))
            return searched[-1][2]

        monkeypatch.setattr(hasse, "canonical_form", recording)
        for n in range(1, 6):
            list(enumerate_interval_cover_types(FullLine(), n))
        assert len(searched) == 1 + 2 + 15 + 174 + 2695
        for out, inc, found in searched:
            self.assert_same(out, inc)
            assert found == reference_canonical_form(out, inc)[:2]

    def test_canonical_key_agrees_with_the_reference_key(self):
        # the kept line sets, all linked, and random partitions, some of
        # whose members share no class
        parts = [HPartition(n, class_order(labelled))
                 for n in range(1, 6) for labelled, _ in _covers_up_to_mirror(n)]
        rng = random.Random(30)
        parts += [p for _ in range(2000) for p in random_partition(rng, 6)]
        for p in parts:
            assert canonical_key(p) == reference_canonical_key(p)

    def test_circle_witness_digraphs_with_ten_or_more_leaves(self):
        rng = random.Random(30)
        seen, deep = set(), 0
        for _ in range(600):
            try:
                g = hasse_digraph(hclasses_of_intervals(circle_cover(rng, rng.randint(3, 7))))
            except NotACover:
                continue
            if g not in seen:
                seen.add(g)
                deep += self.assert_same(g.out_sets, g.in_sets) >= 10
        assert deep >= 40


class TestToDot:
    def test_single_vertex(self):
        assert to_dot(DiGraph(n=1, edges=frozenset())) == "digraph {\n  v0;\n}\n"

    def test_single_edge(self):
        out = to_dot(DiGraph(n=2, edges=frozenset({(0, 1)})))
        assert "v0 -> v1;" in out

    def test_antichain_has_no_edge_lines(self):
        out = to_dot(DiGraph(n=3, edges=frozenset()),
                     (frozenset({0}), frozenset({1}), frozenset({2})))
        assert "->" not in out
        assert out.count("label=") == 3
