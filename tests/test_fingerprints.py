import random
import sys
from fractions import Fraction as F

import pytest

from topocert import (
    CapExceeded,
    DiGraph,
    Fingerprint,
    FullLine,
    HPartition,
    LevelMismatch,
    Segment,
    WitnessSide,
    block_decomposition,
    canonical_cert,
    empty_space_fingerprints,
    enumerate_covers,
    enumerate_interval_cover_types,
    fingerprint_of,
    fingerprint_set,
    fingerprints_of_domain,
    fingerprints_of_space,
    generate_topology,
    hasse_digraph,
    hclasses_of_spec,
    hpartition_of_cover,
    k_theory,
    make_cover,
    prim_space,
    sets_match,
    validate_topology,
)

from topocert import fingerprints
from topocert.fingerprints import LEVELS, collect_fingerprints
from topocert.jsonio import load_input

from conftest import FIXTURES, space_fixtures

from oracles import intersected_neighbourhoods, member_sets, random_space


def chain_space(k):
    points = [f"p{i}" for i in range(1, k + 1)]
    opens = [[]] + [points[:i] for i in range(1, k + 1)]
    return validate_topology(points, opens)


TRIVIAL = validate_topology(["p", "q"], [[], ["p", "q"]])


@pytest.fixture(scope="module")
def block_picture_sources():
    """Every distinct Hasse digraph of the line types at n <= 5 and of all
    covers of the space fixtures, each with one source that realizes it."""
    sources = {}
    for n in range(1, 6):
        for p in enumerate_interval_cover_types(FullLine(), n):
            sources.setdefault(hasse_digraph(p), p)
    spaces = space_fixtures()
    assert len(spaces) == 7
    for s in spaces:
        for c in enumerate_covers(s):
            sources.setdefault(hasse_digraph(hpartition_of_cover(c)), c)
    return sources


class TestFingerprintOf:
    def test_trivial_cover(self):
        fp = fingerprint_of(make_cover(TRIVIAL, [["p", "q"]]))
        assert fp.blocks == (1,)
        assert fp.to_json()["k"] == {"k0": {"rank": 1, "torsion": []}, "k1": {"rank": 0}}
        assert fp.to_json()["prim"] == {"points": 1, "order": []}
        assert fp == fingerprint_of(HPartition(1, (1,)))

    def test_chain_cover_depth_k(self):
        for k in (2, 3, 4):
            s = chain_space(k)
            cover = make_cover(s, [[f"p{i}" for i in range(1, j + 1)]
                                   for j in range(1, k + 1)])
            fp = fingerprint_of(cover)
            assert fp.blocks == (k,)
            assert fp.to_json()["k"]["k0"]["rank"] == 1
            assert fp.to_json()["prim"]["points"] == 1

    def test_three_point_model_seven_cover(self):
        s = generate_topology(["neg", "zero", "pos"], [["neg"], ["pos"], ["zero"]])
        (cover,) = enumerate_covers(s, 7)
        fp = fingerprint_of(cover)
        assert fp.blocks == (1, 1, 1)
        assert fp.to_json()["k"]["k0"]["rank"] == 3
        assert fp.to_json()["prim"]["points"] == 3
        assert fp.to_json()["graph"]["vertices"] == 3

    def test_vertex_count_past_one_byte(self):
        # 300 singleton classes: an edgeless Hasse digraph on 300 vertices
        antichain = HPartition(300, tuple(1 << i for i in range(300)))
        fp = fingerprint_of(antichain, cap_vertices=300)
        assert fp.to_json()["graph"]["vertices"] == 300
        assert fp.blocks == (1,) * 300

    def test_a_cover_over_the_cap_is_refused_before_its_hasse_digraph(self, monkeypatch):
        # the first cover the walk meets has 4 classes, over a cap of 2
        calls = []
        original = fingerprints.hasse_digraph
        monkeypatch.setattr(fingerprints, "hasse_digraph",
                            lambda p: calls.append(p) or original(p))
        with pytest.raises(CapExceeded):
            fingerprint_set(enumerate_covers(chain_space(4)), "graph", None,
                            cap_vertices=2)
        assert calls == []

    def test_block_picture_agrees_with_k_theory_and_prim_space(self, block_picture_sources):
        # a fingerprint writes its K-pair and spectrum from the block count;
        # on every distinct Hasse digraph of the line types at n <= 5 and of
        # all covers of the space fixtures, SNF and the maximal tails agree
        assert len(block_picture_sources) > 1134  # the line alone has 1,134 at n = 5
        for g, source in block_picture_sources.items():
            sinks = len(g.sinks)
            kp, ps = k_theory(g), prim_space(g)
            assert (kp.k0_rank, kp.k0_torsion, kp.k1_rank) == (sinks, (), 0)
            assert len(ps.points) == sinks
            fp = fingerprint_of(source)
            assert fp.blocks == block_decomposition(g)
            assert fp.to_json()["k"] == kp.to_json()
            assert fp.to_json()["prim"] == {"points": sinks, "order": []}

    def test_level_keys_order_as_the_old_tuple_keys(self, block_picture_sources):
        # each level's key was once a tuple: (vertex count, adjacency rows)
        # at graph, both read off the certificate's bytes; (blocks, k, the
        # certificate of the spectrum, the edgeless digraph on k vertices) at
        # cstar; (k, (), 0) at ktheory.  Sorting and grouping by ``project``
        # must be sorting and grouping by those.
        def old_key(fp, level):
            k = len(fp.blocks)
            if level == "graph":
                cert = fp.graph_cert
                return (int.from_bytes(cert[:4], "big"), cert[4:])
            if level == "cstar":
                spectrum = canonical_cert(DiGraph(n=k, edges=frozenset()), cap=k)
                return (fp.blocks, k, spectrum)
            return (k, (), 0)

        fps = {fingerprint_of(source) for source in block_picture_sources.values()}
        for level in LEVELS:
            pairs = sorted({(old_key(fp, level), fp.project(level)) for fp in fps})
            new_keys = [new for _, new in pairs]
            # one new key per old key, in the same order
            assert len({old for old, _ in pairs}) == len(pairs)
            assert new_keys == sorted(set(new_keys))
            # the detail each key keeps: the realizing fingerprint whose
            # (certificate, blocks) is least, listed in old key order
            chosen = {}
            for fp in fps:
                key, content = old_key(fp, level), (fp.graph_cert, fp.blocks)
                if key not in chosen or content < chosen[key][0]:
                    chosen[key] = (content, fp)
            details = tuple(chosen[key][1].to_json() for key in sorted(chosen))
            fs = collect_fingerprints(list(fps), level, None)
            assert fs.elements == tuple(new_keys)
            assert fs.details == details

    def test_equality_reads_the_graph_and_the_blocks_only(self):
        fp = fingerprint_of(HPartition(1, (1,)))
        assert Fingerprint(**fp._asdict()) == fp and hash(Fingerprint(**fp._asdict())) == hash(fp)
        assert Fingerprint(fp.graph_cert, (2,)) != fp
        assert Fingerprint(b"x", fp.blocks) != fp

    def test_level_projections_are_monotone(self):
        # graph equality refines algebra equality refines K-group equality
        rng = random.Random(31)
        fps = []
        for _ in range(12):
            s = random_space(rng, max_points=4, max_opens=7)
            fps.extend(fingerprint_of(c) for c in enumerate_covers(s))
        for fp1 in fps:
            for fp2 in fps:
                if fp1.project("graph") == fp2.project("graph"):
                    assert fp1.project("cstar") == fp2.project("cstar")
                if fp1.project("cstar") == fp2.project("cstar"):
                    assert fp1.project("ktheory") == fp2.project("ktheory")


class TestFingerprintSets:
    def test_size_one_is_always_the_singleton(self):
        for space in (TRIVIAL, chain_space(4)):
            for level in ("graph", "cstar", "ktheory"):
                fs = fingerprints_of_space(space, 1, level)
                assert sets_match(fs, empty_space_fingerprints(level))

    def test_three_point_model_has_no_size_8(self):
        s = generate_topology(["neg", "zero", "pos"], [["neg"], ["pos"], ["zero"]])
        fs = fingerprints_of_space(s, 8, "graph")
        assert fs.elements == ()

    def test_chain4_all_sizes_are_exactly_the_four_blocks(self):
        s = chain_space(4)
        fs = fingerprints_of_space(s, None, "cstar")
        blocks = {d["blocks"][0] for d in fs.details}
        assert len(fs.elements) == 4
        assert blocks == {1, 2, 3, 4}

    def test_empty_space_convention(self):
        fs = empty_space_fingerprints("ktheory")
        assert len(fs.elements) == 1
        assert fs.details[0]["k"] == {"k0": {"rank": 1, "torsion": []},
                                      "k1": {"rank": 0}}


class TestSetsMatch:
    def test_reflexive(self):
        fs = fingerprints_of_space(chain_space(3), 2, "graph")
        assert sets_match(fs, fs)

    def test_trivial_vs_chain2_differ(self):
        a = fingerprints_of_space(TRIVIAL, None, "graph")
        b = fingerprints_of_space(chain_space(2), None, "graph")
        assert not sets_match(a, b)

    def test_relabeled_spaces_match_at_every_size(self):
        rng = random.Random(2)
        for _ in range(20):
            s = random_space(rng, max_points=4, max_opens=8)
            perm = list(s.points)
            rng.shuffle(perm)
            mapping = dict(zip(s.points, perm))
            t = validate_topology(
                s.points, [{mapping[p] for p in u} for u in s.opens])
            for n in range(1, len(s.nonempty_opens) + 1):
                for level in ("graph", "cstar", "ktheory"):
                    assert sets_match(
                        fingerprints_of_space(s, n, level),
                        fingerprints_of_space(t, n, level),
                    )

    def test_level_mismatch(self):
        a = fingerprints_of_space(TRIVIAL, 1, "graph")
        b = fingerprints_of_space(TRIVIAL, 1, "cstar")
        with pytest.raises(LevelMismatch):
            sets_match(a, b)
        c = fingerprints_of_space(TRIVIAL, None, "graph")
        with pytest.raises(LevelMismatch):
            sets_match(a, c)

    def test_equivalence_on_random_triples(self):
        rng = random.Random(44)
        spaces = [random_space(rng, max_points=3, max_opens=6) for _ in range(9)]
        sets = [fingerprints_of_space(s, 2, "cstar") for s in spaces]
        for a in sets:
            assert sets_match(a, a)
            for b in sets:
                assert sets_match(a, b) == sets_match(b, a)
                for c in sets:
                    if sets_match(a, b) and sets_match(b, c):
                        assert sets_match(a, c)


class TestDomainSets:
    def test_segment_size_one(self):
        fs = fingerprints_of_domain(Segment(F(0), F(1)), 1, "graph")
        assert sets_match(fs, empty_space_fingerprints("graph"))

    def test_line_and_segment_match_at_n4_graph_level(self):
        # both enumerate to the same 114 combinatorial types
        a = fingerprints_of_domain(Segment(F(0), F(1)), 4, "graph")
        b = fingerprints_of_domain(FullLine(), 4, "graph")
        assert sets_match(a, b)


    def test_details_do_not_depend_on_stream_order(self):
        # several covers share a cstar or ktheory key with different details;
        # the reported detail must not be whichever arrives first
        fps = [fingerprint_of(p)
               for p in enumerate_interval_cover_types(FullLine(), 4)]
        shuffled = fps[:]
        random.Random(8).shuffle(shuffled)
        for level in LEVELS:
            want = collect_fingerprints(fps, level, 4).to_json()
            assert collect_fingerprints(fps[::-1], level, 4).to_json() == want
            assert collect_fingerprints(shuffled, level, 4).to_json() == want


class TestPerSetMemo:
    """A fingerprint set computes one fingerprint per distinct labelled
    Hasse digraph; the memo must change no result."""

    @staticmethod
    def assert_same_sets(memoised, fps, n):
        for level in LEVELS:
            fresh = collect_fingerprints(fps, level, n)
            got = memoised(level)
            assert got.elements == fresh.elements
            assert got.details == fresh.details

    @staticmethod
    def first_digraphs(covers) -> set:
        """The labelled Hasse digraph of the first cover of each
        neighbourhood tuple, the ones a memo builds on its misses."""
        first = {}
        for c in covers:
            first.setdefault(c.neighbourhoods, c)
        return {hasse_digraph(hpartition_of_cover(c)) for c in first.values()}

    def test_random_spaces_cover_by_cover(self):
        rng = random.Random(53)
        repeats = shared = 0
        for _ in range(15):
            s = random_space(rng, max_points=5, max_opens=8)
            covers = list(enumerate_covers(s))
            memo = {}
            for c in covers:
                fp = fingerprint_of(c, memo=memo)
                fresh = fingerprint_of(c)
                assert fp == fresh and fp.to_json() == fresh.to_json()
            # one entry per neighbourhood tuple and one per labelled digraph
            tuples = {c.neighbourhoods for c in covers}
            graphs = self.first_digraphs(covers)
            assert len(memo) == len(tuples) + len(graphs)
            repeats += len(covers) - len(tuples)
            shared += len(tuples) - len(graphs)
            self.assert_same_sets(
                lambda level: fingerprints_of_space(s, None, level),
                [fingerprint_of(c) for c in covers], None)
        assert repeats > 0 and shared > 0

    def test_witness_fixtures(self):
        for name in ("line_witness_covers", "segment_cover_first",
                     "segment_cover_second", "segment_cover_third",
                     "circle_cover", "plane_cover"):
            specs = load_input(str(FIXTURES / f"{name}.json")).specs
            parts = [hclasses_of_spec(s) for s in specs]
            side = WitnessSide(name=name, covers=specs)
            memo = {}
            for p in parts:
                fp, fresh = fingerprint_of(p, memo=memo), fingerprint_of(p)
                assert fp == fresh and fp.to_json() == fresh.to_json()
            self.assert_same_sets(
                lambda level: side.fingerprints(None, level, 5, 40)[0],
                [fingerprint_of(p) for p in parts], None)

    def test_domain_types(self):
        types = list(enumerate_interval_cover_types(FullLine(), 4))
        self.assert_same_sets(
            lambda level: fingerprints_of_domain(FullLine(), 4, level),
            [fingerprint_of(p) for p in types], 4)

    def test_one_block_decomposition_per_labelled_digraph(self, monkeypatch):
        calls, unwanted = [], []
        original = fingerprints.block_decomposition

        def counted(g):
            calls.append(g)
            return original(g)

        monkeypatch.setattr(fingerprints, "block_decomposition", counted)
        # SNF, maximal tails and the spectrum stay off the fingerprint path,
        # through whichever module binds them
        for name in ("k_theory", "smith_normal_form", "maximal_tails", "prim_space"):
            for mod in [m for n, m in sys.modules.items() if n.startswith("topocert")]:
                if callable(getattr(mod, name, None)):
                    monkeypatch.setattr(mod, name, lambda *a, name=name, **k:
                                        unwanted.append(name))
        rng = random.Random(54)
        s = random_space(rng, max_points=5, max_opens=8)
        covers = list(enumerate_covers(s))
        tuples = {intersected_neighbourhoods(s, member_sets(c)) for c in covers}
        graphs = self.first_digraphs(covers)
        assert len(graphs) < len(tuples) < len(covers)
        fingerprints_of_space(s, None, "graph")
        # each labelled digraph once, and no other
        assert len(calls) == len(set(calls)) == len(graphs)
        assert set(calls) == graphs
        # one call per isomorphism class at least, and none outside them
        assert ({canonical_cert(g) for g in calls}
                == {canonical_cert(hasse_digraph(hpartition_of_cover(c))) for c in covers})
        # nothing outlives a call: the second one counts the same again
        fingerprints_of_space(s, None, "graph")
        assert len(calls) == 2 * len(graphs)
        assert unwanted == []
