import random
from fractions import Fraction as F

import pytest

from topocert import (
    FullLine,
    LevelMismatch,
    Segment,
    empty_space_fingerprints,
    enumerate_covers,
    fingerprint_of,
    fingerprints_of_domain,
    fingerprints_of_space,
    generate_topology,
    make_cover,
    sets_match,
    singleton_fingerprint,
    validate_topology,
)

from oracles import random_space


def chain_space(k):
    points = [f"p{i}" for i in range(1, k + 1)]
    opens = [[]] + [points[:i] for i in range(1, k + 1)]
    return validate_topology(points, opens)


TRIVIAL = validate_topology(["p", "q"], [[], ["p", "q"]])


class TestFingerprintOf:
    def test_trivial_cover(self):
        fp = fingerprint_of(make_cover(TRIVIAL, [["p", "q"]]))
        assert fp.blocks.blocks == (1,)
        assert (fp.kpair.k0_rank, fp.kpair.k1_rank) == (1, 0)
        assert len(fp.prim.points) == 1
        assert fp == singleton_fingerprint()

    def test_chain_cover_depth_k(self):
        for k in (2, 3, 4):
            s = chain_space(k)
            cover = make_cover(s, [[f"p{i}" for i in range(1, j + 1)]
                                   for j in range(1, k + 1)])
            fp = fingerprint_of(cover)
            assert fp.blocks.blocks == (k,)
            assert fp.kpair.k0_rank == 1
            assert len(fp.prim.points) == 1

    def test_three_point_model_seven_cover(self):
        s = generate_topology(["neg", "zero", "pos"], [["neg"], ["pos"], ["zero"]])
        (cover,) = enumerate_covers(s, 7)
        fp = fingerprint_of(cover)
        assert fp.blocks.blocks == (1, 1, 1)
        assert fp.kpair.k0_rank == 3
        assert len(fp.prim.points) == 3
        assert fp.graph_cert.vertex_count == 3

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

