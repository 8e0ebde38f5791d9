import random
from itertools import combinations

import pytest

from topocert import digraphs, hasse
from topocert import (
    CapExceeded,
    DiGraph,
    FullLine,
    HPartition,
    NotACover,
    canonical_cert,
    canonical_key,
    enumerate_covers,
    enumerate_interval_cover_types,
    fingerprint_of,
    generate_topology,
    hasse_digraph,
    hclasses_of_spec,
    hpartition_of_cover,
    make_cover,
    relabel,
    validate_topology,
)
from topocert.hasse import class_members, class_order, hasse_edges
from topocert.jsonio import load_input

from conftest import FIXTURES, space_fixtures
from oracles import (
    brute_force_type_key,
    class_sets,
    intersected_neighbourhoods,
    member_sets,
    partition_of_sets,
    random_partition,
    random_space,
    slot_pool_labelled_sets,
    transitive_reduction,
)


def chain_space(k):
    points = [f"p{i}" for i in range(1, k + 1)]
    opens = [[]] + [points[:i] for i in range(1, k + 1)]
    return validate_topology(points, opens)


class TestHPartitionOfCover:
    def test_trivial_cover_single_class(self):
        s = validate_topology(["a", "b"], [[], ["a", "b"]])
        cover = make_cover(s, [["a", "b"]])
        part = hpartition_of_cover(cover)
        assert part.classes == (0b1,)

    def test_chain_cover_two_classes(self):
        s = chain_space(3)
        cover = make_cover(s, [["p1", "p2", "p3"], ["p1"]])
        part = hpartition_of_cover(cover)
        # member 0 (all three points) is the leading bit: {0}, then {0, 1}
        assert part.classes == (0b10, 0b11)

    def test_three_point_model_classes_match_density_table(self):
        s = generate_topology(["neg", "zero", "pos"], [["neg"], ["pos"], ["zero"]])
        (cover,) = enumerate_covers(s, 7)
        part = hpartition_of_cover(cover)
        member_index = {m: i for i, m in enumerate(member_sets(cover))}

        def h(point):
            return frozenset(
                i for m, i in member_index.items() if point in m
            )

        assert set(class_sets(part)) == {h("neg"), h("zero"), h("pos")}
        assert all(c.bit_count() == 4 for c in part.classes)


class TestHasseDigraph:
    def test_two_path_poset(self):
        # x < z < y and v < w, nothing else
        part = partition_of_sets(
            [frozenset({0}), frozenset({0, 1}), frozenset({0, 1, 2}),
             frozenset({3}), frozenset({3, 4})],
            member_count=5,
        )
        g = hasse_digraph(part)
        assert g.n == 5
        assert len(g.edges) == 3  # two chains: length 2 and length 1

    def test_antichain_has_no_edges(self):
        part = partition_of_sets(
            [frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})],
            member_count=3,
        )
        g = hasse_digraph(part)
        assert g.n == 3 and not g.edges

    def test_third_cover_shape(self):
        # classes {0},{0,1},{0,2},{0,3},{0,1,2},{0,2,3}: 6 vertices 7 edges
        part = partition_of_sets(
            [frozenset({0}), frozenset({0, 1}), frozenset({0, 2}),
             frozenset({0, 3}), frozenset({0, 1, 2}), frozenset({0, 2, 3})],
            member_count=4,
        )
        g = hasse_digraph(part)
        assert g.n == 6 and len(g.edges) == 7

    def test_acyclic_and_matches_reduction_oracle(self):
        rng = random.Random(31)
        for _ in range(60):
            s = random_space(rng)
            for cover in enumerate_covers(s):
                part = hpartition_of_cover(cover)
                g = hasse_digraph(part)
                from topocert import topological_order

                assert topological_order(g) is not None
                sets = class_sets(part)
                order_pairs = {
                    (i, j)
                    for i in range(len(sets))
                    for j in range(len(sets))
                    if sets[i] < sets[j]
                }
                assert g.edges == frozenset(
                    transitive_reduction(len(sets), order_pairs)
                )

    def test_relabeling_gives_isomorphic_graph(self):
        rng = random.Random(59)
        for _ in range(25):
            s = random_space(rng, max_points=4)
            covers = list(enumerate_covers(s))
            if not covers:
                continue
            cover = covers[rng.randrange(len(covers))]
            # permute the member order of the cover
            perm = list(range(len(cover.members)))
            rng.shuffle(perm)
            shuffled = make_cover(s, [member_sets(cover)[i] for i in perm])
            g1 = hasse_digraph(hpartition_of_cover(cover))
            g2 = hasse_digraph(hpartition_of_cover(shuffled))
            assert canonical_cert(g1) == canonical_cert(g2)

    def test_chain_cover_gives_path(self):
        for k in (2, 3, 4, 5):
            s = chain_space(k)
            cover = make_cover(s, [[f"p{i}" for i in range(1, j + 1)]
                                   for j in range(1, k + 1)])
            g = hasse_digraph(hpartition_of_cover(cover))
            from topocert import DiGraph

            path = DiGraph(n=k, edges=frozenset((i, i + 1) for i in range(k - 1)))
            assert canonical_cert(g) == canonical_cert(path)


def _scanned_digraph(cover):
    """(n, edges) of the classes found by testing each point against each
    member, in canonical order, under the reduction of strict inclusion."""
    classes = sorted({frozenset(i for i, m in enumerate(member_sets(cover)) if p in m)
                      for p in cover.space.points},
                     key=lambda c: (len(c), sorted(c)))
    pairs = {(i, j) for i, a in enumerate(classes)
             for j, b in enumerate(classes) if a < b}
    return len(classes), frozenset(transitive_reduction(len(classes), pairs))


def _space_fixtures():
    spaces = space_fixtures()
    assert len(spaces) == 7
    return spaces


class TestFingerprintPathDigraph:
    def test_matches_the_partition_path_and_a_point_scan(self):
        spaces = _space_fixtures()
        rng = random.Random(14)
        spaces += [random_space(rng) for _ in range(20)]
        covers = 0
        for space in spaces:
            memo = {}
            for cover in enumerate_covers(space):
                # the digraph the fingerprint path builds on a memo miss
                classes = hpartition_of_cover(cover).classes
                g = DiGraph(n=len(classes), edges=hasse_edges(classes))
                partition_path = hasse_digraph(hpartition_of_cover(cover))
                assert (g.n, g.edges) == (partition_path.n, partition_path.edges)
                assert (g.n, g.edges) == _scanned_digraph(cover)
                assert fingerprint_of(cover, memo=memo).graph_cert == canonical_cert(g)
                covers += 1
        assert covers > 2944  # six_point_space alone has 2,944


class TestCoverNeighbourhoods:
    """Fingerprints of finite-space covers are memoised on each cover's
    ``neighbourhoods``, which must fix the Hasse digraph up to isomorphism,
    and which the cover walk and ``make_cover`` both carry."""

    def test_equal_tuples_give_isomorphic_hasse_digraphs(self):
        spaces = _space_fixtures()
        rng = random.Random(16)
        spaces += [random_space(rng, max_points=6, max_opens=12) for _ in range(20)]
        relabelled = 0  # covers whose tuple was seen with other vertex labels
        for space in spaces:
            certs, labelled = {}, {}
            for cover in enumerate_covers(space):
                key = cover.neighbourhoods
                sets = list(member_sets(cover))
                assert key == intersected_neighbourhoods(space, sets)
                # the constructor carries the same tuple, in any member order
                rng.shuffle(sets)
                assert make_cover(space, sets).neighbourhoods == key
                g = hasse_digraph(hpartition_of_cover(cover))
                assert certs.setdefault(key, canonical_cert(g)) == canonical_cert(g)
                relabelled += labelled.setdefault(key, g) != g
        assert relabelled > 0

    def test_six_point_space_counts(self):
        (space,) = [s for s in _space_fixtures() if len(s.points) == 6]
        covers = list(enumerate_covers(space))
        assert len(covers) == 2944
        assert len({c.neighbourhoods for c in covers}) == 380
        assert len({hasse_digraph(hpartition_of_cover(c)) for c in covers}) == 180


class TestCanonicalKey:
    def test_member_relabel_same_type(self):
        p1 = partition_of_sets([frozenset({0}), frozenset({0, 1})], member_count=2)
        p2 = partition_of_sets([frozenset({1}), frozenset({0, 1})], member_count=2)
        assert canonical_key(p1) == canonical_key(p2)

    def test_different_types_differ(self):
        p1 = partition_of_sets([frozenset({0}), frozenset({0, 1})], member_count=2)
        p2 = partition_of_sets([frozenset({0}), frozenset({1})], member_count=2)
        assert canonical_key(p1) != canonical_key(p2)

    def test_agrees_with_brute_force_key_on_random_partitions(self):
        # the two keys induce the same equality: each maps onto the other
        rng = random.Random(71)
        new_to_ref, ref_to_new = {}, {}
        for _ in range(1500):
            for p in random_partition(rng):
                new, ref = canonical_key(p), brute_force_type_key(p)
                assert new_to_ref.setdefault(new, ref) == ref
                assert ref_to_new.setdefault(ref, new) == new
        assert len(new_to_ref) > 100

    def test_type_dedup_leaves_the_canonical_order_cache_empty(self):
        # every incidence digraph is new, so caching it only costs memory
        digraphs._canonical_order_key.cache_clear()
        assert len(list(enumerate_interval_cover_types(FullLine(), 4))) == 114
        assert digraphs._canonical_order_key.cache_info().currsize == 0

    def test_builds_no_digraph(self, monkeypatch):
        # the incidence neighbour sets come straight from the class masks
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return DiGraph(*args, **kwargs)

        for module in (hasse, digraphs):
            monkeypatch.setattr(module, "DiGraph", counting)
        keys = {canonical_key(HPartition(n, class_order(labelled)))
                for n in range(1, 5) for labelled in slot_pool_labelled_sets(n)}
        assert (len(keys), built) == (1 + 2 + 12 + 114, [])

    def test_too_many_vertices_is_capped(self):
        # 6 members and 35 classes make 41 incidence vertices, over the
        # default cap of 40
        classes = [frozenset(c) for k in (1, 2, 3) for c in combinations(range(6), k)]
        with pytest.raises(CapExceeded) as info:
            canonical_key(partition_of_sets(classes[:35], member_count=6))
        assert info.value.report() == {
            "kind": "CapExceeded",
            "message": "graph vertices for canonicalization: requested 41, cap is 40",
            "what": "graph vertices for canonicalization", "limit": 40, "requested": 41}


WITNESS_FIXTURES = ["segment_cover_first", "segment_cover_second",
                    "segment_cover_third", "segment_gap", "circle_cover",
                    "plane_cover", "line_witness_covers"]


def _assert_well_formed(part):
    """The classes are distinct nonzero member masks of an n-member cover,
    in ``class_order``."""
    n = part.member_count
    assert isinstance(part.classes, tuple) and part.classes
    assert all(0 < c < 1 << n for c in part.classes)
    assert len(set(part.classes)) == len(part.classes)
    assert part.classes == class_order(part.classes)


class TestClassFormat:
    def test_order_and_members_agree_with_sorted_member_sets(self):
        # class_order is the order by size, then by sorted member indices;
        # class_members decodes as the oracle does
        for n in range(1, 6):
            masks = range(1, 1 << n)
            sets = class_sets(HPartition(n, tuple(masks)))
            assert [frozenset(class_members(c, n)) for c in masks] == sets
            assert all(list(class_members(c, n)) == sorted(s)
                       for c, s in zip(masks, sets))
            by_members = sorted(masks, key=lambda c: (c.bit_count(), class_members(c, n)))
            assert class_order(masks) == tuple(by_members)
            assert class_order(reversed(by_members)) == tuple(by_members)

    def test_every_source_gives_well_formed_classes(self):
        count = 0
        for space in _space_fixtures():
            for cover in enumerate_covers(space):
                _assert_well_formed(hpartition_of_cover(cover))
                count += 1
        assert count > 2944  # six_point_space alone has 2,944
        refused, specs = 0, 0
        for name in WITNESS_FIXTURES:
            for spec in load_input(str(FIXTURES / f"{name}.json")).specs:
                try:
                    part = hclasses_of_spec(spec)
                except NotACover:
                    refused += 1
                    continue
                _assert_well_formed(part)
                specs += 1
        assert (specs, refused) == (7, 1)  # segment_gap.json is no cover
        for n in range(1, 5):
            for part in enumerate_interval_cover_types(FullLine(), n):
                _assert_well_formed(part)
