import json
import random
from pathlib import Path

import pytest

from topocert import (
    CapExceeded,
    DuplicatePoint,
    MissingEmpty,
    MissingWhole,
    NotClosedUnderUnion,
    UnknownPoint,
    enumerate_covers,
    generate_topology,
    hpartition_of_cover,
    make_cover,
    validate_topology,
)
from topocert.jsonio import cover_json, load_input

from oracles import (
    NotAHomeomorphism,
    combination_scan_covers,
    intersected_neighbourhoods,
    member_sets,
    push_forward_cover,
    random_space,
    subset_scan_covers,
)


class TestValidateTopology:
    def test_trivial_topology(self):
        s = validate_topology(["a"], [[], ["a"]])
        assert len(s.opens) == 2

    def test_chain_topology(self):
        opens = [[], ["1"], ["1", "2"], ["1", "2", "3"], ["1", "2", "3", "4"]]
        s = validate_topology(["1", "2", "3", "4"], opens)
        assert len(s.opens) == 5

    def test_union_closure_failure_carries_witness(self):
        with pytest.raises(NotClosedUnderUnion) as exc:
            validate_topology(["a", "b"], [[], ["a"], ["b"]])
        a, b = exc.value.witness
        assert {frozenset(a), frozenset(b)} == {frozenset("a"), frozenset("b")}

    def test_missing_empty(self):
        with pytest.raises(MissingEmpty):
            validate_topology(["a"], [["a"]])

    def test_missing_whole(self):
        with pytest.raises(MissingWhole):
            validate_topology(["a", "b"], [[], ["a"]])

    def test_duplicate_point(self):
        with pytest.raises(DuplicatePoint):
            validate_topology(["a", "a"], [[], ["a"]])


class TestGenerateTopology:
    def test_single_subbasis_set(self):
        s = generate_topology(["a", "b"], [["a"]])
        assert {frozenset(u) for u in s.opens} == {
            frozenset(), frozenset("a"), frozenset("ab")
        }

    def test_three_singletons_give_discrete(self):
        s = generate_topology(["neg", "zero", "pos"], [["neg"], ["pos"], ["zero"]])
        assert len(s.opens) == 8  # discrete topology on 3 points

    def test_two_overlapping_sets(self):
        s = generate_topology(["1", "2", "3"], [["1", "2"], ["2", "3"]])
        assert {frozenset(u) for u in s.opens} == {
            frozenset(),
            frozenset({"2"}),
            frozenset({"1", "2"}),
            frozenset({"2", "3"}),
            frozenset({"1", "2", "3"}),
        }

    def test_generated_topology_validates(self):
        rng = random.Random(7)
        for _ in range(25):
            s = random_space(rng)
            validate_topology(s.points, s.opens)


class TestEnumerateCovers:
    def test_trivial_topology_single_cover(self):
        s = validate_topology(["a"], [[], ["a"]])
        covers = list(enumerate_covers(s, 1))
        assert len(covers) == 1
        assert member_sets(covers[0]) == (frozenset("a"),)

    def test_chain_two_covers_of_size_two(self):
        opens = [[], ["1"], ["1", "2"], ["1", "2", "3"]]
        s = validate_topology(["1", "2", "3"], opens)
        covers = list(enumerate_covers(s, 2))
        # {X,U1} and {X,U2}: the union must reach the top of the chain
        assert len(covers) == 2
        for c in covers:
            assert frozenset({"1", "2", "3"}) in member_sets(c)

    def test_no_covers_larger_than_opens(self):
        s = generate_topology(["neg", "zero", "pos"], [["neg"], ["pos"], ["zero"]])
        assert list(enumerate_covers(s, 8)) == []

    def test_one_size_walk_is_capped_like_the_all_size_walk(self):
        # 63 nonempty opens: C(63, 4) subsets exceed the 2^16 - 1 that the
        # all-size walk may scan at its cap, C(63, 3) do not
        pts = [str(i) for i in range(6)]
        s = generate_topology(pts, [[p] for p in pts])
        for n in (4, 8):
            with pytest.raises(CapExceeded):
                next(enumerate_covers(s, n))
        assert len(list(enumerate_covers(s, 2))) == 363
        assert next(enumerate_covers(s, 3)).members

    def test_topology_pair_scan_is_capped_like_the_cover_walk(self):
        # a chain on k - 1 points has k opens: C(362, 2) pairs are inside
        # 2^16 - 1, C(363, 2) are not
        for npts, capped in ((361, False), (362, True)):
            pts = list(range(npts))
            prefixes = [pts[:i] for i in range(npts + 1)]
            for build in (validate_topology, generate_topology):
                if capped:
                    with pytest.raises(CapExceeded):
                        build(pts, prefixes)
                else:
                    assert len(build(pts, prefixes).opens) == 362

    def test_size_one_is_whole_space(self):
        rng = random.Random(3)
        for _ in range(20):
            s = random_space(rng)
            covers = list(enumerate_covers(s, 1))
            assert len(covers) == 1
            assert member_sets(covers[0]) == (frozenset(s.points),)

    def test_matches_subset_scan(self):
        rng = random.Random(11)
        for _ in range(30):
            s = random_space(rng, max_opens=8)
            got = [frozenset(member_sets(c)) for c in enumerate_covers(s)]
            assert len(got) == len(set(got)), "covers must be pairwise distinct"
            assert set(got) == set(subset_scan_covers(s))

    def test_walk_meets_the_combination_scan(self):
        rng = random.Random(28)
        for _ in range(40):
            s = random_space(rng, max_points=5, max_opens=9)
            for n in [None, *range(1, len(s.nonempty_opens) + 2)]:
                covers = list(enumerate_covers(s, n))
                got = [c.members for c in covers]
                want = combination_scan_covers(s, n)
                # each cover once, in lexicographic order of member tuples:
                # one size in the scan's own order, and every size with each
                # cover before its extensions
                assert got == sorted(set(got)) == sorted(want)
                if n is not None:
                    assert got == want
                for c in covers:
                    assert c.neighbourhoods == intersected_neighbourhoods(
                        s, member_sets(c))

    def test_caps_fire_before_the_first_cover(self):
        # a chain on k points has k nonempty opens: 17 is one past the
        # all-size cap, 16 is at it, and no one-size walk of 17 opens
        # exceeds the scan budget
        for k, capped in ((17, True), (16, False)):
            pts = [str(i) for i in range(k)]
            chain = validate_topology(pts, [pts[:i] for i in range(k + 1)])
            walk = enumerate_covers(chain)
            if capped:
                with pytest.raises(CapExceeded) as exc:
                    next(walk)
                assert (exc.value.fields["limit"], exc.value.fields["requested"]) == (16, 17)
            else:
                # the least member tuple that covers: every open
                assert next(walk).members == tuple(range(1, k + 1))
            assert next(enumerate_covers(chain, k // 2)).members
        # 63 nonempty opens: C(63, 4) subsets exceed 2^16 - 1
        pts = [str(i) for i in range(6)]
        discrete = generate_topology(pts, [[p] for p in pts])
        with pytest.raises(CapExceeded) as exc:
            next(enumerate_covers(discrete, 4))
        assert exc.value.fields["requested"] == 595665

    def test_stream_is_deterministic(self):
        rng = random.Random(5)
        s = random_space(rng)
        first = [c.members for c in enumerate_covers(s)]
        second = [c.members for c in enumerate_covers(s)]
        assert first == second


class TestMakeCover:
    def test_rejects_non_cover(self):
        from topocert import NotACover

        opens = [[], ["1"], ["1", "2"], ["1", "2", "3"]]
        s = validate_topology(["1", "2", "3"], opens)
        with pytest.raises(NotACover):
            make_cover(s, [["1"], ["1", "2"]])

    def test_rejects_duplicates_and_non_opens(self):
        s = validate_topology(["a", "b"], [[], ["a"], ["a", "b"]])
        with pytest.raises(ValueError):
            make_cover(s, [["a", "b"], ["a", "b"]])
        with pytest.raises(ValueError):
            make_cover(s, [["b"], ["a", "b"]])

    def test_keeps_the_file_member_order(self):
        path = Path(__file__).parent.parent / "fixtures" / "chain_3_cover.json"
        doc = json.loads(path.read_text())
        cover = load_input(str(path)).cover
        # members are open indices, listed out of the space's order
        assert cover.members == (3, 1, 2)
        assert member_sets(cover) == tuple(frozenset(m) for m in doc["cover"])
        assert cover_json(cover) == {"members": doc["cover"]}

    def test_unknown_point_is_the_smallest_by_str(self):
        s = validate_topology(["a", "b"], [[], ["a"], ["a", "b"]])
        with pytest.raises(UnknownPoint) as info:
            make_cover(s, [["a"], ["z", "b", "y", "x1", "x0"]])
        assert info.value.fields == {"point": "'x0'"}


class TestPushForward:
    def test_identity(self):
        s = generate_topology(["a", "b"], [["a"]])
        cover = make_cover(s, [["a"], ["a", "b"]])
        image = push_forward_cover(cover, {"a": "a", "b": "b"}, s)
        assert image.members == cover.members

    def test_chain_relabeling(self):
        src = validate_topology(["1", "2"], [[], ["1"], ["1", "2"]])
        tgt = validate_topology(["x", "y"], [[], ["x"], ["x", "y"]])
        cover = make_cover(src, [["1"], ["1", "2"]])
        image = push_forward_cover(cover, {"1": "x", "2": "y"}, tgt)
        assert member_sets(image) == (frozenset({"x"}), frozenset({"x", "y"}))

    def test_swapping_sierpinski_points_fails(self):
        s = validate_topology(["a", "b"], [[], ["a"], ["a", "b"]])
        cover = make_cover(s, [["a"], ["a", "b"]])
        with pytest.raises(NotAHomeomorphism):
            push_forward_cover(cover, {"a": "b", "b": "a"}, s)

    def test_commutes_with_enumeration(self):
        # the image of the n-cover set of X is the n-cover set of Y
        rng = random.Random(19)
        for _ in range(15):
            s = random_space(rng, max_points=4, max_opens=8)
            perm = list(s.points)
            rng.shuffle(perm)
            mapping = dict(zip(s.points, perm))
            tgt = validate_topology(
                s.points, [{mapping[p] for p in u} for u in s.opens]
            )
            for n in range(1, len(s.nonempty_opens) + 1):
                xs = {
                    frozenset(member_sets(push_forward_cover(c, mapping, tgt)))
                    for c in enumerate_covers(s, n)
                }
                ys = {frozenset(member_sets(c)) for c in enumerate_covers(tgt, n)}
                assert xs == ys

    def test_cover_invariants_hold_on_stream(self):
        rng = random.Random(23)
        for _ in range(20):
            s = random_space(rng)
            for c in enumerate_covers(s):
                union = set()
                for m in member_sets(c):
                    assert m, "no empty member"
                    union |= m
                assert union == set(s.points)
                assert len(set(member_sets(c))) == len(c.members)
                # every point lands in some member, so h is never empty
                part = hpartition_of_cover(c)
                assert all(part.classes)
