import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction as F
from functools import lru_cache, reduce
from itertools import combinations
from operator import or_

import pytest

from topocert import (
    CapExceeded,
    Circle,
    Constraint,
    EmptyMember,
    FullLine,
    AxisAlignedSpec,
    Interval,
    IntervalSpec,
    InvalidArrangement,
    NotACover,
    Segment,
    canonical_key,
    enumerate_interval_cover_types,
    hclasses_axis2d,
    hclasses_of_intervals,
)
from topocert import arrangements
from topocert.hasse import HPartition, cell_classes, class_order
from topocert.jsonio import load_input

import oracles
from oracles import (
    brute_force_type_key,
    class_sets,
    in_domain,
    interval_contains,
    region_contains,
    sampled_interval_classes,
    sampled_plane_classes,
    slot_members,
    surjective_choices,
    weak_order_type_keys,
)

SEG = Segment(F(0), F(1))


def seg_spec(members):
    return IntervalSpec(SEG, tuple(Interval(*m) for m in members))


FIRST = seg_spec([(F(0), F(1, 4), True), (F(1, 8), F(1, 2)),
                  (F(3, 8), F(3, 4)), (F(5, 8), F(1))])
THIRD = seg_spec([(F(0), F(1), True), (F(1, 8), F(3, 8)),
                  (F(1, 4), F(5, 8)), (F(1, 2), F(3, 4))])


def circle_spec():
    arcs = [Interval((F(p, 4) - F(1, 100)) % 1, (F(p + 1, 4) + F(1, 100)) % 1)
            for p in range(4)]
    return IntervalSpec(Circle(F(1)), tuple(arcs))


def plane_spec():
    c = Constraint
    return AxisAlignedSpec((
        (c("x", "<", F(8)), c("y", ">", F(-6))),
        (c("x", ">", F(-3)), c("y", "<", F(4))),
        (c("x", ">", F(0)), c("y", ">", F(0))),
        (c("x", "<", F(4)), c("y", "<", F(2))),
    ))


class TestIntervalClasses:
    def test_first_cover_seven_classes(self):
        part = hclasses_of_intervals(FIRST)
        assert set(class_sets(part)) == {
            frozenset({0}), frozenset({0, 1}), frozenset({1}),
            frozenset({1, 2}), frozenset({2}), frozenset({2, 3}),
            frozenset({3}),
        }

    def test_circle_eight_classes(self):
        part = hclasses_of_intervals(circle_spec())
        singles = {frozenset({p}) for p in range(4)}
        pairs = {frozenset({p, (p + 1) % 4}) for p in range(4)}
        assert set(class_sets(part)) == singles | pairs

    def test_whole_domain_single_class(self):
        part = hclasses_of_intervals(seg_spec([(F(0), F(1), True)]))
        assert part.classes == (0b1,)

    def test_not_a_cover(self):
        with pytest.raises(NotACover):
            hclasses_of_intervals(seg_spec([(F(0), F(1, 2), True)]))

    def test_empty_member(self):
        with pytest.raises(EmptyMember):
            IntervalSpec(SEG, (Interval(F(1, 2), F(1, 2)),))

    def test_closed_end_only_at_segment_start(self):
        with pytest.raises(InvalidArrangement):
            IntervalSpec(SEG, (Interval(F(1, 4), F(1), True),))

    def test_line_needs_unbounded_members(self):
        spec = IntervalSpec(FullLine(), (Interval(F(0), F(1)),))
        with pytest.raises(NotACover):
            hclasses_of_intervals(spec)

    def test_sampling_oracle_agrees(self):
        specs = [FIRST, THIRD, circle_spec(),
                 seg_spec([(F(0), F(1), True)]),
                 IntervalSpec(FullLine(), (
                     Interval(None, F(1)), Interval(F(0), None)))]
        for spec in specs:
            part = hclasses_of_intervals(spec)
            assert set(class_sets(part)) == sampled_interval_classes(spec)

    def test_sampling_oracle_agrees_on_random_covers(self):
        rng = random.Random(12)
        count = 0
        while count < 60:
            n = rng.randint(1, 4)
            members = []
            for _ in range(n):
                a, b = sorted(rng.sample(range(0, 9), 2))
                if rng.random() < 0.3:
                    members.append(Interval(F(0), F(b + 1, 9), True))
                else:
                    members.append(Interval(F(a, 9), F(b + 1, 9)))
            try:
                spec = IntervalSpec(SEG, tuple(members))
                part = hclasses_of_intervals(spec)
            except (NotACover, InvalidArrangement, EmptyMember):
                continue
            count += 1
            assert set(class_sets(part)) == sampled_interval_classes(spec)
        # line covers with rays and tied ends, circle covers with wrapping
        # arcs and shared ends
        seen = {"ray": 0, "tie": 0, "wrap": 0, "shared": 0}
        for domain in (FullLine(), Circle(F(3, 2))):
            count = 0
            while count < 60:
                spec = random_line_or_circle_cover(rng, domain)
                try:
                    part = hclasses_of_intervals(spec)
                except NotACover:
                    continue
                count += 1
                assert set(class_sets(part)) == sampled_interval_classes(spec)
                ends = [v for m in spec.members for v in (m.lo, m.hi)]
                finite = [v for v in ends if v is not None]
                shared = len(set(finite)) < len(finite)
                if isinstance(domain, FullLine):
                    seen["ray"] += None in ends
                    seen["tie"] += shared
                else:
                    seen["wrap"] += any(m.lo > m.hi for m in spec.members)
                    seen["shared"] += shared
        assert all(seen.values()), seen

    def test_circle_class_walk_rotation_invariant(self):
        # relabeling arcs by rotation yields the same partition type
        base = circle_spec()
        rotated = IntervalSpec(
            Circle(F(1)), base.members[1:] + base.members[:1])
        assert canonical_key(hclasses_of_intervals(base)) == canonical_key(
            hclasses_of_intervals(rotated))


    def test_not_a_cover_names_an_uncovered_point(self):
        rng = random.Random(31)
        for domain in (SEG, FullLine(), Circle(F(3, 2))):
            count = 0
            while count < 40:
                if domain is SEG:
                    members = []
                    for _ in range(rng.randint(1, 3)):
                        a, b = sorted(rng.sample(range(0, 9), 2))
                        members.append(Interval(F(a, 8), F(b, 8), a == 0
                                                and rng.random() < 0.5))
                    try:
                        spec = IntervalSpec(domain, tuple(members))
                    except InvalidArrangement:
                        continue
                else:
                    spec = random_line_or_circle_cover(rng, domain)
                try:
                    hclasses_of_intervals(spec)
                except NotACover as exc:
                    x = witness_point(exc)
                    assert in_domain(domain, x), exc.witness
                    assert not any(interval_contains(domain, m, x)
                                   for m in spec.members), exc.witness
                    count += 1

    def test_not_a_cover_witness_text_is_pinned(self):
        # the first uncovered cell in cell order, named by its sample point
        line, circle = FullLine(), Circle(F(3, 2))
        for domain, members, witness in (
                (SEG, [(F(0), F(1, 4), True), (F(1, 2), F(1))], "point 1/4"),
                (SEG, [(F(0), F(1, 2), True), (F(1, 4), F(2, 3))], "point 2/3"),
                (SEG, [(F(0), F(1, 2)), (F(1, 4), F(1))], "point 0"),
                (line, [(F(-2), None), (F(-3, 2), F(5))], "point -3"),
                (line, [(None, F(1, 3)), (F(0), F(2))], "point 2"),
                (line, [(None, F(1)), (F(3), None), (F(0), F(2))], "point 2"),
                (circle, [(F(1, 3), F(1)), (F(1, 2), F(4, 3))], "point 1/12"),
                (circle, [(F(1, 2), F(1, 4)), (F(0), F(1, 2))], "point 1/2")):
            spec = IntervalSpec(domain, tuple(Interval(*m) for m in members))
            with pytest.raises(NotACover) as exc:
                hclasses_of_intervals(spec)
            assert exc.value.witness == witness


def random_line_or_circle_cover(rng, domain):
    """1..4 members whose ends come from a few random rationals, so tied
    ends are common; line members may be rays, arcs may wrap."""
    if isinstance(domain, Circle):
        c = domain.circumference
        pool = [c * F(k, 12) for k in rng.sample(range(12), rng.randint(2, 4))]
    else:
        pool = [None] + [F(rng.randint(-9, 9), rng.randint(1, 3))
                         for _ in range(rng.randint(1, 4))]
    while True:
        members = []
        for _ in range(rng.randint(1, 4)):
            lo, hi = rng.choice(pool), rng.choice(pool)
            if isinstance(domain, FullLine) and None not in (lo, hi) and lo > hi:
                lo, hi = hi, lo
            members.append(Interval(lo, hi))
        try:
            return IntervalSpec(domain, tuple(members))
        except (InvalidArrangement, EmptyMember):
            continue


def witness_point(exc):
    """The point a NotACover witness names: "point 1/2" or "point (0, 3)"."""
    kind, text = exc.witness.split(" ", 1)
    assert kind == "point", exc.witness
    if text.startswith("("):
        return tuple(F(v) for v in text.strip("()").split(", "))
    return F(text)


class TestSpecsValidateThemselves:
    def test_domains_reject_bad_bounds_when_built(self):
        for build in (lambda: Segment(F(1), F(1)), lambda: Segment(F(1), F(0)),
                      lambda: Circle(F(0)), lambda: Circle(F(-1))):
            with pytest.raises(InvalidArrangement):
                build()

    def test_interval_spec_rejects_a_bad_member_when_built(self):
        for domain, members, error in (
                (SEG, (), InvalidArrangement),
                (SEG, (Interval(F(1, 2), F(1, 2)),), EmptyMember),
                (SEG, (Interval(F(0), F(2), True),), InvalidArrangement),
                (SEG, (Interval(F(0), F(1), True), Interval(F(0), F(1), True)),
                 InvalidArrangement),
                (FullLine(), (Interval(F(1), F(0)),), EmptyMember),
                (Circle(F(1)), (Interval(F(0), F(3, 2)),), InvalidArrangement)):
            with pytest.raises(error):
                IntervalSpec(domain, members)

    def test_axis_spec_rejects_a_bad_region_when_built(self):
        c = Constraint
        for members, error in (
                ((), InvalidArrangement),
                (((c("y", ">", F(2)), c("y", "<", F(1))),), EmptyMember),
                (((c("x", ">", F(0)),), (c("x", ">", F(0)), c("x", "<", F(0)))),
                 EmptyMember),
                (((c("z", "<", F(0)),),), InvalidArrangement),
                (((c("x", "=", F(0)),),), InvalidArrangement)):
            with pytest.raises(error):
                AxisAlignedSpec(members)

    def test_every_witness_file_loads_as_covers(self, fixtures):
        for name, count in (("segment_cover_first", 1), ("circle_cover", 1),
                            ("plane_cover", 1), ("line_witness_covers", 2)):
            loaded = load_input(str(fixtures / f"{name}.json"))
            assert loaded.kind == "covers" and len(loaded.specs) == count
            assert all(isinstance(s, (IntervalSpec, AxisAlignedSpec))
                       for s in loaded.specs)


def coprime_denominators(count: int, digits: int) -> list:
    """``count`` pairwise coprime denominators of at least ``digits``
    digits: m (b + i) + 1 for i < count, with m = lcm(1 .. count).  A prime
    dividing two of them divides their difference m (j - i).  It does not
    divide m, as each of them is 1 modulo m, so it divides j - i < count,
    and then m after all: there is no such prime."""
    m = math.lcm(*range(1, count + 1))
    b = 10 ** max(0, digits - len(str(m)))
    return [m * (b + i) + 1 for i in range(count)]


def rational_with(rng, den: int, lo, hi) -> F:
    """A rational in [lo, hi) whose denominator is exactly ``den``."""
    while True:
        num = rng.randrange(math.ceil(lo * den), math.ceil(hi * den))
        if math.gcd(num, den) == 1:
            return F(num, den)


def expected_ranks(spec) -> tuple:
    """The distinct finite ends and segment bounds in order, and each
    member with its ends replaced by their indices among them, found by
    sorting Fractions."""
    values = {v for m in spec.members for v in (m.lo, m.hi) if v is not None}
    if isinstance(spec.domain, Segment):
        values |= {spec.domain.lo, spec.domain.hi}
    ends = tuple(sorted(values))
    index = {v: i for i, v in enumerate(ends)}
    index[None] = None
    return ends, tuple((index[m.lo], index[m.hi], m.closed_lo)
                       for m in spec.members)


def expected_plane_ranks(spec) -> tuple:
    """The distinct x and the distinct y thresholds in order, and each
    region as its x and y (lo, hi) indices among them: the greatest ">"
    threshold and the least "<" one, None where there is none, found by
    sorting Fractions."""
    ends = tuple(tuple(sorted({con.c for conj in spec.members for con in conj
                               if con.var == var})) for var in ("x", "y"))
    spans = []
    for conj in spec.members:
        span = []
        for var, axis in zip(("x", "y"), ends):
            lows = [con.c for con in conj if con.var == var and con.op == ">"]
            highs = [con.c for con in conj if con.var == var and con.op == "<"]
            span.append((axis.index(max(lows)) if lows else None,
                         axis.index(min(highs)) if highs else None))
        spans.append(tuple(span))
    return ends, tuple(spans)


def assert_walk_matches_oracle(spec):
    """The ranks are the order of the ends, and the walk's classes are the
    sampled ones, or it names a point no member contains."""
    assert (spec.ends, spec.spans) == expected_ranks(spec)
    try:
        part = hclasses_of_intervals(spec)
    except NotACover as exc:
        x = witness_point(exc)
        assert in_domain(spec.domain, x), exc.witness
        assert not any(interval_contains(spec.domain, m, x) for m in spec.members)
        assert frozenset() in sampled_interval_classes(spec)
        return False
    assert set(class_sets(part)) == sampled_interval_classes(spec)
    return True


# one part in 10**40: far below a float's resolution at these magnitudes
TINY = F(1, 10 ** 40)


class TestRankedEnds:
    """A spec ranks its distinct ends once, by one exact sort; its checks
    and the walk read only the ranks."""

    def long_denominator_spec(self, rng, domain, dens):
        """1..5 members on a pool of ends with distinct denominators of 30
        or more digits, some of them 10**-40 apart; a circle's pool holds 0
        and a point 10**-40 below the circumference."""
        if isinstance(domain, Segment):
            lo, hi = domain.lo, domain.hi
        elif isinstance(domain, Circle):
            lo, hi = 0, domain.circumference
        else:
            lo, hi = -4, 4
        pool = [rational_with(rng, den, lo, hi)
                for den in rng.sample(dens, rng.randint(2, 5))]
        pool += [v + TINY for v in pool[:rng.randint(1, 2)] if v + TINY < hi]
        if isinstance(domain, Segment):
            pool += [lo, hi, lo + TINY, hi - TINY]
        elif isinstance(domain, Circle):
            pool += [F(0), hi - TINY]
        else:
            pool += [None, None]
        members = []
        for _ in range(rng.randint(1, 5)):
            a, b = rng.choice(pool), rng.choice(pool)
            if not isinstance(domain, Circle) and None not in (a, b) and a > b:
                a, b = b, a
            closed = isinstance(domain, Segment) and a == lo and rng.random() < 0.5
            members.append(Interval(a, b, closed))
        return IntervalSpec(domain, tuple(members))

    def test_walk_agrees_with_the_oracle_on_long_denominators(self):
        rng = random.Random(29)
        dens = coprime_denominators(60, 30)
        assert all(len(str(d)) >= 30 for d in dens)
        seg = Segment(rational_with(rng, dens[0], -2, -1),
                      rational_with(rng, dens[1], 1, 2))
        for domain in (seg, FullLine(), Circle(F(22, 7))):
            covers = uncovered = 0
            while covers < 40 or uncovered < 10:
                try:
                    spec = self.long_denominator_spec(rng, domain, dens[2:])
                except (InvalidArrangement, EmptyMember):
                    continue
                if assert_walk_matches_oracle(spec):
                    covers += 1
                else:
                    uncovered += 1

    def test_ends_a_float_cannot_tell_apart_are_checked_exactly(self):
        one, c = F(1), Circle(F(1))
        seg = Segment(F(0), one)
        for domain, members, error in (
                (seg, [(TINY, one, True)], InvalidArrangement),
                (seg, [(F(0), one + TINY)], InvalidArrangement),
                (seg, [(-TINY, one)], InvalidArrangement),
                (seg, [(one - TINY, one - TINY)], EmptyMember),
                (c, [(F(0), one)], InvalidArrangement),
                (c, [(-TINY, F(1, 2))], InvalidArrangement),
                (FullLine(), [(one + TINY, one)], EmptyMember),
                (FullLine(), [(None, one), (None, F(10 ** 40, 10 ** 40))],
                 InvalidArrangement)):
            with pytest.raises(error):
                IntervalSpec(domain, tuple(Interval(*m) for m in members))
        # and the same ends a hair inside are accepted and walked
        for domain, members in (
                (seg, [(F(0), one - TINY, True), (TINY, one)]),
                (c, [(F(0), one - TINY), (one - 2 * TINY, TINY)]),
                (FullLine(), [(None, one + TINY), (one, None)])):
            spec = IntervalSpec(domain, tuple(Interval(*m) for m in members))
            assert assert_walk_matches_oracle(spec)

    def test_a_200_member_line_cover_with_300_digit_denominators(self, tmp_path):
        # pairwise coprime denominators: a common denominator of one cover
        # would have about 120,000 digits
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(adversarial_line_cover()))
        spec, = load_input(str(path)).specs
        assert len(spec.members) == 200 and len(spec.ends) == 398
        assert all(len(str(v.denominator)) >= 300
                   for m in spec.members for v in (m.lo, m.hi) if v is not None)
        assert assert_walk_matches_oracle(spec)


def adversarial_line_cover(seed: int = 29) -> dict:
    """A line cover file of 200 members in shuffled order, whose 398
    distinct ends in (-10, 10) have pairwise coprime denominators of 300 or
    more digits.  Member i runs from end 2i - 2 to end 2i + 1 in order, the
    first from -inf and the last to +inf, so each overlaps the next."""
    rng = random.Random(seed)
    ends = sorted(rational_with(rng, den, -10, 10)
                  for den in coprime_denominators(398, 300))
    members = [{"lo": None if i == 0 else str(ends[2 * i - 2]),
                "hi": None if i == 199 else str(ends[2 * i + 1])}
               for i in range(200)]
    rng.shuffle(members)
    return {"domain": {"kind": "line"}, "members": members}


class TestCellClasses:
    """``hasse.cell_classes`` flips a member's bit where its mask changes;
    ``oracles.shifted_cell_classes`` shifts every mask for every cell."""

    def test_flips_agree_with_shifts_on_random_masks(self):
        rng = random.Random(30)
        for _ in range(2000):
            start, width = rng.randint(0, 6), rng.randint(0, 40)
            masks = []
            for _ in range(rng.randint(0, 9)):
                if rng.random() < 0.5:  # any bits, some past either end
                    masks.append(rng.getrandbits(start + width + 3))
                else:  # one run of cells, as an interval is
                    lo = rng.randint(0, start + width)
                    masks.append((1 << rng.randint(lo, start + width + 1)) - (1 << lo))
            cells = range(start, start + width)
            assert cell_classes(masks, cells) == oracles.shifted_cell_classes(masks, cells)

    def test_walks_agree_with_shifts(self, monkeypatch, tmp_path, fixtures):
        # the 200-member line cover and the plane covers, through the walks
        # that call the encoder
        called = []

        def both(masks, cells):
            called.append(len(masks))
            classes = cell_classes(masks, cells)
            assert classes == oracles.shifted_cell_classes(masks, cells)
            return classes

        monkeypatch.setattr(arrangements, "cell_classes", both)
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(adversarial_line_cover()))
        spec, = load_input(str(path)).specs
        hclasses_of_intervals(spec)
        plane, = load_input(str(fixtures / "plane_cover.json")).specs
        for spec in (plane, plane_spec()):
            hclasses_axis2d(spec)
        assert called == [200, 4, 4, 4, 4]


class TestPlaneClasses:
    def test_paper_cover_twelve_classes(self):
        part = hclasses_axis2d(plane_spec())
        assert len(part.classes) == 12
        # spot witnesses: (9,1) sees members 2,3 only; (2,5) sees 1,3
        assert frozenset({1, 2}) in set(class_sets(part))
        assert frozenset({0, 2}) in set(class_sets(part))

    def test_single_region_covering_plane(self):
        part = hclasses_axis2d(AxisAlignedSpec(((),)))
        assert part.classes == (0b1,)

    def test_two_overlapping_half_planes(self):
        c = Constraint
        part = hclasses_axis2d(AxisAlignedSpec((
            (c("x", "<", F(1)),), (c("x", ">", F(0)),)
        )))
        assert set(class_sets(part)) == {
            frozenset({0}), frozenset({0, 1}), frozenset({1})
        }

    def test_not_a_cover(self):
        c = Constraint
        with pytest.raises(NotACover):
            hclasses_axis2d(AxisAlignedSpec(((c("x", "<", F(0)),),)))

    def test_empty_member(self):
        c = Constraint
        with pytest.raises(EmptyMember):
            AxisAlignedSpec(((c("x", "<", F(0)), c("x", ">", F(5))),))

    def test_sampling_oracle_agrees(self):
        part = hclasses_axis2d(plane_spec())
        assert set(class_sets(part)) == sampled_plane_classes(plane_spec())

    def test_sampling_oracle_agrees_on_random_covers(self):
        rng = random.Random(4)
        count = 0
        while count < 40:
            members = []
            for _ in range(rng.randint(1, 4)):
                cons = []
                for var in ("x", "y"):
                    r = rng.random()
                    if r < 0.4:
                        cons.append(Constraint(var, "<", F(rng.randint(-3, 3))))
                    elif r < 0.8:
                        cons.append(Constraint(var, ">", F(rng.randint(-3, 3))))
                members.append(tuple(cons))
            try:
                spec = AxisAlignedSpec(tuple(members))
                part = hclasses_axis2d(spec)
            except (NotACover, EmptyMember):
                continue
            count += 1
            assert (spec.ends, spec.spans) == expected_plane_ranks(spec)
            assert set(class_sets(part)) == sampled_plane_classes(spec)

    def test_thresholds_whose_floors_tie_are_ranked_exactly(self):
        # thresholds 10**-40 apart, far closer than 2**-64, share
        # floor(v * 2**64) in pairs, so the rank sort falls back to
        # comparing them; each cover has a strip between two such x
        # thresholds, and the whole plane, and is walked
        rng = random.Random(34)
        dens = coprime_denominators(40, 30)
        covers = 0
        while covers < 40:
            pool = {var: [rational_with(rng, den, -2, 2)
                          for den in rng.sample(dens, rng.randint(1, 3))]
                    for var in ("x", "y")}
            for var in pool:
                pool[var] += [v + TINY for v in pool[var]]
            # up to four constraints a region, some on one axis and side
            members = [tuple(Constraint(var, rng.choice("<>"), rng.choice(pool[var]))
                             for var in rng.choices("xy", k=rng.randint(0, 4)))
                       for _ in range(rng.randint(1, 5))]
            v = pool["x"][0]
            members += [(Constraint("x", ">", v), Constraint("x", "<", v + TINY)), ()]
            try:
                spec = AxisAlignedSpec(tuple(members))
            except EmptyMember:
                continue
            assert (spec.ends, spec.spans) == expected_plane_ranks(spec)
            assert math.floor(v * 2 ** 64) == math.floor((v + TINY) * 2 ** 64)
            part = hclasses_axis2d(spec)
            assert set(class_sets(part)) == sampled_plane_classes(spec)
            covers += 1

    def test_not_a_cover_names_an_uncovered_point(self):
        rng = random.Random(8)
        count = 0
        while count < 40:
            members = []
            for _ in range(rng.randint(1, 3)):
                members.append(tuple(
                    Constraint(var, rng.choice("<>"), F(rng.randint(-3, 3)))
                    for var in ("x", "y") if rng.random() < 0.7))
            try:
                hclasses_axis2d(AxisAlignedSpec(tuple(members)))
            except EmptyMember:
                continue
            except NotACover as exc:
                x, y = witness_point(exc)
                assert not any(region_contains(conj, x, y) for conj in members)
                count += 1

    def test_not_a_cover_witness_text_is_pinned(self):
        # every cell but (1/2, 1/3) is covered
        c = Constraint
        spec = AxisAlignedSpec((
            (c("x", "<", F(1, 2)),), (c("x", ">", F(1, 2)),),
            (c("y", "<", F(1, 3)),), (c("y", ">", F(1, 3)), c("x", "<", F(7))),
            (c("x", ">", F(5)),)))
        with pytest.raises(NotACover) as exc:
            hclasses_axis2d(spec)
        assert exc.value.witness == "point (1/2, 1/3)"


class TestEnumerateTypes:
    def test_segment_n1(self):
        types = list(enumerate_interval_cover_types(SEG, 1))
        assert len(types) == 1
        assert types[0].classes == (0b1,)

    def test_segment_n2_contains_expected_types(self):
        types = list(enumerate_interval_cover_types(SEG, 2))
        keys = {canonical_key(t) for t in types}
        overlapping = seg_spec([(F(0), F(2, 3), True), (F(1, 3), F(1))])
        nested = seg_spec([(F(0), F(1), True), (F(1, 3), F(2, 3))])
        for spec in (overlapping, nested):
            assert canonical_key(hclasses_of_intervals(spec)) in keys

    def test_segment_n4_contains_the_three_worked_covers(self):
        types = list(enumerate_interval_cover_types(SEG, 4))
        keys = {canonical_key(t) for t in types}
        second = seg_spec([(F(0), F(3, 8), True), (F(1, 8), F(5, 8)),
                           (F(1, 4), F(3, 4)), (F(1, 2), F(1))])
        for spec in (FIRST, second, THIRD):
            assert canonical_key(hclasses_of_intervals(spec)) in keys

    def test_duplicate_free(self):
        types = list(enumerate_interval_cover_types(SEG, 3))
        keys = [canonical_key(t) for t in types]
        assert len(keys) == len(set(keys))

    def test_line_reversal_closure_up_to_isomorphism(self):
        # x -> -x carries any covering family to another one, so the type
        # stream must contain the mirrored type of every line cover
        keys = {canonical_key(t)
                for t in enumerate_interval_cover_types(FullLine(), 3)}
        rng = random.Random(6)
        count = 0
        while count < 30:
            members = [Interval(None, F(rng.randint(-4, 4)))]
            members.append(Interval(F(rng.randint(-4, 4)), None))
            a, b = sorted(rng.sample(range(-4, 5), 2))
            members.append(Interval(F(a), F(b)))
            mirrored = [
                Interval(None if m.hi is None else -m.hi,
                         None if m.lo is None else -m.lo)
                for m in members
            ]
            try:
                part = hclasses_of_intervals(IntervalSpec(FullLine(), tuple(members)))
                mpart = hclasses_of_intervals(
                    IntervalSpec(FullLine(), tuple(mirrored)))
            except (NotACover, InvalidArrangement):
                continue
            count += 1
            assert canonical_key(part) in keys
            assert canonical_key(mpart) in keys

    def test_cap(self):
        with pytest.raises(CapExceeded):
            list(enumerate_interval_cover_types(SEG, 6))

    def test_circle_enumeration_unsupported(self):
        with pytest.raises(InvalidArrangement):
            list(enumerate_interval_cover_types(Circle(F(1)), 2))

    def test_segment_lists_the_line_types_in_order(self):
        # a segment's covers have the line's types, so it sweeps the line's
        # covers and only names its own source
        domain = Segment(F(-1, 3), F(5, 2))
        for n in range(1, 5):
            segment, line = types_of(domain, n), types_of(FullLine(), n)
            # member counts and classes, in order
            assert ([(t.member_count, t.classes) for t in segment]
                    == [(t.member_count, t.classes) for t in line])
            assert {t.source for t in segment} == {
                f"segment[-1/3,5/2) cover(n={n})"}

    def test_every_type_is_realized_by_its_own_walk(self):
        # each type is read off the key of a cover that the cell walk
        # classified, so it keeps the walk's invariants: distinct nonempty
        # classes that together hold every member
        for t in enumerate_interval_cover_types(SEG, 3):
            assert all(t.classes)
            assert len(set(t.classes)) == len(t.classes)
            assert reduce(or_, t.classes) == (1 << t.member_count) - 1

    def test_each_labelled_set_keys_to_its_types_representative(self):
        # the key is the representative, so it depends on the type and not
        # on the labelled class set the stream met first; the brute-force
        # key names the type
        for n in range(1, 5):
            reps = {brute_force_type_key(t): t._replace(source="")
                    for t in types_of(FullLine(), n)}
            for rep in reps.values():
                assert canonical_key(rep) == rep
            for labelled in oracles.slot_pool_labelled_sets(n):
                p = HPartition(n, class_order(labelled))
                assert canonical_key(p) == reps[brute_force_type_key(p)]

    def test_line_n5_type_set(self):
        # the slow test (about 2 s): the representatives with their source,
        # sorted, so independent of stream order
        reps = sorted(enumerate_interval_cover_types(FullLine(), 5))
        assert len(reps) == 1640
        assert hashlib.sha256(repr(reps).encode()).hexdigest() == (
            "7d0b04ac2137279dde4c9299c8f7e41ab529b3c2080a0d8f48c81e173e4adfec")


def slot_values(pool):
    """The values of slots 0..m+1 read off a pool's members, None for the
    unbounded end slots."""
    values = sorted({v for member, *_ in pool for v in (member.lo, member.hi)
                     if v is not None})
    return [None] + values + [None]


def cell_points(slots):
    """One point per cell, in cell order: the gap left of slot 1, then each
    interior slot and the gap right of it."""
    if len(slots) == 2:
        return [F(0)]
    ends = [slots[1] - 2] + slots[1:-1] + [slots[-2] + 2]
    return [x for a, b in zip(ends, ends[1:]) for x in (a, (a + b) / 2)][1:]


class TestSlotPool:
    # the oracle in ``oracles``: line covers as combinations of slot members

    def test_recursion_yields_the_surjective_combinations_in_order(self):
        for n in range(1, 5):
            for m in range(2 * n + 1):
                pool = slot_members(m)
                full = (1 << m) - 1
                expected = [c for c in combinations(pool, n)
                            if reduce(or_, (slots for _, slots, *_ in c)) == full]
                assert list(surjective_choices(pool, n, m)) == expected

    def test_both_prunes_bound_the_recursion(self, monkeypatch):
        # without the slot-count prune the line at n = 4 makes about 15
        # calls per surjective choice, without the start-slot prune about 12
        calls = 0
        extend = oracles.extend_choices

        def counted(*args):
            nonlocal calls
            calls += 1
            return extend(*args)

        monkeypatch.setattr(oracles, "extend_choices", counted)
        surjective = {3: 248, 4: 3600}
        for n in (3, 4):
            calls = 0
            choices = sum(1 for m in range(2 * n + 1) for _ in
                          surjective_choices(slot_members(m), n, m))
            assert choices == surjective[n]
            assert calls < 5 * choices

    def test_the_sweep_meets_the_pool_covers(self):
        # one sweep leaf per covering choice of the pool, with the same
        # labelled class set, counted with multiplicity; the two share no code
        for n in range(1, 6):
            sweep = Counter(map(frozenset, arrangements._line_covers(n)))
            assert sweep == Counter(oracles.slot_pool_labelled_sets(n))
            assert (sum(sweep.values()), len(sweep)) == (
                (1, 1), (4, 3), (42, 23), (644, 277), (12736, 4399))[n - 1]

    def test_each_sweep_cover_walks_to_its_labelled_set(self):
        # a member's first and last cell give its ends, and the walk of the
        # members so built meets the sweep's cells one by one
        for n in range(1, 5):
            for cells in arrangements._line_covers(n):
                ends, top = arrangements._member_cells(cells, n), len(cells) - 1
                assert cells == tuple(
                    sum(1 << n - 1 - i for i, (first, last) in enumerate(ends)
                        if first <= k <= last) for k in range(len(cells)))
                spans = [(None if first == 0 else first // 2,
                          None if last == top else last // 2 + 1)
                         for first, last in ends]
                spec = IntervalSpec(FullLine(), tuple(Interval(*s) for s in spans))
                assert hclasses_of_intervals(spec).classes == class_order(cells)

    def test_cell_masks_agree_with_membership_at_one_point_per_cell(self):
        for m in range(9):
            pool = slot_members(m)
            slots = slot_values(pool)
            points = cell_points(slots)
            assert len(slots) == m + 2
            assert len(points) == 2 * m + 1
            for member, _, start, cells in pool:
                assert start == slots.index(member.lo)
                assert cells >> len(points) == 0
                for k, x in enumerate(points):
                    assert (cells >> k & 1) == interval_contains(FullLine(), member, x)


def set_digest(sets):
    """sha256 of labelled class sets, each as its sorted masks, sorted."""
    return hashlib.sha256(repr(sorted(sorted(s) for s in sets)).encode()).hexdigest()


class TestMirror:
    # the reflection x -> -x keeps a cover's type, so the type stream keys
    # one labelled class set of each mirror pair

    def test_mirror_is_an_involution_within_the_sweep(self):
        # as a cell sequence, the mirror of every sweep cover is a sweep
        # cover, and mirroring twice gives the cover back
        def mirror(cells, n):
            return arrangements._mirror(cells, arrangements._member_cells(cells, n))

        for n in range(1, 6):
            covers = set(arrangements._line_covers(n))
            assert len(covers) == (1, 4, 42, 644, 12736)[n - 1]
            for cover in covers:
                assert mirror(cover, n) in covers
                assert mirror(mirror(cover, n), n) == cover

    def test_kept_counts(self):
        for n, kept in zip(range(1, 6), (1, 2, 15, 174, 2695)):
            assert sum(1 for _ in arrangements._covers_up_to_mirror(n)) == kept

    def test_kept_sets_have_every_type(self):
        for n in range(1, 5):
            every = {brute_force_type_key(HPartition(n, class_order(cells)))
                     for cells in arrangements._line_covers(n)}
            kept = {brute_force_type_key(HPartition(n, class_order(labelled)))
                    for labelled, _ in arrangements._covers_up_to_mirror(n)}
            assert kept == every

    def test_stream_is_the_stream_of_every_new_labelled_set(self):
        # key every new labelled set, with no mirror marked: the same keys
        # come out in the same order
        for n in range(1, 5):
            seen_sets, keys = set(), []
            for labelled in map(frozenset, arrangements._line_covers(n)):
                if labelled not in seen_sets:
                    seen_sets.add(labelled)
                    key = canonical_key(HPartition(n, class_order(labelled)))
                    if key not in keys:
                        keys.append(key)
            assert [t._replace(source="") for t in types_of(FullLine(), n)] == keys

    def test_line_n6_labelled_sets_are_pinned(self, monkeypatch):
        # the slow test (about 7 s), one sweep pass: every labelled set, its
        # digest computed once by ``oracles.slot_pool_labelled_sets(6)``,
        # and the sets kept after the mirrors are marked
        every = set()
        sweep = arrangements._line_covers

        def recorded(n):
            for cells in sweep(n):
                every.add(frozenset(cells))
                yield cells

        monkeypatch.setattr(arrangements, "_line_covers", recorded)
        kept = [labelled for labelled, _ in arrangements._covers_up_to_mirror(6)]
        assert (len(every), len(kept)) == (85667, 52145)
        assert set_digest(every) == (
            "acb15975ed949846b3d531132065b4601672af607ccf1bdbf326ce97451a54ac")
        assert set_digest(kept) == (
            "8d51f61b3ec9ab2401e0d604ade279ea5772ff5d2052e65ac371166c08bbb539")


@lru_cache(maxsize=None)
def types_of(domain, n):
    return tuple(enumerate_interval_cover_types(domain, n))


def random_cover(rng, domain, n):
    """n members whose ends come from a few random rationals (and, on a
    segment, its two ends; on the line, unbounded), so tied and shared
    endpoints, boundary-touching members, closed_lo members and rays are
    all common."""
    if isinstance(domain, Segment):
        span = domain.hi - domain.lo
        pool = [domain.lo, domain.hi] + [
            domain.lo + span * F(rng.randint(1, 29), 30)
            for _ in range(rng.randint(0, 3))]
    else:
        pool = [None] + [F(rng.randint(-9, 9), rng.randint(1, 4))
                         for _ in range(rng.randint(1, 4))]
    members = []
    for _ in range(n):
        lo, hi = rng.choice(pool), rng.choice(pool)
        if lo is not None and hi is not None and lo > hi:
            lo, hi = hi, lo
        closed = (isinstance(domain, Segment) and lo == domain.lo
                  and rng.random() < 0.5)
        members.append(Interval(lo, hi, closed))
    return IntervalSpec(domain, tuple(members))


class TestExhaustiveness:
    DOMAINS = (Segment(F(-1, 3), F(5, 2)), FullLine())

    def test_key_agrees_with_brute_force_on_both_streams(self):
        # pooled over both domains, so equal types across the two streams
        # must get equal keys as well
        new_to_ref, ref_to_new = {}, {}
        for domain in self.DOMAINS:
            for n in range(1, 5):
                for t in types_of(domain, n):
                    new, ref = canonical_key(t), brute_force_type_key(t)
                    assert new_to_ref.setdefault(new, ref) == ref
                    assert ref_to_new.setdefault(ref, new) == new
        assert len(new_to_ref) == 1 + 2 + 12 + 114

    def test_key_agrees_with_brute_force_at_n5(self):
        # about 4 * 10^5 relabellings: no two of the 1,640 types share a
        # brute-force key, so canonical_key merges none of them
        types = types_of(self.DOMAINS[0], 5)
        assert len({brute_force_type_key(t) for t in types}) == len(types) == 1640

    def test_weak_order_oracle_finds_exactly_the_enumerated_types(self):
        # the oracle walks endpoint weak orders and reads classes by dense
        # sampling, so it shares no slot pool, cell mask or cell walk; the
        # segment and the line have the same cover types
        for n in range(1, 5):
            found = [weak_order_type_keys(domain, n) for domain in self.DOMAINS]
            assert found[0] == found[1]
            assert len(found[0]) == (1, 2, 12, 114)[n - 1]
            for domain, keys in zip(self.DOMAINS, found):
                assert keys == {canonical_key(t) for t in types_of(domain, n)}

    def test_random_covers_have_enumerated_types(self):
        # the direction every DomainSide certificate rests on: whatever
        # cover is drawn, its type is in the exhaustive stream
        rng = random.Random(2)
        seen = {"tie": 0, "closed_lo": 0, "boundary": 0, "ray": 0}
        for domain in self.DOMAINS:
            # n = 5 on the segment: covers drawn with closed and boundary
            # ends against the line's stream, under the default cap
            for n in range(1, 6 if isinstance(domain, Segment) else 5):
                keys = {canonical_key(t) for t in types_of(domain, n)}
                count = 0
                while count < 200:
                    try:
                        spec = random_cover(rng, domain, n)
                        part = hclasses_of_intervals(spec)
                    except (NotACover, InvalidArrangement, EmptyMember):
                        continue
                    count += 1
                    assert canonical_key(part) in keys
                    ends = [v for m in spec.members for v in (m.lo, m.hi)]
                    finite = [v for v in ends if v is not None]
                    seen["tie"] += len(set(finite)) < len(finite)
                    seen["ray"] += None in ends
                    seen["closed_lo"] += any(m.closed_lo for m in spec.members)
                    seen["boundary"] += isinstance(domain, Segment) and any(
                        v in (domain.lo, domain.hi) for v in finite)
        assert all(seen.values()), seen
