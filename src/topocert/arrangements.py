"""Geometric cover specifications with exact rational endpoints.

Three families stand in for the classical spaces whose point sets are
infinite: intervals on a half-open segment or the line, arcs on a circle,
and axis-aligned strict-inequality regions in the plane.  Density classes
are read off the cells that the endpoints cut the domain into, each member
a bitmask of cells over the endpoints' ranks, so only the order of
endpoints matters and there are no floating-point ties.  Each cell gives
the class of the members that have it, a member bitmask as ``hasse``
defines it.

The segment [lo, hi) and the line have the same n-interval cover types,
for every n.  Segment to line: send each closed [lo, b) to the ray
(-inf, b), each open (lo, b) to (eps, b) for a new cut eps just right of
lo, and every other end by an order-preserving map that sends hi to +inf.
Every density class is kept.  Line to segment: the inverse map does the
same.  So one enumerator, over the line, serves both domains.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterator, List, NamedTuple, Optional

from .errors import CapExceeded, EmptyMember, Frozen, InvalidArrangement, NotACover
from .hasse import HPartition, canonical_key, class_order

DEFAULT_COVER_SIZE_CAP = 5


class Segment(Frozen):
    """Half-open segment [lo, hi)."""

    def __init__(self, lo: Fraction, hi: Fraction):
        if lo >= hi:
            raise InvalidArrangement("segment needs lo < hi")
        d = self.__dict__
        d["lo"] = lo
        d["hi"] = hi

    def __eq__(self, other):
        if other.__class__ is not Segment:
            return NotImplemented
        return (self.lo, self.hi) == (other.lo, other.hi)

    def __hash__(self):
        return hash((self.lo, self.hi))

    def describe(self) -> str:
        return f"segment[{self.lo},{self.hi})"


class FullLine(Frozen):
    def __eq__(self, other):
        return other.__class__ is FullLine or NotImplemented

    def __hash__(self):
        return hash(())

    def describe(self) -> str:
        return "line"


class Circle(Frozen):
    def __init__(self, circumference: Fraction):
        if circumference <= 0:
            raise InvalidArrangement("circle needs positive circumference")
        self.__dict__["circumference"] = circumference

    def describe(self) -> str:
        return f"circle({self.circumference})"


class Interval(NamedTuple):
    """One cover member.

    Segment: open (lo, hi), or [lo, hi) with closed_lo at the left boundary
    (the only closed end that is still open in the subspace topology).
    Line: lo/hi of None mean unbounded.  Circle: the arc running from lo
    counterclockwise to hi, wrapping when lo >= hi; both endpoints excluded.
    """

    lo: Optional[Fraction]
    hi: Optional[Fraction]
    closed_lo: bool = False


class IntervalSpec(Frozen):
    """Distinct nonempty open members of ``domain``, checked when the spec
    is built; whether they cover the domain shows in the walk."""

    def __init__(self, domain, members: tuple):
        """``domain`` is a Segment, FullLine or Circle; ``members`` a tuple
        of Interval."""
        if not members:
            raise InvalidArrangement("a cover needs at least one member")
        for idx, m in enumerate(members):
            _validate_interval(domain, m, idx)
        if len(set(members)) < len(members):
            i, j = next((i, j) for i, j in combinations(range(len(members)), 2)
                        if members[i] == members[j])
            raise InvalidArrangement(f"members {i} and {j} are the same set")
        d = self.__dict__
        d["domain"] = domain
        d["members"] = members


_AXIS_VARS = ("x", "y")


class Constraint(NamedTuple):
    var: str  # "x" | "y"
    op: str  # "<" | ">"
    c: Fraction


class AxisAlignedSpec(Frozen):
    """Nonempty regions of the plane, each a conjunction of strict
    constraints on x or y, checked when the spec is built."""

    def __init__(self, members: tuple):
        """``members`` is a tuple of tuples of Constraint."""
        if not members:
            raise InvalidArrangement("a cover needs at least one member")
        for idx, conj in enumerate(members):
            if any(con.var not in _AXIS_VARS or con.op not in ("<", ">")
                   for con in conj):
                raise InvalidArrangement(
                    f"member {idx}: constraints are strict <,> on x or y")
            for var in _AXIS_VARS:
                lows = [con.c for con in conj if con.var == var and con.op == ">"]
                highs = [con.c for con in conj if con.var == var and con.op == "<"]
                if lows and highs and max(lows) >= min(highs):
                    raise EmptyMember(idx)
        self.__dict__["members"] = members


def _validate_interval(domain, member: Interval, idx: int) -> None:
    lo, hi = member.lo, member.hi
    if isinstance(domain, Segment):
        if lo is None or hi is None:
            raise InvalidArrangement(f"member {idx}: segment members need finite ends")
        if member.closed_lo and lo != domain.lo:
            raise InvalidArrangement(
                f"member {idx}: a closed left end is only open at the segment start"
            )
        if lo < domain.lo or hi > domain.hi:
            raise InvalidArrangement(f"member {idx}: endpoints outside the segment")
        if lo >= hi:
            raise EmptyMember(idx)
    elif isinstance(domain, FullLine):
        if member.closed_lo:
            raise InvalidArrangement(f"member {idx}: closed ends are not open in the line")
        if lo is not None and hi is not None and lo >= hi:
            raise EmptyMember(idx)
    elif isinstance(domain, Circle):
        if member.closed_lo:
            raise InvalidArrangement(f"member {idx}: closed ends are not open in the circle")
        if lo is None or hi is None:
            raise InvalidArrangement(f"member {idx}: arcs need both endpoints")
        if not (0 <= lo < domain.circumference and 0 <= hi < domain.circumference):
            raise InvalidArrangement(
                f"member {idx}: arc endpoints must lie in [0, circumference)"
            )
        if lo == hi:
            raise EmptyMember(idx)
    else:
        raise InvalidArrangement(f"unsupported domain {domain!r}")


def _samples(cuts) -> List[Fraction]:
    """One point in each cell of the line cut at ``cuts``, in cell order:
    a point left of every cut, then each cut and the midpoint right of it,
    and a point right of the last cut for its last gap; ``[0]`` when there
    are no cuts.  Only an uncovered cell's name is read from it.
    """
    vs = sorted(set(cuts))
    if not vs:
        return [Fraction(0)]
    out = [vs[0] - 1]
    for a, b in zip(vs, vs[1:]):
        out += (a, (a + b) / 2)
    out += (vs[-1], vs[-1] + 1)
    return out


def _ranks(cuts) -> dict:
    return {v: i for i, v in enumerate(sorted(set(cuts)))}


def _by_cell(masks: list, cells) -> List[int]:
    """For each cell, the class of the members whose cell mask has it."""
    last_first = masks[::-1]  # member i of n is bit n-1-i
    return [sum(1 << i for i, m in enumerate(last_first) if m >> c & 1)
            for c in cells]


def hclasses_of_intervals(spec: IntervalSpec) -> HPartition:
    """Density classes of an interval/arc cover, one per cell that the
    distinct ends (a segment's bounds among them) cut the domain into.

    With k ends in order, cell 2i + 1 is end i, cell 2i is the gap left of
    it and cell 2k is the last gap; each member becomes the bitmask of its
    cells.  The segment [lo, hi) keeps cells 1 .. 2k - 2, the line all, and
    the circle 0 .. 2k - 1, where cell 0 is the gap across the wrap point.
    """
    domain, members = spec.domain, spec.members
    ends = [v for m in members for v in (m.lo, m.hi) if v is not None]
    if isinstance(domain, Segment):
        ends += (domain.lo, domain.hi)
    rank = _ranks(ends)
    top = 2 * len(rank)
    masks = []
    for m in members:
        first = 0 if m.lo is None else 2 * rank[m.lo] + (1 if m.closed_lo else 2)
        last = top if m.hi is None else 2 * rank[m.hi]
        # a wrapping arc runs past cell 2k - 1 and on from cell 0
        masks.append((1 << last + 1) - (1 << first) if first <= last
                     else (1 << top) - (1 << first) | (1 << last + 1) - 1)
    if isinstance(domain, Segment):
        cells = range(1, top - 1)
    else:
        cells = range(top if isinstance(domain, Circle) else top + 1)
    by_cell = _by_cell(masks, cells)
    if 0 in by_cell:
        cell = cells[by_cell.index(0)]
        points = _samples(ends)
        if isinstance(domain, Circle) and cell == 0:
            c = domain.circumference
            points[0] = ((points[-2] + points[1] + c) / 2) % c
        raise NotACover(f"point {points[cell]}")
    n = len(members)
    return HPartition(n, class_order(by_cell), f"{domain.describe()} cover(n={n})")


# -- axis-aligned plane covers ------------------------------------------------

def hclasses_axis2d(spec: AxisAlignedSpec) -> HPartition:
    """Density classes of an axis-aligned plane cover, one per cell of the
    grid the constraint thresholds cut the plane into.

    Each axis is cut as in ``hclasses_of_intervals``: ``x < c`` keeps the
    x-cells up to 2r for c of rank r, ``x > c`` those from 2r + 2, and a
    cell (i, j) lies in a region when both of its axis masks have the bit.
    """
    cuts = {v: [con.c for conj in spec.members for con in conj if con.var == v]
            for v in _AXIS_VARS}
    axes = []
    for v in _AXIS_VARS:
        rank = _ranks(cuts[v])
        masks = []
        for conj in spec.members:
            mask = (1 << 2 * len(rank) + 1) - 1
            for con in conj:
                if con.var == v:
                    r = 2 * rank[con.c]
                    mask &= (1 << r + 1) - 1 if con.op == "<" else -1 << r + 2
            masks.append(mask)
        axes.append(_by_cell(masks, range(2 * len(rank) + 1)))
    xs, ys = axes
    by_cell = [hx & hy for hx in xs for hy in ys]  # x-major
    if 0 in by_cell:
        i, j = divmod(by_cell.index(0), len(ys))
        raise NotACover(f"point ({_samples(cuts['x'])[i]}, {_samples(cuts['y'])[j]})")
    n = len(spec.members)
    return HPartition(n, class_order(by_cell), f"plane cover(n={n})")


def hclasses_of_spec(spec) -> HPartition:
    """Density classes of one witness cover of either family."""
    if isinstance(spec, AxisAlignedSpec):
        return hclasses_axis2d(spec)
    return hclasses_of_intervals(spec)


# -- exhaustive combinatorial types of interval covers ------------------------

def _slot_members(m: int) -> List[tuple]:
    """Every open member of the line over slots 0..m+1 as (Interval,
    bitmask of the interior slots 1..m it uses, start slot, bitmask of the
    cells it covers), built once per slot count.

    The end slots 0 and m+1 are unbounded and slot s is the point s in
    between, so start slots never decrease along the pool.  The 2m + 1
    cells are the points and the gaps that the slots cut the line into,
    numbered from the left: cell 2s is the gap right of slot s and cell
    2s - 1 is slot s itself, so (a, b) covers cells 2a .. 2b - 2.
    """
    values = [None, *range(1, m + 1), None]
    return [(Interval(values[a], values[b]),
             sum(1 << (s - 1) for s in (a, b) if 1 <= s <= m),
             a,
             (1 << (2 * b - 1)) - (1 << 2 * a))
            for a in range(m + 1) for b in range(a + 1, m + 2)]


def _surjective_choices(pool: List[tuple], n: int, m: int) -> Iterator[tuple]:
    """The n-subsets of a ``_slot_members`` pool that use every interior
    slot 1..m, in ``combinations(pool, n)`` order."""
    return _extend(pool, (1 << m) - 1, 0, n, 0, ())


def _extend(pool: List[tuple], full: int, start: int, left: int, used: int,
            chosen: tuple) -> Iterator[tuple]:
    """Complete ``chosen`` with ``left`` members from ``pool[start:]``.

    A prefix is abandoned once it cannot be completed: when the unused
    interior slots outnumber twice the members left (a member uses at most
    two), and when the next member starts right of the lowest unused slot
    (start slots never decrease along the pool, so that slot stays unused).
    """
    free = full & ~used
    if free.bit_count() > 2 * left:
        return
    if not left:
        yield chosen
        return
    lowest = (free & -free).bit_length()  # slot s is bit s - 1; 0: none free
    for j in range(start, len(pool) - left + 1):
        member = pool[j]
        if lowest and member[2] > lowest:
            return
        yield from _extend(pool, full, j + 1, left - 1, used | member[1],
                           chosen + (member,))


def enumerate_interval_cover_types(domain, n: int,
                                   cap: int = DEFAULT_COVER_SIZE_CAP
                                   ) -> Iterator[HPartition]:
    """Every combinatorial type of n-interval cover of a segment or the
    line, one representative per distinct partition identity.

    A segment's covers have the line's types (the module docstring maps
    them both ways), so both domains walk the line's slot pool in the same
    order, and the domain only names the ``source`` of each type.

    Endpoint weak orders (ties allowed) are enumerated as slot assignments:
    each endpoint takes an unbounded end slot or one of m interior slots,
    every interior slot is used, and members respect lo < hi.  Any
    n-interval cover realizes some assignment, so the stream is exhaustive.
    Three filters on integer masks come before any cell walk:

    * ``_surjective_choices`` keeps the member sets that use every interior
      slot (an unused slot reproduces a smaller m);
    * a set whose cell masks do not cover every cell is not a cover;
    * a labelled class set (one member bitmask per cell) that was seen
      before gives the same partition again.

    Only a new labelled class set is walked by ``hclasses_of_intervals``,
    and duplicates are then removed by label-independent partition identity.
    """
    if n < 1:
        raise ValueError("cover size must be positive")
    if n > cap:
        raise CapExceeded("interval cover size", cap, n)
    if not isinstance(domain, (Segment, FullLine)):
        raise InvalidArrangement("cover-type enumeration supports segment "
                                 "and line domains")
    source = f"{domain.describe()} cover(n={n})"
    seen_keys, seen_sets = set(), set()
    for m in range(0, 2 * n + 1):
        pool = _slot_members(m)
        cells = range(2 * m + 1)
        every_cell = (1 << len(cells)) - 1
        for choice in _surjective_choices(pool, n, m):
            covered = 0
            for member in choice:
                covered |= member[3]
            if covered != every_cell:
                continue
            labelled = frozenset(_by_cell([member[3] for member in choice], cells))
            if labelled in seen_sets:
                continue
            seen_sets.add(labelled)
            partition = hclasses_of_intervals(
                IntervalSpec(FullLine(), tuple(member[0] for member in choice)))
            key = canonical_key(partition)
            if key in seen_keys:
                continue
            seen_keys.add(key)
            yield HPartition(partition.member_count, partition.classes, source)
