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
same.  So one enumerator, a sweep over the line, serves both domains.

The reflection x -> -x is a homeomorphism of the line, so a cover and its
mirror have the same type: their class sets differ only in how the members
are numbered.  The enumerator keys one labelled class set of each mirror
pair, and marks the other as seen.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations, product
from typing import Iterator, List, NamedTuple, Optional

from .errors import DEFAULT_COVER_SIZE_CAP, CapExceeded, EmptyMember, Frozen
from .errors import InvalidArrangement, NotACover
from .hasse import HPartition, canonical_key, cell_classes, class_members, class_order


class Segment(Frozen):
    """Half-open segment [lo, hi)."""

    def __init__(self, lo: Fraction, hi: Fraction):
        if lo >= hi:
            raise InvalidArrangement("segment needs lo < hi")
        d = self.__dict__
        d["lo"] = lo
        d["hi"] = hi

    def describe(self) -> str:
        return f"segment[{self.lo},{self.hi})"


class FullLine(Frozen):
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


def _rank(values) -> tuple:
    """The distinct ``values`` (ints or Fractions) sorted by floor(v * 2**64),
    and by v only where two floors tie, and the rank of each, keyed by its
    (numerator, denominator) in lowest terms, which hashes faster."""
    distinct = {v.as_integer_ratio(): v for v in values}
    cuts = sorted([((n << 64) // d, v, (n, d)) for (n, d), v in distinct.items()])
    return tuple([v for _, v, _ in cuts]), {key: r for r, (_, _, key) in enumerate(cuts)}


class IntervalSpec(Frozen):
    """Distinct nonempty open members of ``domain``, checked when the spec
    is built; whether they cover the domain shows in the walk.

    ``ends`` holds the distinct finite ends, a segment's bounds among them,
    ranked once by ``_rank``.  ``spans`` holds each member as ``(lo, hi,
    closed_lo)`` with its finite ends replaced by their ranks, so the
    member checks and the walk compare ints only.
    """

    def __init__(self, domain, members: tuple):
        """``domain`` is a Segment, FullLine or Circle; ``members`` a tuple
        of Interval whose finite ends are ints or Fractions."""
        if not members:
            raise InvalidArrangement("a cover needs at least one member")
        ends, rank = _rank([v for m in members for v in (m.lo, m.hi) if v is not None]
                           + ([domain.lo, domain.hi] if isinstance(domain, Segment) else []))
        spans = tuple([(None if lo is None else rank[lo.as_integer_ratio()],
                        None if hi is None else rank[hi.as_integer_ratio()], closed_lo)
                       for lo, hi, closed_lo in members])
        _check_spans(domain, spans, ends, rank)
        if len(set(spans)) < len(spans):
            i, j = next((i, j) for i, j in combinations(range(len(spans)), 2)
                        if spans[i] == spans[j])
            raise InvalidArrangement(f"members {i} and {j} are the same set")
        d = self.__dict__
        d["domain"] = domain
        d["members"] = members
        d["spans"] = spans
        d["ends"] = ends


_AXIS_VARS = ("x", "y")


class Constraint(NamedTuple):
    var: str  # "x" | "y"
    op: str  # "<" | ">"
    c: Fraction


class AxisAlignedSpec(Frozen):
    """Nonempty regions of the plane, each a conjunction of strict
    constraints on x or y, checked member by member when the spec is built.

    ``ends`` holds the distinct x and the distinct y thresholds, each ranked
    once by ``_rank``.  ``spans`` holds each region as its x and y ``(lo,
    hi)`` ranks, the greatest ``>`` and the least ``<`` bound, None where
    unbounded.  A region is empty when lo >= hi: the checks compare ints.
    """

    def __init__(self, members: tuple):
        """``members`` is a tuple of tuples of Constraint."""
        if not members:
            raise InvalidArrangement("a cover needs at least one member")
        ends, ranks = zip(*(_rank([con.c for conj in members for con in conj
                                   if con.var == var]) for var in _AXIS_VARS))
        spans = []
        for idx, conj in enumerate(members):
            if any(con.var not in _AXIS_VARS or con.op not in ("<", ">")
                   for con in conj):
                raise InvalidArrangement(
                    f"member {idx}: constraints are strict <,> on x or y")
            span = []
            for var, rank in zip(_AXIS_VARS, ranks):
                lows, highs = ([rank[con.c.as_integer_ratio()] for con in conj
                                if con.var == var and con.op == op] for op in (">", "<"))
                if lows and highs and max(lows) >= min(highs):
                    raise EmptyMember(idx)
                span.append((max(lows, default=None), min(highs, default=None)))
            spans.append(tuple(span))
        d = self.__dict__
        d["members"] = members
        d["spans"] = tuple(spans)
        d["ends"] = ends


def _check_spans(domain, spans: tuple, ends: tuple, rank: dict) -> None:
    """The member checks of an ``IntervalSpec``, member by member, on the
    ranks of its ``ends``; ``rank`` maps (numerator, denominator) to a
    rank."""
    if isinstance(domain, Segment):
        start, stop = (rank[v.as_integer_ratio()] for v in (domain.lo, domain.hi))
        for idx, (lo, hi, closed_lo) in enumerate(spans):
            if lo is None or hi is None:
                raise InvalidArrangement(f"member {idx}: segment members need finite ends")
            if closed_lo and lo != start:
                raise InvalidArrangement(
                    f"member {idx}: a closed left end is only open at the segment start"
                )
            if lo < start or hi > stop:
                raise InvalidArrangement(f"member {idx}: endpoints outside the segment")
            if lo >= hi:
                raise EmptyMember(idx)
    elif isinstance(domain, FullLine):
        for idx, (lo, hi, closed_lo) in enumerate(spans):
            if closed_lo:
                raise InvalidArrangement(f"member {idx}: closed ends are not open in the line")
            if lo is not None and hi is not None and lo >= hi:
                raise EmptyMember(idx)
    elif isinstance(domain, Circle):
        # the ends of ranks low .. high lie in [0, circumference)
        low = bisect_left(ends, 0)
        high = bisect_left(ends, domain.circumference) - 1
        for idx, (lo, hi, closed_lo) in enumerate(spans):
            if closed_lo:
                raise InvalidArrangement(f"member {idx}: closed ends are not open in the circle")
            if lo is None or hi is None:
                raise InvalidArrangement(f"member {idx}: arcs need both endpoints")
            if not (low <= lo <= high and low <= hi <= high):
                raise InvalidArrangement(
                    f"member {idx}: arc endpoints must lie in [0, circumference)"
                )
            if lo == hi:
                raise EmptyMember(idx)
    else:
        raise InvalidArrangement(f"unsupported domain {domain!r}")


def _samples(vs: tuple) -> List[Fraction]:
    """One point in each cell of the line cut at the ranked ends ``vs``, in
    cell order: a point left of every end, then each end and the midpoint
    right of it, and a point right of the last end; ``[0]`` when there are
    no ends.  Only an uncovered cell's name is read from it.
    """
    if not vs:
        return [Fraction(0)]
    out = [vs[0] - 1]
    for a, b in zip(vs, vs[1:]):
        out += (a, (a + b) / 2)
    out += (vs[-1], vs[-1] + 1)
    return out


def _cells(lo: Optional[int], hi: Optional[int], closed_lo: bool, top: int) -> int:
    """The bitmask of the cells 0 .. ``top`` that a span of end ranks has,
    None for an unbounded end: end r is cell 2r + 1 and the gap left of it
    cell 2r.  A wrapping arc, lo >= hi, runs past cell top - 1 and on from
    cell 0."""
    first = 0 if lo is None else 2 * lo + (1 if closed_lo else 2)
    last = top if hi is None else 2 * hi
    return ((1 << last + 1) - (1 << first) if first <= last
            else (1 << top) - (1 << first) | (1 << last + 1) - 1)


def hclasses_of_intervals(spec: IntervalSpec) -> HPartition:
    """Density classes of an interval/arc cover, one per cell that the
    distinct ends (a segment's bounds among them) cut the domain into.

    With k ends in order, cell 2i + 1 is end i, cell 2i is the gap left of
    it and cell 2k is the last gap; each member's span becomes its
    ``_cells``.  The segment [lo, hi) keeps cells 1 .. 2k - 2, the line all,
    and the circle 0 .. 2k - 1, where cell 0 is the gap across the wrap.
    """
    domain = spec.domain
    top = 2 * len(spec.ends)
    masks = [_cells(lo, hi, closed_lo, top) for lo, hi, closed_lo in spec.spans]
    if isinstance(domain, Segment):
        cells = range(1, top - 1)
    else:
        cells = range(top if isinstance(domain, Circle) else top + 1)
    by_cell = cell_classes(masks, cells)
    if 0 in by_cell:
        cell = cells[by_cell.index(0)]
        points = _samples(spec.ends)
        if isinstance(domain, Circle) and cell == 0:
            c = domain.circumference
            points[0] = ((points[-2] + points[1] + c) / 2) % c
        raise NotACover(f"point {points[cell]}")
    n = len(spec.members)
    return HPartition(n, class_order(by_cell), f"{domain.describe()} cover(n={n})")


# -- axis-aligned plane covers ------------------------------------------------

def hclasses_axis2d(spec: AxisAlignedSpec) -> HPartition:
    """Density classes of an axis-aligned plane cover, one per cell of the
    grid the constraint thresholds cut the plane into.

    Each axis is cut as the line is in ``hclasses_of_intervals``: a
    region's span on it becomes its ``_cells`` there, and a cell (i, j) lies
    in a region when both of its axis masks have the bit.
    """
    tops = [2 * len(ends) for ends in spec.ends]
    xs, ys = (cell_classes([_cells(*span[axis], False, top) for span in spec.spans],
                           range(top + 1)) for axis, top in enumerate(tops))
    by_cell = [hx & hy for hx in xs for hy in ys]  # x-major
    if 0 in by_cell:
        i, j = divmod(by_cell.index(0), len(ys))
        x_ends, y_ends = spec.ends
        raise NotACover(f"point ({_samples(x_ends)[i]}, {_samples(y_ends)[j]})")
    n = len(spec.members)
    return HPartition(n, class_order(by_cell), f"plane cover(n={n})")


def hclasses_of_spec(spec) -> HPartition:
    """Density classes of one witness cover of either family."""
    if isinstance(spec, AxisAlignedSpec):
        return hclasses_axis2d(spec)
    return hclasses_of_intervals(spec)


# -- reading domains and witness covers from their JSON form ------------------

def parse_fraction(value) -> Fraction:
    """A JSON integer that is not a boolean, or a string -?[0-9]+(/[0-9]+)?
    of ASCII digits with a nonzero denominator, as ``str`` writes a
    Fraction.  A numerator or denominator of more than
    ``sys.get_int_max_str_digits()`` digits could not be printed, and is
    refused by its length."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        top, slash, bottom = value.partition("/")
        digits = top.removeprefix("-")
        if value.isascii() and digits.isdigit() and (not slash or bottom.isdigit()):
            limit = sys.get_int_max_str_digits()  # 0 when there is none
            if limit and max(len(digits), len(bottom)) > limit:
                raise ValueError(f"rational {value!r} has a numerator or "
                                 f"denominator of more than {limit} digits")
            denominator = int(bottom) if slash else 1
            if denominator:
                return Fraction(int(top), denominator)
    raise ValueError(f"not a rational: {value!r}")


# the strings that leave each end of an interval member unbounded
_UNBOUNDED = {"lo": ("-inf",), "hi": ("inf", "+inf")}


def _parse_end(member: dict, key: str, parsed: dict) -> Optional[Fraction]:
    """End ``key`` ("lo" or "hi") of an interval member; null means
    unbounded, and so does "-inf" for lo and "inf" or "+inf" for hi.
    ``parsed`` maps each rational string read before in the file to its
    value.  Only strings are keys: ``true`` and ``1.0`` equal 1 and hash
    alike, but are not rationals."""
    value = member.get(key)
    if isinstance(value, str):
        end = parsed.get(value)
        if end is not None:
            return end
    if value is None or value in _UNBOUNDED[key]:
        return None
    if value in ("-inf", "inf", "+inf"):
        raise ValueError(f'"{key}" cannot be {value!r}: it is unbounded as '
                         f'null or {" or ".join(map(repr, _UNBOUNDED[key]))}')
    end = parse_fraction(value)
    if isinstance(value, str):
        parsed[value] = end
    return end


def load_domain(doc) -> object:
    """The Segment, FullLine or Circle of a "domain" object."""
    if not isinstance(doc, dict):
        raise ValueError('"domain" must be a JSON object')
    kind = doc.get("kind")
    if kind == "segment":
        return Segment(lo=parse_fraction(doc["lo"]), hi=parse_fraction(doc["hi"]))
    if kind == "line":
        return FullLine()
    if kind == "circle":
        return Circle(circumference=parse_fraction(doc["circumference"]))
    raise ValueError(f"unknown domain kind {kind!r}")


def _closed_lo(member: dict) -> bool:
    value = member.get("closed_lo", False)
    if not isinstance(value, bool):
        raise ValueError(f'"closed_lo" must be a JSON boolean, not {value!r}')
    return value


def load_interval_members(domain, members_doc: list, key: str,
                          parsed: dict) -> IntervalSpec:
    """One interval cover from the member objects listed under ``key``;
    ``parsed`` is the file's map of rational strings, as ``_parse_end``
    reads it."""
    if not all(isinstance(m, dict) for m in members_doc):
        raise ValueError(f'each member in "{key}" must be a JSON object')
    return IntervalSpec(domain, tuple(
        Interval(lo=_parse_end(m, "lo", parsed), hi=_parse_end(m, "hi", parsed),
                 closed_lo=_closed_lo(m))
        for m in members_doc))


def load_axis_members(members_doc) -> AxisAlignedSpec:
    """One plane cover from its members, each a list of constraint objects."""
    return AxisAlignedSpec(tuple(
        tuple(Constraint(var=c["var"], op=c["op"], c=parse_fraction(c["c"]))
              for c in conj)
        for conj in members_doc))


# -- exhaustive combinatorial types of interval covers ------------------------

def _line_covers(n: int) -> Iterator[tuple]:
    """Every cover of the line by n distinct open intervals with ends on
    slots 0..m+1 that use each interior slot, as its cells' classes in
    order: cell 0 the gap left of slot 1, cell 2s - 1 slot s and cell 2s
    the gap right of it.

    The walk goes left to right, depth first.  Some members start at slot
    0.  At each interior slot s some members end, at most one from each
    start group (so no two members are equal), some start, and one of the
    two happens.  Point s gets the mask of the members still open across it
    and the gap right of it those plus the new ones; an empty cell cuts the
    walk.  It may stop at m = s once all n have started and no two open
    ones share a start.  Members are numbered in (start, end) order, member
    i of n being bit n-1-i: a start group takes the next indices, the lowest
    ends first.
    """
    stack = []
    for k in range(n, 0, -1):  # k members start at slot 0, k = 1 walked first
        new = (1 << n) - (1 << n - k)
        stack.append(((new,), k, (new,)))
    while stack:
        groups, made, labels = stack.pop()
        if made == n and all(not g & g - 1 for g in groups):
            yield labels
        active, children = sum(groups), []
        for ends in product(*((0, 1 << g.bit_length() - 1) for g in groups)):
            across = active - sum(ends)
            if not across:
                continue
            still = tuple(g - e for g, e in zip(groups, ends) if g - e)
            for k in range(0 if across < active else 1, n - made + 1):
                new = (1 << n - made) - (1 << n - made - k)
                children.append((still + (new,) if k else still, made + k,
                                 labels + (across, across | new)))
        stack += reversed(children)  # the first child is walked first


def _member_cells(cells: tuple, n: int) -> list:
    """Each member's (first cell, last cell) in a ``_line_covers`` cover: a
    member starts at a gap that the point left of it lacks and ends at a gap
    that the point right of it lacks, or runs to an end of the line."""
    first, last = [0] * n, [len(cells) - 1] * n
    for k in range(1, len(cells), 2):
        point = cells[k]
        for i in class_members(cells[k + 1] - point, n):
            first[i] = k + 1
        for i in class_members(cells[k - 1] - point, n):
            last[i] = k - 1
    return list(zip(first, last))


def _mirror(cells: tuple, ends: list) -> tuple:
    """The reflection x -> -x of a ``_line_covers`` cover, numbered as the
    sweep numbers members, given its ``_member_cells``: a member from cell
    first to cell last runs from cell top - last to cell top - first, the
    members are renumbered by (start, end), and each cell gets the class of
    the members that have it."""
    top = len(cells) - 1
    return tuple(cell_classes([(2 << last) - (1 << first) for first, last in
                               sorted((top - last, top - first) for first, last in ends)],
                              range(top + 1)))


def _covers_up_to_mirror(n: int) -> Iterator[tuple]:
    """The ``_line_covers`` covers whose labelled class set is met for the
    first time and is not the mirror of one met before, each as (that set,
    its members as (lo, hi) slots, None for slots 0 and m+1); each one's
    mirror is marked as seen.  A mirror is a member relabelling of the same
    type, so every type keeps the first labelled set that the sweep gives
    it."""
    seen = set()
    for cells in _line_covers(n):
        labelled = frozenset(cells)
        if labelled not in seen:
            ends = _member_cells(cells, n)
            seen.add(labelled)
            seen.add(frozenset(_mirror(cells, ends)))
            # a member from cell 2s starts at slot s, one to cell 2s - 2 ends there
            top = len(cells) - 1
            yield labelled, tuple((None if first == 0 else first // 2,
                                   None if last == top else last // 2 + 1)
                                  for first, last in ends)


def enumerate_interval_cover_types(domain, n: int,
                                   cap: int = DEFAULT_COVER_SIZE_CAP
                                   ) -> Iterator[HPartition]:
    """Every combinatorial type of n-interval cover of a segment or the
    line, each as its ``canonical_key``, the type's canonical
    representative, in the order the types are found.

    A segment's covers have the line's types (see the module docstring), so
    both domains sweep the line's covers and the domain names only the
    ``source``.  Every cover has its ends in some weak order, on slots, so
    the sweep is exhaustive.  The reflection x -> -x is a homeomorphism of
    the line, so a cover's mirror has its type: a new labelled class set
    marks its mirror as seen (``_covers_up_to_mirror``), and only a set
    neither seen nor marked is checked as an ``IntervalSpec``, walked and
    keyed.  A marked set's type was found when its mirror was, so the
    types and their order are those of keying every new set.  A key seen
    before is a type seen before.
    """
    if n < 1:
        raise ValueError("cover size must be positive")
    if n > cap:
        raise CapExceeded("interval cover size", cap, n)
    if not isinstance(domain, (Segment, FullLine)):
        raise InvalidArrangement("cover-type enumeration supports segment "
                                 "and line domains")
    source = f"{domain.describe()} cover(n={n})"
    seen_keys = set()
    for _, spans in _covers_up_to_mirror(n):
        key = canonical_key(hclasses_of_intervals(IntervalSpec(
            FullLine(), tuple(Interval(lo, hi) for lo, hi in spans))))
        if key not in seen_keys:
            seen_keys.add(key)
            yield key._replace(source=source)
