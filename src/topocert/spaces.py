"""Finite topological spaces and their open covers.

A space is a finite point set with an explicitly listed topology.  Opens are
handled as bitmasks over the point order, so closure checks and cover
enumeration are exhaustive and cheap at the sizes this package targets.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import (
    CapExceeded,
    DuplicatePoint,
    EmptyMember,
    Frozen,
    MissingEmpty,
    MissingWhole,
    NotACover,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    UnknownPoint,
)

# Exhaustive all-size cover enumeration walks 2^k subsets of the k nonempty
# opens; past this many opens the walk is refused rather than left to run.
# A one-size walk, and the pair scan of a topology check, may visit as many
# subsets as the all-size walk at the cap.
ENUMERABLE_OPENS_CAP = 16


def _within_scan_budget(what: str, count: int) -> None:
    limit = 2 ** ENUMERABLE_OPENS_CAP - 1
    if count > limit:
        raise CapExceeded(what, limit, count)


class FiniteSpace(Frozen):
    """A validated finite topological space.

    ``points`` fixes the point order used for bitmask encodings; ``opens``
    (frozensets) is canonically sorted by bitmask, so everything derived
    downstream is reproducible.  The encodings derived from them (point bits,
    open masks, each open's point indices) are computed once per space.
    """

    def __init__(self, points: tuple, opens: tuple):
        d = self.__dict__
        d["points"] = points
        d["opens"] = opens

    @cached_property
    def point_bit(self) -> dict:
        return {p: 1 << i for i, p in enumerate(self.points)}

    @cached_property
    def full_mask(self) -> int:
        return (1 << len(self.points)) - 1

    @cached_property
    def open_masks(self) -> tuple:
        return tuple(self.mask_of(u) for u in self.opens)

    @cached_property
    def open_point_indices(self) -> tuple:
        """Each open's point indices, in point order, aligned with ``opens``."""
        return tuple(tuple(i for i, p in enumerate(self.points) if p in u)
                     for u in self.opens)

    @cached_property
    def nonempty_opens(self) -> tuple:
        return tuple(u for u in self.opens if u)

    def mask_of(self, subset: Iterable) -> int:
        m = 0
        for p in subset:
            m |= self.point_bit[p]
        return m


class Cover(NamedTuple):
    """An ordered family of distinct nonempty opens of ``space`` whose union
    is the space; ``members`` holds their indices into ``space.opens``.
    ``neighbourhoods`` holds each point's smallest neighbourhood in the
    topology the members generate, as a bitmask of points: the AND of the
    members that contain the point."""

    space: FiniteSpace
    members: tuple
    neighbourhoods: tuple


def _check_points(points: Sequence) -> tuple:
    pts = tuple(points)
    if not pts:
        raise ValueError("a finite space needs at least one point")
    seen = set()
    for p in pts:
        if p in seen:
            raise DuplicatePoint(p)
        seen.add(p)
    return pts


def _as_masks(points: tuple, sets: Iterable[Iterable]) -> set:
    bit = {p: 1 << i for i, p in enumerate(points)}
    masks = set()
    for s in sets:
        m = 0
        for p in s:
            if p not in bit:
                raise UnknownPoint(p)
            m |= bit[p]
        masks.add(m)
    return masks


def _space_from_masks(points: tuple, masks: set) -> FiniteSpace:
    opens = tuple(frozenset(p for i, p in enumerate(points) if m >> i & 1)
                  for m in sorted(masks))
    return FiniteSpace(points=points, opens=opens)


def validate_topology(points: Sequence, opens: Iterable[Iterable]) -> FiniteSpace:
    """Check the topology axioms exhaustively and return the validated space.

    Raises DuplicatePoint, UnknownPoint, MissingEmpty, MissingWhole,
    NotClosedUnderUnion or NotClosedUnderIntersection (the closure errors
    carry a witness pair of opens).
    """
    pts = _check_points(points)
    masks = _as_masks(pts, opens)
    full = (1 << len(pts)) - 1
    if 0 not in masks:
        raise MissingEmpty()
    _within_scan_budget("pairs of opens to check", comb(len(masks), 2))
    space = _space_from_masks(pts, masks)
    # closure first: a missing whole set that is a union of opens reports as
    # a closure failure with its witness pair
    for (a, u), (b, v) in combinations(zip(space.open_masks, space.opens), 2):
        if (a | b) not in masks:
            raise NotClosedUnderUnion(u, v)
        if (a & b) not in masks:
            raise NotClosedUnderIntersection(u, v)
    if full not in masks:
        raise MissingWhole()
    return space


def generate_topology(points: Sequence, subbasis: Iterable[Iterable]) -> FiniteSpace:
    """Smallest topology on ``points`` containing every subbasis set.

    For finite spaces, closing under pairwise unions and intersections (plus
    adding the empty set and the whole space) already yields the generated
    topology.
    """
    pts = _check_points(points)
    masks = _as_masks(pts, subbasis)
    masks.add(0)
    masks.add((1 << len(pts)) - 1)
    while True:
        _within_scan_budget("pairs of opens to close", comb(len(masks), 2))
        new = set()
        for a, b in combinations(sorted(masks), 2):
            u, i = a | b, a & b
            if u not in masks:
                new.add(u)
            if i not in masks:
                new.add(i)
        if not new:
            break
        masks |= new
    return _space_from_masks(pts, masks)


def make_cover(space: FiniteSpace, members: Sequence[Iterable]) -> Cover:
    """Validated cover constructor: members must be distinct nonempty opens
    of ``space`` whose union is the whole point set, kept in their order."""
    index = {m: i for i, m in enumerate(space.open_masks)}
    out = []
    union = 0
    nbhds = [space.full_mask] * len(space.points)
    for idx, m in enumerate(members):
        fs = frozenset(m)
        unknown = fs.difference(space.point_bit)
        if unknown:
            raise UnknownPoint(min(unknown, key=str))
        mask = space.mask_of(fs)
        if mask == 0:
            raise EmptyMember(idx)
        if mask not in index:
            raise ValueError(f"cover member {idx} ({sorted(map(str, fs))}) is not open")
        if index[mask] in out:
            raise ValueError(f"cover member {idx} repeats an earlier member")
        union |= mask
        out.append(index[mask])
        for p in space.open_point_indices[out[-1]]:
            nbhds[p] &= mask
    if not out:
        raise ValueError("a cover needs at least one member")
    if union != space.full_mask:
        missing = [p for p in space.points if not union & space.point_bit[p]]
        raise NotACover(f"point {missing[0]!r}")
    return Cover(space=space, members=tuple(out), neighbourhoods=tuple(nbhds))


def enumerate_covers(space: FiniteSpace, n: Optional[int] = None) -> Iterator[Cover]:
    """Yield every cover of ``space`` exactly once, with its neighbourhoods.

    Covers are subsets of the nonempty opens whose union is the whole space.
    Member tuples are ascending open indices (open 0, the least bitmask, is
    empty).  One depth-first walk visits the subsets in lexicographic order
    of their member tuples, each before its extensions, and hands a subset's
    union and neighbourhoods on to its extensions, so a step costs the
    points of one open.  With ``n`` given, the walk stops at depth ``n``,
    drops each n-member subset that does not cover before its neighbourhoods
    are built, and produces only covers of exactly ``n`` members.  No
    shorter subset is cut for want of reach: the whole space is the last
    open, and adding it to any subset makes a cover.
    """
    masks, point_indices = space.open_masks, space.open_point_indices
    full = space.full_mask
    last = len(masks) - 1  # the nonempty opens are 1..last
    k = len(space.nonempty_opens)
    if n is not None:
        if n < 1:
            raise ValueError("cover size must be positive")
        _within_scan_budget(f"{n}-member subsets of the opens to scan", comb(k, n))
    elif k > ENUMERABLE_OPENS_CAP:
        raise CapExceeded("nonempty opens for exhaustive cover enumeration",
                          ENUMERABLE_OPENS_CAP, k)
    # subsets still to visit, the next on top: (members, union, neighbourhoods)
    stack = [((), 0, (full,) * len(space.points))]
    while stack:
        members, union, nbhds = stack.pop()
        size = len(members)
        if union == full and (n is None or size == n):
            yield Cover(space, members, nbhds)
        if size == n:
            continue
        # with n, leave room for the n - size - 1 opens after this one
        top = last if n is None else last - (n - size - 1)
        for i in range(top, members[-1] if members else 0, -1):
            m = masks[i]
            if size + 1 == n and union | m != full:
                continue  # an n-member subset that is no cover
            if m == full:  # the whole space narrows no neighbourhood
                stack.append((members + (i,), full, nbhds))
                continue
            child = list(nbhds)
            for p in point_indices[i]:
                child[p] &= m
            stack.append((members + (i,), union | m, tuple(child)))
