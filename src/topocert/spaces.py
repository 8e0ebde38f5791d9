"""Finite topological spaces and their open covers.

A space is a finite point set with an explicitly listed topology.  Opens are
handled as bitmasks over the point order, so closure checks and cover
enumeration are exhaustive and cheap at the sizes this package targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    CapExceeded,
    DuplicatePoint,
    EmptyMember,
    MissingEmpty,
    MissingWhole,
    NotACover,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    UnknownPoint,
)

# Exhaustive all-size cover enumeration walks 2^k subsets of the k nonempty
# opens; past this many opens the walk is refused rather than left to run.
ENUMERABLE_OPENS_CAP = 16


@dataclass(frozen=True)
class FiniteSpace:
    """A validated finite topological space.

    ``points`` fixes the point order used for bitmask encodings; ``opens`` is
    canonically sorted by bitmask, so everything derived downstream is
    reproducible.
    """

    points: tuple
    opens: tuple  # of frozensets, sorted by bitmask under the point order

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
    def nonempty_opens(self) -> tuple:
        return tuple(u for u in self.opens if u)

    def mask_of(self, subset: Iterable) -> int:
        m = 0
        for p in subset:
            m |= self.point_bit[p]
        return m


@dataclass(frozen=True)
class Cover:
    """An ordered family of distinct nonempty opens whose union is the space."""

    space: FiniteSpace = field(compare=False)
    members: tuple  # of frozensets


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
    by_index = list(points)
    opens = []
    for m in sorted(masks):
        opens.append(frozenset(by_index[i] for i in range(len(points)) if m >> i & 1))
    return FiniteSpace(points=points, opens=tuple(opens))


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
    space = _space_from_masks(pts, masks)
    lookup = {m: u for m, u in zip(space.open_masks, space.opens)}
    # closure first: a missing whole set that is a union of opens reports as
    # a closure failure with its witness pair
    for a, b in combinations(sorted(masks), 2):
        if (a | b) not in masks:
            raise NotClosedUnderUnion(lookup[a], lookup[b])
        if (a & b) not in masks:
            raise NotClosedUnderIntersection(lookup[a], lookup[b])
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
    of ``space`` whose union is the whole point set."""
    open_masks = set(space.open_masks)
    seen = set()
    out = []
    union = 0
    for idx, m in enumerate(members):
        fs = frozenset(m)
        mask = space.mask_of(fs)
        if mask == 0:
            raise EmptyMember(idx)
        if mask not in open_masks:
            raise ValueError(f"cover member {idx} ({sorted(map(str, fs))}) is not open")
        if mask in seen:
            raise ValueError(f"cover member {idx} repeats an earlier member")
        seen.add(mask)
        union |= mask
        out.append(fs)
    if not out:
        raise ValueError("a cover needs at least one member")
    if union != space.full_mask:
        missing = [p for p in space.points if not union & space.point_bit[p]]
        raise NotACover(f"point {missing[0]!r}")
    return Cover(space=space, members=tuple(out))


def enumerate_covers(space: FiniteSpace, n: Optional[int] = None) -> Iterator[Cover]:
    """Yield every cover of ``space`` exactly once, in canonical order.

    Covers are subsets of the nonempty opens whose union is the whole space.
    Member tuples are ordered by ascending bitmask and the stream is ordered
    by (size, lexicographic position), so output is deterministic.  With
    ``n`` given, only covers of exactly ``n`` members are produced.
    """
    ne = space.nonempty_opens
    masks = [space.mask_of(u) for u in ne]
    full = space.full_mask
    if n is not None:
        if n < 1:
            raise ValueError("cover size must be positive")
        sizes: Iterable[int] = [n] if n <= len(ne) else []
    else:
        if len(ne) > ENUMERABLE_OPENS_CAP:
            raise CapExceeded("nonempty opens for exhaustive cover enumeration",
                              ENUMERABLE_OPENS_CAP, len(ne))
        sizes = range(1, len(ne) + 1)
    for size in sizes:
        for combo in combinations(range(len(ne)), size):
            union = 0
            for i in combo:
                union |= masks[i]
            if union == full:
                yield Cover(space=space, members=tuple(ne[i] for i in combo))
