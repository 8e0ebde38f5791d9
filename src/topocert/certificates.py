"""Non-homeomorphism certificates.

A certificate records a fingerprint realized by a cover on one side that is
absent from the exhaustively enumerated cover family of the other side, for
some fixed cover size.  Since homeomorphic spaces realize identical
fingerprint sets at every size, such an absence rules the homeomorphism out.
Certificates carry enough data to be replayed from scratch.

A comparison side is a ``SpaceSide``, ``DomainSide`` or ``WitnessSide``.
Each knows whether it is exhaustive and how to fingerprint its covers of a
given size, so the search and its replay never look at which kind it is.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Tuple, Union

from . import __version__ as _version
from .arrangements import (
    DEFAULT_COVER_SIZE_CAP,
    AxisAlignedSpec,
    FullLine,
    Segment,
    hclasses_axis2d,
    hclasses_of_intervals,
)
from .digraphs import DEFAULT_VERTEX_CAP
from .errors import NotExhaustible
from .fingerprints import (
    collect_fingerprints,
    fingerprint_of,
    fingerprints_of_domain,
    fingerprints_of_space,
)
from .jsonio import axis_spec_json, interval_spec_json
from .spaces import FiniteSpace


@dataclass(frozen=True)
class SpaceSide:
    """A finite space: its covers of any size are exhaustively enumerable."""

    name: str
    space: FiniteSpace
    exhaustive = True

    def fingerprints(self, n: Optional[int], level: str, cap_cover: int,
                     cap_vertices: int):
        """(fingerprint set, family text) over the covers with ``n`` members
        (every size when ``n`` is None)."""
        fs = fingerprints_of_space(self.space, n, level, cap_vertices)
        size = "" if n is None else f"{n}-member "
        return fs, f"all {size}covers of a {len(self.space.points)}-point space"


@dataclass(frozen=True)
class DomainSide:
    """A segment or line: n-interval cover types are exhaustively enumerable."""

    name: str
    domain: Union[Segment, FullLine]
    exhaustive = True

    def fingerprints(self, n: int, level: str, cap_cover: int,
                     cap_vertices: int):
        """(fingerprint set, family text) over the n-interval cover types;
        a domain has covers of every size, so ``n`` is required."""
        if n is None:
            raise ValueError("a domain side needs a cover size")
        fs = fingerprints_of_domain(self.domain, n, level, cap_cover, cap_vertices)
        return fs, (f"all combinatorial types of {n}-interval covers "
                    f"of the {self.domain.describe()}")


def _partition_of(spec):
    if isinstance(spec, AxisAlignedSpec):
        return hclasses_axis2d(spec)
    return hclasses_of_intervals(spec)


@dataclass(frozen=True)
class WitnessSide:
    """Specific covers only; can witness a fingerprint but never absence."""

    name: str
    covers: tuple  # of IntervalSpec | AxisAlignedSpec
    exhaustive = False

    def _sized(self, n: Optional[int]) -> list:
        return [s for s in self.covers if n is None or len(s.members) == n]

    def fingerprints(self, n: Optional[int], level: str, cap_cover: int,
                     cap_vertices: int):
        """(fingerprint set, family text) over the witness covers with ``n``
        members (all of them when ``n`` is None)."""
        specs = self._sized(n)
        fps = [fingerprint_of(_partition_of(s), cap_vertices) for s in specs]
        return (collect_fingerprints(fps, level, n),
                f"{len(specs)} witness cover(s)")

    def cover_for(self, key: tuple, n: Optional[int], level: str,
                  cap_vertices: int) -> Optional[dict]:
        """JSON of the first witness cover whose fingerprint projects to
        ``key``.  Covers are fingerprinted again, one at a time, and only
        until the match, so a search that finds nothing pays nothing here."""
        for spec in self._sized(n):
            if fingerprint_of(_partition_of(spec), cap_vertices).project(level) == key:
                if isinstance(spec, AxisAlignedSpec):
                    return axis_spec_json(spec)
                return interval_spec_json(spec)
        return None


Side = Union[SpaceSide, DomainSide, WitnessSide]


@dataclass(frozen=True)
class Certificate:
    verdict: str
    level: str
    n: int
    witness_side: str
    witness_fingerprint: dict
    witness_cover: Optional[dict]
    exhaustive_side: dict
    listings: dict
    caps: dict
    version: str

    def to_json(self) -> dict:
        return asdict(self)


def nonhomeo_certificate(side_a: Side, side_b: Side, n_range: Tuple[int, int],
                         level: str = "graph",
                         cap_cover: int = DEFAULT_COVER_SIZE_CAP,
                         cap_vertices: int = DEFAULT_VERTEX_CAP
                         ) -> Optional[Certificate]:
    """Search cover sizes in ``n_range`` (inclusive) for a fingerprint on one
    side that the other side's exhaustive enumeration never realizes.

    At least one side must be exhaustible; a witness-only side can only
    supply the distinguishing fingerprint.  Returns None when nothing in the
    range separates the sides.
    """
    if not (side_a.exhaustive or side_b.exhaustive):
        raise NotExhaustible(side_b.name)
    lo, hi = n_range
    if lo < 1 or hi < lo:
        raise ValueError("n_range must be 1 <= lo <= hi")
    caps = {"cap_cover": cap_cover, "cap_vertices": cap_vertices}
    for n in range(lo, hi + 1):
        fa, fam_a = side_a.fingerprints(n, level, cap_cover, cap_vertices)
        fb, fam_b = side_b.fingerprints(n, level, cap_cover, cap_vertices)
        for (side_w, fs_w), (side_e, fs_e, fam_e) in (
            ((side_a, fa), (side_b, fb, fam_b)),
            ((side_b, fb), (side_a, fa, fam_a)),
        ):
            if not side_e.exhaustive:
                continue
            present = set(fs_e.elements)
            for idx, key in enumerate(fs_w.elements):
                if key in present:
                    continue
                return Certificate(
                    verdict="not_homeomorphic",
                    level=level,
                    n=n,
                    witness_side=side_w.name,
                    witness_fingerprint=fs_w.details[idx],
                    witness_cover=None if side_w.exhaustive else
                    side_w.cover_for(key, n, level, cap_vertices),
                    exhaustive_side={
                        "name": side_e.name,
                        "family": fam_e,
                        "fingerprint_count": len(fs_e.elements),
                    },
                    listings={
                        side_a.name: fa.to_json(),
                        side_b.name: fb.to_json(),
                    },
                    caps=caps,
                    version=_version,
                )
    return None


def verify_certificate(cert: Certificate, side_a: Side, side_b: Side) -> bool:
    """Replay the certificate's enumerations and confirm the verdict."""
    if cert.witness_side == side_a.name:
        side_w, side_e = side_a, side_b
    elif cert.witness_side == side_b.name:
        side_w, side_e = side_b, side_a
    else:
        return False
    if not side_e.exhaustive:
        return False
    fs_w, _ = side_w.fingerprints(cert.n, cert.level, **cert.caps)
    fs_e, _ = side_e.fingerprints(cert.n, cert.level, **cert.caps)
    witness_keys = [
        k for k, d in zip(fs_w.elements, fs_w.details)
        if d == cert.witness_fingerprint
    ]
    return len(witness_keys) == 1 and witness_keys[0] not in set(fs_e.elements)
