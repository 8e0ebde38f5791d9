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

from typing import NamedTuple, Optional, Tuple, Union

from . import __version__ as _version
from .errors import DEFAULT_COVER_SIZE_CAP, DEFAULT_VERTEX_CAP, LEVELS
from .errors import CapExceeded, NotExhaustible
from .fingerprints import (
    fingerprint_of,
    fingerprint_set,
    fingerprints_of_domain,
    fingerprints_of_space,
)
from .jsonio import spec_json


class SpaceSide(NamedTuple):
    """A finite space: its covers of any size are exhaustively enumerable."""

    name: str
    space: FiniteSpace
    exhaustive = True

    @property
    def largest_cover(self) -> int:
        """k nonempty opens give covers of every size 1..k."""
        return len(self.space.nonempty_opens)

    def fingerprints(self, n: Optional[int], level: str, cap_cover: int,
                     cap_vertices: int):
        """(fingerprint set, family text) over the covers with ``n`` members
        (every size when ``n`` is None)."""
        fs = fingerprints_of_space(self.space, n, level, cap_vertices)
        size = "" if n is None else f"{n}-member "
        return fs, f"all {size}covers of a {len(self.space.points)}-point space"


class DomainSide(NamedTuple):
    """A segment or line: n-interval cover types are exhaustively enumerable."""

    name: str
    domain: Union[Segment, FullLine]
    exhaustive = True
    largest_cover = None  # a domain has covers of every size

    def fingerprints(self, n: int, level: str, cap_cover: int,
                     cap_vertices: int):
        """(fingerprint set, family text) over the n-interval cover types;
        a domain has covers of every size, so ``n`` is required."""
        if n is None:
            raise ValueError("a domain side needs a cover size")
        fs = fingerprints_of_domain(self.domain, n, level, cap_cover, cap_vertices)
        return fs, (f"all combinatorial types of {n}-interval covers "
                    f"of the {self.domain.describe()}")


class WitnessSide(NamedTuple):
    """Specific covers only; can witness a fingerprint but never absence."""

    name: str
    covers: tuple  # of IntervalSpec | AxisAlignedSpec
    exhaustive = False

    @property
    def largest_cover(self) -> int:
        return max((len(s.members) for s in self.covers), default=0)

    def _sized(self, n: Optional[int]) -> list:
        if n is not None and n < 1:
            raise ValueError("cover size must be positive")
        return [s for s in self.covers if n is None or len(s.members) == n]

    def fingerprints(self, n: Optional[int], level: str, cap_cover: int,
                     cap_vertices: int):
        """(fingerprint set, family text) over the witness covers with ``n``
        members (all of them when ``n`` is None)."""
        from .arrangements import hclasses_of_spec

        specs = self._sized(n)
        return (fingerprint_set(map(hclasses_of_spec, specs), level, n, cap_vertices),
                f"{len(specs)} witness cover(s)")

    def cover_for(self, detail: dict, n: Optional[int],
                  cap_vertices: int) -> Optional[dict]:
        """JSON of the first witness cover whose fingerprint reports exactly
        ``detail``.  Covers are fingerprinted again, one at a time, and only
        until the match, so a search that finds nothing pays nothing here."""
        from .arrangements import hclasses_of_spec

        for spec in self._sized(n):
            if fingerprint_of(hclasses_of_spec(spec), cap_vertices).to_json() == detail:
                return spec_json(spec)
        return None


Side = Union[SpaceSide, DomainSide, WitnessSide]


class Certificate(NamedTuple):
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
        return self._asdict()


def nonhomeo_certificate(side_a: Side, side_b: Side, n_range: Tuple[int, int],
                         level: str = "graph",
                         cap_cover: int = DEFAULT_COVER_SIZE_CAP,
                         cap_vertices: int = DEFAULT_VERTEX_CAP
                         ) -> Optional[Certificate]:
    """Search cover sizes in ``n_range`` (inclusive) for a fingerprint on one
    side that the other side's exhaustive enumeration never realizes.

    At least one side must be exhaustible; a witness-only side can only
    supply the distinguishing fingerprint.  Returns None when nothing in the
    range separates the sides.  Sizes past both sides' largest covers give two
    empty sets and are skipped; a domain side's search ends at its cap.
    """
    if not (side_a.exhaustive or side_b.exhaustive):
        raise NotExhaustible(side_b.name)
    lo, hi = n_range
    if lo < 1 or hi < lo:
        raise ValueError("n_range must be 1 <= lo <= hi")
    caps = {"cap_cover": cap_cover, "cap_vertices": cap_vertices}
    limits = (side_a.largest_cover, side_b.largest_cover)
    if None not in limits:
        hi = min(hi, max(limits))
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
                    side_w.cover_for(fs_w.details[idx], n, cap_vertices),
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


def _is_count(value) -> bool:
    return type(value) is int and value > 0


def verify_certificate(cert: Certificate, side_a: Side, side_b: Side) -> bool:
    """True when the search, replayed at the certificate's size, level and
    caps with the witness side first, so in the direction that found the
    witness, gives back all of the certificate but its version.  A size,
    level or caps the search does not take, or a replay that a cap or a
    side refuses, gives False."""
    caps = cert.caps if isinstance(cert.caps, dict) else {}
    if not (_is_count(cert.n) and cert.level in LEVELS
            and set(caps) == {"cap_cover", "cap_vertices"}
            and all(map(_is_count, caps.values()))):
        return False
    sides = (side_a, side_b) if side_a.name == cert.witness_side else (side_b, side_a)
    try:
        replay = nonhomeo_certificate(*sides, (cert.n, cert.n), cert.level, **caps)
    except (CapExceeded, NotExhaustible):
        return False
    return replay is not None and replay._replace(version=cert.version) == cert
