"""Open-cover density posets, their graph-algebra invariants, and
non-homeomorphism certificates."""

__version__ = "0.1.0"

from .arrangements import (
    AxisAlignedSpec,
    Circle,
    Constraint,
    FullLine,
    Interval,
    IntervalSpec,
    Segment,
    enumerate_interval_cover_types,
    hclasses_axis2d,
    hclasses_of_intervals,
    hclasses_of_spec,
)
from .certificates import (
    Certificate,
    DomainSide,
    SpaceSide,
    WitnessSide,
    nonhomeo_certificate,
    verify_certificate,
)
from .digraphs import (
    CanonicalCert,
    DiGraph,
    canonical_cert,
    is_isomorphic,
    relabel,
    to_dot,
    topological_order,
)
from .errors import (
    CapExceeded,
    DuplicatePoint,
    EmptyMember,
    InvalidArrangement,
    LevelMismatch,
    MissingEmpty,
    MissingWhole,
    NotACover,
    NotAcyclic,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    NotExhaustible,
    ParseError,
    TopocertError,
    TopologyError,
    UnknownPoint,
)
from .fingerprints import (
    Fingerprint,
    FingerprintSet,
    empty_space_fingerprints,
    fingerprint_of,
    fingerprint_set,
    fingerprints_of_domain,
    fingerprints_of_space,
    sets_match,
    singleton_fingerprint,
)
from .graphalgebra import (
    KPair,
    PrimPoset,
    block_decomposition,
    k_theory,
    maximal_tails,
    prim_space,
)
from .hasse import (
    HPartition,
    canonical_key,
    hasse_digraph,
    hpartition_of_cover,
)
from .snf import smith_normal_form
from .spaces import (
    Cover,
    FiniteSpace,
    enumerate_covers,
    generate_topology,
    make_cover,
    validate_topology,
)
