"""Open-cover density posets, their graph-algebra invariants, and
non-homeomorphism certificates.

Each public name is read from its module on first use (PEP 562), so
``import topocert`` loads no module.  ``arrangements`` (and with it
``fractions``), ``spaces`` and ``snf`` load only when a name or an input
needs them.
"""

import importlib

__version__ = "0.1.0"

_NAMES = {
    "arrangements": (
        "AxisAlignedSpec", "Circle", "Constraint", "FullLine", "Interval",
        "IntervalSpec", "Segment", "enumerate_interval_cover_types",
        "hclasses_axis2d", "hclasses_of_intervals", "hclasses_of_spec"),
    "certificates": (
        "Certificate", "DomainSide", "SpaceSide", "WitnessSide",
        "nonhomeo_certificate", "verify_certificate"),
    "digraphs": (
        "DiGraph", "canonical_cert", "is_isomorphic", "relabel", "to_dot",
        "topological_order"),
    "errors": (
        "CapExceeded", "DuplicatePoint", "EmptyMember", "InvalidArrangement",
        "LevelMismatch", "MissingEmpty", "MissingWhole", "NotACover",
        "NotAcyclic", "NotClosedUnderIntersection", "NotClosedUnderUnion",
        "NotExhaustible", "ParseError", "TopocertError", "TopologyError",
        "UnknownPoint"),
    "fingerprints": (
        "Fingerprint", "FingerprintSet", "empty_space_fingerprints",
        "fingerprint_of", "fingerprint_set", "fingerprints_of_domain",
        "fingerprints_of_space", "sets_match"),
    "graphalgebra": (
        "KPair", "PrimPoset", "block_decomposition", "k_theory",
        "maximal_tails", "prim_space"),
    "hasse": ("HPartition", "canonical_key", "hasse_digraph", "hpartition_of_cover"),
    "snf": ("smith_normal_form",),
    "spaces": (
        "Cover", "FiniteSpace", "enumerate_covers", "generate_topology",
        "make_cover", "validate_topology"),
}
# each public name -> the module that defines it
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list:
    return sorted({*globals(), *__all__})
