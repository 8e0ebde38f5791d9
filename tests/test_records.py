"""The package's record types, written as plain classes and NamedTuples:
every one refuses assignment, equality and hashing read every field, and
cached properties are computed once."""

from fractions import Fraction as F

import pytest

from topocert import (
    AxisAlignedSpec,
    CanonicalCert,
    Certificate,
    Circle,
    Constraint,
    Cover,
    DiGraph,
    DomainSide,
    FiniteSpace,
    Fingerprint,
    FingerprintSet,
    FullLine,
    HPartition,
    Interval,
    IntervalSpec,
    KPair,
    PrimPoset,
    Segment,
    SpaceSide,
    WitnessSide,
    make_cover,
    singleton_fingerprint,
    validate_topology,
)
from topocert.jsonio import LoadedInput

SPACE = validate_topology(["a", "b"], [[], ["a"], ["a", "b"]])
EDGE = frozenset({(0, 1)})

# one instance of every immutable type, and the field assigned to
RECORDS = [
    (Segment(F(0), F(1)), "lo"),
    (FullLine(), "lo"),
    (Circle(F(1)), "circumference"),
    (Interval(F(0), F(1)), "lo"),
    (IntervalSpec(FullLine(), (Interval(None, None),)), "members"),
    (Constraint("x", "<", F(1)), "c"),
    (AxisAlignedSpec(((Constraint("x", "<", F(1)),),)), "members"),
    (SpaceSide("a", SPACE), "space"),
    (DomainSide("a", FullLine()), "domain"),
    (WitnessSide("a", ()), "covers"),
    (Certificate("not_homeomorphic", "graph", 1, "a", {}, None, {}, {}, {}, "0"),
     "verdict"),
    (CanonicalCert(1, b""), "blob"),
    (DiGraph(n=2, edges=EDGE), "edges"),
    (singleton_fingerprint(), "graph_cert"),
    (FingerprintSet("graph", 1, ()), "elements"),
    (KPair(1, (), 0), "k0_rank"),
    (PrimPoset((frozenset({0}),)), "points"),
    (HPartition(1, (0b1,)), "classes"),
    (LoadedInput("domain", domain=FullLine()), "domain"),
    (SPACE, "opens"),
    (make_cover(SPACE, [frozenset({"a", "b"})]), "members"),
]


@pytest.mark.parametrize("record, field", RECORDS,
                         ids=[type(r).__name__ for r, _ in RECORDS])
def test_a_field_refuses_assignment(record, field):
    before = getattr(record, field, None)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field, None) is before


@pytest.mark.parametrize("a, b", [
    (DiGraph(2, EDGE), DiGraph(3, EDGE)),
    (DiGraph(2, EDGE), DiGraph(2, frozenset({(1, 0)}))),
    (Cover(SPACE, (frozenset({"a", "b"}),)),
     Cover(validate_topology(["a", "b"], [[], ["a", "b"]]), (frozenset({"a", "b"}),))),
    (FingerprintSet("graph", 1, ((1, b""),), details=({"graph": 1},)),
     FingerprintSet("graph", 1, ((1, b""),))),
    (HPartition(1, (0b1,), "one"), HPartition(1, (0b1,), "two")),
], ids=["DiGraph.n", "DiGraph.edges", "Cover.space", "FingerprintSet.details",
        "HPartition.source"])
def test_equality_reads_the_field(a, b):
    # records that differ in this field alone are unequal; a fingerprint
    # set's details are dicts, so it has no hash
    assert a != b


@pytest.mark.parametrize("a, b", [
    (DiGraph(2, EDGE), DiGraph(2, frozenset())),
    (HPartition(1, (0b1,)), HPartition(2, (0b1,))),
    (Cover(SPACE, (frozenset({"a", "b"}),)),
     Cover(SPACE, (frozenset({"a"}), frozenset({"a", "b"})))),
    (FingerprintSet("graph", 1, ()), FingerprintSet("cstar", 1, ())),
    (Segment(F(0), F(1)), Segment(F(0), F(2))),
    (KPair(1, (), 0), KPair(1, (), 1)),
    (PrimPoset((frozenset({0}),)), PrimPoset((frozenset({1}),))),
    (Fingerprint(CanonicalCert(1, b""), (1,)), Fingerprint(CanonicalCert(1, b""), (2,))),
])
def test_equality_reads_the_other_fields(a, b):
    assert a != b
    # a NamedTuple has no instance dict: rebuild it from its fields in order
    fields = a if isinstance(a, tuple) else ()
    assert a == type(a)(*fields, **({} if fields else vars(a)))


def test_cached_properties_are_computed_once():
    g = DiGraph(2, EDGE)
    space = FiniteSpace(points=("a",), opens=(frozenset(), frozenset({"a"})))
    for record, name in ((g, "out_sets"), (space, "mask_by_open"), (space, "open_masks")):
        assert getattr(record, name) is getattr(record, name)
    assert g.out_sets == (frozenset({1}), frozenset())
    assert space.open_masks == (0, 1)
