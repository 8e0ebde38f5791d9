"""JSON input/output for spaces, covers, arrangements and graphs.

Rationals are serialized as strings ("3/4", "-6"); infinite interval ends as
"-inf"/"inf".  All loaders wrap failures into ParseError with the offending
path.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

from .arrangements import (
    AxisAlignedSpec,
    Circle,
    Constraint,
    FullLine,
    Interval,
    IntervalSpec,
    Segment,
    make_axis_spec,
    make_interval_spec,
)
from .digraphs import DiGraph
from .errors import CapExceeded, ParseError, TopocertError, TopologyError
from .hasse import HPartition
from .spaces import Cover, FiniteSpace, make_cover, generate_topology, validate_topology


def parse_fraction(value) -> Fraction:
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {value!r}") from exc
    raise ValueError(f"not a rational: {value!r}")


def _parse_end(value) -> Optional[Fraction]:
    if value is None:
        return None
    if isinstance(value, str) and value.strip().lstrip("+-") == "inf":
        return None
    return parse_fraction(value)


def _load_domain(doc) -> object:
    kind = doc.get("kind")
    if kind == "segment":
        return Segment(lo=parse_fraction(doc["lo"]), hi=parse_fraction(doc["hi"]))
    if kind == "line":
        return FullLine()
    if kind == "circle":
        return Circle(circumference=parse_fraction(doc["circumference"]))
    raise ValueError(f"unknown domain kind {kind!r}")


def _load_interval_members(domain, members_doc) -> IntervalSpec:
    members = []
    for m in members_doc:
        members.append(
            Interval(
                lo=_parse_end(m.get("lo")),
                hi=_parse_end(m.get("hi")),
                closed_lo=bool(m.get("closed_lo", False)),
            )
        )
    return make_interval_spec(domain, members)


def _load_axis_members(members_doc) -> AxisAlignedSpec:
    members = []
    for conj in members_doc:
        cons = [
            Constraint(var=c["var"], op=c["op"], c=parse_fraction(c["c"]))
            for c in conj
        ]
        members.append(tuple(cons))
    return make_axis_spec(members)


def _looks_axis2d(members_doc) -> bool:
    for conj in members_doc:
        if not isinstance(conj, list):
            return False
        for c in conj:
            if not (isinstance(c, dict) and {"var", "op", "c"} <= set(c)):
                return False
    return True


class LoadedInput:
    """Tagged result of loading an input file.

    kind is one of "space", "intervals", "axis2d", "domain", "graph".
    Interval inputs always expose a tuple of covers (a file may carry one
    cover under "members" or several under "covers").
    """

    def __init__(self, kind, space=None, cover=None, interval_specs=(),
                 axis_spec=None, domain=None, graph=None):
        self.kind = kind
        self.space = space
        self.cover = cover
        self.interval_specs = tuple(interval_specs)
        self.axis_spec = axis_spec
        self.domain = domain
        self.graph = graph


def _read(path: str, interpret, passes=()):
    """``interpret`` of the JSON document in ``path``.  Every failure but a
    ParseError, a CapExceeded or one of ``passes`` becomes a ParseError
    naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(path, f"cannot read file: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, UTF-8 or nesting
        raise ParseError(path, f"invalid JSON: {exc}") from exc
    try:
        return interpret(doc)
    except (ParseError, CapExceeded, *passes):
        raise
    except TopocertError as exc:
        raise ParseError(path, f"{exc.kind}: {exc}") from exc
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(path, str(exc)) from exc


def load_input(path: str) -> LoadedInput:
    return _read(path, _interpret)


def load_space(path: str) -> FiniteSpace:
    """The space in a space file; a failed topology axiom is raised as the
    TopologyError itself, so that it can be reported as a negative result."""
    def space_file(doc):
        if not isinstance(doc, dict) or "points" not in doc:
            raise ValueError("validate expects a space file")
        return _space(doc)
    return _read(path, space_file, (TopologyError,))


def _space(doc) -> FiniteSpace:
    if "opens" in doc:
        return validate_topology(doc["points"], doc["opens"])
    if "subbasis" in doc:
        return generate_topology(doc["points"], doc["subbasis"])
    raise ValueError('space files need "opens" or "subbasis"')


def _interpret(doc) -> LoadedInput:
    if not isinstance(doc, dict):
        raise ValueError("top-level JSON value must be an object")
    if "points" in doc:
        space = _space(doc)
        cover = None
        if "cover" in doc:
            cover = make_cover(space, [frozenset(m) for m in doc["cover"]])
        return LoadedInput("space", space=space, cover=cover)
    if "domain" in doc:
        domain = _load_domain(doc["domain"])
        if "members" in doc:
            spec = _load_interval_members(domain, doc["members"])
            return LoadedInput("intervals", interval_specs=[spec])
        if "covers" in doc:
            specs = [_load_interval_members(domain, ms) for ms in doc["covers"]]
            if not specs:
                raise ValueError('"covers" must not be empty')
            return LoadedInput("intervals", interval_specs=specs)
        return LoadedInput("domain", domain=domain)
    if "members" in doc and _looks_axis2d(doc["members"]):
        return LoadedInput("axis2d", axis_spec=_load_axis_members(doc["members"]))
    if "n" in doc and "edges" in doc:
        labels = None
        if doc.get("labels") is not None:
            labels = tuple(frozenset(l) for l in doc["labels"])
        graph = DiGraph(
            n=int(doc["n"]),
            edges=frozenset((int(u), int(v)) for u, v in doc["edges"]),
            labels=labels,
        )
        return LoadedInput("graph", graph=graph)
    raise ValueError("unrecognized input file shape")


# -- serializers ---------------------------------------------------------------

def space_json(space: FiniteSpace) -> dict:
    return {
        "points": [str(p) for p in space.points],
        "opens": [sorted(map(str, u)) for u in space.opens],
    }


def cover_json(cover: Cover) -> dict:
    return {"members": [sorted(map(str, m)) for m in cover.members]}


def partition_json(p: HPartition) -> dict:
    return {
        "members": p.member_count,
        "classes": [sorted(c) for c in p.classes],
        "source": p.source,
    }


def graph_json(g: DiGraph) -> dict:
    doc = {"n": g.n, "edges": sorted([u, v] for u, v in g.edges)}
    if g.labels is not None:
        doc["labels"] = [sorted(l) for l in g.labels]
    return doc


def interval_json(m: Interval) -> dict:
    def end(v):
        return None if v is None else str(v)

    doc = {"lo": end(m.lo), "hi": end(m.hi)}
    if m.closed_lo:
        doc["closed_lo"] = True
    return doc


def domain_json(domain) -> dict:
    if isinstance(domain, Segment):
        return {"kind": "segment", "lo": str(domain.lo), "hi": str(domain.hi)}
    if isinstance(domain, FullLine):
        return {"kind": "line"}
    return {"kind": "circle", "circumference": str(domain.circumference)}


def interval_spec_json(spec: IntervalSpec) -> dict:
    return {
        "domain": domain_json(spec.domain),
        "members": [interval_json(m) for m in spec.members],
    }


def axis_spec_json(spec: AxisAlignedSpec) -> dict:
    return {
        "members": [
            [{"var": c.var, "op": c.op, "c": str(c.c)} for c in conj]
            for conj in spec.members
        ]
    }


def dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
