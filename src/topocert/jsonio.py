"""JSON input/output for spaces, covers, arrangements and graphs.

A rational is a JSON integer (not a boolean) or a string -?[0-9]+(/[0-9]+)?
with a nonzero denominator, as it is written ("3/4", "-6").  An unbounded
interval end is written as null, and read as null, "-inf" (lo) or "inf" or
"+inf" (hi).  Points are JSON strings.  Loaders report a failure as a
ParseError naming the file; a CapExceeded or a NotACover keeps its own kind.
The readers of domains, interval covers and plane covers, rationals
included, sit beside their types in ``arrangements``.  Like each family's
module, ``digraphs`` and ``hasse`` load only where a graph file or a
partition needs them.
"""

from __future__ import annotations

import json
from typing import NamedTuple, Optional

from .errors import CapExceeded, NotACover, ParseError, TopocertError, TopologyError


def _integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"not an integer: {value!r}")
    return value


def _array(doc: dict, key: str, of_arrays: bool = True) -> list:
    """``doc[key]``, checked to be a JSON array, and one of JSON arrays unless
    ``of_arrays`` is false: a string or an object in their place would be
    read as its characters or keys."""
    value = doc[key]
    if not isinstance(value, list):
        raise ValueError(f'"{key}" must be a JSON array')
    if of_arrays and not all(isinstance(v, list) for v in value):
        raise ValueError(f'each item of "{key}" must be a JSON array')
    return value


def _looks_axis2d(members_doc) -> bool:
    for conj in members_doc:
        if not isinstance(conj, list):
            return False
        for c in conj:
            if not (isinstance(c, dict) and {"var", "op", "c"} <= set(c)):
                return False
    return True


class LoadedInput(NamedTuple):
    """Tagged result of loading an input file.

    kind is one of "space" (``space``, and ``cover`` when the file has one),
    "covers" (``specs``: the witness covers of an interval, arc or plane
    file; an interval file may carry one cover under "members" or several
    under "covers", a plane file carries one), "domain" or "graph"
    (``graph``, and ``vertex_labels``, one set of integers per vertex, when
    the file has "labels").
    """

    kind: str
    space: Optional[FiniteSpace] = None
    cover: Optional[Cover] = None
    specs: tuple = ()  # of IntervalSpec | AxisAlignedSpec
    domain: object = None
    graph: Optional[DiGraph] = None
    vertex_labels: Optional[tuple] = None


def _read(path: str, interpret, passes=()):
    """``interpret`` of the JSON document in ``path``.  Every failure but a
    ParseError, a CapExceeded, a NotACover or one of ``passes`` becomes a
    ParseError naming the file, with the extra fields of the error it
    replaces."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(path, f"cannot read file: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, UTF-8 or nesting
        raise ParseError(path, f"invalid JSON: {exc}") from exc
    try:
        return interpret(doc)
    except (ParseError, CapExceeded, NotACover, *passes):
        raise
    except TopocertError as exc:
        raise ParseError(path, f"{exc.kind}: {exc}", **exc.fields) from exc
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


def _point_sets(doc: dict, key: str) -> list:
    """``doc[key]``, checked to be a JSON array of arrays of JSON strings."""
    sets = _array(doc, key)
    if not all(isinstance(p, str) for points in sets for p in points):
        raise ValueError(f'each point in "{key}" must be a JSON string')
    return sets


def _space(doc) -> FiniteSpace:
    from .spaces import generate_topology, validate_topology

    points = _array(doc, "points", of_arrays=False)
    if not all(isinstance(p, str) for p in points):
        raise ValueError('each item of "points" must be a JSON string')
    if "opens" in doc:
        return validate_topology(points, _point_sets(doc, "opens"))
    if "subbasis" in doc:
        return generate_topology(points, _point_sets(doc, "subbasis"))
    raise ValueError('space files need "opens" or "subbasis"')


def _interpret(doc) -> LoadedInput:
    if not isinstance(doc, dict):
        raise ValueError("top-level JSON value must be an object")
    # each family's module is loaded here, where the file shows its family
    if "points" in doc:
        from .spaces import make_cover

        space = _space(doc)
        cover = None
        if "cover" in doc:
            cover = make_cover(space, [frozenset(m) for m in _point_sets(doc, "cover")])
        return LoadedInput("space", space=space, cover=cover)
    if "domain" in doc:
        from .arrangements import load_domain, load_interval_members

        domain = load_domain(doc["domain"])
        parsed = {}
        if "members" in doc:
            return LoadedInput("covers", specs=(load_interval_members(
                domain, _array(doc, "members", of_arrays=False), "members",
                parsed),))
        if "covers" in doc:
            specs = tuple(load_interval_members(domain, ms, "covers", parsed)
                          for ms in _array(doc, "covers"))
            if not specs:
                raise ValueError('"covers" must not be empty')
            return LoadedInput("covers", specs=specs)
        return LoadedInput("domain", domain=domain)
    if "members" in doc and _looks_axis2d(doc["members"]):
        from .arrangements import load_axis_members

        return LoadedInput("covers", specs=(load_axis_members(doc["members"]),))
    if "n" in doc and "edges" in doc:
        from .digraphs import DiGraph

        labels = None
        if doc.get("labels") is not None:
            labels = tuple(frozenset(map(_integer, l)) for l in _array(doc, "labels"))
        graph = DiGraph(
            n=_integer(doc["n"]),
            edges=frozenset((_integer(u), _integer(v))
                            for u, v in _array(doc, "edges")),
        )
        if labels is not None and len(labels) != graph.n:
            raise ValueError("labels must have one entry per vertex")
        return LoadedInput("graph", graph=graph, vertex_labels=labels)
    raise ValueError("unrecognized input file shape")


# -- serializers ---------------------------------------------------------------

def space_json(space: FiniteSpace) -> dict:
    return {
        "points": [str(p) for p in space.points],
        "opens": [sorted(map(str, u)) for u in space.opens],
    }


def cover_json(cover: Cover) -> dict:
    return {"members": [sorted(map(str, cover.space.opens[i])) for i in cover.members]}


def partition_json(p: HPartition) -> dict:
    from .hasse import class_members

    return {
        "members": p.member_count,
        "classes": [list(class_members(c, p.member_count)) for c in p.classes],
        "source": p.source,
    }


def graph_json(g: DiGraph, labels: Optional[tuple] = None) -> dict:
    doc = {"n": g.n, "edges": sorted([u, v] for u, v in g.edges)}
    if labels is not None:
        doc["labels"] = [sorted(l) for l in labels]
    return doc


def interval_json(m: Interval) -> dict:
    def end(v):
        return None if v is None else str(v)

    doc = {"lo": end(m.lo), "hi": end(m.hi)}
    if m.closed_lo:
        doc["closed_lo"] = True
    return doc


def domain_json(domain) -> dict:
    from .arrangements import FullLine, Segment

    if isinstance(domain, Segment):
        return {"kind": "segment", "lo": str(domain.lo), "hi": str(domain.hi)}
    if isinstance(domain, FullLine):
        return {"kind": "line"}
    return {"kind": "circle", "circumference": str(domain.circumference)}


def spec_json(spec) -> dict:
    """One witness cover in its input-file form."""
    from .arrangements import AxisAlignedSpec

    if isinstance(spec, AxisAlignedSpec):
        return {"members": [[{"var": c.var, "op": c.op, "c": str(c.c)} for c in conj]
                            for conj in spec.members]}
    return {
        "domain": domain_json(spec.domain),
        "members": [interval_json(m) for m in spec.members],
    }


def dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
