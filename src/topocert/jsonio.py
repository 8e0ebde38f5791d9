"""JSON input/output for spaces, covers, arrangements and graphs.

Rationals are serialized as strings ("3/4", "-6"); infinite interval ends as
"-inf" (lo) and "inf" (hi), and "+inf" or null are read too.  Loaders report
a failure as a ParseError naming the file; a CapExceeded or a NotACover
keeps its own kind.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from typing import NamedTuple, Optional

from .arrangements import (
    AxisAlignedSpec,
    Circle,
    Constraint,
    FullLine,
    Interval,
    IntervalSpec,
    Segment,
)
from .digraphs import DiGraph
from .errors import CapExceeded, NotACover, ParseError, TopocertError, TopologyError
from .hasse import HPartition, class_members
from .spaces import Cover, FiniteSpace, make_cover, generate_topology, validate_topology


# a decimal with an exponent as Fraction reads it: whole part, decimal part
# and exponent, each perhaps with underscores.  re compiles it on first use,
# so that start-up does not pay for it.
_EXPONENT_FORM = (
    r"\s*[-+]?(?=\.?\d)(\d*(?:_\d+)*)(?:\.(\d*(?:_\d+)*))?[eE]([-+]?\d+(?:_\d+)*)\s*")


def _too_long(text: str, limit: int) -> ValueError:
    return ValueError(f"rational {text!r} has a numerator or denominator of "
                      f"more than {limit} digits")


def _exponent_checked(text: str, limit: int) -> str:
    """``text``, a rational written with an exponent, unless the exponent
    alone shows a numerator or denominator of more than ``limit`` digits;
    Fraction would build 10**exponent first.  The value is int(digits) *
    10**scale: its numerator has len(digits) + scale digits when scale >= 0,
    and its denominator at least 1 - scale - len(digits) when scale < 0.  A
    zero mantissa drops its exponent."""
    form = re.fullmatch(_EXPONENT_FORM, text)
    if form is None:
        return text  # Fraction refuses it
    whole, frac, exp = (part.replace("_", "") for part in form.groups(""))
    digits = (whole + frac).lstrip("0")
    if not digits:
        return "0"
    try:
        scale = int(exp) - len(frac)
    except ValueError:  # an exponent of more than ``limit`` digits
        raise _too_long(text, limit) from None
    if (len(digits) + scale if scale >= 0 else 1 - scale - len(digits)) > limit:
        raise _too_long(text, limit)
    return text


def parse_fraction(value) -> Fraction:
    """A JSON integer or rational string.  A numerator or denominator of more
    than ``sys.get_int_max_str_digits()`` digits could not be printed, and
    is refused; only a string with an exponent or longer than that limit can
    have one."""
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        limit = sys.get_int_max_str_digits()  # 0 when there is none
        exponent = "e" in value or "E" in value
        text = _exponent_checked(value, limit) if exponent and limit else value
        try:
            number = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {value!r}") from exc
        if (limit and (exponent or len(value) > limit)
                and max(abs(number.numerator), number.denominator) >= 10 ** limit):
            raise _too_long(value, limit)
        return number
    raise ValueError(f"not a rational: {value!r}")


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


# the strings that leave each end of an interval member unbounded
_UNBOUNDED = {"lo": ("-inf",), "hi": ("inf", "+inf")}


def _parse_end(member: dict, key: str) -> Optional[Fraction]:
    """End ``key`` ("lo" or "hi") of an interval member; null means
    unbounded, and so does "-inf" for lo and "inf" or "+inf" for hi."""
    value = member.get(key)
    if value is None:
        return None
    if isinstance(value, str) and value.strip().lstrip("+-") == "inf":
        if value.strip() not in _UNBOUNDED[key]:
            raise ValueError(f'"{key}" cannot be {value!r}: it is unbounded as '
                             f'null or {" or ".join(map(repr, _UNBOUNDED[key]))}')
        return None
    return parse_fraction(value)


def _load_domain(doc) -> object:
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


def _load_interval_members(domain, members_doc: list, key: str) -> IntervalSpec:
    """One interval cover from the member objects listed under ``key``."""
    if not all(isinstance(m, dict) for m in members_doc):
        raise ValueError(f'each member in "{key}" must be a JSON object')
    return IntervalSpec(domain, tuple(
        Interval(lo=_parse_end(m, "lo"), hi=_parse_end(m, "hi"),
                 closed_lo=_closed_lo(m))
        for m in members_doc))


def _load_axis_members(members_doc) -> AxisAlignedSpec:
    return AxisAlignedSpec(tuple(
        tuple(Constraint(var=c["var"], op=c["op"], c=parse_fraction(c["c"]))
              for c in conj)
        for conj in members_doc))


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


def _space(doc) -> FiniteSpace:
    points = _array(doc, "points", of_arrays=False)
    if "opens" in doc:
        return validate_topology(points, _array(doc, "opens"))
    if "subbasis" in doc:
        return generate_topology(points, _array(doc, "subbasis"))
    raise ValueError('space files need "opens" or "subbasis"')


def _interpret(doc) -> LoadedInput:
    if not isinstance(doc, dict):
        raise ValueError("top-level JSON value must be an object")
    if "points" in doc:
        space = _space(doc)
        cover = None
        if "cover" in doc:
            cover = make_cover(space, [frozenset(m) for m in _array(doc, "cover")])
        return LoadedInput("space", space=space, cover=cover)
    if "domain" in doc:
        domain = _load_domain(doc["domain"])
        if "members" in doc:
            return LoadedInput("covers", specs=(_load_interval_members(
                domain, _array(doc, "members", of_arrays=False), "members"),))
        if "covers" in doc:
            specs = tuple(_load_interval_members(domain, ms, "covers")
                          for ms in _array(doc, "covers"))
            if not specs:
                raise ValueError('"covers" must not be empty')
            return LoadedInput("covers", specs=specs)
        return LoadedInput("domain", domain=domain)
    if "members" in doc and _looks_axis2d(doc["members"]):
        return LoadedInput("covers", specs=(_load_axis_members(doc["members"]),))
    if "n" in doc and "edges" in doc:
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
    return {"members": [sorted(map(str, m)) for m in cover.members]}


def partition_json(p: HPartition) -> dict:
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
    if isinstance(domain, Segment):
        return {"kind": "segment", "lo": str(domain.lo), "hi": str(domain.hi)}
    if isinstance(domain, FullLine):
        return {"kind": "line"}
    return {"kind": "circle", "circumference": str(domain.circumference)}


def spec_json(spec) -> dict:
    """One witness cover in its input-file form."""
    if isinstance(spec, AxisAlignedSpec):
        return {"members": [[{"var": c.var, "op": c.op, "c": str(c.c)} for c in conj]
                            for conj in spec.members]}
    return {
        "domain": domain_json(spec.domain),
        "members": [interval_json(m) for m in spec.members],
    }


def dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
