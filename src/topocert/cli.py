"""Command-line front end.

Commands: validate, hclasses, graph, cstar, ktheory, prim, pg, compare,
certify, enumerate.  Outputs are deterministic; every failure is reported as
a JSON error object on stderr with a stable exit code:

  0  success
  2  negative result (invalid topology / sets differ / nothing certifiable)
  3  ParseError   4 CapExceeded   5 NotACover   6 NotAHomeomorphism
  1  any other error
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from typing import Optional, Tuple

from . import __version__
from .arrangements import (
    DEFAULT_COVER_SIZE_CAP,
    enumerate_interval_cover_types,
    hclasses_axis2d,
    hclasses_of_intervals,
)
from .certificates import (
    DomainSide,
    SpaceSide,
    WitnessSide,
    nonhomeo_certificate,
)
from .digraphs import DEFAULT_VERTEX_CAP, to_dot
from .errors import (
    CapExceeded,
    NotACover,
    NotAHomeomorphism,
    ParseError,
    TopocertError,
    TopologyError,
)
from .fingerprints import LEVELS, sets_match
# unused here; the benchmark's tracer and its tests expect this binding
from .fingerprints import fingerprint_of  # noqa: F401
from .graphalgebra import block_decomposition, k_theory, prim_space
from .hasse import hasse_digraph, hpartition_of_cover
from .jsonio import (
    cover_json,
    dumps,
    graph_json,
    load_input,
    partition_json,
    read_json,
    space_json,
)
from .spaces import enumerate_covers, generate_topology, validate_topology

_EXIT_NEGATIVE = 2
_ERROR_CODES = {
    ParseError: 3,
    CapExceeded: 4,
    NotACover: 5,
    NotAHomeomorphism: 6,
}


@dataclass
class RunConfig:
    command: str
    input: Optional[str] = None
    input_b: Optional[str] = None
    n: Optional[int] = None
    n_range: Optional[Tuple[int, int]] = None
    level: str = "graph"
    cap_cover: int = DEFAULT_COVER_SIZE_CAP
    cap_vertices: int = DEFAULT_VERTEX_CAP
    fmt: str = "json"
    out: Optional[str] = None

    def __post_init__(self):
        if self.cap_cover < 1 or self.cap_vertices < 1:
            raise ValueError("caps must be positive")
        if self.level not in LEVELS:
            raise ValueError(f"level must be one of {LEVELS}")


def _env_cap(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise ParseError(name, f"not an integer: {raw!r}") from None


def _emit(config: RunConfig, text: str) -> None:
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_error(exc: TopocertError) -> int:
    doc = {"error": {"kind": exc.kind, "message": str(exc), **exc.payload()}}
    sys.stderr.write(dumps(doc))
    for klass, code in _ERROR_CODES.items():
        if isinstance(exc, klass):
            return code
    return 1


def _partition_of_input(path: str, loaded):
    if loaded.kind == "space":
        if loaded.cover is None:
            raise ParseError(path, 'this command needs a "cover" in the space file')
        return hpartition_of_cover(loaded.cover)
    if loaded.kind == "intervals":
        if len(loaded.interval_specs) != 1:
            raise ParseError(path, "this command needs exactly one cover")
        return hclasses_of_intervals(loaded.interval_specs[0])
    if loaded.kind == "axis2d":
        return hclasses_axis2d(loaded.axis_spec)
    raise ParseError(path, f"cannot derive a cover from a {loaded.kind} input")


def _graph_of_input(path: str, loaded):
    if loaded.kind == "graph":
        return loaded.graph
    return hasse_digraph(_partition_of_input(path, loaded))


def _side_of_input(name: str, path: str, loaded):
    if loaded.kind == "space":
        return SpaceSide(name=name, space=loaded.space)
    if loaded.kind == "domain":
        return DomainSide(name=name, domain=loaded.domain)
    if loaded.kind == "intervals":
        return WitnessSide(name=name, covers=loaded.interval_specs)
    if loaded.kind == "axis2d":
        return WitnessSide(name=name, covers=(loaded.axis_spec,))
    raise ParseError(path, f"cannot fingerprint a {loaded.kind} input")


def _fingerprints_of_file(path: str, loaded, config: RunConfig):
    """(set, exhaustive) of one pg/compare input at ``config.n``."""
    if config.n is None and loaded.kind == "domain":
        raise ParseError(path, "domain inputs need --n")
    side = _side_of_input(path, path, loaded)
    fs, _ = side.fingerprints(config.n, config.level, config.cap_cover,
                              config.cap_vertices)
    return fs, side.exhaustive


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit code."""
    try:
        return _dispatch(config)
    except TopocertError as exc:
        return _emit_error(exc)
    except ValueError as exc:
        sys.stderr.write(dumps({"error": {"kind": "Error", "message": str(exc)}}))
        return 1


def _dispatch(config: RunConfig) -> int:
    cmd = config.command
    if cmd == "validate":
        return _cmd_validate(config)
    loaded = load_input(config.input)
    if cmd == "hclasses":
        _emit(config, _render(config, partition_json(
            _partition_of_input(config.input, loaded))))
        return 0
    if cmd == "graph":
        g = _graph_of_input(config.input, loaded)
        if config.fmt == "dot":
            _emit(config, to_dot(g))
        else:
            _emit(config, dumps(graph_json(g)))
        return 0
    if cmd == "cstar":
        g = _graph_of_input(config.input, loaded)
        _emit(config, _render(config, block_decomposition(g).to_json()))
        return 0
    if cmd == "ktheory":
        g = _graph_of_input(config.input, loaded)
        _emit(config, _render(config, k_theory(g).to_json()))
        return 0
    if cmd == "prim":
        g = _graph_of_input(config.input, loaded)
        _emit(config, _render(config, prim_space(g, config.cap_vertices).to_json()))
        return 0
    if cmd == "pg":
        fs, exhaustive = _fingerprints_of_file(config.input, loaded, config)
        _emit(config, _render(config, {**fs.to_json(), "exhaustive": exhaustive}))
        return 0
    if cmd == "compare":
        loaded_b = load_input(config.input_b)
        fs_a, ex_a = _fingerprints_of_file(config.input, loaded, config)
        fs_b, ex_b = _fingerprints_of_file(config.input_b, loaded_b, config)
        match = sets_match(fs_a, fs_b)
        doc = {
            "match": match,
            "exhaustive": ex_a and ex_b,
            "a": fs_a.to_json(),
            "b": fs_b.to_json(),
        }
        _emit(config, _render(config, doc))
        return 0 if match else _EXIT_NEGATIVE
    if cmd == "certify":
        loaded_b = load_input(config.input_b)
        side_a = _side_of_input("a", config.input, loaded)
        side_b = _side_of_input("b", config.input_b, loaded_b)
        n_range = config.n_range or (
            (config.n, config.n) if config.n is not None else (1, config.cap_cover)
        )
        cert = nonhomeo_certificate(
            side_a, side_b, n_range, config.level,
            config.cap_cover, config.cap_vertices)
        if cert is None:
            _emit(config, dumps({"certificate": None,
                                 "searched_n": list(n_range),
                                 "level": config.level}))
            return _EXIT_NEGATIVE
        _emit(config, dumps(cert.to_json()))
        return 0
    if cmd == "enumerate":
        return _cmd_enumerate(config, loaded)
    raise ValueError(f"unknown command {cmd!r}")


def _cmd_validate(config: RunConfig) -> int:
    doc = read_json(config.input)
    if not isinstance(doc, dict) or "points" not in doc:
        raise ParseError(config.input, "validate expects a space file")
    try:
        if "opens" in doc:
            space = validate_topology(doc["points"], doc["opens"])
        elif "subbasis" in doc:
            space = generate_topology(doc["points"], doc["subbasis"])
        else:
            raise ParseError(config.input, 'space files need "opens" or "subbasis"')
    except TopologyError as exc:
        _emit(config, dumps({
            "valid": False,
            "error": {"kind": exc.kind, "message": str(exc), **exc.payload()},
        }))
        return _EXIT_NEGATIVE
    _emit(config, dumps({"valid": True, **space_json(space)}))
    return 0


def _cmd_enumerate(config: RunConfig, loaded) -> int:
    if loaded.kind == "space":
        covers = [cover_json(c)["members"]
                  for c in enumerate_covers(loaded.space, config.n)]
        _emit(config, dumps({"covers": covers, "count": len(covers)}))
        return 0
    if loaded.kind == "domain":
        if config.n is None:
            raise ParseError(config.input, "domain enumeration needs --n")
        types = [partition_json(p) for p in enumerate_interval_cover_types(
            loaded.domain, config.n, config.cap_cover)]
        _emit(config, dumps({"types": types, "count": len(types)}))
        return 0
    raise ParseError(config.input, "enumerate needs a space or a bare domain")


def _render(config: RunConfig, doc: dict) -> str:
    if config.fmt == "text":
        return _text_render(doc)
    return dumps(doc)


def _text_render(doc: dict, indent: str = "") -> str:
    lines = []
    for key in sorted(doc):
        val = doc[key]
        if isinstance(val, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_text_render(val, indent + "  ").rstrip("\n"))
        else:
            lines.append(f"{indent}{key}: {val}")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topocert",
        description="Open-cover invariants and non-homeomorphism certificates.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("validate", "hclasses", "graph", "cstar", "ktheory", "prim",
                 "pg", "compare", "certify", "enumerate"):
        p = sub.add_parser(name)
        p.add_argument("--input", required=True)
        if name in ("compare", "certify"):
            p.add_argument("--input-b", required=True)
        if name in ("pg", "compare", "certify", "enumerate"):
            p.add_argument("--n", type=int)
        if name == "certify":
            p.add_argument("--n-range", help="inclusive range, e.g. 4..4")
        if name in ("pg", "compare", "certify"):
            p.add_argument("--level", choices=list(LEVELS), default="graph")
        p.add_argument("--cap-cover", type=int,
                       default=_env_cap("TOPOCERT_CAP_COVER",
                                        DEFAULT_COVER_SIZE_CAP))
        p.add_argument("--cap-vertices", type=int,
                       default=_env_cap("TOPOCERT_CAP_VERTICES",
                                        DEFAULT_VERTEX_CAP))
        p.add_argument("--format", dest="fmt",
                       choices=["json", "dot", "text"], default="json")
        p.add_argument("--out")
    return parser


def _parse_n_range(raw: Optional[str]) -> Optional[Tuple[int, int]]:
    if raw is None:
        return None
    text = raw.replace("..", ":")
    parts = text.split(":")
    if len(parts) == 1:
        lo = hi = int(parts[0])
    elif len(parts) == 2:
        lo, hi = int(parts[0]), int(parts[1])
    else:
        raise ValueError(f"bad --n-range: {raw!r}")
    return lo, hi


def main(argv=None) -> None:
    try:
        parser = build_parser()
    except TopocertError as exc:
        sys.exit(_emit_error(exc))
    args = parser.parse_args(argv)
    try:
        config = RunConfig(
            command=args.command,
            input=getattr(args, "input", None),
            input_b=getattr(args, "input_b", None),
            n=getattr(args, "n", None),
            n_range=_parse_n_range(getattr(args, "n_range", None)),
            level=getattr(args, "level", "graph"),
            cap_cover=args.cap_cover,
            cap_vertices=args.cap_vertices,
            fmt=args.fmt,
            out=args.out,
        )
    except ValueError as exc:
        sys.stderr.write(dumps({"error": {"kind": "Error", "message": str(exc)}}))
        sys.exit(1)
    sys.exit(run(config))


if __name__ == "__main__":
    main()
