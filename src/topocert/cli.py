"""Command-line front end.

Commands: validate, hclasses, graph, cstar, ktheory, prim, pg, compare,
certify, enumerate.  Outputs are deterministic; every failure is reported on
stderr as ``{"error": exc.report()}`` (kind, message and the error's extra
fields) and ends with the error's ``exit_code``:

  0  success
  2  negative result (invalid topology / sets differ / nothing certifiable)
  3  ParseError   4 CapExceeded   5 NotACover
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
    hclasses_of_spec,
)
from .certificates import (
    DomainSide,
    SpaceSide,
    WitnessSide,
    nonhomeo_certificate,
)
from .digraphs import DEFAULT_VERTEX_CAP, to_dot
from .errors import CapExceeded, ParseError, TopocertError, TopologyError
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
    load_space,
    partition_json,
    space_json,
)
from .spaces import enumerate_covers

_EXIT_NEGATIVE = 2
# each command's flags beyond --input, the caps, --format and --out, in the
# parser's order, and the formats it offers, the default first
_COMMANDS = {
    "validate": ((), ("json",)),
    "hclasses": ((), ("json", "text")),
    "graph": ((), ("json", "dot")),
    "cstar": ((), ("json", "text")),
    "ktheory": ((), ("json", "text")),
    "prim": ((), ("json", "text")),
    "pg": (("n", "level"), ("json", "text")),
    "compare": (("input_b", "n", "level"), ("json", "text")),
    "certify": (("input_b", "n", "n_range", "level"), ("json",)),
    "enumerate": (("n",), ("json",)),
}
_FLAGS = {
    "input_b": dict(required=True),
    "n": dict(type=int),
    "n_range": dict(help="inclusive range, e.g. 4..4"),
    "level": dict(choices=list(LEVELS), default="graph"),
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
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.fmt not in _COMMANDS[self.command][1]:
            raise ValueError(f"{self.command} does not offer --format {self.fmt!r}")
        if self.cap_cover < 1 or self.cap_vertices < 1:
            raise ValueError("caps must be positive")
        if self.level not in LEVELS:
            raise ValueError(f"level must be one of {LEVELS}")


def _env_cap(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ParseError(name, f"not a positive integer: {raw!r}")
    return value


def _emit(config: RunConfig, text: str) -> None:
    if config.out:
        try:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise TopocertError(f"cannot write file: {exc}") from exc
    else:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader has gone: the rest of the output goes nowhere, and
            # the flush at interpreter exit cannot fail on the pipe again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)


def _emit_error(exc: TopocertError) -> int:
    sys.stderr.write(dumps({"error": exc.report()}))
    return exc.exit_code


def _partition_of_input(path: str, loaded):
    if loaded.kind == "space":
        if loaded.cover is None:
            raise ParseError(path, 'this command needs a "cover" in the space file')
        return hpartition_of_cover(loaded.cover)
    if loaded.kind == "covers":
        if len(loaded.specs) != 1:
            raise ParseError(path, "this command needs exactly one cover")
        return hclasses_of_spec(loaded.specs[0])
    raise ParseError(path, f"cannot derive a cover from a {loaded.kind} input")


def _graph_of_input(config: RunConfig, loaded):
    if loaded.kind == "graph":
        # a graph file's n is not bounded by its size
        if loaded.graph.n > config.cap_vertices:
            raise CapExceeded("graph input vertices", config.cap_vertices,
                              loaded.graph.n)
        return loaded.graph
    return hasse_digraph(_partition_of_input(config.input, loaded))


def _side_of_input(name: str, path: str, loaded):
    if loaded.kind == "space":
        return SpaceSide(name=name, space=loaded.space)
    if loaded.kind == "domain":
        return DomainSide(name=name, domain=loaded.domain)
    if loaded.kind == "covers":
        return WitnessSide(name=name, covers=loaded.specs)
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
        return _emit_error(TopocertError(str(exc)))


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
        g = _graph_of_input(config, loaded)
        if config.fmt == "dot":
            _emit(config, to_dot(g))
        else:
            _emit(config, dumps(graph_json(g)))
        return 0
    if cmd == "cstar":
        g = _graph_of_input(config, loaded)
        _emit(config, _render(config, block_decomposition(g).to_json()))
        return 0
    if cmd == "ktheory":
        g = _graph_of_input(config, loaded)
        _emit(config, _render(config, k_theory(g).to_json()))
        return 0
    if cmd == "prim":
        g = _graph_of_input(config, loaded)
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
    return _cmd_enumerate(config, loaded)


def _cmd_validate(config: RunConfig) -> int:
    try:
        space = load_space(config.input)
    except TopologyError as exc:
        _emit(config, dumps({"valid": False, "error": exc.report()}))
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


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a JSON error (exit 1) instead of
    argparse's usage text and exit 2, which means a negative result here."""

    def error(self, message):
        sys.exit(_emit_error(TopocertError(message)))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="topocert",
        description="Open-cover invariants and non-homeomorphism certificates.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (flags, formats) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--input", required=True)
        for flag in flags:
            p.add_argument("--" + flag.replace("_", "-"), **_FLAGS[flag])
        p.add_argument("--cap-cover", type=int,
                       default=_env_cap("TOPOCERT_CAP_COVER",
                                        DEFAULT_COVER_SIZE_CAP))
        p.add_argument("--cap-vertices", type=int,
                       default=_env_cap("TOPOCERT_CAP_VERTICES",
                                        DEFAULT_VERTEX_CAP))
        p.add_argument("--format", dest="fmt", choices=formats, default=formats[0])
        p.add_argument("--out")
    return parser


def _parse_n_range(raw: Optional[str]) -> Optional[Tuple[int, int]]:
    if raw is None:
        return None
    parts = raw.replace("..", ":").split(":")
    try:
        bounds = [int(p) for p in parts]
    except ValueError:
        bounds = []
    if len(bounds) not in (1, 2):
        raise ValueError(f"bad --n-range: {raw!r}")
    return bounds[0], bounds[-1]


def main(argv=None) -> None:
    try:
        parser = build_parser()
    except TopocertError as exc:
        sys.exit(_emit_error(exc))
    fields = vars(parser.parse_args(argv))
    try:
        fields["n_range"] = _parse_n_range(fields.get("n_range"))
        config = RunConfig(**fields)
    except ValueError as exc:
        sys.exit(_emit_error(TopocertError(str(exc))))
    sys.exit(run(config))


if __name__ == "__main__":
    main()
