"""Command-line front end.

``_COMMANDS`` is the one table of commands (validate, hclasses, graph, cstar,
ktheory, prim, pg, compare, certify, enumerate): each one's flags, formats
and handler.  Outputs are deterministic; every failure is reported on
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
_FLAGS = {
    "input_b": dict(required=True),
    "n": dict(type=int),
    "n_range": dict(help="inclusive range, e.g. 4..4"),
    "level": dict(choices=list(LEVELS), default="graph"),
}


class RunConfig:
    def __init__(self, command: str, input: Optional[str] = None,
                 input_b: Optional[str] = None, n: Optional[int] = None,
                 n_range: Optional[Tuple[int, int]] = None, level: str = "graph",
                 cap_cover: int = DEFAULT_COVER_SIZE_CAP,
                 cap_vertices: int = DEFAULT_VERTEX_CAP, fmt: str = "json",
                 out: Optional[str] = None):
        if command not in _COMMANDS:
            raise ValueError(f"unknown command {command!r}")
        if fmt not in _COMMANDS[command][1]:
            raise ValueError(f"{command} does not offer --format {fmt!r}")
        if cap_cover < 1 or cap_vertices < 1:
            raise ValueError("caps must be positive")
        if level not in LEVELS:
            raise ValueError(f"level must be one of {LEVELS}")
        self.command = command
        self.input = input
        self.input_b = input_b
        self.n = n
        self.n_range = n_range
        self.level = level
        self.cap_cover = cap_cover
        self.cap_vertices = cap_vertices
        self.fmt = fmt
        self.out = out


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


def _emit_error(exc: Exception) -> int:
    if not isinstance(exc, TopocertError):
        exc = TopocertError(str(exc))
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


def _graph_of_input(config: RunConfig):
    loaded = load_input(config.input)
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


def _validate(config: RunConfig):
    try:
        return {"valid": True, **space_json(load_space(config.input))}, 0
    except TopologyError as exc:
        return {"valid": False, "error": exc.report()}, _EXIT_NEGATIVE


def _hclasses(config: RunConfig):
    loaded = load_input(config.input)
    return partition_json(_partition_of_input(config.input, loaded)), 0


def _graph(config: RunConfig):
    g = _graph_of_input(config)
    return (to_dot(g) if config.fmt == "dot" else graph_json(g)), 0


def _cstar(config: RunConfig):
    return {"blocks": list(block_decomposition(_graph_of_input(config)))}, 0


def _ktheory(config: RunConfig):
    return k_theory(_graph_of_input(config)).to_json(), 0


def _prim(config: RunConfig):
    return prim_space(_graph_of_input(config), config.cap_vertices).to_json(), 0


def _pg(config: RunConfig):
    fs, ex = _fingerprints_of_file(config.input, load_input(config.input), config)
    return {**fs.to_json(), "exhaustive": ex}, 0


def _compare(config: RunConfig):
    loaded_a, loaded_b = load_input(config.input), load_input(config.input_b)
    fs_a, ex_a = _fingerprints_of_file(config.input, loaded_a, config)
    fs_b, ex_b = _fingerprints_of_file(config.input_b, loaded_b, config)
    match = sets_match(fs_a, fs_b)
    return ({"match": match, "exhaustive": ex_a and ex_b, "a": fs_a.to_json(),
             "b": fs_b.to_json()}, 0 if match else _EXIT_NEGATIVE)


def _certify(config: RunConfig):
    loaded_a, loaded_b = load_input(config.input), load_input(config.input_b)
    if config.n is not None and config.n_range is not None:
        raise TopocertError("give --n or --n-range, not both")
    side_a = _side_of_input("a", config.input, loaded_a)
    side_b = _side_of_input("b", config.input_b, loaded_b)
    n_range = config.n_range or ((1, config.cap_cover) if config.n is None
                                 else (config.n, config.n))
    cert = nonhomeo_certificate(side_a, side_b, n_range, config.level,
                                config.cap_cover, config.cap_vertices)
    if cert is None:
        return {"certificate": None, "searched_n": list(n_range),
                "level": config.level}, _EXIT_NEGATIVE
    return cert.to_json(), 0


def _enumerate(config: RunConfig):
    loaded = load_input(config.input)
    if loaded.kind == "space":
        covers = [cover_json(c)["members"]
                  for c in enumerate_covers(loaded.space, config.n)]
        return {"covers": covers, "count": len(covers)}, 0
    if loaded.kind == "domain":
        if config.n is None:
            raise ParseError(config.input, "domain enumeration needs --n")
        types = [partition_json(p) for p in enumerate_interval_cover_types(
            loaded.domain, config.n, config.cap_cover)]
        return {"types": types, "count": len(types)}, 0
    raise ParseError(config.input, "enumerate needs a space or a bare domain")


# each command's flags beyond --input, the caps, --format and --out, in the
# parser's order; the formats it offers, the default first; and its handler,
# which reads every input before any other check and returns (document or DOT
# text, exit code)
_COMMANDS = {
    "validate": ((), ("json",), _validate),
    "hclasses": ((), ("json", "text"), _hclasses),
    "graph": ((), ("json", "dot"), _graph),
    "cstar": ((), ("json", "text"), _cstar),
    "ktheory": ((), ("json", "text"), _ktheory),
    "prim": ((), ("json", "text"), _prim),
    "pg": (("n", "level"), ("json", "text"), _pg),
    "compare": (("input_b", "n", "level"), ("json", "text"), _compare),
    "certify": (("input_b", "n", "n_range", "level"), ("json",), _certify),
    "enumerate": (("n",), ("json",), _enumerate),
}


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit code."""
    try:
        result, code = _COMMANDS[config.command][2](config)
        _emit(config, result if isinstance(result, str) else _render(config, result))
    except (TopocertError, ValueError) as exc:
        return _emit_error(exc)
    return code


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
    parser = _Parser(prog="topocert", description=(
        "Open-cover invariants and non-homeomorphism certificates."))
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    cap_cover = _env_cap("TOPOCERT_CAP_COVER", DEFAULT_COVER_SIZE_CAP)
    cap_vertices = _env_cap("TOPOCERT_CAP_VERTICES", DEFAULT_VERTEX_CAP)
    for name, (flags, formats, _) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--input", required=True)
        for flag in flags:
            p.add_argument("--" + flag.replace("_", "-"), **_FLAGS[flag])
        p.add_argument("--cap-cover", type=int, default=cap_cover)
        p.add_argument("--cap-vertices", type=int, default=cap_vertices)
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
        fields = vars(build_parser().parse_args(argv))
        fields["n_range"] = _parse_n_range(fields.get("n_range"))
        config = RunConfig(**fields)
    except (TopocertError, ValueError) as exc:
        sys.exit(_emit_error(exc))
    sys.exit(run(config))


if __name__ == "__main__":
    main()
