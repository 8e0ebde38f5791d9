"""Command-line front end.

``run(argv)`` is the one way into a command, from the shell (``main``) and
from a library caller alike: ``run(["pg", "--input", "space.json"])`` parses
the command line and returns the exit code.  ``_COMMANDS`` is the one table
of commands (validate, hclasses, graph, cstar, ktheory, prim, pg, compare,
certify, enumerate): each one's flags, formats and handler.  Outputs are
deterministic; every failure is reported on stderr as
``{"error": exc.report()}`` (kind, message and the error's extra fields)
and ends with the error's ``exit_code``:

  0  success
  2  negative result (invalid topology / sets differ / nothing certifiable)
  3  ParseError   4 CapExceeded   5 NotACover
  1  any other error
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

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
from .hasse import class_members, hasse_digraph, hpartition_of_cover
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


def _cap(given: Optional[int], name: str, fallback: int) -> int:
    """``given`` if the flag was given, else the environment variable
    ``name``, else ``fallback``; a variable that is not a positive integer
    is a ParseError even when the flag is given."""
    raw = os.environ.get(name)
    value = fallback
    if raw is not None:
        try:
            value = int(raw)
        except ValueError:
            value = 0
        if value < 1:
            raise ParseError(name, f"not a positive integer: {raw!r}")
    return value if given is None else given


def _emit(args, text: str) -> None:
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
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


def _graph_of_input(args):
    """(graph, vertex labels) of the input: a graph file's own labels, if it
    has them, or the member indices of each class of a cover."""
    loaded = load_input(args.input)
    if loaded.kind == "graph":
        # a graph file's n is not bounded by its size
        if loaded.graph.n > args.cap_vertices:
            raise CapExceeded("graph input vertices", args.cap_vertices,
                              loaded.graph.n)
        return loaded.graph, loaded.vertex_labels
    partition = _partition_of_input(args.input, loaded)
    n = partition.member_count
    return (hasse_digraph(partition),
            tuple(class_members(c, n) for c in partition.classes))


def _side_of_input(name: str, path: str, loaded):
    if loaded.kind == "space":
        return SpaceSide(name=name, space=loaded.space)
    if loaded.kind == "domain":
        return DomainSide(name=name, domain=loaded.domain)
    if loaded.kind == "covers":
        return WitnessSide(name=name, covers=loaded.specs)
    raise ParseError(path, f"cannot fingerprint a {loaded.kind} input")


def _fingerprints_of_file(path: str, loaded, args):
    """(set, exhaustive) of one pg/compare input at ``args.n``."""
    if args.n is None and loaded.kind == "domain":
        raise ParseError(path, "domain inputs need --n")
    side = _side_of_input(path, path, loaded)
    fs, _ = side.fingerprints(args.n, args.level, args.cap_cover,
                              args.cap_vertices)
    return fs, side.exhaustive


def _validate(args):
    try:
        return {"valid": True, **space_json(load_space(args.input))}, 0
    except TopologyError as exc:
        return {"valid": False, "error": exc.report()}, _EXIT_NEGATIVE


def _hclasses(args):
    loaded = load_input(args.input)
    return partition_json(_partition_of_input(args.input, loaded)), 0


def _graph(args):
    g, labels = _graph_of_input(args)
    return (to_dot(g, labels) if args.fmt == "dot" else graph_json(g, labels)), 0


def _cstar(args):
    return {"blocks": list(block_decomposition(_graph_of_input(args)[0]))}, 0


def _ktheory(args):
    return k_theory(_graph_of_input(args)[0]).to_json(), 0


def _prim(args):
    return prim_space(_graph_of_input(args)[0], args.cap_vertices).to_json(), 0


def _pg(args):
    fs, ex = _fingerprints_of_file(args.input, load_input(args.input), args)
    return {**fs.to_json(), "exhaustive": ex}, 0


def _compare(args):
    loaded_a, loaded_b = load_input(args.input), load_input(args.input_b)
    fs_a, ex_a = _fingerprints_of_file(args.input, loaded_a, args)
    fs_b, ex_b = _fingerprints_of_file(args.input_b, loaded_b, args)
    match = sets_match(fs_a, fs_b)
    return ({"match": match, "exhaustive": ex_a and ex_b, "a": fs_a.to_json(),
             "b": fs_b.to_json()}, 0 if match else _EXIT_NEGATIVE)


def _certify(args):
    loaded_a, loaded_b = load_input(args.input), load_input(args.input_b)
    if args.n_range is None:
        n_range = (1, args.cap_cover) if args.n is None else (args.n, args.n)
    else:
        try:
            bounds = [int(p) for p in args.n_range.replace("..", ":").split(":")]
        except ValueError:
            bounds = []
        if len(bounds) not in (1, 2):
            raise ValueError(f"bad --n-range: {args.n_range!r}")
        if args.n is not None:
            raise TopocertError("give --n or --n-range, not both")
        n_range = bounds[0], bounds[-1]
    side_a = _side_of_input("a", args.input, loaded_a)
    side_b = _side_of_input("b", args.input_b, loaded_b)
    cert = nonhomeo_certificate(side_a, side_b, n_range, args.level,
                                args.cap_cover, args.cap_vertices)
    if cert is None:
        return {"certificate": None, "searched_n": list(n_range),
                "level": args.level}, _EXIT_NEGATIVE
    return cert.to_json(), 0


def _enumerate(args):
    loaded = load_input(args.input)
    if loaded.kind == "space":
        covers = [cover_json(c)["members"]
                  for c in enumerate_covers(loaded.space, args.n)]
        return {"covers": covers, "count": len(covers)}, 0
    if loaded.kind == "domain":
        if args.n is None:
            raise ParseError(args.input, "domain enumeration needs --n")
        types = [partition_json(p) for p in enumerate_interval_cover_types(
            loaded.domain, args.n, args.cap_cover)]
        return {"types": types, "count": len(types)}, 0
    raise ParseError(args.input, "enumerate needs a space or a bare domain")


# each command's flags beyond --input, the caps, --format and --out, in the
# parser's order; the formats it offers, the default first; and its handler,
# which takes the parsed flags of its own row, reads every input before any
# other check and returns (document or DOT text, exit code)
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


def run(argv=None) -> int:
    """Parse one command line (``sys.argv[1:]`` when None) and execute it;
    returns the process exit code.  ``--help`` and ``--version`` leave
    through argparse's SystemExit(0)."""
    try:
        args = build_parser().parse_args(argv)
        args.cap_cover = _cap(args.cap_cover, "TOPOCERT_CAP_COVER",
                              DEFAULT_COVER_SIZE_CAP)
        args.cap_vertices = _cap(args.cap_vertices, "TOPOCERT_CAP_VERTICES",
                                 DEFAULT_VERTEX_CAP)
        if args.cap_cover < 1 or args.cap_vertices < 1:
            raise ValueError("caps must be positive")
        result, code = _COMMANDS[args.command][2](args)
        _emit(args, result if isinstance(result, str) else _render(args, result))
    except (TopocertError, ValueError) as exc:
        return _emit_error(exc)
    return code


def _render(args, doc: dict) -> str:
    return _text_render(doc) if args.fmt == "text" else dumps(doc)


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
    """Raises a bad command line as an error, which ``run`` reports as JSON
    with exit 1, in place of argparse's usage text and exit 2, which means a
    negative result here."""

    def error(self, message):
        raise TopocertError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="topocert", description=(
        "Open-cover invariants and non-homeomorphism certificates."))
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (flags, formats, _) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--input", required=True)
        for flag in flags:
            p.add_argument("--" + flag.replace("_", "-"), **_FLAGS[flag])
        p.add_argument("--cap-cover", type=int)
        p.add_argument("--cap-vertices", type=int)
        p.add_argument("--format", dest="fmt", choices=formats, default=formats[0])
        p.add_argument("--out")
    return parser


def main(argv=None) -> None:
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
