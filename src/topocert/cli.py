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

A call loads only what it runs: this module imports ``errors`` alone, and
each handler imports the layers it uses, so ``--version``, ``--help`` and a
refused command line compile no graph, fingerprint or certificate code.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Optional

from . import __version__
from .errors import DEFAULT_COVER_SIZE_CAP, DEFAULT_VERTEX_CAP, LEVELS
from .errors import ParseError, TopocertError, TopologyError


def __getattr__(name: str):
    # the benchmark's tests read ``cli.fingerprint_of``: it is the
    # fingerprints module's binding when it is read
    if name == "fingerprint_of":
        from .fingerprints import fingerprint_of

        return fingerprint_of
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def parse_count(text: str) -> int:
    """A count on the command line: ASCII digits only, so that each value
    has one spelling."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a count: {text!r}")
    return int(text)


_EXIT_NEGATIVE = 2
_FLAGS = {
    "input_b": dict(required=True),
    "n": dict(type=parse_count),
    "n_range": dict(help="inclusive range, e.g. 4..4"),
    "level": dict(choices=list(LEVELS), default="graph"),
    "cap_cover": dict(type=parse_count, default=DEFAULT_COVER_SIZE_CAP),
    "cap_vertices": dict(type=parse_count, default=DEFAULT_VERTEX_CAP),
}


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
    from .jsonio import dumps

    if not isinstance(exc, TopocertError):
        exc = TopocertError(str(exc))
    sys.stderr.write(dumps({"error": exc.report()}))
    return exc.exit_code


def _partition_of_input(path: str, loaded):
    if loaded.kind == "space":
        from .hasse import hpartition_of_cover

        if loaded.cover is None:
            raise ParseError(path, 'this command needs a "cover" in the space file')
        return hpartition_of_cover(loaded.cover)
    if loaded.kind == "covers":
        from .arrangements import hclasses_of_spec

        if len(loaded.specs) != 1:
            raise ParseError(path, "this command needs exactly one cover")
        return hclasses_of_spec(loaded.specs[0])
    raise ParseError(path, f"cannot derive a cover from a {loaded.kind} input")


def _graph_of_input(args, capped: Optional[str] = None):
    """(graph, vertex labels) of the input: a graph file's own labels, if it
    has them, or the member indices of each class of a cover.  A cover over
    the vertex cap that ``capped`` names is refused before its graph is built."""
    from .digraphs import check_vertices
    from .jsonio import load_input

    loaded = load_input(args.input)
    if loaded.kind == "graph":
        # a graph file's n is not bounded by its size
        check_vertices(loaded.graph.n, args.cap_vertices, "graph input vertices")
        return loaded.graph, loaded.vertex_labels
    from .hasse import class_members, hasse_digraph

    partition = _partition_of_input(args.input, loaded)
    if capped is not None:
        check_vertices(len(partition.classes), args.cap_vertices, capped)
    n = partition.member_count
    return (hasse_digraph(partition),
            tuple(class_members(c, n) for c in partition.classes))


def _side_of_input(name: str, path: str, loaded):
    from .certificates import DomainSide, SpaceSide, WitnessSide

    if loaded.kind == "space":
        return SpaceSide(name=name, space=loaded.space)
    if loaded.kind == "domain":
        return DomainSide(name=name, domain=loaded.domain)
    if loaded.kind == "covers":
        return WitnessSide(name=name, covers=loaded.specs)
    raise ParseError(path, f"cannot fingerprint a {loaded.kind} input")


def _sized(path: str, loaded, args):
    """``loaded``; a domain has covers of every size, so it needs --n."""
    if args.n is None and loaded.kind == "domain":
        raise ParseError(path, "domain inputs need --n")
    return loaded


def _fingerprints_of_file(path: str, loaded, args):
    """(set, exhaustive) of one pg/compare input at ``args.n``."""
    side = _side_of_input(path, path, _sized(path, loaded, args))
    fs, _ = side.fingerprints(args.n, args.level, args.cap_cover,
                              args.cap_vertices)
    return fs, side.exhaustive


def _validate(args):
    from .jsonio import load_space, space_json

    try:
        return {"valid": True, **space_json(load_space(args.input))}, 0
    except TopologyError as exc:
        return {"valid": False, "error": exc.report()}, _EXIT_NEGATIVE


def _hclasses(args):
    from .jsonio import load_input, partition_json

    loaded = load_input(args.input)
    return partition_json(_partition_of_input(args.input, loaded)), 0


def _graph(args):
    from .digraphs import to_dot
    from .jsonio import graph_json

    g, labels = _graph_of_input(args)
    return (to_dot(g, labels) if args.fmt == "dot" else graph_json(g, labels)), 0


def _cstar(args):
    from .graphalgebra import block_decomposition

    return {"blocks": list(block_decomposition(_graph_of_input(args)[0]))}, 0


def _ktheory(args):
    from .graphalgebra import KTHEORY_VERTICES, k_theory

    g, _ = _graph_of_input(args, KTHEORY_VERTICES)
    return k_theory(g, args.cap_vertices).to_json(), 0


def _prim(args):
    from .graphalgebra import TAILS_VERTICES, prim_space

    g, _ = _graph_of_input(args, TAILS_VERTICES)
    return prim_space(g, args.cap_vertices).to_json(), 0


def _pg(args):
    from .jsonio import load_input

    fs, ex = _fingerprints_of_file(args.input, load_input(args.input), args)
    return {**fs.to_json(), "exhaustive": ex}, 0


def _compare(args):
    from .fingerprints import sets_match
    from .jsonio import load_input

    loaded_a, loaded_b = load_input(args.input), load_input(args.input_b)
    fs_a, ex_a = _fingerprints_of_file(args.input, loaded_a, args)
    fs_b, ex_b = _fingerprints_of_file(args.input_b, loaded_b, args)
    match = sets_match(fs_a, fs_b)
    return ({"match": match, "exhaustive": ex_a and ex_b, "a": fs_a.to_json(),
             "b": fs_b.to_json()}, 0 if match else _EXIT_NEGATIVE)


def _certify(args):
    from .certificates import nonhomeo_certificate
    from .jsonio import load_input

    loaded_a, loaded_b = load_input(args.input), load_input(args.input_b)
    n_range = 1, args.cap_cover
    if args.n_range is not None:
        lo, _, hi = args.n_range.partition("..")
        try:
            n_range = parse_count(lo), parse_count(hi)
        except ValueError:
            raise ValueError(f"bad --n-range: {args.n_range!r}") from None
    side_a = _side_of_input("a", args.input, loaded_a)
    side_b = _side_of_input("b", args.input_b, loaded_b)
    cert = nonhomeo_certificate(side_a, side_b, n_range, args.level,
                                args.cap_cover, args.cap_vertices)
    if cert is None:
        return {"certificate": None, "searched_n": list(n_range),
                "level": args.level}, _EXIT_NEGATIVE
    return cert.to_json(), 0


def _enumerate(args):
    from .jsonio import cover_json, load_input, partition_json

    loaded = _sized(args.input, load_input(args.input), args)
    if loaded.kind == "space":
        from .spaces import enumerate_covers

        # sorted by size, then members, so the listing does not follow the walk
        covers = [cover_json(c)["members"] for c in sorted(
            enumerate_covers(loaded.space, args.n),
            key=lambda c: (len(c.members), c.members))]
        return {"covers": covers, "count": len(covers)}, 0
    if loaded.kind == "domain":
        from .arrangements import enumerate_interval_cover_types

        # sorted, so the listing depends on the types and not on the stream
        types = [partition_json(p) for p in sorted(enumerate_interval_cover_types(
            loaded.domain, args.n, args.cap_cover))]
        return {"types": types, "count": len(types)}, 0
    raise ParseError(args.input, "enumerate needs a space or a bare domain")


# each command's flags beyond --input, --format and --out, in the parser's
# order, and so every flag its handler reads, caps included;
# the formats it offers, the default first; and its handler, which reads
# every input before any other check and returns (document or DOT, exit code)
_COMMANDS = {
    "validate": ((), ("json",), _validate),
    "hclasses": ((), ("json", "text"), _hclasses),
    "graph": (("cap_vertices",), ("json", "dot"), _graph),
    "cstar": (("cap_vertices",), ("json", "text"), _cstar),
    "ktheory": (("cap_vertices",), ("json", "text"), _ktheory),
    "prim": (("cap_vertices",), ("json", "text"), _prim),
    "pg": (("n", "level", "cap_cover", "cap_vertices"), ("json", "text"), _pg),
    "compare": (("input_b", "n", "level", "cap_cover", "cap_vertices"),
                ("json", "text"), _compare),
    "certify": (("input_b", "n_range", "level", "cap_cover", "cap_vertices"),
                ("json",), _certify),
    "enumerate": (("n", "cap_cover"), ("json",), _enumerate),
}


def run(argv=None) -> int:
    """Parse one command line (``sys.argv[1:]`` when None) and execute it;
    returns the process exit code.  ``--help`` and ``--version`` leave
    through argparse's SystemExit(0)."""
    try:
        args = build_parser(_command_of(sys.argv[1:] if argv is None else argv)
                            ).parse_args(argv)
        caps = [f for f in _COMMANDS[args.command][0] if f.startswith("cap_")]
        if any(getattr(args, flag) < 1 for flag in caps):
            raise ValueError("caps must be positive")
        result, code = _COMMANDS[args.command][2](args)
        _emit(args, result if isinstance(result, str) else _render(args, result))
    except (TopocertError, ValueError) as exc:
        return _emit_error(exc)
    return code


def _render(args, doc: dict) -> str:
    from .jsonio import dumps

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


def _command_of(argv) -> Optional[str]:
    """The command a command line names, if any: its first argument that is
    not an option, as the parser, whose own options take no value, reads it."""
    first = next((a for a in argv if not a.startswith("-")), None)
    return first if first in _COMMANDS else None


@functools.cache
def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The command-line parser for a command line that names ``command``,
    built once per process.  Only ``command`` is a choice, with its flags;
    a command line that names none gets every command as a bare choice, so
    that a wrong choice lists them.  Usage and help list every command
    either way."""
    parser = _Parser(prog="topocert", allow_abbrev=False, description=(
        "Open-cover invariants and non-homeomorphism certificates."))
    parser.add_argument("--version", action="version", version=__version__)
    if command is None:  # a missing command is reported by dest, "command"
        sub = parser.add_subparsers(dest="command", required=True)
        for name in _COMMANDS:
            sub.add_parser(name, allow_abbrev=False)
        return parser
    # the metavar argparse writes for all ten choices
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(_COMMANDS) + "}")
    flags, formats, _ = _COMMANDS[command]
    p = sub.add_parser(command, allow_abbrev=False)
    p.add_argument("--input", required=True)
    for flag in flags:
        p.add_argument("--" + flag.replace("_", "-"), **_FLAGS[flag])
    p.add_argument("--format", dest="fmt", choices=formats, default=formats[0])
    p.add_argument("--out")
    return parser


def main(argv=None) -> None:
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
