"""Golden CLI outputs: the exit code and the sha256 of stdout and stderr of
each call in ``CALLS``, recorded in ``golden_outputs.json``.

Every call runs ``topocert.cli.main`` in process from the repository root
with relative ``fixtures/...`` paths, so that file names in error messages
do not depend on where the checkout lives.  After a change that alters an
output on purpose, regenerate the file from the repository root with:

    PYTHONPATH=src:tests python3 -c "import test_golden; test_golden.regenerate()"

It prints each call whose exit code or digests moved, and each call added
or dropped; say in the change which calls moved and why.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from topocert.cli import main

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden_outputs.json"

_README_CERTIFY = [
    "certify --input fixtures/segment_domain.json"
    " --input-b fixtures/circle_cover.json --n-range 4..4",
    "certify --input fixtures/line_domain.json"
    " --input-b fixtures/plane_cover.json --n-range 4..4",
    "certify --input fixtures/line_witness_covers.json"
    " --input-b fixtures/three_point_model.json --n-range 7..7 --level cstar",
]
_COVERS = ["segment_cover_first", "segment_cover_second", "segment_cover_third",
           "circle_cover", "plane_cover"]
_SPACES = ["chain_2", "chain_3", "chain_4", "sierpinski", "three_point_model",
           "trivial_space"]
# one call per error kind and exit path the CLI can reach; the inputs are
# under fixtures/errors/
_INVALID_TOPOLOGIES = ["duplicate_point", "unknown_point", "missing_empty",
                       "missing_whole", "not_closed_under_union",
                       "not_closed_under_intersection"]
_ERROR_CALLS = (
    [f"{command} --input fixtures/errors/cycle_3.json"  # NotAcyclic, exit 1
     for command in ("cstar", "prim")]
    + ["graph --input fixtures/errors/graph_41.json"]  # CapExceeded, exit 4
    + [f"validate --input fixtures/errors/{space}.json"  # exit 2
       for space in _INVALID_TOPOLOGIES]
    + [f"hclasses --input fixtures/errors/{cover}.json"  # ParseError, exit 3
       for cover in ("empty_member", "member_outside_segment",
                     "unknown_cover_point", "closed_lo_string", "domain_string",
                     "members_string", "members_numbers", "covers_object",
                     "covers_number_item", "lo_positive_inf", "hi_negative_inf",
                     "exponent_past_digit_limit")]
    # a far larger exponent is refused by its spelling, as fast
    + ["pg --input fixtures/errors/exponent_far_past_digit_limit.json"]  # exit 3
    + ["hclasses --input fixtures/errors/uncovered_point.json"]  # NotACover, exit 5
    # an empty "covers" list, an unbounded segment end, a closed end on the
    # line and on the circle, and an unbounded arc end: ParseError, exit 3
    + [f"hclasses --input fixtures/errors/{cover}.json"
       for cover in ("covers_empty", "segment_unbounded_end", "line_closed_end",
                     "circle_closed_end", "circle_unbounded_end")]
    + ["enumerate --input fixtures/errors/circle_domain.json --n 2",  # exit 1
       "certify --input fixtures/segment_cover_first.json"
       " --input-b fixtures/circle_cover.json",  # NotExhaustible, exit 1
       "pg --input fixtures/chain_4.json --format dot",  # bad flag, exit 1
       "pg --input fixtures/chain_4.json --n 0",  # bad value, exit 1
       "certify --input fixtures/chain_3.json --input-b fixtures/chain_4.json"
       " --n 2 --n-range 3..4",  # certify has no --n, exit 1
       "pg --input fixtures/line_witness_covers.json --n 0",  # the same, exit 1
       "pg --input fixtures/line_domain.json --n 0",  # the same, exit 1
       "graph --input fixtures/errors/edges_object.json",  # ParseError, exit 3
       "pg --input fixtures/segment_gap.json",  # NotACover, exit 5
       "validate --input fixtures/errors/no_such_file.json"]  # ParseError, exit 3
)
# every kind of input as a comparison side, text output, a search that finds
# nothing and the inputs a command refuses
_SIDE_CALLS = [
    "pg --input fixtures/line_witness_covers.json --level cstar",
    "pg --input fixtures/line_witness_covers.json --n 7 --format text",
    "pg --input fixtures/plane_cover.json",
    "pg --input fixtures/circle_cover.json --level ktheory",
    "pg --input fixtures/segment_domain.json --n 3",
    "pg --input fixtures/line_domain.json",  # a domain needs --n, exit 3
    "enumerate --input fixtures/line_domain.json",  # the same, exit 3
    "compare --input fixtures/chain_3.json --input-b fixtures/chain_3.json --n 2",
    "compare --input fixtures/plane_cover.json"
    " --input-b fixtures/line_domain.json --n 4",  # exit 2
    "compare --input fixtures/segment_cover_first.json"
    " --input-b fixtures/segment_domain.json --n 4 --format text",  # exit 2
    "certify --input fixtures/segment_domain.json"
    " --input-b fixtures/line_domain.json --n-range 1..3",  # exit 2
    "certify --input fixtures/circle_cover.json"
    " --input-b fixtures/three_point_model.json --n-range 4..4",
    # a segment cover as the witness, with a closed left end
    "certify --input fixtures/segment_cover_first.json"
    " --input-b fixtures/sierpinski.json --n-range 4..4",
    # exit 2 at once: no size past a space's nonempty opens is searched
    "certify --input fixtures/chain_3.json"
    " --input-b fixtures/chain_3.json --n-range 1..100000000000",
    "hclasses --input fixtures/line_witness_covers.json",  # several covers, exit 3
    "hclasses --input fixtures/plane_cover.json --format text",
    "enumerate --input fixtures/chain_3.json",
    # listings sorted by (size, members): of every size, which the cover
    # walk meets in another order, and of one size on a larger space
    "enumerate --input fixtures/three_point_model.json",
    "enumerate --input fixtures/six_point_space.json --n 3",
    "enumerate --input fixtures/plane_cover.json",  # exit 3
    "graph --input fixtures/line_domain.json",  # exit 3
]
# the algebra levels on finite spaces, whose keys come from the block picture
_ALGEBRA_LEVEL_CALLS = [
    "pg --input fixtures/six_point_space.json --n 3 --level cstar",
    "pg --input fixtures/sierpinski.json --level ktheory",
    "certify --input fixtures/six_point_space.json"
    " --input-b fixtures/three_point_model.json --n-range 1..3 --level cstar",
]
# graph files the block picture does not cover: a complete digraph, whose K0
# has torsion, a cycle, whose K1 is free, and an edgeless graph, whose
# adjacency matrix has no non-sink column
_GENERAL_ALGEBRA_CALLS = [
    "ktheory --input fixtures/complete_3.json",
    "ktheory --input fixtures/errors/cycle_3.json",
] + [f"{command} --input fixtures/antichain_3.json"
     for command in ("cstar", "ktheory", "prim")]
# an acyclic graph file whose every edge goes down, so no order by index is
# topological: the diamond 3 -> {1, 2} -> 0, without labels
_DOWNWARD_DAG_CALLS = [
    f"{command} --input fixtures/downward_dag.json"
    for command in ("cstar", "prim", "ktheory", "graph --format dot")
]
# a finite-space cover whose members are listed out of the space's order,
# whose classes have several members and whose Hasse digraph has edges
_SPACE_COVER_CALLS = [
    f"{command} --input fixtures/chain_3_cover.json"
    for command in ("hclasses", "graph", "graph --format dot")
]
# command lines the parser refuses: a flag outside the command's row, in the
# last two calls with a value the command would otherwise ignore, and a cap
# below 1; all exit 1
_FRONT_DOOR_CALLS = [
    "pg --input fixtures/chain_3.json --n-range 9..9",
    "validate --input fixtures/chain_3.json --n 7 --level cstar",
    "pg --input fixtures/chain_4.json --cap-cover 0",
]
# argparse's own refusals, whose messages name the count parser and list the
# levels, all exit 1; and the no-op call, exit 0
_PARSER_CALLS = [
    "pg --input fixtures/chain_4.json --n x",
    "pg --input fixtures/chain_4.json --level nope",
    "cstar --input fixtures/downward_dag.json --cap-vertices x",
    "--version",
]
# a graph file that carries one label per vertex, and one whose labels are
# too few (ParseError, exit 3)
_LABELLED_GRAPH_CALLS = [
    "graph --input fixtures/labelled_graph.json",
    "graph --input fixtures/labelled_graph.json --format dot",
    "graph --input fixtures/errors/labels_short.json",
]
# the caps and cover sizes each command takes.  Exit 1: a cap outside the
# command's row, --n or a bare size on certify, a prefix of a flag and a
# malformed --n-range.  Exit 4: a cap in the row, on small inputs.
_CAP_AND_SIZE_CALLS = [
    "validate --input fixtures/chain_3.json --cap-cover 3",
    "hclasses --input fixtures/segment_cover_first.json --cap-vertices 1",
    "cstar --input fixtures/segment_cover_first.json --cap-cover 1",
    "enumerate --input fixtures/line_domain.json --n 2 --cap-vertices 1",
    "certify --input fixtures/chain_3.json --input-b fixtures/chain_4.json --n 2",
    "certify --input fixtures/chain_3.json --input-b fixtures/chain_4.json"
    " --n-range 2",
    "pg --input fixtures/chain_4.json --lev cstar",
    "certify --input fixtures/chain_3.json --input-b fixtures/chain_4.json"
    " --n-range x..y",
    "prim --input fixtures/segment_cover_first.json --cap-vertices 1",
    "ktheory --input fixtures/antichain_3.json --cap-vertices 2",
    "enumerate --input fixtures/line_domain.json --n 2 --cap-cover 1",
    "compare --input fixtures/chain_3.json --input-b fixtures/line_domain.json"
    " --n 2 --cap-cover 1",
    "certify --input fixtures/chain_3.json --input-b fixtures/chain_4.json"
    " --n-range 2..2 --cap-vertices 1",
]
# a cover whose Hasse digraph has 41 vertices, one past the default cap,
# and the same call with the cap raised; a 12-class cover over a cap of 5
# for each command that caps a cover's classes (exit 4)
_OVER_CAP_COVER_CALLS = [
    "ktheory --input fixtures/line_chain_cover.json",
    "ktheory --input fixtures/line_chain_cover.json --cap-vertices 1000",
] + [f"{command} --input fixtures/plane_cover.json --cap-vertices 5"
     for command in ("pg", "ktheory", "prim")]
# spellings at the input boundary.  Exit 3: a rational end written as a
# decimal, with a space or with a non-ASCII digit, a numerator past the digit
# limit and points that are not strings.  Exit 1: counts written with a sign,
# a non-ASCII digit or an underscore; a leading zero is read (exit 0).
_SPELLING_CALLS = (
    [f"hclasses --input fixtures/errors/{cover}.json"
     for cover in ("decimal_end", "spaced_inf", "unicode_digit", "long_numerator")]
    + ["validate --input fixtures/errors/points_not_strings.json"]
    + [f"pg --input fixtures/chain_4.json --n {n}" for n in ("+2", "٢", "02")]
    + ["graph --input fixtures/chain_3_cover.json --cap-vertices 4_0",
       "certify --input fixtures/chain_3.json --input-b fixtures/chain_4.json"
       " --n-range 1_0..1_0"]
)
# a point inside "opens", "subbasis" or "cover" that is not a JSON string:
# a number spelling a point of the space, and a boolean
_POINT_ITEM_CALLS = (
    [f"validate --input fixtures/errors/{space}.json"
     for space in ("opens_number_item", "subbasis_number_item")]
    + [f"hclasses --input fixtures/errors/{cover}.json"
       for cover in ("cover_number_item", "cover_boolean_item")]
)
# an end that is refused after the same value was read in an earlier cover,
# as the integer 1 or the string "1": the boolean true and the float 1.0
# equal 1 and hash alike, and still exit 3 as "not a rational"; and equal
# ends spelled "1/2" and "2/4", which make members 0 and 2 one set (exit 3)
_REPEATED_END_CALLS = (
    [f"pg --input fixtures/errors/{cover}.json"
     for cover in ("one_then_true", "one_string_then_true",
                   "one_then_float", "one_string_then_float")]
    + ["hclasses --input fixtures/errors/equal_ends_spelled_apart.json"]
)
# plane covers: an empty region; the first bad region wins, whether it is
# empty (EmptyMember) or has a bad var or op (InvalidArrangement), all exit
# 3; a cover that leaves a point uncovered (NotACover, exit 5); and a region
# spelled two ways, as x<1 and as x<1, x<2, which is accepted (exit 0)
_PLANE_CALLS = [
    f"hclasses --input fixtures/errors/plane_{cover}.json"
    for cover in ("empty_member", "empty_then_bad_var", "bad_op_then_empty",
                  "uncovered_point", "repeated_region")
]

CALLS = (
    _README_CERTIFY
    + [f"pg --input fixtures/{space}.json --level {level}"
       for space in ("chain_4", "six_point_space")
       for level in ("graph", "cstar", "ktheory")]
    + [f"enumerate --input fixtures/{domain}.json --n {n}"
       for domain in ("segment_domain", "line_domain") for n in range(1, 5)]
    + ["enumerate --input fixtures/line_domain.json --n 5"]  # about 2 s
    + [f"{command} --input fixtures/{cover}.json"
       for cover in _COVERS
       for command in ("hclasses", "graph", "graph --format dot", "cstar",
                       "ktheory", "prim")]
    + [f"validate --input fixtures/{space}.json" for space in _SPACES]
    + ["hclasses --input fixtures/segment_gap.json",  # NotACover, exit 5
       "graph --input fixtures/no_such_file.json"]  # ParseError, exit 3
    + _ERROR_CALLS
    + _SIDE_CALLS
    + _ALGEBRA_LEVEL_CALLS
    + _SPACE_COVER_CALLS
    + _GENERAL_ALGEBRA_CALLS
    + _DOWNWARD_DAG_CALLS
    + _FRONT_DOOR_CALLS
    + _PARSER_CALLS
    + _LABELLED_GRAPH_CALLS
    + _CAP_AND_SIZE_CALLS
    + _OVER_CAP_COVER_CALLS
    + _SPELLING_CALLS
    + _POINT_ITEM_CALLS
    + _REPEATED_END_CALLS
    + _PLANE_CALLS
)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_call(call: str) -> dict:
    """Exit code and output digests of one call, run from the repo root."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(call.split())
            code = 0
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": _digest(out.getvalue()),
            "stderr": _digest(err.getvalue())}


def moved(old: dict, new: dict) -> list:
    """One line per call whose record differs between two golden files,
    sorted by call: its exit code and digest prefixes before and after,
    "absent" on the side that does not list it."""
    def brief(record):
        if record is None:
            return "absent"
        return (f"exit {record['exit']} stdout {record['stdout'][:8]}"
                f" stderr {record['stderr'][:8]}")
    return [f"{call}: {brief(old.get(call))} -> {brief(new.get(call))}"
            for call in sorted(old.keys() | new.keys())
            if old.get(call) != new.get(call)]


def regenerate() -> None:
    os.chdir(ROOT)
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    doc = {call: run_call(call) for call in CALLS}
    for line in moved(old, doc):
        print(line)
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_lists_exactly_the_calls(golden):
    assert sorted(golden) == sorted(CALLS)


def test_moved_names_each_changed_added_and_dropped_call():
    same = {"exit": 0, "stdout": "a" * 64, "stderr": "b" * 64}
    old = {"kept": same, "exit moved": same, "stdout moved": same, "dropped": same}
    new = {"kept": same, "exit moved": {**same, "exit": 2},
           "stdout moved": {**same, "stdout": "c" * 64}, "added": same}
    record = "exit 0 stdout aaaaaaaa stderr bbbbbbbb"
    assert moved(old, new) == [
        f"added: absent -> {record}",
        f"dropped: {record} -> absent",
        f"exit moved: {record} -> exit 2 stdout aaaaaaaa stderr bbbbbbbb",
        f"stdout moved: {record} -> exit 0 stdout cccccccc stderr bbbbbbbb",
    ]


@pytest.mark.parametrize("call", CALLS)
def test_output_is_unchanged(call, golden, monkeypatch):
    # the caps are read from the command line only, so hostile variables
    # change nothing
    monkeypatch.setenv("TOPOCERT_CAP_COVER", "1")
    monkeypatch.setenv("TOPOCERT_CAP_VERTICES", "x")
    monkeypatch.chdir(ROOT)
    assert run_call(call) == golden[call]
