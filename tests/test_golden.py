"""Golden CLI outputs: the exit code and the sha256 of stdout and stderr of
each call in ``CALLS``, recorded in ``golden_outputs.json``.

Every call runs ``topocert.cli.main`` in process from the repository root
with relative ``fixtures/...`` paths, so that file names in error messages
do not depend on where the checkout lives.  After a change that alters an
output on purpose, regenerate the file from the repository root with:

    PYTHONPATH=src:tests python3 -c "import test_golden; test_golden.regenerate()"

and say in the change which calls moved and why.
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
    # a far larger exponent is refused as fast, before 10**exponent is built
    + ["pg --input fixtures/errors/exponent_far_past_digit_limit.json"]  # exit 3
    + ["hclasses --input fixtures/errors/uncovered_point.json"]  # NotACover, exit 5
    + ["enumerate --input fixtures/errors/circle_domain.json --n 2",  # exit 1
       "certify --input fixtures/segment_cover_first.json"
       " --input-b fixtures/circle_cover.json",  # NotExhaustible, exit 1
       "pg --input fixtures/chain_4.json --format dot",  # bad flag, exit 1
       "pg --input fixtures/chain_4.json --n 0",  # bad value, exit 1
       "certify --input fixtures/chain_3.json --input-b fixtures/chain_4.json"
       " --n 2 --n-range 3..4",  # both sizes given, exit 1
       "pg --input fixtures/line_witness_covers.json --n 0",  # the same, exit 1
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
    "compare --input fixtures/chain_3.json --input-b fixtures/chain_3.json --n 2",
    "compare --input fixtures/plane_cover.json"
    " --input-b fixtures/line_domain.json --n 4",  # exit 2
    "compare --input fixtures/segment_cover_first.json"
    " --input-b fixtures/segment_domain.json --n 4 --format text",  # exit 2
    "certify --input fixtures/segment_domain.json"
    " --input-b fixtures/line_domain.json --n-range 1..3",  # exit 2
    "certify --input fixtures/circle_cover.json"
    " --input-b fixtures/three_point_model.json --n-range 4..4",
    # exit 2 at once: no size past a space's nonempty opens is searched
    "certify --input fixtures/chain_3.json"
    " --input-b fixtures/chain_3.json --n-range 1..100000000000",
    "hclasses --input fixtures/line_witness_covers.json",  # several covers, exit 3
    "hclasses --input fixtures/plane_cover.json --format text",
    "enumerate --input fixtures/chain_3.json",
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
# a graph file that carries one label per vertex, and one whose labels are
# too few (ParseError, exit 3)
_LABELLED_GRAPH_CALLS = [
    "graph --input fixtures/labelled_graph.json",
    "graph --input fixtures/labelled_graph.json --format dot",
    "graph --input fixtures/errors/labels_short.json",
]

CALLS = (
    _README_CERTIFY
    + [f"pg --input fixtures/{space}.json --level {level}"
       for space in ("chain_4", "six_point_space")
       for level in ("graph", "cstar", "ktheory")]
    + [f"enumerate --input fixtures/{domain}.json --n {n}"
       for domain in ("segment_domain", "line_domain") for n in range(1, 5)]
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
    + _FRONT_DOOR_CALLS
    + _LABELLED_GRAPH_CALLS
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


def regenerate() -> None:
    for name in ("TOPOCERT_CAP_COVER", "TOPOCERT_CAP_VERTICES"):
        os.environ.pop(name, None)
    os.chdir(ROOT)
    doc = {call: run_call(call) for call in CALLS}
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_lists_exactly_the_calls(golden):
    assert sorted(golden) == sorted(CALLS)


@pytest.mark.parametrize("call", CALLS)
def test_output_is_unchanged(call, golden, monkeypatch):
    monkeypatch.delenv("TOPOCERT_CAP_COVER", raising=False)
    monkeypatch.delenv("TOPOCERT_CAP_VERTICES", raising=False)
    monkeypatch.chdir(ROOT)
    assert run_call(call) == golden[call]
