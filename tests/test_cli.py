import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from topocert.cli import main, run
from topocert.jsonio import parse_fraction
from topocert.fingerprints import LEVELS

from conftest import FIXTURES


def fx(name):
    return str(FIXTURES / name)


def argv_of(command, **kw):
    """The command line giving each keyword that is not None as its flag:
    ``fmt`` as --format, an ``n_range`` pair (lo, hi) as --n-range lo..hi."""
    argv = [command]
    for key, value in kw.items():
        if value is not None:
            if key == "n_range":
                value = "%d..%d" % value
            argv += ["--" + ("format" if key == "fmt" else key.replace("_", "-")),
                     str(value)]
    return argv


def run_cmd(capsys, **kw):
    code = run(argv_of(**kw))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_valid_space(self, capsys):
        code, out, _ = run_cmd(capsys, command="validate", input=fx("chain_3.json"))
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_invalid_topology_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"points": ["a", "b"], "opens": [[], ["a"], ["b"]]}')
        code, out, _ = run_cmd(capsys, command="validate", input=str(bad))
        assert code == 2
        doc = json.loads(out)
        assert doc["valid"] is False
        assert doc["error"]["kind"] == "NotClosedUnderUnion"

    def test_subbasis_file(self, capsys):
        code, out, _ = run_cmd(capsys, command="validate",
                               input=fx("three_point_model.json"))
        assert code == 0
        assert len(json.loads(out)["opens"]) == 8


class TestPipelineCommands:
    def test_graph_dot_single_vertex(self, capsys):
        code, out, _ = run_cmd(capsys, command="graph",
                               input=fx("trivial_space.json"), fmt="dot")
        assert code == 0
        assert out.count("v0") == 1
        assert "->" not in out

    def test_hclasses_on_intervals(self, capsys):
        code, out, _ = run_cmd(capsys, command="hclasses",
                               input=fx("segment_cover_first.json"))
        assert code == 0
        assert len(json.loads(out)["classes"]) == 7

    def test_cstar_blocks(self, capsys):
        code, out, _ = run_cmd(capsys, command="cstar",
                               input=fx("segment_cover_first.json"))
        assert code == 0
        assert json.loads(out)["blocks"] == [3, 3, 3]

    def test_ktheory(self, capsys):
        code, out, _ = run_cmd(capsys, command="ktheory",
                               input=fx("circle_cover.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["k0"]["rank"] == 4 and doc["k1"]["rank"] == 0

    def test_prim_three_discrete_points(self, capsys):
        code, out, _ = run_cmd(capsys, command="prim",
                               input=fx("segment_cover_first.json"))
        assert code == 0
        doc = json.loads(out)
        assert len(doc["points"]) == 3 and doc["order"] == []

    def test_prim_on_plane_single_point(self, capsys):
        # the plane cover's class family has a maximum, hence one sink
        code, out, _ = run_cmd(capsys, command="prim", input=fx("plane_cover.json"))
        assert code == 0
        assert len(json.loads(out)["points"]) == 1

    def test_graph_on_graph_json(self, tmp_path, capsys):
        gdoc = tmp_path / "graph.json"
        gdoc.write_text('{"n": 3, "edges": [[0, 1], [1, 2]]}')
        code, out, _ = run_cmd(capsys, command="cstar", input=str(gdoc))
        assert code == 0
        assert json.loads(out)["blocks"] == [3]

    def test_pg_n1_is_singleton(self, capsys):
        code, out, _ = run_cmd(capsys, command="pg",
                               input=fx("chain_4.json"), n=1)
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 1 and doc["exhaustive"] is True
        assert doc["fingerprints"][0]["blocks"] == [1]


class TestCompareAndCertify:
    def test_compare_equal_spaces(self, capsys):
        code, out, _ = run_cmd(capsys, command="compare",
                               input=fx("chain_3.json"),
                               input_b=fx("chain_3.json"), n=2)
        assert code == 0
        assert json.loads(out)["match"] is True

    def test_compare_unequal_exits_2(self, capsys):
        code, out, _ = run_cmd(capsys, command="compare",
                               input=fx("trivial_space.json"),
                               input_b=fx("chain_3.json"), n=2)
        assert code == 2
        assert json.loads(out)["match"] is False

    def test_certify_segment_vs_circle(self, tmp_path, capsys):
        out_path = tmp_path / "cert.json"
        code, _, _ = run_cmd(capsys, command="certify",
                             input=fx("segment_domain.json"),
                             input_b=fx("circle_cover.json"),
                             n_range=(4, 4), out=str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["verdict"] == "not_homeomorphic"
        assert doc["witness_side"] == "b"

    def test_certify_rejects_n_zero(self, capsys):
        code, out, err = run_cmd(capsys, command="certify",
                                 input=fx("segment_domain.json"),
                                 input_b=fx("circle_cover.json"), n=0)
        assert code == 1 and out == ""
        assert "n_range" in json.loads(err)["error"]["message"]

    def test_certify_refuses_n_with_n_range(self, capsys):
        # a search of --n-range alone once ignored --n and certified at n = 4
        code, out, err = run_cmd(capsys, command="certify",
                                 input=fx("chain_3.json"),
                                 input_b=fx("chain_4.json"), n=2, n_range=(3, 4))
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == {
            "kind": "Error", "message": "give --n or --n-range, not both"}
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--input", fx("chain_3.json"), "--input-b",
                  fx("chain_4.json"), "--n", "2", "--n-range", "3..4"])
        assert exc.value.code == 1
        assert capsys.readouterr().err == err

    def test_certify_nothing_found_exits_2(self, capsys):
        code, out, _ = run_cmd(capsys, command="certify",
                               input=fx("chain_3.json"),
                               input_b=fx("chain_3.json"), n_range=(1, 3))
        assert code == 2
        assert json.loads(out)["certificate"] is None


class TestEnumerate:
    def test_space_covers(self, capsys):
        code, out, _ = run_cmd(capsys, command="enumerate",
                               input=fx("chain_3.json"), n=2)
        assert code == 0
        assert json.loads(out)["count"] == 2

    def test_domain_types(self, capsys):
        code, out, _ = run_cmd(capsys, command="enumerate",
                               input=fx("segment_domain.json"), n=2)
        assert code == 0
        assert json.loads(out)["count"] == 2


def test_import_leaves_out_dataclasses_and_inspect():
    # both cost start-up time on every call; a fresh interpreter shows them
    probe = ("import sys, topocert.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


class TestErrorMapping:
    def test_parse_error_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        code, _, err = run_cmd(capsys, command="hclasses", input=str(bad))
        assert code == 3
        assert json.loads(err)["error"]["kind"] == "ParseError"

    def test_cap_exceeded_exit_4(self, capsys):
        code, _, err = run_cmd(capsys, command="enumerate",
                               input=fx("segment_domain.json"), n=9)
        assert code == 4
        assert json.loads(err)["error"]["kind"] == "CapExceeded"

    def test_not_a_cover_exit_5(self, tmp_path, capsys):
        bad = tmp_path / "gap.json"
        bad.write_text(json.dumps({
            "domain": {"kind": "segment", "lo": "0", "hi": "1"},
            "members": [{"lo": "0", "hi": "1/2", "closed_lo": True}],
        }))
        code, _, err = run_cmd(capsys, command="hclasses", input=str(bad))
        assert code == 5
        assert json.loads(err)["error"]["kind"] == "NotACover"

    def test_a_bad_member_keeps_its_fields(self, capsys):
        for name, fields in (("empty_member", {"index": 0}),
                             ("unknown_cover_point", {"point": "'y'"})):
            path = fx(f"errors/{name}.json")
            code, _, err = run_cmd(capsys, command="hclasses", input=path)
            error = json.loads(err)["error"]
            assert code == 3 and error["kind"] == "ParseError"
            assert error == {**error, "path": path, **fields}

    def test_space_cover_that_misses_a_point_is_not_a_cover(self, capsys):
        code, _, err = run_cmd(capsys, command="hclasses",
                               input=fx("errors/uncovered_point.json"))
        assert code == 5
        assert json.loads(err)["error"] == {
            "kind": "NotACover", "message": "not a cover: point 'b' is uncovered",
            "witness": "point 'b'"}

    def test_interval_file_shape_errors_name_the_field(self, capsys):
        # each used to report a Python detail such as "'str' object has no
        # attribute 'get'", and a string "closed_lo" was read as true
        for name, detail in (
                ("closed_lo_string",
                 "\"closed_lo\" must be a JSON boolean, not 'false'"),
                ("domain_string", '"domain" must be a JSON object'),
                ("members_string", '"members" must be a JSON array'),
                ("members_numbers", 'each member in "members" must be a JSON object'),
                ("covers_object", '"covers" must be a JSON array'),
                ("covers_number_item", 'each item of "covers" must be a JSON array'),
                # an infinite end of the wrong sign used to flip the member
                ("lo_positive_inf", "\"lo\" cannot be 'inf': it is unbounded as"
                 " null or '-inf'"),
                ("hi_negative_inf", "\"hi\" cannot be '-inf': it is unbounded as"
                 " null or 'inf' or '+inf'"),
                ("exponent_past_digit_limit", "rational '1e5000' has a numerator or"
                 f" denominator of more than {sys.get_int_max_str_digits()} digits")):
            code, out, err = run_cmd(capsys, command="hclasses",
                                     input=fx(f"errors/{name}.json"))
            assert (code, out) == (3, "")
            error = json.loads(err)["error"]
            assert (error["kind"], error["detail"]) == ("ParseError", detail)

    def test_rationals_past_the_digit_limit_are_refused(self):
        limit = sys.get_int_max_str_digits()
        for text, value in (("2.5e-3", F(1, 400)), ("-1_0.5E2", F(-1050)),
                            ("0e3000000", F(0)), (f"5e-{limit}", F(1, 2 * 10 ** (limit - 1))),
                            (f"1.5e{limit - 1}", F(15 * 10 ** (limit - 2)))):
            assert parse_fraction(text) == value
        for text in ("1e3000000", "-1e-3000000", f"1.5e{limit}", f"3e-{limit}",
                     "1e" + "9" * (limit + 1), "0." + "1" * limit):
            with pytest.raises(ValueError, match="more than"):
                parse_fraction(text)
        for text in ("e5", ".e5", "1/2e3"):
            with pytest.raises(ValueError, match="not a rational"):
                parse_fraction(text)

    def test_closed_lo_false_is_the_default(self, tmp_path, capsys):
        doc = json.loads((FIXTURES / "errors" / "closed_lo_string.json").read_text())
        outputs = []
        for i, member in enumerate(({"lo": "0", "hi": "1", "closed_lo": False},
                                    {"lo": "0", "hi": "1"})):
            doc["members"][0] = member
            path = tmp_path / f"cover{i}.json"
            path.write_text(json.dumps(doc))
            code, out, _ = run_cmd(capsys, command="hclasses", input=str(path))
            assert code == 0
            outputs.append(json.loads(out)["classes"])
        assert outputs == [[[1], [2], [0, 1], [0, 1, 2]]] * 2

    def test_malformed_corpus_never_crashes(self, tmp_path, capsys):
        corpus = [
            "[]",
            "{}",
            '{"points": []}',
            '{"points": ["a"], "opens": "nope"}',
            '{"points": ["a", "a"], "opens": [[], ["a"]]}',
            '{"domain": {"kind": "torus"}}',
            '{"domain": {"kind": "segment", "lo": "1", "hi": "0"}}',
            '{"domain": {"kind": "segment", "lo": "0", "hi": "1"},'
            ' "members": [{"lo": "zero", "hi": "1"}]}',
            '{"members": [[{"var": "z", "op": "<", "c": "1"}]]}',
            '{"n": 2, "edges": [[0, 5]]}',
            '{"n": "two", "edges": []}',
            '{"n": 3.7, "edges": [[0.9, 1.2], [true, 2]]}',
            '{"n": true, "edges": []}',
            '{"n": 1, "edges": [], "labels": [[1, "a"]]}',
            '{"domain": "line"}',
            '{"domain": {"kind": "line"}, "members": [5]}',
            '{"points": [[1]], "opens": []}',
            '{"points": ["a"], "opens": 5}',
            "[" * 100_000,
            b'{"points": ["\xff"], "opens": []}',
            # a string or an object in place of an array used to be read as
            # its characters or keys, and these passed with exit 0
            '{"points": "ab", "opens": ["", "ab", "a"]}',
            '{"n": 2, "edges": {}}',
            '{"n": 1, "edges": [], "labels": {"": 1}}',
        ]
        for i, text in enumerate(corpus):
            p = tmp_path / f"bad{i}.json"
            if isinstance(text, bytes):
                p.write_bytes(text)
            else:
                p.write_text(text)
            for command in ("validate", "hclasses", "graph", "pg"):
                code = run([command, "--input", str(p)])
                captured = capsys.readouterr()
                assert code != 0
                err_doc = json.loads(captured.err or captured.out)
                assert "error" in err_doc

    def test_sets_in_a_space_file_are_json_arrays(self, tmp_path, capsys):
        # "ab" used to be read as the set {a, b}
        space = '"points": ["a", "b"], "opens": [[], ["a"], ["a", "b"]]'
        for command, text in (("hclasses", '{%s, "cover": ["ab"]}' % space),
                              ("validate", '{"points": ["a"], "subbasis": ["a"]}')):
            p = tmp_path / f"{command}.json"
            p.write_text(text)
            code, out, err = run_cmd(capsys, command=command, input=str(p))
            assert (code, out) == (3, "")
            assert json.loads(err)["error"]["kind"] == "ParseError"

    def test_graph_input_above_the_vertex_cap(self, tmp_path, capsys):
        # a graph file's n costs no bytes, so it is capped before any work
        big = tmp_path / "big.json"
        big.write_text('{"n": 41, "edges": []}')
        for command in ("graph", "cstar", "ktheory", "prim"):
            code, out, err = run_cmd(capsys, command=command, input=str(big))
            assert code == 4 and out == ""
            doc = json.loads(err)["error"]
            assert doc["kind"] == "CapExceeded"
            assert (doc["limit"], doc["requested"]) == (40, 41)
            code, _, _ = run_cmd(capsys, command=command, input=str(big),
                                 cap_vertices=41)
            assert code == 0

    def test_cycles_are_found_without_recursion(self, tmp_path, capsys):
        # a 3000-cycle overflowed the recursive depth-first search
        ring = tmp_path / "ring.json"
        ring.write_text(json.dumps(
            {"n": 3000, "edges": [[i, (i + 1) % 3000] for i in range(3000)]}))
        small = tmp_path / "small.json"
        small.write_text(json.dumps({"n": 6, "edges": [
            [0, 1], [2, 3], [3, 4], [4, 5], [5, 3], [4, 2]]}))
        for command in ("cstar", "prim"):
            code, out, err = run_cmd(capsys, command=command, input=str(ring),
                                     cap_vertices=5000)
            assert code == 1 and out == ""
            doc = json.loads(err)["error"]
            assert doc["kind"] == "NotAcyclic"
            assert doc["cycle"] == list(range(3000))
            code, _, err = run_cmd(capsys, command=command, input=str(small))
            assert code == 1
            assert json.loads(err)["error"]["cycle"] == [2, 3, 4]

    def test_spectrum_certificate_is_bounded_by_the_vertex_cap(self, tmp_path,
                                                               capsys):
        # 45 chained members: an 89-vertex graph, a 44-point spectrum poset
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps({
            "domain": {"kind": "segment", "lo": "0", "hi": "45"},
            "members": [{"lo": "0", "hi": "1", "closed_lo": True}]
            + [{"lo": f"{2 * i - 1}/2", "hi": str(i + 1)} for i in range(1, 45)],
        }))
        for level in LEVELS:
            code, out, err = run_cmd(capsys, command="pg", input=str(chain),
                                     level=level, cap_vertices=100)
            assert code == 0, err
            assert json.loads(out)["fingerprints"][0]["prim"]["points"] == 44
        code, _, err = run_cmd(capsys, command="pg", input=str(chain),
                               level="cstar")
        assert code == 4
        assert json.loads(err)["error"]["requested"] == 89

    def test_topologies_past_the_pair_scan_budget_are_capped(self, tmp_path,
                                                             capsys):
        # 9 discrete points list 512 opens, C(512, 2) pairs; 22 singletons
        # generate 2^22 opens, whose closure rounds pass the same budget
        pts = [f"p{i}" for i in range(9)]
        discrete = tmp_path / "discrete.json"
        discrete.write_text(json.dumps({"points": pts, "opens": [
            [p for j, p in enumerate(pts) if m >> j & 1] for m in range(512)]}))
        singletons = tmp_path / "singletons.json"
        singletons.write_text(json.dumps({
            "points": [f"p{i}" for i in range(22)],
            "subbasis": [[f"p{i}"] for i in range(22)]}))
        for path, what in ((discrete, "pairs of opens to check"),
                           (singletons, "pairs of opens to close")):
            for command in ("validate", "pg"):
                code, out, err = run_cmd(capsys, command=command, input=str(path))
                assert code == 4 and out == ""
                doc = json.loads(err)["error"]
                assert doc["kind"] == "CapExceeded" and doc["what"] == what
                assert doc["limit"] == 2 ** 16 - 1 < doc["requested"]

    def test_missing_file(self, capsys):
        code, _, err = run_cmd(capsys, command="validate", input="no/such/file.json")
        assert code == 3
        assert json.loads(err)["error"]["detail"].startswith("cannot read file:")

    def test_unwritable_out_is_a_json_error(self, tmp_path, capsys):
        for out in (tmp_path, tmp_path / "no_such_dir" / "out.json"):
            code, stdout, err = run_cmd(capsys, command="pg",
                                        input=fx("chain_4.json"), out=str(out))
            assert code == 1 and stdout == ""
            doc = json.loads(err)["error"]
            assert doc["kind"] == "Error"
            assert doc["message"].startswith("cannot write file:")

    def test_bad_n_range_names_the_range(self, capsys):
        for raw in ("2..", "a..b", "1..2..3"):
            with pytest.raises(SystemExit) as exc:
                main(["certify", "--input", fx("chain_2.json"), "--input-b",
                      fx("chain_3.json"), "--n-range", raw])
            doc = json.loads(capsys.readouterr().err)["error"]
            assert (exc.value.code, doc["kind"]) == (1, "Error")
            assert doc["message"] == f"bad --n-range: {raw!r}"

    def test_every_input_is_read_before_any_other_check(self, tmp_path, capsys):
        # a line domain without --n, or a graph as a side, is refused only
        # after --input-b has been read
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "edges": [[0, 5]]}')
        for command, first in (("compare", "line_domain.json"),
                               ("certify", "errors/cycle_3.json")):
            code, out, err = run_cmd(capsys, command=command, input=fx(first),
                                     input_b=str(bad))
            assert (code, out) == (3, "")
            doc = json.loads(err)["error"]
            assert (doc["kind"], doc["path"]) == ("ParseError", str(bad))
            assert "out of range" in doc["detail"]

    def test_errors_name_the_file_at_fault(self, capsys):
        domain = fx("segment_domain.json")
        for kw in (dict(command="pg", input=domain),
                   dict(command="compare", input=fx("chain_3.json"), input_b=domain),
                   dict(command="hclasses", input=fx("chain_3.json")),
                   dict(command="graph", input=domain)):
            code, _, err = run_cmd(capsys, **kw)
            assert code == 3
            assert json.loads(err)["error"]["path"] == kw.get("input_b", kw["input"])


# JSON documents shaped like each input kind: the right keys, values of the
# right shape or now and then of some other JSON type, ints with |x| <= 60
# (mostly small, so that drawn covers often cover), lists of at most 6 items
_ints = st.one_of(st.integers(0, 4), st.integers(-60, 60))
_junk = st.one_of(st.none(), st.booleans(), _ints, st.text(max_size=3),
                  st.just([]), st.just({}))


def _or_junk(strategy):
    return st.integers(0, 7).flatmap(lambda k: strategy if k else _junk)


def _lists(elem, unique=False):
    return _or_junk(st.lists(elem, max_size=6, unique=unique))


_rational = _or_junk(st.one_of(
    _ints, _ints.map(str),
    st.tuples(_ints, _ints).map(lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from(["inf", "-inf", "1.5", "x"])))
_point = st.one_of(_ints, st.sampled_from("abcdef"))
_space_doc = st.one_of(*(
    st.fixed_dictionaries({"points": _lists(_point, unique=True),
                           key: _lists(_lists(_point))},
                          optional={"cover": _lists(_lists(_point))})
    for key in ("opens", "subbasis")))
_domain = _or_junk(st.one_of(
    st.fixed_dictionaries({"kind": st.just("segment"), "lo": _rational,
                           "hi": _rational}),
    st.fixed_dictionaries({"kind": st.sampled_from(["line", "plane"])}),
    st.fixed_dictionaries({"kind": st.just("circle"), "circumference": _rational})))
_interval = _or_junk(st.fixed_dictionaries(
    {}, optional={"lo": _rational, "hi": _rational, "closed_lo": _junk}))
_interval_doc = st.fixed_dictionaries(
    {"domain": _domain},
    optional={"members": _lists(_interval), "covers": _lists(_lists(_interval))})
_constraint = _or_junk(st.fixed_dictionaries({
    "var": st.sampled_from(["x", "y", "z"]), "op": st.sampled_from(["<", ">", "="]),
    "c": _rational}))
_plane_doc = st.fixed_dictionaries({"members": _lists(_lists(_constraint))})
_graph_doc = st.fixed_dictionaries(
    {"n": _or_junk(_ints),
     "edges": _lists(st.one_of(st.tuples(_ints, _ints).map(list), _lists(_ints)))},
    optional={"labels": _lists(_lists(_ints))})
_SINGLE_INPUT = ("validate", "hclasses", "graph", "cstar", "ktheory", "prim",
                 "pg", "enumerate")
_TAKES_N = ("pg", "enumerate")


_doc = st.one_of(_space_doc, _interval_doc, _plane_doc, _graph_doc)


def _assert_documented_exit(argv, docs):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2, 3, 4, 5), (argv[0], docs)
    if code not in (0, 2):
        assert out.getvalue() == "", (argv[0], docs)
        error = json.loads(err.getvalue())
        assert list(error) == ["error"] and "kind" in error["error"]


class TestGeneratedInputs:
    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(doc=_doc, n=st.sampled_from([None, 1, 2, 3]))
    def test_every_command_exits_with_a_documented_code(self, tmp_path_factory,
                                                        doc, n):
        path = tmp_path_factory.getbasetemp() / "generated.json"
        path.write_text(json.dumps(doc))
        for command in _SINGLE_INPUT:
            _assert_documented_exit(
                argv_of(command, input=str(path), n=n if command in _TAKES_N else None),
                doc)

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(doc=_doc, doc_b=_doc, n=st.sampled_from([None, 1, 2, 3]))
    def test_two_input_commands_exit_with_a_documented_code(self, tmp_path_factory,
                                                            doc, doc_b, n):
        base = tmp_path_factory.getbasetemp()
        path, path_b = base / "generated_a.json", base / "generated_b.json"
        path.write_text(json.dumps(doc))
        path_b.write_text(json.dumps(doc_b))
        paths = dict(input=str(path), input_b=str(path_b))
        _assert_documented_exit(argv_of("compare", n=n, **paths), (doc, doc_b))
        _assert_documented_exit(argv_of("certify", n_range=(1, 2), **paths),
                                (doc, doc_b))


class TestDeterminism:
    def test_closed_stdout_ends_quietly(self):
        # n = 4 fails in the write itself, n = 1 only when it is flushed
        for n in ("4", "1"):
            read, write = os.pipe()
            os.close(read)
            try:
                out = subprocess.run(
                    [sys.executable, "-m", "topocert", "enumerate",
                     "--input", fx("line_domain.json"), "--n", n],
                    stdout=write, stderr=subprocess.PIPE)
            finally:
                os.close(write)
            assert (out.returncode, out.stderr) == (0, b"")

    def test_byte_identical_runs(self, fixtures):
        cmd = [sys.executable, "-m", "topocert", "pg",
               "--input", fx("chain_4.json"), "--n", "2"]
        a = subprocess.run(cmd, capture_output=True)
        b = subprocess.run(cmd, capture_output=True)
        assert a.returncode == 0
        assert a.stdout == b.stdout

    def test_console_help(self):
        out = subprocess.run(
            [sys.executable, "-m", "topocert", "--help"], capture_output=True)
        assert out.returncode == 0
        for name in (b"validate", b"certify", b"enumerate"):
            assert name in out.stdout

    def test_n_range_flag(self):
        out = subprocess.run(
            [sys.executable, "-m", "topocert", "certify",
             "--input", fx("segment_domain.json"),
             "--input-b", fx("circle_cover.json"),
             "--n-range", "4..4"],
            capture_output=True)
        assert out.returncode == 0
        assert json.loads(out.stdout)["verdict"] == "not_homeomorphic"

    def test_env_var_caps(self):
        import os

        env = dict(os.environ, TOPOCERT_CAP_COVER="2")
        out = subprocess.run(
            [sys.executable, "-m", "topocert", "enumerate",
             "--input", fx("segment_domain.json"), "--n", "3"],
            capture_output=True, env=env)
        assert out.returncode == 4
        assert json.loads(out.stderr)["error"]["kind"] == "CapExceeded"

    def test_malformed_env_cap_is_a_parse_error(self):
        import os

        for name in ("TOPOCERT_CAP_COVER", "TOPOCERT_CAP_VERTICES"):
            for raw in ("five", "0", "-3"):
                env = dict(os.environ, **{name: raw})
                out = subprocess.run(
                    [sys.executable, "-m", "topocert", "enumerate",
                     "--input", fx("segment_domain.json"), "--n", "2"],
                    capture_output=True, env=env)
                assert out.returncode == 3 and out.stdout == b""
                err = json.loads(out.stderr)["error"]
                assert err["kind"] == "ParseError" and err["path"] == name

    def test_bad_command_line_is_a_json_error_not_a_negative_result(self):
        # argparse's own exit code 2 would read as "sets differ"
        chain = fx("chain_4.json")
        for argv in (["pg", "--input", chain, "--n", "abc"],
                     ["pg", "--input", chain, "--cap-cover", "x"],
                     ["pg", "--input", chain, "--level", "nope"],
                     ["pg"],
                     ["bogus"]):
            out = subprocess.run([sys.executable, "-m", "topocert", *argv],
                                 capture_output=True)
            assert out.returncode == 1 and out.stdout == b""
            assert json.loads(out.stderr)["error"]["kind"] == "Error"

    def test_text_format(self, capsys):
        code, out, _ = run_cmd(capsys, command="cstar",
                               input=fx("segment_cover_first.json"), fmt="text")
        assert code == 0
        assert out.startswith("blocks:")

    def test_format_is_offered_only_where_it_is_honoured(self, capsys):
        # dot on graph, text on the commands that render text, json on all;
        # any other pairing used to exit 0 and print JSON
        cover, chain = fx("segment_cover_first.json"), fx("chain_4.json")
        for argv, fmt, code in (
                (["graph", "--input", cover], "dot", 0),
                (["pg", "--input", chain, "--n", "1"], "text", 0),
                (["validate", "--input", chain], "json", 0),
                (["pg", "--input", chain, "--n", "1"], "dot", 1),
                (["graph", "--input", cover], "text", 1),
                (["certify", "--input", chain, "--input-b", chain, "--n", "1"],
                 "text", 1),
                (["enumerate", "--input", fx("line_domain.json"), "--n", "1"],
                 "dot", 1)):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--format", fmt])
            out, err = capsys.readouterr()
            assert exc.value.code == code, (argv, fmt)
            if code:
                assert out == ""
                assert "--format" in json.loads(err)["error"]["message"]
            elif fmt == "json":
                json.loads(out)
            else:
                with pytest.raises(ValueError):
                    json.loads(out)

    @pytest.mark.parametrize("argv", [
        "validate --input chain_3.json",
        "hclasses --input segment_cover_first.json --format text",
        "graph --input plane_cover.json --format dot",
        "cstar --input circle_cover.json",
        "ktheory --input segment_cover_second.json",
        "prim --input segment_cover_third.json --format text",
        "pg --input chain_4.json --n 2",
        "compare --input trivial_space.json --input-b chain_3.json --n 2",
        "certify --input circle_cover.json --input-b three_point_model.json"
        " --n-range 4..4",
        "enumerate --input segment_domain.json --n 3",
    ])
    def test_out_file_holds_exactly_what_stdout_would(self, argv, tmp_path,
                                                      capsys):
        argv = [fx(a) if a.endswith(".json") else a for a in argv.split()]
        with pytest.raises(SystemExit) as printed:
            main(argv)
        out, err = capsys.readouterr()
        path = tmp_path / "out.txt"
        with pytest.raises(SystemExit) as written:
            main([*argv, "--out", str(path)])
        assert capsys.readouterr() == ("", err)
        assert written.value.code == printed.value.code
        assert path.read_bytes() == out.encode("utf-8") != b""

    def test_run_refuses_a_flag_outside_the_command_row(self, capsys):
        # a library config once took every flag for every command: these
        # printed JSON with exit 0, the last two ignoring --n-range, --n and
        # --level
        chain = fx("chain_4.json")
        for kw in (dict(command="validate", fmt="text"),
                   dict(command="graph", fmt="text"),
                   dict(command="certify", input_b=chain, fmt="text"),
                   dict(command="pg", fmt="dot"),
                   dict(command="bogus"),
                   dict(command="pg", n_range=(9, 9)),
                   dict(command="validate", n=7, level="cstar")):
            code, out, err = run_cmd(capsys, input=chain, **kw)
            assert (code, out) == (1, ""), kw
            assert json.loads(err)["error"]["kind"] == "Error"
        for command, path, fmt in (("graph", fx("segment_cover_first.json"), "dot"),
                                   ("pg", chain, "text"), ("validate", chain, "json")):
            assert run_cmd(capsys, command=command, input=path, fmt=fmt)[0] == 0

    def test_malformed_env_cap_leaves_version_and_help_alone(self):
        for name in ("TOPOCERT_CAP_COVER", "TOPOCERT_CAP_VERTICES"):
            for raw in ("x", "0"):
                env = dict(os.environ, **{name: raw})
                for flag, expected in (("--version", b"0.1.0\n"),
                                       ("--help", b"usage: topocert")):
                    out = subprocess.run([sys.executable, "-m", "topocert", flag],
                                         capture_output=True, env=env)
                    assert out.returncode == 0 and out.stderr == b"", (name, raw)
                    assert out.stdout.startswith(expected)
