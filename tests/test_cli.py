import contextlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from topocert import arrangements, cli, hasse
from topocert.arrangements import parse_fraction
from topocert.cli import _COMMANDS, main, run
from topocert.fingerprints import LEVELS

from conftest import FIXTURES


# spellings of 2 or 10 that a count refuses
_COUNT_SPELLINGS = (" 2", "+2", "1_0", "\u0662", "2.0")


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
                                 input_b=fx("circle_cover.json"), n_range=(0, 0))
        assert code == 1 and out == ""
        assert "n_range" in json.loads(err)["error"]["message"]

    def test_certify_refuses_n_with_n_range(self, capsys):
        # certify takes its sizes only as --n-range; a search of --n-range
        # alone once ignored --n and certified at n = 4
        for n_range in (None, (3, 4)):
            code, out, err = run_cmd(capsys, command="certify",
                                     input=fx("chain_3.json"),
                                     input_b=fx("chain_4.json"), n=2,
                                     n_range=n_range)
            assert (code, out) == (1, ""), n_range
            assert json.loads(err)["error"] == {
                "kind": "Error", "message": "unrecognized arguments: --n 2"}
            with pytest.raises(SystemExit) as exc:
                main(argv_of("certify", input=fx("chain_3.json"),
                             input_b=fx("chain_4.json"), n=2, n_range=n_range))
            assert exc.value.code == 1
            assert capsys.readouterr() == ("", err)

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

    def test_domain_listing_does_not_depend_on_the_stream_order(
            self, capsys, monkeypatch):
        # the enumerate handler reads the stream from arrangements at call time
        stream = arrangements.enumerate_interval_cover_types
        for domain in ("segment_domain.json", "line_domain.json"):
            kw = dict(command="enumerate", input=fx(domain), n=4)
            monkeypatch.setattr(arrangements, "enumerate_interval_cover_types", stream)
            forward = run_cmd(capsys, **kw)
            monkeypatch.setattr(arrangements, "enumerate_interval_cover_types",
                                lambda *a: reversed(list(stream(*a))))
            assert run_cmd(capsys, **kw) == forward
            assert forward[0] == 0 and json.loads(forward[1])["count"] == 114


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
                ("exponent_past_digit_limit", "not a rational: '1e5000'")):
            code, out, err = run_cmd(capsys, command="hclasses",
                                     input=fx(f"errors/{name}.json"))
            assert (code, out) == (3, "")
            error = json.loads(err)["error"]
            assert (error["kind"], error["detail"]) == ("ParseError", detail)

    def test_rationals_past_the_digit_limit_are_refused(self):
        # an exponent is no spelling of a rational, however short; a run of
        # digits is judged by its length, before it is converted
        limit = sys.get_int_max_str_digits()
        for text in ("2.5e-3", "-1_0.5E2", "0e3000000", "1e3000000", "-1e-3000000",
                     f"5e-{limit}", "1e" + "9" * (limit + 1), "0." + "1" * limit,
                     "e5", ".e5", "1/2e3"):
            with pytest.raises(ValueError, match="not a rational"):
                parse_fraction(text)
        ones = "1" * limit
        for text, value in ((ones, F(int(ones))), ("-" + ones, F(-int(ones))),
                            ("3/" + ones, F(3, int(ones)))):
            assert parse_fraction(text) == value
        for text in (ones + "1", "-" + ones + "1", "3/" + ones + "1", "0" * (limit + 1)):
            with pytest.raises(ValueError, match=f"more than {limit} digits"):
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

    def test_a_cover_over_the_vertex_cap_builds_no_graph(self, monkeypatch, capsys):
        # the plane cover has 12 classes, so its Hasse digraph 12 vertices
        built = []

        def counted(partition):
            built.append(partition)
            return original(partition)

        original = hasse.hasse_digraph
        for mod in [m for n, m in sys.modules.items() if n.startswith("topocert")]:
            if getattr(mod, "hasse_digraph", None) is original:
                monkeypatch.setattr(mod, "hasse_digraph", counted)
        for cap, code in ((5, 4), (12, 0)):
            for command in ("pg", "ktheory", "prim"):
                got, out, err = run_cmd(capsys, command=command,
                                        input=fx("plane_cover.json"), cap_vertices=cap)
                assert got == code, err
                if code:
                    assert json.loads(err)["error"]["requested"] == 12
            # the counter sees every graph that is built
            assert len(built) == (0 if code else 3)

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
        for raw in ("2..", "a..b", "1..2..3", "4", "4:4",
                    *(f"{count}..2" for count in _COUNT_SPELLINGS),
                    *(f"2..{count}" for count in _COUNT_SPELLINGS)):
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

    def test_a_domain_without_n_is_one_error(self, capsys):
        domain = fx("line_domain.json")
        for kw in (dict(command="pg", input=domain),
                   dict(command="compare", input=domain, input_b=fx("chain_3.json")),
                   dict(command="compare", input=fx("chain_3.json"), input_b=domain),
                   dict(command="enumerate", input=domain)):
            code, out, err = run_cmd(capsys, **kw)
            assert (code, out) == (3, "")
            assert json.loads(err)["error"]["detail"] == "domain inputs need --n"


def _line_cover(hi):
    """A line cover file whose first member ends at ``hi``."""
    return json.dumps({"domain": {"kind": "line"},
                       "members": [{"lo": "-inf", "hi": hi}, {"lo": "-1", "hi": "inf"}]})


# the grammar of a rational, written out independently of jsonio
_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


class TestSpellings:
    @pytest.mark.parametrize("value", [
        "1.5", "1e3", "1_0", " 1", "+1", "\u0663", "--1", "3/-4", "/4", "3/", "",
        "1/0", True, 1.5])
    def test_a_rational_has_one_spelling(self, value, tmp_path, capsys):
        # the first six used to be read as numbers
        path = tmp_path / "cover.json"
        path.write_text(_line_cover(value))
        code, out, err = run_cmd(capsys, command="hclasses", input=str(path))
        assert (code, out) == (3, "")
        error = json.loads(err)["error"]
        assert (error["kind"], error["detail"]) == (
            "ParseError", f"not a rational: {value!r}")

    def test_accepted_spellings_read_as_their_plain_form(self, tmp_path, capsys):
        outputs = set()
        for spelled, plain in (("-0", "0"), ("007", "7"), ("24/100", "6/25"),
                               (5, "5")):
            assert parse_fraction(spelled) == parse_fraction(plain)
            for i, hi in enumerate((spelled, plain)):
                path = tmp_path / f"cover{i}.json"
                path.write_text(_line_cover(hi))
                code, out, _ = run_cmd(capsys, command="hclasses", input=str(path))
                assert code == 0
                outputs.add(out)
        assert len(outputs) == 1

    @settings(derandomize=True, database=None)
    @given(q=st.fractions())
    def test_a_written_rational_reads_back(self, q):
        assert parse_fraction(str(q)) == q

    @settings(derandomize=True, database=None, max_examples=500)
    @given(text=st.text(alphabet="0123456789-/.e_+ \u0663", max_size=8))
    def test_exactly_the_grammar_is_read(self, text):
        try:
            parse_fraction(text)
            read = True
        except ValueError as exc:
            assert str(exc) == f"not a rational: {text!r}"
            read = False
        assert read == (_RATIONAL.fullmatch(text) is not None), text

    def test_a_count_flag_has_one_spelling(self, capsys):
        chain = fx("chain_4.json")
        for raw in _COUNT_SPELLINGS:
            for flag in ("n", "cap_cover", "cap_vertices"):
                code, out, err = run_cmd(capsys, command="pg", input=chain,
                                         **{flag: raw})
                assert (code, out) == (1, ""), (flag, raw)
                assert "invalid" in json.loads(err)["error"]["message"]
        # a leading zero is still the same count
        assert run_cmd(capsys, command="pg", input=chain, n="02") == \
            run_cmd(capsys, command="pg", input=chain, n="2")

    def test_points_are_strings(self, tmp_path, capsys):
        # 1 and "1" were one point twice over, and true was read as 1
        path = tmp_path / "space.json"
        path.write_text('{"points": [1, "1"], "opens": [[], [true], ["1"], [1, "1"]]}')
        for command in ("validate", "enumerate"):
            code, out, err = run_cmd(capsys, command=command, input=str(path))
            assert (code, out) == (3, "")
            assert json.loads(err)["error"]["detail"] == (
                'each item of "points" must be a JSON string')

    def test_points_in_opens_subbasis_and_cover_are_strings(self, tmp_path, capsys):
        # a number spelling a point of the space was reported as a point
        # outside it, and true as the point True
        space = '"points": ["1", "b"], "opens": [[], ["1"], ["1", "b"]]'
        cases = [("validate", "opens", '"points": ["1"], "opens": [[], [1], ["1"]]'),
                 ("validate", "subbasis", '"points": ["1", "b"], "subbasis": [[1]]'),
                 ("hclasses", "cover", space + ', "cover": [[1], ["1", "b"]]'),
                 ("hclasses", "cover", space + ', "cover": [[true], ["b"]]'),
                 ("enumerate", "opens", '"points": ["a"], "opens": [[], [null]]')]
        path = tmp_path / "space.json"
        for command, key, body in cases:
            path.write_text("{" + body + "}")
            code, out, err = run_cmd(capsys, command=command, input=str(path))
            assert (code, out) == (3, ""), body
            assert json.loads(err)["error"]["detail"] == (
                f'each point in "{key}" must be a JSON string')


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
# a point is a string, and now and then an integer, which a space file refuses
_point = st.integers(0, 7).flatmap(
    lambda k: st.sampled_from("abcdef") if k else _ints)
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
                (["certify", "--input", chain, "--input-b", chain,
                  "--n-range", "1..1"], "text", 1),
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
        # printed JSON with exit 0, the sixth and seventh ignoring --n-range,
        # --n and --level, and argparse read the last two as prefixes of
        # --level and --cap-vertices
        chain = fx("chain_4.json")
        for kw in (dict(command="validate", fmt="text"),
                   dict(command="graph", fmt="text"),
                   dict(command="certify", input_b=chain, fmt="text"),
                   dict(command="pg", fmt="dot"),
                   dict(command="bogus"),
                   dict(command="pg", n_range=(9, 9)),
                   dict(command="validate", n=7, level="cstar"),
                   dict(command="pg", lev="cstar"),
                   dict(command="graph", cap=3)):
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


# a small input for each command, on which each cap its row offers, set to
# 1, is exceeded
_SMALL_CALLS = {
    "validate": dict(input=fx("chain_3.json")),
    "hclasses": dict(input=fx("segment_cover_first.json")),
    "graph": dict(input=fx("antichain_3.json")),
    "cstar": dict(input=fx("antichain_3.json")),
    "ktheory": dict(input=fx("antichain_3.json")),
    "prim": dict(input=fx("antichain_3.json")),
    "pg": dict(input=fx("segment_domain.json"), n=2),
    "compare": dict(input=fx("chain_3.json"), input_b=fx("line_domain.json"), n=2),
    "certify": dict(input=fx("segment_domain.json"),
                    input_b=fx("line_domain.json"), n_range=(2, 2)),
    "enumerate": dict(input=fx("line_domain.json"), n=2),
}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_a_row_offers_exactly_the_caps_its_command_reads(command, capsys):
    kw = _SMALL_CALLS[command]
    assert run_cmd(capsys, command=command, **kw)[0] in (0, 2)
    for cap in ("cap_cover", "cap_vertices"):
        code, out, err = run_cmd(capsys, command=command, **kw, **{cap: 1})
        if cap in _COMMANDS[command][0]:
            assert (code, json.loads(err)["error"]["kind"]) == (4, "CapExceeded")
        else:
            assert (code, out) == (1, ""), cap
            assert json.loads(err)["error"]["message"] == (
                "unrecognized arguments: --%s 1" % cap.replace("_", "-"))


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_a_command_line_builds_the_flags_of_its_command_only(command, capsys):
    # the command's help lists every flag of its row
    with pytest.raises(SystemExit) as exc:
        run([command, "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    for flag in ("input", "format", "out") + _COMMANDS[command][0]:
        assert "--" + flag.replace("_", "-") in out
    # the usage lists every command, so the top-level help is the same
    parser = cli.build_parser(command)
    assert parser.format_help() == cli.build_parser().format_help()
    # but no other command is a choice in this parser
    for other in set(_COMMANDS) - {command}:
        with pytest.raises(cli.TopocertError,
                           match=f"invalid choice: '{other}' \\(choose from '{command}'\\)$"):
            parser.parse_args([other, "--input", "x"])
