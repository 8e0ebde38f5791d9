import json
import subprocess
import sys

from topocert.cli import RunConfig, run

from conftest import FIXTURES


def fx(name):
    return str(FIXTURES / name)


def run_cmd(capsys, **kw):
    code = run(RunConfig(**kw))
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
        ]
        for i, text in enumerate(corpus):
            p = tmp_path / f"bad{i}.json"
            p.write_text(text)
            for command in ("hclasses", "graph", "pg"):
                code = run(RunConfig(command=command, input=str(p)))
                captured = capsys.readouterr()
                assert code != 0
                err_doc = json.loads(captured.err or captured.out)
                assert "error" in err_doc

    def test_missing_file(self, capsys):
        code, _, err = run_cmd(capsys, command="validate", input="no/such/file.json")
        assert code == 3
        assert json.loads(err)["error"]["detail"].startswith("cannot read file:")

    def test_errors_name_the_file_at_fault(self, capsys):
        domain = fx("segment_domain.json")
        for kw in (dict(command="pg", input=domain),
                   dict(command="compare", input=fx("chain_3.json"), input_b=domain),
                   dict(command="hclasses", input=fx("chain_3.json")),
                   dict(command="graph", input=domain)):
            code, _, err = run_cmd(capsys, **kw)
            assert code == 3
            assert json.loads(err)["error"]["path"] == kw.get("input_b", kw["input"])


class TestDeterminism:
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
            env = dict(os.environ, **{name: "five"})
            out = subprocess.run(
                [sys.executable, "-m", "topocert", "enumerate",
                 "--input", fx("segment_domain.json"), "--n", "2"],
                capture_output=True, env=env)
            assert out.returncode == 3 and out.stdout == b""
            err = json.loads(out.stderr)["error"]
            assert err["kind"] == "ParseError" and err["path"] == name

    def test_text_format(self, capsys):
        code, out, _ = run_cmd(capsys, command="cstar",
                               input=fx("segment_cover_first.json"), fmt="text")
        assert code == 0
        assert out.startswith("blocks:")
