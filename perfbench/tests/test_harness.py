"""Tests of the benchmark's own arithmetic and instrumentation.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent
sys.path[:0] = [str(PERFBENCH), str(ROOT / "src"), str(ROOT / "tests")]

import checks  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("n, pct, beyond", [
    (1, 100.0, 0),
    (19, 100.0, 0),     # p50 leaves 9 above it
    (20, 50.0, 10),
    (50, 75.0, 12),
    (100, 90.0, 10),
    (199, 90.0, 19),    # p95 leaves 9
    (200, 95.0, 10),
    (1000, 99.0, 10),
    (10000, 99.9, 10),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, pct, beyond):
    assert stats.tail_choice(n) == (pct, beyond)


def test_tail_value_is_the_nearest_rank_sample():
    samples = [float(i) for i in range(100, 0, -1)]  # 1..100, unsorted
    assert stats.tail(samples) == (90.0, 90.0, 10)
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_ratio_uses_its_base_and_reports_an_empty_base_as_zero():
    assert stats.ratio(114, 456) == 0.25
    assert stats.ratio(7, 0) == 0.0


def test_self_time_subtracts_direct_children_only():
    #   0 root [0, 100)
    #   1   a  [10, 40)
    #   2     a1 [15, 25)
    #   3   b  [50, 90)
    #   4     b1 [60, 70)
    #   5       b11 [62, 64)
    #   6 second root [200, 210)
    starts = [0, 10, 15, 50, 60, 62, 200]
    ends = [100, 40, 25, 90, 70, 64, 210]
    parents = [-1, 0, 1, 0, 3, 4, -1]
    assert stats.self_times(starts, ends, parents) == [30, 20, 10, 30, 8, 2, 10]
    # self times of a tree add up to its roots' durations
    assert sum(stats.self_times(starts, ends, parents)) == 100 + 10
    roles = [0, 1, 2, 1, 2, 2, 0]
    assert stats.per_role(roles, starts, ends, parents) == {
        0: (2, 40), 1: (2, 50), 2: (3, 20)}


def test_cstar_key_is_invariant_under_relabelling():
    fp = {"blocks": [1, 2, 2], "prim": {"points": 3, "order": [[0, 2], [1, 2]]},
          "graph": {"vertices": 5, "cert": "x"},
          "k": {"k0": {"rank": 3, "torsion": []}, "k1": {"rank": 0}}}
    relabelled = dict(fp, prim={"points": 3, "order": [[2, 0], [1, 0]]})
    flipped = dict(fp, prim={"points": 3, "order": [[2, 0], [2, 1]]})
    assert checks.key(fp, "cstar") == checks.key(relabelled, "cstar")
    assert checks.key(fp, "cstar") != checks.key(flipped, "cstar")
    assert checks.fingerprint_problems(fp) == []


def test_traced_line_n4_run_counts_every_type(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    domain = tmp_path / "line.json"
    domain.write_text('{"domain": {"kind": "line"}}\n')
    types = workloads.TYPE_COUNTS[4]
    call = workloads.Call(["pg", "--input", str(domain), "--n", "4", "--level", "graph"],
                          types, (types, types), frozenset({0}),
                          checks.pg_check("graph", 4, 15, True))
    wl = workloads.Workload("line4", [call], types, "types", [])
    runner = run.Runner(time.monotonic() + 120)
    untraced = run._pass(runner, wl, "count")
    traced = run._pass(runner, wl, "trace")
    assert [r["problems"] for r in untraced["calls"] + traced["calls"]] == [[], []]

    metrics, notes = run.per_layer(traced, untraced)
    v = {name: value for name, (value, _) in metrics.items()}
    assert v["fingerprints.fingerprint_of.calls"] == v["arrangements.types_yielded"] == 114
    walks, misses = v["arrangements.cell_walk.calls"], v["arrangements.not_a_cover"]
    assert v["arrangements.type_yield_ratio"] == pytest.approx(114 / walks)
    assert v["hasse.type_dedup.calls"] == walks - misses
    assert v["hasse.duplicate_types"] == walks - misses - 114
    distinct = json.loads(traced["calls"][0]["stdout"])["count"]
    assert v["fingerprints.distinct_ratio"] == pytest.approx(distinct / 114)
    hits, lookups = map(int, re.search(r"cache_hit_ratio = (\d+) hits / (\d+) lookups",
                                       "\n".join(notes)).groups())
    assert lookups == v["digraphs.canonical_cert.calls"]
    assert v["digraphs.cache_hit_ratio"] == pytest.approx(hits / lookups)
    assert "absent: none" in notes
    assert v["spaces.covers_yielded"] == v["spaces.cover_hit_ratio"] == 0
    assert all(v[k] >= 0 for k in v if k.endswith(".self_s"))


def test_probe_rebinds_every_namespace_and_reports_missing_targets():
    script = f"""
import json, sys
sys.path[:0] = [{str(PERFBENCH)!r}, {str(ROOT / 'src')!r}]
import tracer
tracer.ROLES += (("hasse.gone", "hasse", ("no_such_function",), "call"),)
probe = tracer.Probe("trace").install()
import topocert, topocert.cli as cli, topocert.certificates as cert
import topocert.fingerprints as fps, topocert.arrangements as arr, topocert.hasse as hasse
fp = fps.fingerprint_of
print(json.dumps({{
    "absent": probe.absent,
    "same": all(m.fingerprint_of is fp for m in (topocert, cli, cert)),
    "wrapped": hasattr(fp, "__wrapped__") and hasattr(arr.canonical_key, "__wrapped__"),
    "dedup_shared": arr.canonical_key is hasse.canonical_key,
}}))
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=60, check=True).stdout
    assert json.loads(out) == {"absent": ["hasse.gone"], "same": True, "wrapped": True,
                               "dedup_shared": True}


def test_latencies_are_pass_means_scaled_by_the_reference_mean():
    walls = [[1.0, 3.0], [2.0, 5.0]]      # two passes of two calls
    refs = [0.1, 0.3, 0.2, 0.2]            # mean 0.2: the host ran at half speed
    lat, scale = stats.scaled_latencies(walls, refs, 0.1)
    assert scale == pytest.approx(0.5)
    assert lat == pytest.approx([0.75, 2.0])
    with pytest.raises(ValueError):
        stats.scaled_latencies(walls, [], 0.1)


def test_reference_work_is_fixed():
    import reference

    assert reference.work() == reference.work() > 0
    assert reference.sample() > 0
