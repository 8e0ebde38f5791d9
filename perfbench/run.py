"""The topocert benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload types|spaces|witness --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; topocert is imported from ``src``.
One client, closed loop: each CLI call starts after the previous one ends,
and each runs in a fresh interpreter (``perfbench/launch.py``), because a
CLI user pays start-up and cold caches on every call.

``--trace 0`` repeats passes over the workload's calls for ``--seconds`` (at
least one pass) and reports the end-to-end metrics.  The host this runs on
shares its cores, and its speed drifts by up to 2x over seconds to minutes,
so a fixed program (``reference.py``) is timed after every call, for a set
share of the call's time, and the end-to-end times are scaled to a nominal
host speed by the mean of those samples; the raw times are printed beside
them.  ``--trace 1`` makes one untraced and one traced pass and reports the
per-layer metrics; their difference in wall time is the tracing overhead.  Every call's output is
checked; a failed check counts in ``failed`` and makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import reference
import stats
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Generated inputs and per-call output of this run; removed when it ends.
WORK = HERE / ".work" / f"run{os.getpid()}"
# Each run must end well inside 180 s; a call still running then is killed.
RUN_BUDGET_S = 170.0
# No-op calls at the start of a run (after one uncounted) and after each pass.
SETUP_CALLS = 5
SETUP_CALLS_PER_PASS = 2
MB = 1024.0  # ru_maxrss is in KiB on Linux
# Reference time sampled after each call, as a share of the call's wall time.
REF_SHARE = 0.25


def _provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "topocert").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "n/a (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "commit": commit, "src_sha256": digest.hexdigest()[:16], "seed": seed,
            "machine": platform.machine()}


class Runner:
    """Starts CLI processes one at a time and measures each."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("TOPOCERT_")}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.seq = 0

    def spawn(self, argv, name: str) -> dict:
        """Run one process to completion: wall time, exit code, peak RSS,
        stdout.  Output goes to files, so a large result cannot block."""
        if time.monotonic() > self.deadline:
            raise TimeoutError(f"run budget of {RUN_BUDGET_S:.0f} s used up")
        out_path, err_path = WORK / f"{name}.out", WORK / f"{name}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(self.deadline - time.monotonic(), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = {"wall": wall, "code": proc.returncode, "rss_mb": usage.ru_maxrss / MB,
                  "stdout": out_path.read_text(encoding="utf-8", errors="replace"),
                  "stderr": err_path.read_text(encoding="utf-8", errors="replace")}
        out_path.unlink()
        err_path.unlink()
        return result

    def cli(self, call: workloads.Call, mode: str) -> dict:
        """One CLI call through launch.py; its probe writes ``stats_path``."""
        self.seq += 1
        stats_path = WORK / f"call{self.seq}.json"
        res = self.spawn([sys.executable, str(HERE / "launch.py"), mode, str(stats_path),
                          "--", *call.argv], f"call{self.seq}")
        res["stats_path"] = str(stats_path)
        return res


def _problems(call: workloads.Call, res: dict) -> list:
    if res["code"] not in call.codes:
        return [f"exit code {res['code']}, expected one of {sorted(call.codes)}: "
                f"{res['stderr'][-300:]}"]
    try:
        probe = json.loads(Path(res["stats_path"]).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return ["the probe wrote no stats"]
    res["probe"] = probe
    out = []
    lo, hi = call.fingerprints
    if not lo <= probe["fingerprint_of"] <= hi:
        out.append(f"{probe['fingerprint_of']} items fingerprinted, expected {lo}..{hi}")
    try:
        out += call.check(json.loads(res["stdout"]), res["code"])
    except (ValueError, KeyError, TypeError) as exc:
        out.append(f"unreadable output: {exc!r}")
    return out


def _pass(runner: Runner, wl: workloads.Workload, mode: str, refs=None) -> dict:
    """One pass over the workload's calls; outputs are checked after the
    last call, so checking never counts as the program's time.  With a
    ``refs`` list, reference samples are timed into it after each call,
    at least one and together ``REF_SHARE`` of the call's wall time."""
    results = []
    for call in wl.calls:
        res = runner.cli(call, mode)
        results.append(res)
        spent = 0.0
        while refs is not None and (not spent or spent < REF_SHARE * res["wall"]):
            refs.append(reference.sample())
            spent += refs[-1]
    for call, res in zip(wl.calls, results):
        res["problems"] = _problems(call, res)
    return {"wall": sum(r["wall"] for r in results), "calls": results}


def _report_failures(wl: workloads.Workload, passes) -> int:
    failed = 0
    for p in passes:
        for call, res in zip(wl.calls, p["calls"]):
            if res["problems"]:
                failed += 1
                print(f"# FAILED {' '.join(call.argv)}: {'; '.join(res['problems'])}")
    return failed


def _noop_calls(runner: Runner, count: int) -> list:
    """Wall times of ``count`` no-op CLI calls (``--version``)."""
    argv = [sys.executable, "-m", "topocert", "--version"]
    times = []
    for _ in range(count):
        res = runner.spawn(argv, "setup")
        if res["code"] != 0:
            raise RuntimeError(f"topocert --version failed: {res['stderr'][-300:]}")
        times.append(res["wall"])
    return times


def end_to_end(runner: Runner, wl: workloads.Workload, seconds: float):
    """Passes for ``seconds`` (at least one).  Each call's latency is its
    mean over the passes at the nominal host speed, and ``wall_s`` is the
    sum of those.  ``setup_s`` is the median no-op call at the same scale;
    the first one, which may compile bytecode, is not counted."""
    _noop_calls(runner, 1)
    refs = []
    noops = _noop_calls(runner, SETUP_CALLS)
    passes = []
    t0 = time.monotonic()
    while not passes or time.monotonic() - t0 < seconds:
        passes.append(_pass(runner, wl, "count", refs))
        noops += _noop_calls(runner, SETUP_CALLS_PER_PASS)
    walls = [[r["wall"] for r in p["calls"]] for p in passes]
    lat, scale = stats.scaled_latencies(walls, refs, reference.NOMINAL_S)
    setup = statistics.median(noops) * scale
    tail_v, tail_p, beyond = stats.tail(lat)
    wall = sum(lat)
    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (wall, "s"),
        "items_per_s": (wl.items / wall, "1/s"),
        "call_p50_s": (statistics.median(lat), "s"),
        "call_tail_s": (tail_v, "s"),
        "peak_rss_mb": (max(r["rss_mb"] for p in passes for r in p["calls"]), "MB"),
    }
    pass_walls = ", ".join(f"{p['wall']:.4f}" for p in passes)
    notes = [f"passes: {len(passes)}, raw pass walls: {pass_walls} s",
             f"host speed: reference mean {statistics.fmean(refs):.4f} s over {len(refs)} "
             f"samples (min {min(refs):.4f}, max {max(refs):.4f}); times are scaled by "
             f"{reference.NOMINAL_S} / mean = {scale:.4f}",
             f"raw: wall_s {wall / scale:.4f} s, setup_s {setup / scale:.4f} s",
             f"items per pass: {wl.items} {wl.item_kind}",
             f"call latencies: mean over passes of each of {len(lat)} calls",
             f"setup_s: median of {len(noops)} no-op calls",
             f"call_tail_s is p{tail_p:g} of {len(lat)} calls ({beyond} beyond it)"]
    return metrics, passes, notes


# -- traced run ----------------------------------------------------------------

def _span_tables(results):
    """Yield (probe doc, role, start, end, parent, flag) per traced call."""
    for res in results:
        probe = res.get("probe")
        if probe and probe.get("mode") == "trace":
            yield (probe, *tracer.read_spans(res["stats_path"], probe["spans"]))


def per_layer(traced: dict, untraced: dict):
    roles = [r[0] for r in tracer.ROLES]
    calls = dict.fromkeys(roles, 0)
    self_ns = dict.fromkeys(roles, 0)
    counters = {}
    absent = set()
    types_yielded = covers_yielded = enum_walks = not_a_cover = 0
    hits = misses = 0
    run_ns = 0
    run_idx = roles.index("cli.run")
    enum_idx = roles.index("arrangements.enumerate_types")
    cover_idx = roles.index("spaces.enumerate_covers")
    walk_idx = roles.index("arrangements.cell_walk")
    for probe, role, start, end, parent, flag in _span_tables(traced["calls"]):
        absent.update(probe["absent"])
        for r, (count, own) in stats.per_role(role, start, end, parent).items():
            calls[roles[r]] += count
            self_ns[roles[r]] += own
        for k, v in probe["counters"].items():
            counters[k] = counters.get(k, 0) + v
        if probe["cache"]:
            hits += probe["cache"][0]
            misses += probe["cache"][1]
        for i, r in enumerate(role):
            if r == run_idx:
                run_ns += end[i] - start[i]
            elif r == enum_idx and flag[i] == tracer.FLAG_YIELD:
                types_yielded += 1
            elif r == cover_idx and flag[i] == tracer.FLAG_YIELD:
                covers_yielded += 1
            elif r == walk_idx:
                if flag[i] == tracer.FLAG_NOT_A_COVER:
                    not_a_cover += 1
                if parent[i] >= 0 and role[parent[i]] == enum_idx:
                    enum_walks += 1
    calls_wall = traced["wall"]
    s = 1e-9
    dedup_in = enum_walks - not_a_cover
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    def timed(role, with_calls=True):
        if with_calls:
            put(f"{role}.calls", calls[role], "count")
        put(f"{role}.self_s", self_ns[role] * s, "s")

    timed("arrangements.enumerate_types", False)
    put("arrangements.types_yielded", types_yielded, "count")
    timed("arrangements.cell_walk")
    put("arrangements.not_a_cover", not_a_cover, "count")
    put("arrangements.type_yield_ratio", stats.ratio(types_yielded, enum_walks), "ratio")
    timed("arrangements.axis2d")
    timed("hasse.type_dedup")
    put("hasse.duplicate_types", dedup_in - types_yielded, "count")
    timed("hasse.hpartition_of_cover")
    timed("hasse.hasse_digraph")
    put("hasse.vertices", counters.get("hasse.vertices", 0), "count")
    timed("spaces.enumerate_covers", False)
    put("spaces.covers_yielded", covers_yielded, "count")
    scanned = counters.get("spaces.subsets_scanned", 0)
    put("spaces.cover_hit_ratio", stats.ratio(covers_yielded, scanned), "ratio")
    timed("digraphs.canonical_cert")
    put("digraphs.cache_hit_ratio", stats.ratio(hits, hits + misses), "ratio")
    timed("snf.smith_normal_form")
    for fn in ("block_decomposition", "k_theory", "prim_space"):
        timed(f"graphalgebra.{fn}")
    timed("fingerprints.fingerprint_of")
    timed("fingerprints.collect", False)
    fps_in = counters.get("fingerprints.in", 0)
    distinct = counters.get("fingerprints.distinct", 0)
    put("fingerprints.distinct_ratio", stats.ratio(distinct, fps_in), "ratio")
    timed("certificates.nonhomeo_certificate")
    put("certificates.found", counters.get("certificates.found", 0), "count")
    timed("jsonio.load_input")
    timed("jsonio.dumps")
    put("jsonio.bytes_in", counters.get("jsonio.bytes_in", 0), "B")
    put("jsonio.bytes_out", counters.get("jsonio.bytes_out", 0), "B")
    timed("cli.run", False)
    put("cli.outside_run_s", calls_wall - run_ns * s, "s")
    put("trace.wall_s", traced["wall"], "s")
    put("trace.overhead_s", traced["wall"] - untraced["wall"], "s")

    layers = sum(v for k, v in self_ns.items() if k != "cli.run") * s
    notes = [
        "absent: " + (", ".join(sorted(absent)) or "none"),
        f"ratio arrangements.type_yield_ratio = {types_yielded} types / "
        f"{enum_walks} cell walks in enumeration",
        f"ratio spaces.cover_hit_ratio = {covers_yielded} covers / {scanned} subsets",
        f"ratio digraphs.cache_hit_ratio = {hits} hits / {hits + misses} lookups",
        f"ratio fingerprints.distinct_ratio = {distinct} keys / {fps_in} fingerprints",
        f"hasse.duplicate_types = {dedup_in} covering walks - {types_yielded} types",
        f"traced wall {traced['wall']:.4f} s = layers {layers:.4f} s + cli.run self "
        f"{self_ns['cli.run'] * s:.4f} s + outside cli.run "
        f"{calls_wall - run_ns * s:.4f} s",
        f"untraced wall {untraced['wall']:.4f} s; overhead "
        f"{traced['wall'] - untraced['wall']:.4f} s",
    ]
    return m, notes


def traced_run(runner: Runner, wl: workloads.Workload):
    untraced = _pass(runner, wl, "count")
    traced = _pass(runner, wl, "trace")
    metrics, notes = per_layer(traced, untraced)
    return metrics, [untraced, traced], notes


# -- entry point ---------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    missing = [p for p in ("src/topocert/cli.py", "tests/oracles.py", "fixtures/chain_4.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a topocert checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    WORK.mkdir(parents=True)
    try:
        wl = workloads.build(args.workload, args.seed, WORK)
        runner = Runner(started + RUN_BUDGET_S)
        if args.trace:
            metrics, passes, notes = traced_run(runner, wl)
        else:
            metrics, passes, notes = end_to_end(runner, wl, args.seconds)
        failed = _report_failures(wl, passes)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORK.parent.rmdir()

    attempted = sum(len(p["calls"]) for p in passes)
    for key, val in _provenance(args.seed).items():
        print(f"# {key}: {val}")
    print(f"# workload {wl.name}: {workloads.WHY[wl.name]}")
    for line in wl.notes + notes:
        print(f"# {line}")
    print(f"# failed_ratio = {failed} / {attempted} calls attempted")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
