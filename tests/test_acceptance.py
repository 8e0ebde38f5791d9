"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v``.
"""

import json
import os
import random
import re
import shutil
import subprocess
import sys
import textwrap
import time
from fractions import Fraction as F
from itertools import product

from topocert import (
    DiGraph,
    DomainSide,
    FullLine,
    Segment,
    SpaceSide,
    WitnessSide,
    canonical_cert,
    empty_space_fingerprints,
    enumerate_covers,
    enumerate_interval_cover_types,
    fingerprint_of,
    fingerprints_of_space,
    hasse_digraph,
    hclasses_axis2d,
    hclasses_of_intervals,
    hpartition_of_cover,
    is_isomorphic,
    maximal_tails,
    nonhomeo_certificate,
    relabel,
    sets_match,
    smith_normal_form,
    validate_topology,
    verify_certificate,
)
from topocert.jsonio import load_input
from topocert.snf import diagonal, matmul

from conftest import FIXTURES
from oracles import (
    brute_force_isomorphic,
    class_sets,
    exact_det,
    maximal_tails_axioms,
    random_dag,
    random_digraph,
    random_space,
    sampled_plane_classes,
    transitive_reduction,
)


def fx(name):
    return load_input(str(FIXTURES / name))


def ok(cid, message):
    print(f"ACCEPTANCE {cid}: PASS - {message}", flush=True)


def test_c1_trivial_topology_full_pipeline():
    loaded = fx("trivial_space.json")
    fp = fingerprint_of(loaded.cover)
    g = hasse_digraph(hpartition_of_cover(loaded.cover))
    assert g.n == 1 and not g.edges
    assert fp.blocks == (1,)
    assert fp.to_json()["k"] == {"k0": {"rank": 1, "torsion": []}, "k1": {"rank": 0}}
    assert fp.to_json()["prim"]["points"] == 1
    ok("C1", "trivial topology gives the one-vertex block-1 fingerprint")


def test_c2_chain_topologies_exhaustive():
    for k, name in ((2, "chain_2.json"), (3, "chain_3.json"), (4, "chain_4.json")):
        space = fx(name).space
        seen_blocks = set()
        for cover in enumerate_covers(space):
            part = hpartition_of_cover(cover)
            g = hasse_digraph(part)
            m = g.n
            path = DiGraph(n=m, edges=frozenset((i, i + 1) for i in range(m - 1)))
            assert canonical_cert(g) == canonical_cert(path), "every graph is a path"
            fp = fingerprint_of(part)
            assert fp.blocks == (m,)
            seen_blocks.add(m)
        assert seen_blocks == set(range(1, k + 1)), "exactly the k block sizes"
    ok("C2", "chains of depth 2,3,4 realize exactly the path fingerprints")


def test_c3_segment_and_circle_figures_exact():
    expected = json.loads((FIXTURES / "expected_certs.json").read_text())
    figures = {
        "segment_first": (
            "segment_cover_first.json",
            DiGraph(n=7, edges=frozenset(
                {(0, 1), (2, 1), (2, 3), (4, 3), (4, 5), (6, 5)})),
        ),
        "segment_third": (
            "segment_cover_third.json",
            DiGraph(n=6, edges=frozenset(
                {(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (2, 5), (3, 5)})),
        ),
        "circle": (
            "circle_cover.json",
            DiGraph(n=8, edges=frozenset(
                {(0, 4), (1, 4), (1, 5), (2, 5), (2, 6), (3, 6), (3, 7), (0, 7)})),
        ),
    }
    for key, (name, figure) in figures.items():
        spec = fx(name).specs[0]
        g = hasse_digraph(hclasses_of_intervals(spec))
        assert (g.n, len(g.edges)) == (figure.n, len(figure.edges))
        iso, _ = is_isomorphic(g, figure)
        assert iso, f"{key}: pipeline graph must match the drawn graph"
        assert canonical_cert(g).hex() == expected[key], f"{key}: stored cert"
    # the circle graph's underlying undirected graph is a single 8-cycle
    circle = figures["circle"][1]
    und = {frozenset(e) for e in circle.edges}
    assert len(und) == 8
    deg = {v: 0 for v in range(8)}
    for e in und:
        for v in e:
            deg[v] += 1
    assert all(d == 2 for d in deg.values())
    ok("C3", "figure graphs match exactly (7v/6e, 6v/7e, 8-cycle) with stored certs")


def test_c3_readme_recipe_regenerates_the_stored_certs(tmp_path):
    readme = (FIXTURES.parent / "README.md").read_text()
    recipe = re.search(r"python3 - <<'EOF'\n(.*?)\n *EOF\n", readme, re.S).group(1)
    shutil.copytree(FIXTURES, tmp_path / "fixtures")
    written = tmp_path / "fixtures" / "expected_certs.json"
    written.unlink()
    env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"))
    subprocess.run([sys.executable, "-"], input=textwrap.dedent(recipe), text=True,
                   cwd=tmp_path, env=env, check=True, timeout=60)
    assert written.read_bytes() == (FIXTURES / "expected_certs.json").read_bytes()
    ok("C3", "the README recipe rewrites expected_certs.json byte for byte")


def test_c4_segment_vs_circle_certificate():
    start = time.monotonic()
    segment = DomainSide(name="segment", domain=Segment(F(0), F(1)))
    circle = WitnessSide(name="circle",
                         covers=fx("circle_cover.json").specs)
    circle_graph = hasse_digraph(hclasses_of_intervals(circle.covers[0]))
    circle_cert = canonical_cert(circle_graph)
    for part in enumerate_interval_cover_types(Segment(F(0), F(1)), 4):
        assert canonical_cert(hasse_digraph(part)) != circle_cert
    cert = nonhomeo_certificate(segment, circle, (4, 4), "graph")
    assert cert is not None and cert.witness_side == "circle"
    assert verify_certificate(cert, segment, circle)
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"must finish within 5 minutes, took {elapsed:.1f}s"
    ok("C4", f"no 4-interval segment cover matches the circle graph ({elapsed:.1f}s)")


def test_c5_line_vs_plane_certificate():
    plane_loaded = fx("plane_cover.json")
    (plane_spec,) = plane_loaded.specs
    part2d = hclasses_axis2d(plane_spec)
    assert len(part2d.classes) == 12, "threshold-grid class count"
    # in-repo independent reimplementation: dense rational sampling
    assert sampled_plane_classes(plane_spec) == set(class_sets(part2d))
    line_max = max(
        len(p.classes) for p in enumerate_interval_cover_types(FullLine(), 4))
    assert line_max <= 9
    assert len(part2d.classes) > line_max
    line = DomainSide(name="line", domain=FullLine())
    plane = WitnessSide(name="plane", covers=plane_loaded.specs)
    cert = nonhomeo_certificate(line, plane, (4, 4), "graph")
    assert cert is not None and cert.witness_side == "plane"
    assert verify_certificate(cert, line, plane)
    ok("C5", f"plane cover has 12 classes (oracle-confirmed) vs <= {line_max} on the line")


def test_c6_line_vs_three_point_model():
    model_space = fx("three_point_model.json").space
    covers7 = list(enumerate_covers(model_space, 7))
    assert len(covers7) == 1, "the model has exactly one 7-member cover"
    part = hpartition_of_cover(covers7[0])
    member_index = {m: i for i, m in enumerate(covers7[0].members)}

    def h(point):
        return frozenset(i for m, i in member_index.items() if point in m)

    # the density table: each point sees exactly its four enclosing opens
    assert set(class_sets(part)) == {h("neg"), h("zero"), h("pos")}
    g = hasse_digraph(part)
    assert g.n == 3 and not g.edges, "three incomparable classes"
    assert fingerprint_of(part).blocks == (1, 1, 1)
    # no cover with more than 7 members exists
    for level in ("graph", "cstar", "ktheory"):
        assert fingerprints_of_space(model_space, 8, level).elements == ()
    line_side = WitnessSide(name="line",
                            covers=fx("line_witness_covers.json").specs)
    model_side = SpaceSide(name="model", space=model_space)
    # route 1: the model has a unique 7-cover, hence a single 7-fingerprint,
    # while the line realizes two non-isomorphic 7-cover graphs
    w1, w2 = (hasse_digraph(hclasses_of_intervals(s)) for s in line_side.covers)
    assert w1.n == 12  # the worked witness has 12 density classes
    iso, _ = is_isomorphic(w1, w2)
    assert not iso
    assert len(fingerprints_of_space(model_space, 7, "graph").elements) == 1
    # route 2: graph-level certificate; route 3: algebra-level certificate
    for level in ("graph", "cstar"):
        cert = nonhomeo_certificate(line_side, model_side, (7, 7), level)
        assert cert is not None and cert.witness_side == "line"
        assert verify_certificate(cert, line_side, model_side)
    ok("C6", "model's unique 7-cover is the 3-antichain; all three routes certify")


def test_c7a_snf_property_suite():
    rng = random.Random(20240811)
    for _ in range(1000):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        u, d, v = smith_normal_form(mat)
        assert matmul(matmul(u, mat), v) == d
        assert abs(exact_det(u)) == 1 and abs(exact_det(v)) == 1
        diag = diagonal(d)
        for a, b in zip(diag, diag[1:]):
            if b:
                assert a != 0 and b % a == 0
    ok("C7a", "SNF identity, unimodularity and divisor chain on 1000 matrices")


def test_c7b_maximal_tails_vs_axioms():
    # exhaustive census up to 5 vertices (upper-triangular representatives;
    # the property is label-invariant), then 500 random shuffled 6-7 DAGs
    for n in range(1, 6):
        slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for mask in range(1 << len(slots)):
            edges = frozenset(s for i, s in enumerate(slots) if mask >> i & 1)
            g = DiGraph(n=n, edges=edges)
            assert maximal_tails(g) == maximal_tails_axioms(g)
    rng = random.Random(7)
    for _ in range(500):
        g = random_dag(rng, rng.randint(6, 7))
        assert maximal_tails(g) == maximal_tails_axioms(g)
    ok("C7b", "maximal tails from axioms match sink-ancestor closures")


def test_c7c_certs_vs_brute_force():
    # exhaustive 4-vertex census
    slots = [(u, v) for u, v in product(range(4), repeat=2) if u != v]
    by_cert = {}
    for mask in range(1 << len(slots)):
        edges = frozenset(s for i, s in enumerate(slots) if mask >> i & 1)
        g = DiGraph(n=4, edges=edges)
        by_cert.setdefault(canonical_cert(g).blob, []).append(g)
    assert len(by_cert) == 218  # unlabeled digraphs on 4 nodes
    rng = random.Random(3)
    for members in by_cert.values():
        sample = rng.sample(members, min(2, len(members)))
        for g in sample[1:]:
            assert brute_force_isomorphic(sample[0], g)
    # 500 random pairs with up to 7 vertices
    for trial in range(500):
        n = rng.randint(1, 7)
        g1 = random_digraph(rng, n)
        if trial % 2 == 0:
            perm = list(range(n))
            rng.shuffle(perm)
            g2 = relabel(g1, perm)
        else:
            g2 = random_digraph(rng, n)
        iso, _ = is_isomorphic(g1, g2)
        assert iso == brute_force_isomorphic(g1, g2)
    ok("C7c", "canonical certs agree with brute-force isomorphism")


def test_c7d_hasse_vs_transitive_reduction():
    rng = random.Random(13)
    checked = 0
    for _ in range(40):
        space = random_space(rng)
        for cover in enumerate_covers(space):
            part = hpartition_of_cover(cover)
            sets = class_sets(part)
            k = len(sets)
            if k > 20:
                continue
            order_pairs = {
                (i, j) for i in range(k) for j in range(k)
                if sets[i] < sets[j]
            }
            g = hasse_digraph(part)
            assert g.edges == frozenset(transitive_reduction(k, order_pairs))
            checked += 1
    # include the worked covers
    for name in ("segment_cover_first.json", "segment_cover_second.json",
                 "segment_cover_third.json", "circle_cover.json"):
        part = hclasses_of_intervals(fx(name).specs[0])
        sets = class_sets(part)
        k = len(sets)
        order_pairs = {
            (i, j) for i in range(k) for j in range(k)
            if sets[i] < sets[j]
        }
        assert hasse_digraph(part).edges == frozenset(
            transitive_reduction(k, order_pairs))
        checked += 1
    assert checked > 100
    ok("C7d", f"Hasse graphs equal the reduction oracle on {checked} posets")


def test_c7e_homeomorphism_invariance_fuzz():
    rng = random.Random(2718)
    for _ in range(200):
        space = random_space(rng, max_points=5, max_opens=8)
        perm = list(space.points)
        rng.shuffle(perm)
        mapping = dict(zip(space.points, perm))
        relabeled = validate_topology(
            space.points, [{mapping[p] for p in u} for u in space.opens])
        for n in range(1, len(space.nonempty_opens) + 1):
            for level in ("graph", "cstar", "ktheory"):
                assert sets_match(
                    fingerprints_of_space(space, n, level),
                    fingerprints_of_space(relabeled, n, level),
                )
    ok("C7e", "relabeling invariance of fingerprint sets on 200 random spaces")


def test_c8_size_one_convention():
    names = ("trivial_space.json", "chain_2.json", "chain_3.json",
             "chain_4.json", "sierpinski.json", "three_point_model.json")
    for level in ("graph", "cstar", "ktheory"):
        reference = empty_space_fingerprints(level)
        for name in names:
            space = fx(name).space
            assert sets_match(fingerprints_of_space(space, 1, level), reference)
    singleton = empty_space_fingerprints("cstar")
    assert singleton.details[0]["blocks"] == [1]
    ok("C8", "size-1 sets equal the empty-space singleton fingerprint everywhere")
