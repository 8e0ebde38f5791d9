"""Seeded inputs and the CLI calls of each workload.

The seed fixes every generated file; the program only ever sees those files
(plus the repo's fixtures named below).  Every seed asks for the same amount
of work: what sets the cost of a call (a finite space's topology, a domain's
endpoints) comes from a fixed stream, and the seed draws the presentation
(point names, the order of opens, where a domain sits) and the witness
covers, which are many per file so that their cost averages out.

Every generated input is checked with the independent oracles in
``tests/oracles.py`` before any timing: ``subset_scan_covers`` gives the
expected cover count of each finite space, and ``sampled_interval_classes``
/ ``sampled_plane_classes`` confirm that each witness cover really covers.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

import checks

ROOT = Path(__file__).resolve().parent.parent
LEVELS = ("graph", "cstar", "ktheory")

# Combinatorial types of n-interval covers of the segment or the line, the
# hand-known sequence 1, 2, 12, 114, 1640.
TYPE_COUNTS = {1: 1, 2: 2, 3: 12, 4: 114, 5: 1640}

# Why each workload is in the benchmark (also in BENCHMARK.json).
WHY = {
    "types": "exhaustive interval-type enumeration (pg on the line and a "
             "unit segment, n=4): slot generation, the Fraction cell walk and "
             "canonical_key dedup do over 95% of the work",
    "spaces": "pg at all sizes on 6-point spaces with 12-14 opens, relabelled "
              "per seed, and chain_4: enumerate_covers, hasse, graphalgebra/snf "
              "and canonical_cert with the cache mostly hitting; no arrangements",
    "witness": "about 40 short pg/compare/certify calls on seeded rational "
               "witness covers with ties against cheap exhaustive sides: real "
               "cell walks, cache misses, certificates, jsonio, start-up",
}


@dataclass
class Call:
    """One CLI invocation and what its result must satisfy."""

    argv: List[str]
    items: int  # items it fingerprints that count toward items_per_s
    fingerprints: Tuple[int, int]  # inclusive range of fingerprint_of calls
    codes: frozenset  # exit codes it may end with
    check: Callable[[dict, int], List[str]]


@dataclass
class Workload:
    name: str
    calls: List[Call]
    items: int  # per pass
    item_kind: str
    notes: List[str]


# -- finite spaces -------------------------------------------------------------

def _closure(masks, full: int) -> set:
    """Open sets generated by ``masks``: close under pairwise unions and
    intersections, with the empty set and the whole space."""
    opens = set(masks) | {0, full}
    while True:
        new = {a | b for a in opens for b in opens} | {a & b for a in opens for b in opens}
        if new <= opens:
            return opens
        opens |= new


def _cover_count(opens, full: int) -> int:
    """Subsets of the nonempty opens whose union is everything, by counting
    reachable unions (used only to steer sampling; the oracle decides)."""
    ways = {0: 1}
    for m in sorted(o for o in opens if o):
        nxt = dict(ways)
        for u, c in ways.items():
            nxt[u | m] = nxt.get(u | m, 0) + c
        ways = nxt
    return ways.get(full, 0)


def _sample_space(rng: random.Random, points: int, opens_wanted: int,
                  covers_band: Optional[Tuple[int, int]] = None) -> set:
    full = (1 << points) - 1
    for _ in range(200_000):
        sub = [rng.randrange(1, full) for _ in range(rng.randint(2, 5))]
        opens = _closure(sub, full)
        if len(opens) - 1 != opens_wanted:
            continue
        if covers_band and not covers_band[0] <= _cover_count(opens, full) <= covers_band[1]:
            continue
        return opens
    raise RuntimeError(f"no {points}-point space with {opens_wanted} opens found")


def _space_doc(rng: random.Random, points: int, opens: set) -> dict:
    names = [f"q{i}" for i in range(points)]
    rng.shuffle(names)
    listed = [sorted(names[i] for i in range(points) if m >> i & 1) for m in opens]
    rng.shuffle(listed)
    return {"points": sorted(names), "opens": listed}


def _finite_space(doc: dict):
    """An oracle-ready FiniteSpace built from a space file without topocert's
    validation: explicit opens, or the topology a subbasis generates."""
    from topocert.spaces import FiniteSpace

    points = list(doc["points"])
    bit = {p: 1 << i for i, p in enumerate(points)}
    masks = [sum(bit[p] for p in s) for s in doc.get("opens", doc.get("subbasis"))]
    opens = set(masks) if "opens" in doc else _closure(masks, (1 << len(points)) - 1)
    return FiniteSpace(points=tuple(points), opens=tuple(
        frozenset(p for p in points if m & bit[p]) for m in sorted(opens)))


def _oracle_covers(space, n: Optional[int] = None) -> int:
    from oracles import subset_scan_covers

    return len(subset_scan_covers(space, n))


# -- interval, arc and plane witness covers ------------------------------------

def _rational(rng: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice((1, 2, 3, 7, 12, 29, 360)))


def _pool(size: int, draw) -> list:
    """``size`` distinct values from ``draw``, sorted; members pick their
    endpoints from a small pool, so endpoints tie often."""
    vals = set()
    while len(vals) < size:
        vals.add(draw())
    return sorted(vals)


def _segment_members(rng, lo, hi, pool, n) -> set:
    """A chain [lo, e1), (s2, e2), ..., (sc, hi) with each s below the
    previous end covers the segment; random members fill up to n."""
    c = rng.randint(1, min(n, len(pool) + 1))
    ends = sorted(rng.sample(pool, c - 1)) + [hi]
    members = {(lo, ends[0], True)}
    for i in range(1, c):
        members.add((rng.choice([lo] + [v for v in pool if v < ends[i - 1]]), ends[i], False))
    ends_all = pool + [hi]
    while len(members) < n:
        if rng.random() < 0.3:
            members.add((lo, rng.choice(ends_all), True))
        else:
            a, b = sorted(rng.sample([lo] + ends_all, 2))
            members.add((a, b, False))
    return members


def _line_members(rng, pool, n) -> set:
    """Whole line, or a ray-interval-ray chain, plus random rays/intervals."""
    c = rng.randint(1, min(n, len(pool)))
    if c == 1:
        members = {(None, None, False)}
    else:
        ends = sorted(rng.sample(pool, c - 1))
        members = {(None, ends[0], False)}
        for i in range(1, c):
            below = [v for v in pool if v < ends[i - 1]]
            if not below:
                return set()
            members.add((rng.choice(below), ends[i] if i < c - 1 else None, False))
    while len(members) < n:
        r = rng.random()
        if r < 0.2:
            members.add((None, rng.choice(pool), False))
        elif r < 0.4:
            members.add((rng.choice(pool), None, False))
        elif r < 0.45:
            members.add((None, None, False))
        else:
            a, b = sorted(rng.sample(pool, 2))
            members.add((a, b, False))
    return members


def _circle_members(rng, pool, n) -> set:
    """Arcs (v0, v3), (v2, v5), ... over 2c sorted pool values overlap all
    the way round; random arcs fill up to n."""
    c = rng.randint(2, min(n, len(pool) // 2))
    v = sorted(rng.sample(pool, 2 * c))
    members = {(v[2 * i], v[(2 * i + 3) % (2 * c)], False) for i in range(c)}
    while len(members) < n:
        a, b = rng.sample(pool, 2)
        members.add((a, b, False))
    return members


def _plane_members(rng, n) -> list:
    """Two overlapping half-planes or four corner regions, plus random
    one- or two-constraint regions."""
    def t():
        return _rational(rng, -60, 60)

    if rng.random() < 0.5:
        var = rng.choice("xy")
        a, b = sorted((t(), t()))
        members = [[(var, "<", b)], [(var, ">", a)]]
    else:
        members = [[("x", "<", t()), ("y", ">", t())], [("x", ">", t()), ("y", "<", t())],
                   [("x", ">", t()), ("y", ">", t())], [("x", "<", t()), ("y", "<", t())]]
    while len(members) < n:
        var = rng.choice("xy")
        lo, hi = sorted((t(), t()))
        shape = rng.randrange(4)
        if shape == 0 and lo < hi:
            members.append([(var, ">", lo), (var, "<", hi)])
        elif shape == 1:
            other = "y" if var == "x" else "x"
            members.append([(var, rng.choice("<>"), lo), (other, rng.choice("<>"), hi)])
        else:
            members.append([(var, rng.choice("<>"), lo)])
    return members[:n]


def _interval_spec(domain, members):
    from topocert.arrangements import Interval, IntervalSpec

    return IntervalSpec(domain=domain, members=tuple(
        Interval(lo=lo, hi=hi, closed_lo=closed) for lo, hi, closed in members))


def _covers_interval(domain, members) -> bool:
    from oracles import sampled_interval_classes

    return frozenset() not in sampled_interval_classes(_interval_spec(domain, members))


def _covers_plane(members) -> bool:
    from oracles import sampled_plane_classes
    from topocert.arrangements import AxisAlignedSpec, Constraint

    spec = AxisAlignedSpec(members=tuple(
        tuple(Constraint(var=v, op=op, c=c) for v, op, c in conj) for conj in members))
    return frozenset() not in sampled_plane_classes(spec)


def _end(v) -> Optional[str]:
    return None if v is None else str(v)


def _member_key(m) -> tuple:
    lo, hi, closed = m
    return (lo is not None, lo or 0, hi is None, hi or 0, closed)


def _member_json(m) -> dict:
    doc = {"lo": _end(m[0]), "hi": _end(m[1])}
    if m[2]:
        doc["closed_lo"] = True
    return doc


def _witness_file(rng, kind: str, sizes, per_size: int):
    """(file document, {n: [cover forms]}) of ``per_size`` oracle-checked
    covers for each size."""
    from topocert.arrangements import Circle, FullLine, Segment

    # Each domain's own endpoints are fixed in cost (an integer start, a set
    # span); the covers' endpoints are arbitrary rationals.
    if kind == "segment":
        lo = Fraction(rng.randint(-40, 40))
        hi = lo + Fraction(50, 7)
        domain, domain_doc = Segment(lo, hi), {"kind": "segment", "lo": str(lo), "hi": str(hi)}

        def draw(n):
            pool = _pool(n + 1, lambda: lo + (hi - lo) * Fraction(rng.randint(1, 359), 360))
            return _segment_members(rng, lo, hi, pool, n)
    elif kind == "line":
        domain, domain_doc = FullLine(), {"kind": "line"}

        def draw(n):
            return _line_members(rng, _pool(n + 1, lambda: _rational(rng, -200, 200)), n)
    else:
        circ = Fraction(25, 2)
        domain, domain_doc = Circle(circ), {"kind": "circle", "circumference": str(circ)}

        def draw(n):
            pool = _pool(2 * n + 1, lambda: circ * Fraction(rng.randint(0, 719), 720))
            return _circle_members(rng, pool, n)
    covers, forms = [], {}
    for n in sizes:
        forms[n] = []
        while len(forms[n]) < per_size:
            members = draw(n)
            if len(members) != n or not _covers_interval(domain, members):
                continue
            # a fixed order before shuffling: sets of members holding None
            # iterate in an order that changes from process to process
            ordered = sorted(members, key=_member_key)
            rng.shuffle(ordered)
            covers.append([_member_json(m) for m in ordered])
            forms[n].append(frozenset(members))
    return {"domain": domain_doc, "covers": covers}, forms


# -- workloads -----------------------------------------------------------------

def _write(work: Path, name: str, doc: dict) -> str:
    """Write a generated input; its path is given relative to the checkout
    root, where the CLI runs."""
    path = work / name
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return str(path.relative_to(ROOT))


def _pg_argv(path: str, level: str, n: Optional[int] = None) -> List[str]:
    argv = ["pg", "--input", path, "--level", level]
    return argv + (["--n", str(n)] if n is not None else [])


def types(seed: int, work: Path) -> Workload:
    # The slot values lo + k/(m+1) cost the same on every unit segment with
    # an integer start; a random rational span changed the call's time by
    # up to 2x from seed to seed.
    rng = random.Random(f"types:{seed}")
    lo = rng.randint(-30, 30)
    hi = lo + 1
    line = _write(work, "line_domain.json", {"domain": {"kind": "line"}})
    seg = _write(work, "segment_domain.json",
                 {"domain": {"kind": "segment", "lo": str(lo), "hi": str(hi)}})
    calls = []
    for path, n, level in ((line, 4, "graph"), (seg, 4, "cstar")):
        count = TYPE_COUNTS[n]
        calls.append(Call(_pg_argv(path, level, n), count, (count, count),
                          frozenset({0}),
                          checks.pg_check(level, n, 2 ** n - 1, True)))
    return Workload("types", calls, sum(c.items for c in calls), "types",
                    [f"segment [{lo},{hi})"])


# Cover-count band per open count of the spaces the fixed stream draws.
SPACE_BANDS = {12: (3100, 3300), 13: (5930, 6300), 14: (13530, 14370)}


def spaces(seed: int, work: Path) -> Workload:
    # Spaces with equal cover counts still differed by 1.6x in time, so the
    # topologies come from a fixed stream and the seed relabels them.
    shapes = random.Random("spaces")
    rng = random.Random(f"spaces:{seed}")
    calls, notes = [], []
    files = []
    for k, band in SPACE_BANDS.items():
        opens = _sample_space(shapes, 6, k, band)
        doc = _space_doc(rng, 6, opens)
        files.append((_write(work, f"space_{k}.json", doc), doc))
    chain = ROOT / "fixtures" / "chain_4.json"
    files.append(("fixtures/chain_4.json", json.loads(chain.read_text(encoding="utf-8"))))
    for i, (path, doc) in enumerate(files):
        covers = _oracle_covers(_finite_space(doc))
        points = len(doc["points"])
        level = LEVELS[i % len(LEVELS)]
        notes.append(f"{path}: {len(doc['opens']) - 1} nonempty opens, {covers} covers, {level}")
        calls.append(Call(_pg_argv(path, level), covers, (covers, covers), frozenset({0}),
                          checks.pg_check(level, "all", points, True)))
    return Workload("spaces", calls, sum(c.items for c in calls), "covers", notes)


WITNESS_SIZES = (3, 4, 5, 6, 7)
WITNESS_PER_SIZE = 60


def witness(seed: int, work: Path) -> Workload:
    shapes = random.Random("witness")
    rng = random.Random(f"witness:{seed}")
    fixtures = ROOT / "fixtures"

    def fixture(name):
        return f"fixtures/{name}", json.loads((fixtures / name).read_text(encoding="utf-8"))

    # exhaustive sides: name -> (path, fingerprint_of calls at size n)
    sides = {}
    for name in ("three_point_model.json", "sierpinski.json"):
        path, doc = fixture(name)
        space = _finite_space(doc)
        sides[name] = (path, lambda n, s=space: _oracle_covers(s, n))
    for i in range(2):
        opens = _sample_space(shapes, 5, shapes.randint(7, 9))
        doc = _space_doc(rng, 5, opens)
        space = _finite_space(doc)
        sides[f"space{i}"] = (_write(work, f"wspace_{i}.json", doc),
                              lambda n, s=space: _oracle_covers(s, n))
    for name in ("segment_domain.json", "line_domain.json"):
        sides[name] = (f"fixtures/{name}", TYPE_COUNTS.__getitem__)

    files = {}
    for kind in ("segment", "line", "circle"):
        doc, forms = _witness_file(rng, kind, WITNESS_SIZES, WITNESS_PER_SIZE)
        files[kind] = (_write(work, f"w_{kind}.json", doc), forms)
    planes = {}
    for n in WITNESS_SIZES:
        while True:
            members = _plane_members(rng, n)
            if _covers_plane(members):
                break
        doc = {"members": [[{"var": v, "op": op, "c": str(c)} for v, op, c in conj]
                           for conj in members]}
        planes[n] = (_write(work, f"w_plane_{n}.json", doc),
                     {n: [checks.cover_form(doc)]})

    calls: List[Call] = []
    levels = itertools.cycle(LEVELS)

    def level():
        return next(levels)

    def pg(path, forms, n=None):
        lv = level()
        covers = sum(len(v) for k, v in forms.items() if n is None or k == n)
        calls.append(Call(_pg_argv(path, lv, n), covers, (covers, covers), frozenset({0}),
                          checks.pg_check(lv, "all" if n is None else n,
                                          2 ** max(forms) - 1, False)))

    def compare(path, forms, side, n, subset=False):
        lv = level()
        side_path, side_count = sides[side]
        w = len(forms[n])
        total = w + side_count(n)
        calls.append(Call(["compare", "--input", path, "--input-b", side_path,
                           "--n", str(n), "--level", lv], w, (total, total),
                          frozenset({0, 2}), checks.compare_check(lv, n, subset)))

    def certify(path, forms, side, n, find=None):
        lv = level()
        side_path, side_count = sides[side]
        w = len(forms[n])
        base = w + side_count(n)
        codes = {True: {0}, False: {2}, None: {0, 2}}[find]
        calls.append(Call(["certify", "--input", path, "--input-b", side_path,
                           "--n-range", f"{n}..{n}", "--level", lv], w, (base, base + w),
                          frozenset(codes),
                          checks.certify_check(lv, n, "a", "b", set(forms[n]),
                                               must_find=find is True,
                                               must_not_find=find is False)))

    domain_of = {"segment": "segment_domain.json", "line": "line_domain.json",
                 "circle": "segment_domain.json"}
    for kind, (path, forms) in files.items():
        pg(path, forms)
        for n in (3, 7):
            pg(path, forms, n)
        # a segment (line) cover's type is among the segment's (line's) types
        same = kind != "circle"
        compare(path, forms, domain_of[kind], 3, subset=same)
        certify(path, forms, domain_of[kind], 3, find=False if same else None)
        certify(path, forms, "three_point_model.json", 3)
        # the Sierpinski space has two nonempty opens, so no 3-member cover
        certify(path, forms, "sierpinski.json", 3, find=True)
        certify(path, forms, "space0", 4)
        certify(path, forms, "space1", 5)
    certify(*files["circle"], "line_domain.json", 3)
    for n, (path, forms) in planes.items():
        pg(path, forms)
        certify(path, forms, "line_domain.json" if n == 3 else
                ("three_point_model.json", "space0", "space1")[n % 3], n)

    # the three README certify sessions, with the witness side each names
    readme = (
        ("segment_domain.json", "circle_cover.json", 4, "graph", "b"),
        ("line_domain.json", "plane_cover.json", 4, "graph", "b"),
        ("line_witness_covers.json", "three_point_model.json", 7, "cstar", "a"),
    )
    for a, b, n, lv, wside in readme:
        (pa, da), (pb, db) = fixture(a), fixture(b)
        wdoc = da if wside == "a" else db
        wcovers = wdoc.get("covers") or [wdoc["members"]]
        wforms = {checks.cover_form(
            {"domain": wdoc["domain"], "members": ms} if "domain" in wdoc else {"members": ms})
            for ms in wcovers if len(ms) == n}
        edoc = db if wside == "a" else da
        exh = TYPE_COUNTS[n] if "domain" in edoc else _oracle_covers(_finite_space(edoc), n)
        base = len(wforms) + exh
        calls.append(Call(["certify", "--input", pa, "--input-b", pb,
                           "--n-range", f"{n}..{n}", "--level", lv], len(wforms),
                          (base + 1, base + len(wforms)), frozenset({0}),
                          checks.certify_check(lv, n, wside, "b" if wside == "a" else "a",
                                               wforms, must_find=True)))
    notes = [f"{kind}: {sum(len(v) for v in forms.values())} covers"
             for kind, (_, forms) in files.items()]
    return Workload("witness", calls, sum(c.items for c in calls), "witness covers", notes)


def build(name: str, seed: int, work: Path) -> Workload:
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}")
    return globals()[name](seed, work)


NAMES: Sequence[str] = ("types", "spaces", "witness")
