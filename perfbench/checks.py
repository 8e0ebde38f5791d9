"""Output checks whose references do not come from the code under test.

Each check takes the parsed stdout of one CLI call and returns a list of
problems (empty when the output is right).  Fingerprints are compared by
keys computed here from their JSON, with the spectrum poset brought to a
canonical form by brute force, so a check never calls topocert.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from typing import Iterable, List, Optional


def fingerprint_problems(fp: dict) -> List[str]:
    """Facts every fingerprint of an acyclic Hasse digraph must satisfy:
    one block and one spectrum point per sink, K0 free of that rank, K1 = 0."""
    out = []
    blocks = fp["blocks"]
    k0, k1 = fp["k"]["k0"], fp["k"]["k1"]
    if not blocks or any(b < 1 for b in blocks) or blocks != sorted(blocks):
        out.append(f"bad block multiset {blocks}")
    if fp["prim"]["points"] != len(blocks) or k0["rank"] != len(blocks):
        out.append("sink count differs between blocks, spectrum and K0")
    if k0["torsion"] or k1["rank"] != 0:
        out.append("an acyclic graph has free K0 and zero K1")
    if fp["graph"]["vertices"] < len(blocks):
        out.append("fewer vertices than sinks")
    return out


def _canonical_order(points: int, pairs: Iterable) -> tuple:
    """Smallest relabelled pair list over the labellings that sort points by
    (in-degree, out-degree); isomorphic orders get equal forms."""
    pairs = [tuple(p) for p in pairs]
    sig = [(sum(1 for _, j in pairs if j == v), sum(1 for i, _ in pairs if i == v))
           for v in range(points)]
    groups = {}
    for v in range(points):
        groups.setdefault(sig[v], []).append(v)
    order = sorted(groups)
    best = None
    for choice in product(*(permutations(groups[s]) for s in order)):
        label = {}
        for seq in choice:
            for v in seq:
                label[v] = len(label)
        form = tuple(sorted((label[i], label[j]) for i, j in pairs))
        if best is None or form < best:
            best = form
    return (tuple(order), best)


def key(fp: dict, level: str) -> tuple:
    """The comparison key of a fingerprint at ``level``, from its JSON."""
    if level == "graph":
        return (fp["graph"]["vertices"], fp["graph"]["cert"])
    if level == "cstar":
        prim = fp["prim"]
        return (tuple(fp["blocks"]), prim["points"],
                _canonical_order(prim["points"], prim["order"]))
    if level == "ktheory":
        k0 = fp["k"]["k0"]
        return (k0["rank"], tuple(k0["torsion"]), fp["k"]["k1"]["rank"])
    raise ValueError(f"unknown level {level!r}")


def keys(listing: dict, level: str) -> set:
    return {key(fp, level) for fp in listing["fingerprints"]}


def listing_problems(doc: dict, level: str, n, exhaustive: Optional[bool] = None,
                     max_vertices: Optional[int] = None) -> List[str]:
    """A fingerprint listing (``pg`` output, or one side of ``compare``)."""
    out = []
    fps = doc["fingerprints"]
    if doc["level"] != level or doc["n"] != n:
        out.append(f"scope is {doc['level']}/{doc['n']}, expected {level}/{n}")
    if exhaustive is not None and doc.get("exhaustive") is not exhaustive:
        out.append(f"exhaustive flag is not {exhaustive}")
    if doc["count"] != len(fps):
        out.append("count differs from the listed fingerprints")
    if len(keys(doc, level)) != len(fps):
        out.append("a fingerprint is listed twice")
    for fp in fps:
        out += fingerprint_problems(fp)
        if max_vertices is not None and fp["graph"]["vertices"] > max_vertices:
            out.append(f"{fp['graph']['vertices']} vertices, at most "
                       f"{max_vertices} possible")
    return out


def pg_check(level: str, n, max_vertices: int, exhaustive: bool):
    def check(doc: dict, _code: int) -> List[str]:
        out = listing_problems(doc, level, n, exhaustive, max_vertices)
        if not doc["count"]:
            out.append("no fingerprints")
        return out
    return check


def compare_check(level: str, n: int, subset: bool):
    """``compare`` output; with ``subset`` the first side's covers live in the
    second side's exhaustive family, so its keys must all appear there."""
    def check(doc: dict, code: int) -> List[str]:
        out = listing_problems(doc["a"], level, n) + listing_problems(doc["b"], level, n)
        ka, kb = keys(doc["a"], level), keys(doc["b"], level)
        if doc["match"] != (ka == kb) or code != (0 if ka == kb else 2):
            out.append("match verdict or exit code disagrees with the listings")
        if subset and not ka <= kb:
            out.append(f"{len(ka - kb)} witness fingerprint(s) missing from the "
                       "exhaustive family that contains them")
        return out
    return check


def cover_form(doc: dict) -> frozenset:
    """An interval or plane witness cover's members as a set, rationals
    normalised, so covers compare whatever their member order or spelling."""
    if "domain" not in doc:
        return frozenset(
            frozenset((c["var"], c["op"], Fraction(c["c"])) for c in conj)
            for conj in doc["members"])

    def end(v):
        return None if v is None or str(v).lstrip("+-") == "inf" else Fraction(v)

    return frozenset((end(m.get("lo")), end(m.get("hi")), bool(m.get("closed_lo")))
                     for m in doc["members"])


def certify_check(level: str, n: int, witness_side: Optional[str],
                  exhaustive_side: str, witness_covers: Optional[set] = None,
                  must_find: bool = False, must_not_find: bool = False):
    """``certify`` output over ``--n-range n..n``.

    A certificate must name ``witness_side``, and its witness key must be
    absent from the exhaustive side's own listing.  ``witness_covers`` holds
    the cover forms the witness cover must come from.
    """
    def check(doc: dict, code: int) -> List[str]:
        if doc.get("certificate", ...) is None:
            out = [] if code == 2 else ["no certificate, yet exit code is not 2"]
            if doc["searched_n"] != [n, n]:
                out.append(f"searched {doc['searched_n']}, expected {[n, n]}")
            if must_find:
                out.append("no certificate where one must exist")
            return out
        out = [] if code == 0 else ["certificate printed with a nonzero exit code"]
        if must_not_find:
            out.append("certificate for a pair of sides that cannot be told apart")
        if doc["verdict"] != "not_homeomorphic":
            out.append(f"verdict {doc['verdict']!r}")
        if (doc["level"], doc["n"]) != (level, n):
            out.append(f"certificate at {doc['level']}/{doc['n']}")
        if doc["witness_side"] != witness_side:
            out.append(f"witness side {doc['witness_side']!r}, expected {witness_side!r}")
        exh = doc["exhaustive_side"]
        listing = doc["listings"].get(exhaustive_side)
        if exh["name"] != exhaustive_side or listing is None:
            out.append(f"exhaustive side {exh['name']!r}, expected {exhaustive_side!r}")
            return out
        out += listing_problems(listing, level, n)
        out += fingerprint_problems(doc["witness_fingerprint"])
        if exh["fingerprint_count"] != len(listing["fingerprints"]):
            out.append("exhaustive fingerprint count differs from its listing")
        if key(doc["witness_fingerprint"], level) in keys(listing, level):
            out.append("witness key is present in its own exhaustive listing")
        if witness_covers is not None and (
                doc["witness_cover"] is None
                or cover_form(doc["witness_cover"]) not in witness_covers):
            out.append("witness cover is not one of the witness side's covers")
        return out
    return check
