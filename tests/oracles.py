"""Independent brute-force oracles used to cross-check the package.

Everything here deliberately avoids the implementation paths it checks:
isomorphism by trying every bijection, maximal tails straight from the
axioms, transitive reduction by boolean matrix composition, determinants by
fraction-free elimination, and h-classes by dense rational sampling.
"""

from fractions import Fraction
from itertools import combinations, permutations

from topocert import Circle, DiGraph, FullLine, NotAHomeomorphism, Segment
from topocert.spaces import Cover, FiniteSpace


def brute_force_isomorphic(g1: DiGraph, g2: DiGraph) -> bool:
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return False
    for perm in permutations(range(g1.n)):
        if all((perm[u], perm[v]) in g2.edges for u, v in g1.edges):
            return True
    return False


def exact_det(mat) -> int:
    """Bareiss fraction-free determinant."""
    n = len(mat)
    if n == 0:
        return 1
    a = [list(map(int, row)) for row in mat]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def reachable_sets(g: DiGraph):
    reach = []
    for v in range(g.n):
        seen = {v}
        stack = [v]
        while stack:
            w = stack.pop()
            for x in g.out_sets[w]:
                if x not in seen:
                    seen.add(x)
                    stack.append(x)
        reach.append(frozenset(seen))
    return reach


def maximal_tails_axioms(g: DiGraph):
    """Maximal tails straight from the three axioms, over all subsets."""
    reach = reachable_sets(g)
    tails = []
    verts = list(range(g.n))
    for size in range(1, g.n + 1):
        for combo in combinations(verts, size):
            t = set(combo)
            # (a) closed under predecessors via reachability
            if any(w in reach[v] and v not in t for v in verts for w in t):
                continue
            # (b) downward directed
            if not all(
                any(y in reach[u] and y in reach[v] for y in t)
                for u in t for v in t
            ):
                continue
            # (c) every non-sink member emits into the set
            if any(
                g.out_sets[v] and not (g.out_sets[v] & t) for v in t
            ):
                continue
            tails.append(frozenset(t))
    tails.sort(key=lambda t: (len(t), tuple(sorted(t))))
    return tails


def transitive_reduction(n: int, order_pairs) -> set:
    """Reduction of a transitively closed strict order via R & ~(R o R)."""
    rel = [[False] * n for _ in range(n)]
    for i, j in order_pairs:
        rel[i][j] = True
    comp = [[False] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            if rel[i][k]:
                for j in range(n):
                    if rel[k][j]:
                        comp[i][j] = True
    return {(i, j) for i in range(n) for j in range(n)
            if rel[i][j] and not comp[i][j]}


def subset_scan_covers(space: FiniteSpace, n=None):
    """Cover enumeration by scanning every subset of the opens."""
    ne = [u for u in space.opens if u]
    full = frozenset(space.points)
    found = []
    for size in range(1, len(ne) + 1):
        if n is not None and size != n:
            continue
        for combo in combinations(ne, size):
            union = set()
            for m in combo:
                union |= m
            if union == full:
                found.append(frozenset(combo))
    return found



def push_forward_cover(cover: Cover, mapping, target: FiniteSpace) -> Cover:
    """Image of a cover under a homeomorphism ``mapping`` onto ``target``.

    The map must be a bijection of point sets carrying opens to opens in both
    directions; otherwise NotAHomeomorphism reports a witness open.
    """
    src = cover.space
    if set(mapping.keys()) != set(src.points):
        raise ValueError("mapping must be defined on exactly the source points")
    values = list(mapping.values())
    if len(set(values)) != len(values) or set(values) != set(target.points):
        raise ValueError("mapping must be a bijection onto the target points")
    target_masks = set(target.open_masks)
    src_masks = set(src.open_masks)
    for u in src.opens:
        image = frozenset(mapping[p] for p in u)
        if target.mask_of(image) not in target_masks:
            raise NotAHomeomorphism("image", u)
    inverse = {v: k for k, v in mapping.items()}
    for v in target.opens:
        pre = frozenset(inverse[p] for p in v)
        if src.mask_of(pre) not in src_masks:
            raise NotAHomeomorphism("preimage", v)
    members = tuple(frozenset(mapping[p] for p in m) for m in cover.members)
    return Cover(space=target, members=members)

# -- dense sampling oracles for arrangements ----------------------------------

def _raw_contains(domain, member, x: Fraction) -> bool:
    lo, hi, closed_lo = member.lo, member.hi, member.closed_lo
    if isinstance(domain, Circle):
        if lo < hi:
            return lo < x < hi
        return x > lo or x < hi
    if lo is not None and (x < lo if closed_lo else x <= lo):
        return False
    if hi is not None and x >= hi:
        return False
    return True


def sampled_interval_classes(spec) -> set:
    """Distinct member sets from dense rational samples of the domain."""
    domain = spec.domain
    vals = sorted({
        v for m in spec.members for v in (m.lo, m.hi) if v is not None
    })
    samples = []
    if isinstance(domain, Segment):
        vals = [v for v in vals if domain.lo <= v < domain.hi]
        anchors = sorted(set(vals) | {domain.lo})
        for i, v in enumerate(anchors):
            samples.append(v)
            nxt = anchors[i + 1] if i + 1 < len(anchors) else domain.hi
            for k in (1, 2, 3):
                s = v + (nxt - v) * Fraction(k, 4)
                if v < s < nxt:
                    samples.append(s)
    elif isinstance(domain, FullLine):
        if not vals:
            samples = [Fraction(0)]
        else:
            samples.append(vals[0] - 2)
            samples.append(vals[0] - 1)
            for i, v in enumerate(vals):
                samples.append(v)
                if i + 1 < len(vals):
                    for k in (1, 2, 3):
                        samples.append(v + (vals[i + 1] - v) * Fraction(k, 4))
            samples.append(vals[-1] + 1)
            samples.append(vals[-1] + 2)
    else:
        c = domain.circumference
        for i, v in enumerate(vals):
            samples.append(v)
            nxt = vals[i + 1] if i + 1 < len(vals) else vals[0] + c
            for k in (1, 2, 3):
                samples.append((v + (nxt - v) * Fraction(k, 4)) % c)
    classes = set()
    for x in samples:
        h = frozenset(
            i for i, m in enumerate(spec.members) if _raw_contains(domain, m, x)
        )
        classes.add(h)
    return classes


def sampled_plane_classes(spec) -> set:
    """Distinct member sets from dense samples of the threshold grid."""
    def axis_samples(thresholds):
        ts = sorted(set(thresholds))
        if not ts:
            return [Fraction(0)]
        out = [ts[0] - 1]
        for i, t in enumerate(ts):
            out.append(t)
            if i + 1 < len(ts):
                out.append(t + (ts[i + 1] - t) / 2)
        out.append(ts[-1] + 1)
        return out

    xs = axis_samples([c.c for m in spec.members for c in m if c.var == "x"])
    ys = axis_samples([c.c for m in spec.members for c in m if c.var == "y"])
    classes = set()
    for x in xs:
        for y in ys:
            h = set()
            for i, conj in enumerate(spec.members):
                ok = True
                for con in conj:
                    val = x if con.var == "x" else y
                    if con.op == "<" and not val < con.c:
                        ok = False
                        break
                    if con.op == ">" and not val > con.c:
                        ok = False
                        break
                if ok:
                    h.add(i)
            classes.add(frozenset(h))
    return classes


# -- random generators ---------------------------------------------------------

def random_digraph(rng, n: int, p: float = 0.3) -> DiGraph:
    edges = {
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < p
    }
    return DiGraph(n=n, edges=frozenset(edges))


def random_dag(rng, n: int, p: float = 0.35) -> DiGraph:
    """Random DAG with shuffled vertex labels."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.add((order[i], order[j]))
    return DiGraph(n=n, edges=frozenset(edges))


def random_space(rng, max_points: int = 5, max_opens: int = 8):
    """Random finite space via a random subbasis; topologies with too many
    opens are resampled so exhaustive cover enumeration stays cheap."""
    from topocert import generate_topology

    while True:
        npts = rng.randint(1, max_points)
        points = [f"p{i}" for i in range(npts)]
        nsets = rng.randint(0, 3)
        subbasis = []
        for _ in range(nsets):
            s = [p for p in points if rng.random() < 0.5]
            if s:
                subbasis.append(s)
        space = generate_topology(points, subbasis)
        if len(space.nonempty_opens) <= max_opens:
            return space
