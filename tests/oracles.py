"""Independent brute-force oracles used to cross-check the package.

Everything here deliberately avoids the implementation paths it checks:
isomorphism by trying every bijection, maximal tails straight from the
axioms, transitive reduction by boolean matrix composition, determinants by
fraction-free elimination, and h-classes by dense rational sampling.
"""

from fractions import Fraction
from itertools import combinations, permutations

from topocert import (
    Circle,
    DiGraph,
    FullLine,
    HPartition,
    Interval,
    IntervalSpec,
    Segment,
    TopocertError,
    canonical_key,
)
from topocert.hasse import class_order
from topocert.spaces import Cover, FiniteSpace


def class_sets(partition) -> list:
    """The classes of ``partition`` as frozensets of member indices, decoded
    here rather than by ``hasse.class_members``: member i of n is bit
    n-1-i."""
    n = partition.member_count
    return [frozenset(i for i in range(n) if c >> (n - 1 - i) & 1)
            for c in partition.classes]


def partition_of_sets(sets, member_count: int, source: str = "") -> HPartition:
    """The partition whose classes are the frozensets of member indices
    ``sets``, encoded as ``class_sets`` decodes them."""
    top = member_count - 1
    return HPartition(member_count,
                      class_order(sum(1 << (top - i) for i in c) for c in sets), source)


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


class NotAHomeomorphism(TopocertError):
    """A point bijection fails to carry opens to opens."""

    kind = "NotAHomeomorphism"

    def __init__(self, direction: str, witness):
        self.direction = direction
        self.witness = witness
        super().__init__(
            f"not a homeomorphism: {direction} of open {sorted(map(str, witness))}"
            " is not open"
        )


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

def brute_force_type_key(partition) -> tuple:
    """Partition identity up to relabeling the members: the least sorted
    class list over all n! member permutations."""
    n = partition.member_count
    return (n, min(
        tuple(sorted(tuple(sorted(perm[i] for i in c)) for c in class_sets(partition)))
        for perm in permutations(range(n))
    ))


# -- dense sampling oracles for arrangements ----------------------------------

def interval_contains(domain, member, x: Fraction) -> bool:
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
            i for i, m in enumerate(spec.members) if interval_contains(domain, m, x)
        )
        classes.add(h)
    return classes


def weak_order_type_keys(domain, n: int) -> set:
    """Canonical keys of every n-interval cover of a segment or the line,
    from one cover per weak order of its 2n labelled endpoints.

    A weak order with k distinct interior values puts them at 1..k, and 0
    and k + 1 stand for the domain's ends (an unbounded end on the line).
    Every interior value is some endpoint's, each member has lo < hi, and on
    a segment a member from its left end is tried closed and open there.
    Relabelling members keeps the type, so members are distinct and taken in
    sorted order.  Classes come from dense samples, so a family that misses
    a point shows the empty class and is dropped.
    """
    keys = set()
    for k in range(2 * n + 1):
        if isinstance(domain, Segment):
            span = domain.hi - domain.lo
            at = [domain.lo + span * Fraction(r, k + 1) for r in range(k + 2)]
        else:
            at = [None] + [Fraction(r) for r in range(1, k + 1)] + [None]
        members = [(lo, hi, closed)
                   for lo in range(k + 1) for hi in range(lo + 1, k + 2)
                   for closed in (False, True)
                   if not closed or (lo == 0 and isinstance(domain, Segment))]
        for order in combinations(members, n):
            if len({r for lo, hi, _ in order for r in (lo, hi)} - {0, k + 1}) < k:
                continue
            spec = IntervalSpec(domain, tuple(Interval(at[lo], at[hi], closed)
                                              for lo, hi, closed in order))
            classes = sampled_interval_classes(spec)
            if frozenset() not in classes:
                keys.add(canonical_key(partition_of_sets(classes, n)))
    return keys


def in_domain(domain, x: Fraction) -> bool:
    if isinstance(domain, Segment):
        return domain.lo <= x < domain.hi
    if isinstance(domain, Circle):
        return 0 <= x < domain.circumference
    return True


def region_contains(conj, x: Fraction, y: Fraction) -> bool:
    """Whether (x, y) satisfies every strict constraint of a plane member."""
    for con in conj:
        val = x if con.var == "x" else y
        if con.op == "<" and not val < con.c:
            return False
        if con.op == ">" and not val > con.c:
            return False
    return True


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
            classes.add(frozenset(i for i, conj in enumerate(spec.members)
                                  if region_contains(conj, x, y)))
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


def random_partition(rng, max_members: int = 4):
    """Random partition on at most ``max_members`` members, together with a
    copy whose members are shuffled (same type, different labels)."""
    n = rng.randint(1, max_members)
    masks = rng.sample(range(1, 2 ** n), rng.randint(1, min(6, 2 ** n - 1)))
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(
        partition_of_sets([frozenset(p[i] for i in range(n) if m >> i & 1)
                           for m in masks], n)
        for p in (range(n), perm)
    )


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
