"""Randomized reduction from Zero Triangle to parameterized triangle listing.

The pipeline, per trial: draw a prime p, shear the integer weights into
F_p with a random multiplier and telescoping per-vertex offsets, split the
field into contiguous ranges, and enumerate the range triples whose sumset
can hit zero. Each triple induces a sparse subinstance (after pruning
high-degree vertices) on which an injected listing solver runs; every
listed triangle is re-verified against the original weights, so a positive
answer is sound unconditionally and completeness comes from repetition.

Range indices are 1-based (ranges L_1..L_s); vertex indices stay 0-based.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Callable, Optional

from .instances import (_PAIR_PARTS, WEIGHTED_PAIRS, Triangle,
                        TripartiteWeightedGraph, UsageFailure, ceil_log2)
from .oracles import triangle_list_bf
from .rng import RngStream

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for anything this package draws."""
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n == small:
            return True
        if n % small == 0:
            return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class RandomizationData:
    """Prime p, multiplier x, and per-vertex offsets (one tuple per part)."""

    prime: int
    multiplier: int
    offsets: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

    def __post_init__(self):
        if not is_prime(self.prime):
            raise ValueError(f"{self.prime} is not prime")
        object.__setattr__(self, "offsets", tuple(tuple(o) for o in self.offsets))
        residues = [self.multiplier]
        for part in self.offsets:
            residues.extend(part)
        for r in residues:
            if not 0 <= r < self.prime:
                raise ValueError(f"residue {r} outside [0, {self.prime})")


@dataclass(frozen=True)
class RangeSplit:
    """[0, p) split into s contiguous ranges, the first p mod s of them one
    longer than the rest."""

    prime: int
    count: int

    def __post_init__(self):
        if not 1 <= self.count <= self.prime:
            raise ValueError("need 1 <= s <= p")

    @cached_property
    def _starts(self) -> tuple[int, ...]:
        """The starts of L_2..L_s: ``bisect_right`` on them maps a residue
        in [0, p) to the 0-based position of its range."""
        base, extra = divmod(self.prime, self.count)
        return tuple(r * base + min(r, extra) for r in range(1, self.count))

    @property
    def ranges(self) -> tuple[tuple[int, int], ...]:
        """The ranges in order, as inclusive (lo, hi) pairs."""
        bounds = (0, *self._starts, self.prime)
        return tuple((lo, nxt - 1) for lo, nxt in zip(bounds, bounds[1:]))

    def index_of(self, residue: int) -> int:
        """1-based id of the range containing the residue."""
        if not 0 <= residue < self.prime:
            raise ValueError(f"residue {residue} outside [0, {self.prime})")
        return bisect_right(self._starts, residue) + 1


@dataclass(frozen=True)
class SubinstanceReport:
    """One range triple's subinstance: its graph and what pruning removed."""

    graph: TripartiteWeightedGraph
    pruned: tuple[tuple[str, int], ...]


def pick_prime(max_abs_weight: int, rng: RngStream) -> int:
    """Rejection-sample a prime in [100 W, 100 W * max(2, ceil(log2(100 W)))].

    The window is at least [100 W, 200 W], so it always contains a prime and
    the loop terminates; the draw is deterministic given the stream.
    """
    if max_abs_weight < 1:
        raise ValueError("max_abs_weight must be >= 1")
    lo = 100 * max_abs_weight
    hi = lo * max(2, (lo - 1).bit_length())
    while True:
        candidate = rng.randint(lo, hi)
        if is_prime(candidate):
            return candidate


def draw_randomization(
    part_sizes: tuple[int, int, int], p: int, rng: RngStream,
) -> RandomizationData:
    x = rng.child("multiplier").randrange(p)
    streams = [rng.child("offsets", part) for part in range(3)]
    offsets = tuple(
        tuple(streams[part].randrange(p) for _ in range(part_sizes[part]))
        for part in range(3))
    return RandomizationData(p, x, offsets)


def randomize_weights(
    g: TripartiteWeightedGraph, rd: RandomizationData,
) -> TripartiteWeightedGraph:
    """Shear the weights so that triangle sums scale by the multiplier.

    New weights (all mod p): each pair's edge u -> v gets x*w - y_v + y_u,
    so AB gets x*w - y_b + y_a. Around any triangle the offsets telescope,
    so the w'-sum is x times the w-sum; zero triangles are preserved whenever
    x != 0. The weights w may be integers or residues mod p: both shear to
    the same residues.
    """
    if g.weight_modulus not in (None, rd.prime):
        raise ValueError("graph weights must be integers or live in F_p")
    p = rd.prime
    x = rd.multiplier
    if tuple(map(len, rd.offsets)) != g.part_sizes:
        raise ValueError("offset lengths must match part sizes")

    def shear(pair):
        yu, yv = (rd.offsets[part] for part in _PAIR_PARTS[pair])
        return tuple([(u, v, (x * w - yv[v] + yu[u]) % p)
                      for u, v, w in g.edges(pair)])

    return TripartiteWeightedGraph._trusted(
        g.part_sizes, *map(shear, WEIGHTED_PAIRS), p)


def enumerate_zero_triples(rs: RangeSplit) -> list[tuple[int, int, int]]:
    """All (i, j, k) with some a in L_i, b in L_j, c in L_k summing to 0 mod p.

    Per (i, j) the candidate set -(L_i + L_j) mod p is a circular interval,
    so the k that match, at most a handful, run from the range holding its
    start to the one holding its end, unless it is the whole field.
    """
    p = rs.prime
    s = rs.count
    starts = rs._starts
    ranges = rs.ranges
    out = []
    for i in range(1, s + 1):
        lo_i, hi_i = ranges[i - 1]
        for j in range(1, s + 1):
            lo_j, hi_j = ranges[j - 1]
            start, end = -(hi_i + hi_j) % p, -(lo_i + lo_j) % p
            if hi_i + hi_j - lo_i - lo_j + 1 >= p:
                ks = range(s)
            elif start <= end:
                ks = range(bisect_right(starts, start),
                           bisect_right(starts, end) + 1)
            else:  # the interval wraps past p - 1
                ks = sorted({*range(bisect_right(starts, start), s),
                             *range(bisect_right(starts, end) + 1)})
            out += [(i, j, k + 1) for k in ks]
    return out


def _range_count(s: int) -> int:
    if s < 1:  # the default caps and bounds divide by s^2 and s^3
        raise UsageFailure(f"range count s must be at least 1, got {s}")
    return s


def default_degree_cap(dest_size: int, s: int) -> int:
    return 100 * dest_size // s + 200


def default_per_edge_cap(size_c: int, s: int) -> int:
    return 900 * size_c // _range_count(s) ** 2 + 1


def default_global_cap(part_sizes: tuple[int, int, int], s: int) -> int:
    na, nb, nc = part_sizes
    return 8100 * na * nb * nc // _range_count(s) ** 3 + 1


def default_trials(total_vertices: int, multiplier: int = 100) -> int:
    return multiplier * ceil_log2(total_vertices + 2)


def _range_index(gp: TripartiteWeightedGraph, rs: RangeSplit):
    """gp's edges split by the range of their mod-p weight, one tuple per
    pair in ``WEIGHTED_PAIRS`` order: entry r of a pair's tuple holds, in
    input order, its edges in the 0-based range r. Built in one pass and
    cached on gp for the last split it was asked about."""
    cached = gp.__dict__.get("_range_index")
    # The trial loop passes the same split for every triple: the identity
    # test spares it the dataclass comparison.
    if cached is not None and (cached[0] is rs or cached[0] == rs):
        return cached[1]
    starts = rs._starts
    index = []
    for pair in WEIGHTED_PAIRS:
        buckets = [[] for _ in range(rs.count)]
        for edge in gp.edges(pair):
            buckets[bisect_right(starts, edge[2])].append(edge)
        index.append(tuple(map(tuple, buckets)))
    index = tuple(index)
    object.__setattr__(gp, "_range_index", (rs, index))
    return index


def _triple_graph(gp: TripartiteWeightedGraph, rs: RangeSplit, triple):
    """gp's subgraph of the range triple (i, j, k), over gp's cached buckets:
    its AB weights in L_k, BC in L_j and CA in L_i (the triple reversed)."""
    (ab, bc, ca), (i, j, k) = _range_index(gp, rs), triple
    return TripartiteWeightedGraph._trusted(
        gp.part_sizes, ab[k - 1], bc[j - 1], ca[i - 1], rs.prime)


@lru_cache(maxsize=64)
def _biting_caps(part_sizes, s, caps):
    """The (pair, end, part, cap) of each endpoint whose cap toward the
    other end's part P is below |P|, pairs and caps in ``WEIGHTED_PAIRS``
    order: a degree toward P is at most |P|, so no other cap can prune, and
    an empty result means nothing is pruned."""
    biting = []
    for pos, (pair, cap) in enumerate(zip(WEIGHTED_PAIRS, caps)):
        for end in (0, 1):
            toward = part_sizes[_PAIR_PARTS[pair][1 - end]]
            limit = default_degree_cap(toward, s) if cap is None else cap
            if limit < toward:
                biting.append((pos, end, pair[end], limit))
    return tuple(biting)


def build_subinstance(
    gp: TripartiteWeightedGraph,
    rs: RangeSplit,
    triple: tuple[int, int, int],
    degree_cap_ab: Optional[int] = None,
    degree_cap_ca: Optional[int] = None,
    degree_cap_bc: Optional[int] = None,
) -> SubinstanceReport:
    """Select the triple's edges (CA in L_i, BC in L_j, AB in L_k), then
    delete every vertex whose initial degree toward some part exceeds that
    part's cap.

    Default caps follow the pipeline constants: toward part P the cap is
    100|P|/s + 200. An explicit pair cap overrides both directions of that
    pair. Part sizes and vertex indices are preserved; deletion means
    dropping incident edges, and the kept edges stay in input order.

    Cost: the first call for a (gp, rs) pair buckets gp's edges by range in
    O(m + s), one bisection over the range starts per edge. When no cap
    toward a part P is below |P| (always under the default caps while
    s <= 100), a call builds the subinstance over the cached bucket tuples
    in O(1): no degree is counted and no edge copied. Otherwise it counts
    degrees over its selected edges, only for the endpoints whose cap
    bites, and copies the kept edges in O(selected edges) when something
    is pruned.
    """
    if gp.weight_modulus != rs.prime:
        raise ValueError("subinstance selection needs mod-p weights")
    s = rs.count
    for idx in triple:
        if not 1 <= idx <= s:
            raise ValueError(f"range id {idx} outside 1..{s}")
    # A subset of gp's edges keeps gp's invariants, so no re-validation.
    graph = _triple_graph(gp, rs, triple)
    biting = _biting_caps(gp.part_sizes, s,
                          (degree_cap_ab, degree_cap_bc, degree_cap_ca))
    if not biting:
        return SubinstanceReport(graph, ())
    selected = tuple(map(graph.edges, WEIGHTED_PAIRS))
    doomed: set[tuple[str, int]] = set()
    for pos, end, part, cap in biting:
        degree = Counter(edge[end] for edge in selected[pos])
        doomed.update((part, v) for v, d in degree.items() if d > cap)

    if doomed:  # a pair's name spells the parts of its two ends
        graph = TripartiteWeightedGraph._trusted(gp.part_sizes, *(
            tuple([e for e in edges if (pair[0], e[0]) not in doomed
                   and (pair[1], e[1]) not in doomed])
            for pair, edges in zip(WEIGHTED_PAIRS, selected)), rs.prime)
    return SubinstanceReport(graph, tuple(sorted(doomed)))


# Per A x B edge, its listed triangles, under a per-edge or a global cap.
ListingSolver = Callable[[TripartiteWeightedGraph, int],
                         dict[tuple[int, int], list[Triangle]]]


def _zero_filter(g: TripartiteWeightedGraph):
    """A function reading one lister answer (per A x B edge, its listed
    triangles) against g's weights, returning (listed, hits). In one pass
    over the edges with a non-empty list it counts the listed triangles and
    keeps those with weight sum zero; the hits come out in sorted edge
    order, each edge's in listed order, whatever order the lister's keys
    come in. Each triangle is checked on its own indices, not its edge's
    key. The weights sit in one dict per vertex, built once and keyed by
    vertex in a dict per part, so an index outside its part, such as -1,
    reads as a missing edge."""
    w_ab, w_bc, w_ca = rows = {}, {}, {}
    for row, pair in zip(rows, WEIGHTED_PAIRS):
        for u, v, w in g.edges(pair):
            row.setdefault(u, {})[v] = w
    edge_of, tris_of = itemgetter(0), itemgetter(1)

    def zero_triangles(lists):
        listed, hits = 0, []
        for edge, tris in filter(tris_of, lists.items()):
            listed += len(tris)
            for tri in tris:
                a, b, c = tri
                try:
                    if w_ab[a][b] + w_bc[b][c] + w_ca[c][a] == 0:
                        hits.append((edge, tri))
                except KeyError:  # not a triangle of g
                    pass
        if hits:  # a stable sort keeps each edge's hits in listed order
            hits.sort(key=edge_of)
            hits = [tri for _edge, tri in hits]
        return listed, hits

    return zero_triangles


def _randomized_trials(g, s, trials, rng):
    """Per trial: its index, the sheared mod-p graph and the range split
    of F_p."""
    w_bound = max(1, g.max_abs_weight())
    for trial in range(trials):
        stream = rng.child("trial", trial)
        p = pick_prime(w_bound, stream.child("prime"))
        if s > p:
            raise UsageFailure(f"range count {s} exceeds prime {p}")
        rd = draw_randomization(g.part_sizes, p, stream.child("randomize"))
        yield trial, randomize_weights(g, rd), RangeSplit(p, s)


def _check_inputs(g: TripartiteWeightedGraph, s: int) -> None:
    _range_count(s)
    # Hits are re-verified as integer sums equal to 0, which is not what a
    # zero triangle means under a modulus.
    if g.weight_modulus is not None:
        raise UsageFailure("the zero-triangle reduction needs integer weights,"
                         f" not residues mod {g.weight_modulus}")


def zero_triangle_via_listing(
    g: TripartiteWeightedGraph,
    s: int,
    listing_solver: ListingSolver,
    trials: int,
    rng: RngStream,
    cap: Optional[int] = None,
    report_sink: Optional[Callable[[dict], None]] = None,
) -> tuple[bool, Optional[Triangle]]:
    """Decide Zero Triangle through an all-edges listing solver.

    Each trial lists each range triple's subinstance under ``cap``: per
    edge by default, ``default_per_edge_cap(|C|, s)``. A global lister
    needs its cap passed, such as ``default_global_cap(part_sizes, s)``,
    or the per-edge number caps the whole call. Every listed triangle is
    re-verified against g's weights, so a True verdict is sound and
    carries a zero-sum witness, the first hit in sorted edge order.
    Complete with overwhelming empirical probability over the given
    number of independent trials when a zero triangle exists.
    """
    _check_inputs(g, s)
    cap = default_per_edge_cap(g.part_sizes[2], s) if cap is None else cap
    if min(g.part_sizes) == 0 or trials <= 0:
        return False, None
    zero_triangles = _zero_filter(g)
    for trial, sheared, rs in _randomized_trials(g, s, trials, rng):
        for triple in enumerate_zero_triples(rs):
            report = build_subinstance(sheared, rs, triple)
            listed, hits = zero_triangles(listing_solver(report.graph, cap))
            if report_sink is not None:
                report_sink({"trial": trial, "triple": list(triple),
                             "edges_kept": report.graph.edge_count,
                             "pruned": len(report.pruned),
                             "listed": listed, "hits": len(hits)})
            if hits:
                return True, hits[0]
    return False, None


@dataclass(frozen=True)
class ClaimStatistics:
    """Empirical frequencies for the three per-trial events the analysis
    bounds: the planted triangle's vertices all survive pruning (f1), its
    edge's false-positive count stays within the per-edge bound (f2), and
    the subinstance's nonzero-triangle count stays within the global bound
    (f3). The largest per-trial counts behind f2 and f3 come with them."""

    trials: int
    f1: float
    f2: float
    f3: float
    per_edge_bound: int
    global_bound: int
    max_false_positives: int
    max_nonzero: int


def claim_statistics(
    g: TripartiteWeightedGraph,
    planted: Triangle,
    s: int,
    trials: int,
    rng: RngStream,
) -> ClaimStatistics:
    """Measure, over independent randomizations, how often the planted zero
    triangle's subinstance behaves as the analysis promises.

    Each trial prunes the planted triangle's range triple with
    ``build_subinstance`` and lists the unpruned triple's triangles with
    ``triangle_list_bf``. Those the pipeline's re-verification drops are the
    nonzero ones: p >= 100 max|w| exceeds every |sum|, so a sheared sum is
    0 mod p exactly when the integer sum is 0.
    """
    if trials < 1:
        raise ValueError(f"claim statistics need trials >= 1, got {trials}")
    _check_inputs(g, s)
    zero_triangles = _zero_filter(g)
    if not zero_triangles({planted[:2]: [planted]})[1]:
        raise ValueError("planted triple is not a zero triangle of g")
    pa, pb, pc = planted
    planted_vertices = {("A", pa), ("B", pb), ("C", pc)}
    # The planted edges' places in g: randomize_weights keeps the edge order.
    at = [[e[:2] for e in g.edges(pair)].index(
        tuple(planted[part] for part in _PAIR_PARTS[pair]))
        for pair in WEIGHTED_PAIRS]
    per_edge_bound = default_per_edge_cap(g.part_sizes[2], s) - 1
    global_bound = default_global_cap(g.part_sizes, s) - 1

    ok1 = ok2 = ok3 = max_fp = max_nz = 0
    for _trial, sheared, rs in _randomized_trials(g, s, trials, rng):
        # The planted edges' range ids, reversed: see _triple_graph.
        triple = tuple(rs.index_of(sheared.edges(pair)[pos][2])
                       for pair, pos in zip(WEIGHTED_PAIRS, at))[::-1]
        pruned = build_subinstance(sheared, rs, triple).pruned
        ok1 += planted_vertices.isdisjoint(pruned)

        lists = triangle_list_bf(_triple_graph(sheared, rs, triple))
        on_edge, edge_hits = zero_triangles({(pa, pb): lists[(pa, pb)]})
        false_pos = on_edge - len(edge_hits)
        listed, hits = zero_triangles(lists)
        nonzero = listed - len(hits)
        ok2 += false_pos <= per_edge_bound
        ok3 += nonzero <= global_bound
        max_fp = max(max_fp, false_pos)
        max_nz = max(max_nz, nonzero)

    return ClaimStatistics(trials, ok1 / trials, ok2 / trials, ok3 / trials,
                           per_edge_bound, global_bound, max_fp, max_nz)
