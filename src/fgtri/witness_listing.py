"""Structure-preserving reductions from triangle listing to triangle
detection.

Two halves. Unique-listing-via-detection recovers, for each A x B edge in
exactly one triangle, the third vertex bit by bit from detection answers
on index-restricted C-subsets; a recovered candidate is verified against
the adjacency, so a returned triangle is never wrong. Listing-via-unique
then samples geometric C-subsets across stages so that whatever the true
per-edge triangle count, some stage isolates triangles one at a time. An
edge stops being sent once it holds the lowest min(cap, count) triangles
its C-rows name, since its answer can no longer change. Their composition
seeded from the graph itself is the zero reduction's detection lister.

Both keep part sizes and degrees intact: subgraphs drop edges, never
reindex vertices. The subgraphs are O(1) C-restrictions: they carry their
source's unrestricted packed C-rows and one composed C-mask. Both halves
verify and select edges from the rows, and the unique half ANDs the mask
only at the A x B edges it checks, so with a detector that does the same
(``ae_sparse_triangle_fast``) no row and no BC or CA tuple is ever copied.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import or_
from typing import Callable, Optional

import numpy as np

from .instances import Triangle, TripartiteWeightedGraph, ceil_log2
from .rng import RngStream
from .textio import serialize

DetectionSolver = Callable[[TripartiteWeightedGraph], dict[tuple[int, int], bool]]
UniqueSolver = Callable[[TripartiteWeightedGraph],
                        dict[tuple[int, int], Optional[Triangle]]]

# (g, keep_mask, edges_ab=None): g's C-restriction to the mask, optionally
# with a subset of its A x B edges.
_restrict_c = TripartiteWeightedGraph._trusted_restriction


@lru_cache(maxsize=256)
def _bit_masks(nc: int) -> tuple[int, ...]:
    """Per bit position, the mask of C-indices in range(nc) with that bit set."""
    return tuple(sum(1 << c for c in range(nc) if (c >> bit) & 1)
                 for bit in range((nc - 1).bit_length()))


def _low_bits(m: int, k: int) -> list[int]:
    """The lowest min(k, popcount) set bits of m, low to high, one mask each."""
    out = []
    while m and len(out) < k:
        out.append(m & -m)
        m &= m - 1
    return out


def unique_listing_via_detection(
    g: TripartiteWeightedGraph,
    detection_solver: DetectionSolver,
) -> dict[tuple[int, int], Optional[Triangle]]:
    """Per A x B edge: its triangle when that triangle is unique, else None.

    Runs ceil(log2 |C|) detection calls, one per bit position, on the
    subgraphs induced by C-vertices whose index has that bit set, each an
    O(1) C-restriction of g. An edge in exactly one triangle reads off its
    C-vertex's bits from the answers; edges in zero or several triangles
    may assemble a bogus index, which the final check rejects: it ANDs g's
    source rows and mask (``_masked_rows``) at each A x B edge only.
    """
    candidate = dict.fromkeys([(a, b) for a, b, _w in g.edges_ab], 0)
    if g.part_sizes[2] == 0:
        return dict.fromkeys(candidate)

    for bit, mask in enumerate(_bit_masks(g.part_sizes[2])):
        answers = detection_solver(_restrict_c(g, mask))
        for edge in filter(answers.get, candidate):
            candidate[edge] |= 1 << bit

    # c closes (a, b) when bit c is set in both C-rows and in the mask; no
    # mask has a bit at or above |C|.
    rows_a, rows_b, mask = g._masked_rows
    return {(a, b): (a, b, c) if (rows_a[a] & rows_b[b] & mask) >> c & 1
            else None for (a, b), c in candidate.items()}


def listing_via_unique(
    g: TripartiteWeightedGraph,
    per_edge_cap: int,
    unique_solver: UniqueSolver,
    rng: RngStream,
) -> dict[tuple[int, int], list[Triangle]]:
    """Recover up to ``per_edge_cap`` triangles per A x B edge by random
    C-subsampling.

    Stage l keeps each C-vertex with probability 2^-l; when an edge's true
    triangle count sits near 2^l, a kept subset often isolates exactly one
    not-yet-found triangle, which the unique solver then reports. Stage
    count is ceil(3 log2(|C|+2)); each stage draws 4 * cap^2 * ceil(log2(n+2))
    masks and calls the unique solver once per distinct non-empty mask of
    closable C-vertices (those with a BC and a CA edge): a repeated mask
    finds nothing new. Each call gets only the unsettled A x B edges with a
    triangle inside the mask, read off each edge's common C-mask (computed
    once per call from the C-rows); a mask that leaves none is skipped. An
    edge is settled once its found triangles cover the lowest
    min(cap, count) C-vertices of its common mask: its list, the smallest
    ``per_edge_cap`` of all it found, can no longer change. The call ends
    once every edge is settled or holds ``per_edge_cap`` triangles. Found
    triangles are verified against g before being kept, and each edge's
    list is returned sorted and truncated to the cap.
    """
    if per_edge_cap <= 0 or not g.edges_ab:
        return {(a, b): [] for a, b, _w in g.edges_ab}

    nc = g.part_sizes[2]
    n = sum(g.part_sizes)
    stages = ceil_log2((nc + 2) ** 3)  # = ceil(3 log2(nc + 2))
    iterations = 4 * per_edge_cap * per_edge_cap * ceil_log2(n + 2)
    rows_a, rows_b = g.c_rows
    common = {(a, b): rows_a[a] & rows_b[b] for a, b, _w in g.edges_ab}
    # Per edge, the C-mask of its triangles found so far, and the lowest
    # min(cap, count) bits of its common mask: holding those settles it.
    found = dict.fromkeys(common, 0)
    target = {e: sum(_low_bits(m, per_edge_cap)) for e, m in common.items()}
    closing = {e[:2]: (e, m) for e, m in zip(g.edges_ab, common.values()) if m}
    # The C-vertices with a BC and a CA edge.
    closable = reduce(or_, rows_a, 0) & reduce(or_, rows_b, 0)

    unsaturated = len(common)
    seen = {0}
    for stage in range(1, stages + 1):
        draws = rng.child("stage", stage, "iter")
        # Blocks of 1024 children bound memory; a stop wastes one block.
        masks = (m for start in range(0, iterations, 1024) for m in
                 draws.child_masks(min(1024, iterations - start), nc, stage, start))
        for mask in masks:
            if unsaturated == 0 or not closing:
                break
            mask &= closable
            if mask in seen:
                continue
            seen.add(mask)
            edges_ab = tuple([e for e, m in closing.values() if m & mask])
            if not edges_ab:
                continue
            result = unique_solver(_restrict_c(g, mask, edges_ab))
            for edge, tri in result.items():
                if tri is None:
                    continue
                a, b, c = tri
                if (edge != (a, b) or not 0 <= c < nc
                        or not common.get(edge, 0) >> c & 1):
                    continue  # unique solvers must not invent triangles
                if not found[edge] >> c & 1:
                    found[edge] |= 1 << c
                    if found[edge].bit_count() == per_edge_cap:
                        unsaturated -= 1
                    if found[edge] & target[edge] == target[edge]:
                        closing.pop(edge, None)
        if unsaturated == 0 or not closing:
            break

    return {(a, b): [(a, b, low.bit_length() - 1)
                     for low in _low_bits(m, per_edge_cap)]
            for (a, b), m in found.items()}


def listing_via_detection(
    g: TripartiteWeightedGraph,
    per_edge_cap: int,
    detection_solver: DetectionSolver,
    rng: RngStream,
) -> dict[tuple[int, int], list[Triangle]]:
    """Composition: listing through unique-listing through detection."""
    def unique(sub: TripartiteWeightedGraph):
        return unique_listing_via_detection(sub, detection_solver)

    return listing_via_unique(g, per_edge_cap, unique, rng)


def seeded_listing_via_detection(
    g: TripartiteWeightedGraph,
    per_edge_cap: int,
    detection_solver: DetectionSolver,
) -> dict[tuple[int, int], list[Triangle]]:
    """``listing_via_detection`` on a stream seeded from the polynomial hash
    h = h * p + byte mod 2^63 of g's text (p the 64-bit FNV prime; summed
    as byte i * p^(len-1-i) in wrapping uint64), so the lister is a pure
    function of its arguments whatever the call order. The cap is cut to
    g's widest common C-neighbourhood, which bounds every edge's count: the
    cut loses nothing and spares subsampling rounds, which grow as cap^2."""
    text = np.frombuffer(serialize(g).encode("utf-8"), np.uint8)
    powers = np.full(len(text), 1099511628211, np.uint64)
    powers[:1] = 1
    digest = int((np.cumprod(powers) * text[::-1]).sum()) & ((1 << 63) - 1)
    rows_a, rows_b = g.c_rows
    widest = max(((rows_a[a] & rows_b[b]).bit_count()
                  for a, b, _w in g.edges_ab), default=0)
    return listing_via_detection(g, min(per_edge_cap, widest),
                                 detection_solver,
                                 RngStream(digest, ("detect-lister",)))
