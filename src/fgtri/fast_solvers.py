"""Fast answers to the two inner all-edges triangle questions.

The sparse solver is the light half of the Alon-Yuster-Zwick degree split
on its own: per A-vertex it packs the B-vertices that some C-neighbour
reaches, one OR per C x A edge, then tests one bit per A x B edge. On packed
Python ints the heavy half's Boolean product does the same per-edge ORs
again, so the split only ran one computation twice.

The monochromatic solver takes the per-colour products of
Vassilevska-Williams-Yuster as one batched float32 BLAS product per pair
over one-hot colour-class stacks of the dense arrays the colored oracles
read. Both agree exactly with the brute-force oracles.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from .instances import ColoredValuedGraph, TripartiteWeightedGraph
from .oracles import _at_edges, _colored_arrays

# Cells per one-hot stack in one batch: inputs with many colours go through
# several batches, so a batch's stacks and products stay within a few tens
# of megabytes.
_BATCH_CELLS = 1 << 20


def ae_sparse_triangle_fast(
    g: TripartiteWeightedGraph,
    degree_threshold=None,
) -> dict[tuple[int, int], bool]:
    """For each A x B edge (a, b), whether some c completes a triangle.

    ``degree_threshold`` is accepted for callers of the former heavy/light
    split and chooses nothing: every C-vertex takes the same packed pass.
    """
    na, _nb, nc = g.part_sizes
    b_bits = [0] * nc  # per c: adjacent b's (via BC)
    for b, c, _w in g.edges_bc:
        b_bits[c] |= 1 << b
    reach = [0] * na  # per a: b's some C-neighbour of a is adjacent to
    for c, a, _w in g.edges_ca:
        reach[a] |= b_bits[c]
    return {(a, b): reach[a] >> b & 1 == 1 for a, b, _w in g.edges_ab}


def ae_mono_triangle_fast(
    g: ColoredValuedGraph,
    degree_threshold=None,
) -> dict[tuple[str, int, int], bool]:
    """Per edge, whether it lies in a triangle whose three colors agree.

    Only colours present on all three pairs can close a triangle. For those,
    stack[pair][c] is the 0/1 matrix of the pair's colour-c edges, and one
    batched product of the other two pairs' stacks counts, per cell and
    colour, the paths that close it. ``degree_threshold`` is accepted for
    callers of the former low-degree cascade and chooses nothing.
    """
    pres, col, _val = _colored_arrays(g)
    shared = np.array(sorted(set.intersection(
        *(set(col[p][pres[p]].tolist()) for p in pres))), dtype=np.int64)
    hit = {pair: np.zeros(p.shape, dtype=bool) for pair, p in pres.items()}
    step = max(1, _BATCH_CELLS // max(1, *(p.size for p in pres.values())))
    for lo in range(0, len(shared), step):
        colors = shared[lo:lo + step, None, None]
        ij, jk, ik = ((pres[p] & (col[p] == colors)).astype(np.float32)
                      for p in ("IJ", "JK", "IK"))
        hit["IJ"] |= (ij * (ik @ jk.transpose(0, 2, 1))).any(axis=0)
        hit["IK"] |= (ik * (ij @ jk)).any(axis=0)
        hit["JK"] |= (jk * (ij.transpose(0, 2, 1) @ ik)).any(axis=0)
    answers: dict[tuple[str, int, int], bool] = {}
    for pair, grid in hit.items():
        us, vs, hits = _at_edges(g, pair, grid)
        answers.update(zip(zip(repeat(pair), us, vs), hits))
    return answers
