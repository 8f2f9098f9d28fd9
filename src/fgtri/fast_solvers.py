"""Fast answers to the two inner all-edges triangle questions.

The sparse solver is the light half of the Alon-Yuster-Zwick degree split
on its own: per A x B edge one AND of ``c_rows`` (packed C-rows, C-mask), as
in ``ae_sparse_triangle_bf``; on the fresh graphs ``fgtri bench`` times it
ties or loses. It wins where rows are reused: they are built once per graph
(one OR per BC and CA edge) and pass unchanged into C-restrictions with one
composed mask, so listing-reduction calls skip BC and CA edges and unread rows.

The monochromatic solver takes the per-colour products of
Vassilevska-Williams-Yuster as one batched float32 BLAS product per pair
over one-hot colour-class stacks of the dense arrays the colored oracles
read, answering like them through ``GridAnswers``. Both match the oracles.
"""

from __future__ import annotations

import numpy as np

from .instances import (COLORED_PAIRS, ColoredValuedGraph, GridAnswers,
                        TripartiteWeightedGraph, _colored_arrays)

# Cells per one-hot stack in one batch: inputs with many colours go through
# several batches, so a batch's stacks and products stay within a few tens
# of megabytes.
_BATCH_CELLS = 1 << 20


def ae_sparse_triangle_fast(
    g: TripartiteWeightedGraph,
) -> dict[tuple[int, int], bool]:
    """For each A x B edge (a, b), whether some c completes a triangle."""
    rows_a, rows_b, mask = g.c_rows
    return {(a, b): rows_a[a] & rows_b[b] & mask != 0
            for a, b, _w in g.edges_ab}


def ae_mono_triangle_fast(
    g: ColoredValuedGraph,
    degree_threshold=None,
) -> GridAnswers:
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
                      for p in COLORED_PAIRS)
        hit["IJ"] |= (ij * (ik @ jk.transpose(0, 2, 1))).any(axis=0)
        hit["IK"] |= (ik * (ij @ jk)).any(axis=0)
        hit["JK"] |= (jk * (ij.transpose(0, 2, 1) @ ik)).any(axis=0)
    return GridAnswers(g, pres, hit)
