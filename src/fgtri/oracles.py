"""Brute-force reference solvers.

Everything here enumerates: cubic over triples or linear in edges times a
part size, with no algorithmic shortcuts. These are the ground truth the
fast solvers and every reduction are tested against. All functions are
pure and deterministic; listing order is lexicographic on (a, b, c) so
capped listings are reproducible.

Colored-graph oracles answer every edge through the answer type that
``instances`` defines for every colored solver, ``GridAnswers``; the
sparse-triangle oracle answers the queried A x B edges, keyed (a, b).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .instances import (ColoredValuedGraph, GridAnswers, IntMatrix,
                        MINUS_INF, PLUS_INF, SetFamilyInstance, Triangle,
                        TripartiteWeightedGraph, UsageFailure,
                        _colored_arrays, _listed)

# Matrix product kinds.
MIN_EQ = "MIN_EQ"
MIN_LE = "MIN_LE"
MAX_LE = "MAX_LE"
MAX_MIN = "MAX_MIN"
MIN_WITNESS = "MIN_WITNESS"
EXISTS_EQ = "EXISTS_EQ"
EXISTS_DOM = "EXISTS_DOM"
PRODUCT_KINDS = (MIN_EQ, MIN_LE, MAX_LE, MAX_MIN, MIN_WITNESS, EXISTS_EQ,
                 EXISTS_DOM)

# Monochromatic product kinds (case-A layout: values on IK and JK).
MONO_EQ = "MONO_EQ"
MONO_MIN_EQ = "MONO_MIN_EQ"
MONO_MIN_LE = "MONO_MIN_LE"
MONO_KINDS = (MONO_EQ, MONO_MIN_EQ, MONO_MIN_LE)

DISJOINTNESS = "DISJOINTNESS"
INTERSECTION = "INTERSECTION"


def _weight_maps(g: TripartiteWeightedGraph):
    w_ab = {(u, v): w for u, v, w in g.edges_ab}
    w_bc = {(u, v): w for u, v, w in g.edges_bc}
    w_ca = {(u, v): w for u, v, w in g.edges_ca}
    return w_ab, w_bc, w_ca


def triangle_weight_sum(g: TripartiteWeightedGraph, tri: Triangle) -> int:
    """Sum of the three edge weights of (a, b, c); raises if an edge is absent."""
    w_ab, w_bc, w_ca = _weight_maps(g)
    a, b, c = tri
    return w_ab[(a, b)] + w_bc[(b, c)] + w_ca[(c, a)]


def exact_triangle_bf(g: TripartiteWeightedGraph, target: int) -> Optional[Triangle]:
    """First triangle (lexicographic) whose weights sum to the target.

    On a graph with a weight modulus the sum is compared modulo it.
    """
    w_ab, w_bc, w_ca = _weight_maps(g)
    nc = g.part_sizes[2]
    mod = g.weight_modulus
    for (a, b) in sorted(w_ab):
        partial = w_ab[(a, b)] - target
        for c in range(nc):
            wbc = w_bc.get((b, c))
            if wbc is None:
                continue
            wca = w_ca.get((c, a))
            if wca is None:
                continue
            total = partial + wbc + wca
            if (total % mod == 0) if mod is not None else (total == 0):
                return (a, b, c)
    return None


def zero_triangle_bf(g: TripartiteWeightedGraph) -> Optional[Triangle]:
    return exact_triangle_bf(g, 0)


def _c_masks(g: TripartiteWeightedGraph):
    """Per-vertex bitmasks over C: neighbors of each a (via CA) and b (via BC)."""
    na, nb, _ = g.part_sizes
    mask_a = [0] * na
    mask_b = [0] * nb
    for c, a, _w in g.edges_ca:
        mask_a[a] |= 1 << c
    for b, c, _w in g.edges_bc:
        mask_b[b] |= 1 << c
    return mask_a, mask_b


def ae_sparse_triangle_bf(g: TripartiteWeightedGraph) -> dict[tuple[int, int], bool]:
    """For each A x B edge, whether some c completes a triangle."""
    mask_a, mask_b = _c_masks(g)
    return {(a, b): bool(mask_a[a] & mask_b[b]) for a, b, _w in g.edges_ab}


def triangle_list_bf(
    g: TripartiteWeightedGraph,
    per_edge_cap: Optional[int] = None,
    global_cap: Optional[int] = None,
) -> dict[tuple[int, int], list[Triangle]]:
    """Per A x B edge, up to ``per_edge_cap`` triangles, lexicographic order.

    With a global cap, listing stops after that many triangles have been
    emitted across all edges. Every queried edge appears in the result,
    possibly with an empty list.
    """
    mask_a, mask_b = _c_masks(g)
    out: dict[tuple[int, int], list[Triangle]] = {}
    # Without a cap an edge has at most |C| triangles, the graph |AB| |C|.
    nc = g.part_sizes[2]
    edge_room = nc if per_edge_cap is None else per_edge_cap
    left = len(g.edges_ab) * nc if global_cap is None else global_cap
    for a, b, _w in sorted(g.edges_ab):  # AB pairs are distinct
        found: list[Triangle] = []
        out[(a, b)] = found
        common = mask_a[a] & mask_b[b]
        if common:
            room = edge_room if edge_room < left else left
            while common and room > 0:
                low = common & -common
                common ^= low
                found.append((a, b, low.bit_length() - 1))
                room -= 1
            left -= len(found)
    return out


def _mono_cube(pres, col) -> np.ndarray:
    """Boolean cube T[i, j, k]: (i, j, k) is a monochromatic triangle."""
    c_ij = col["IJ"][:, :, None]
    c_ik = col["IK"][:, None, :]
    c_jk = col["JK"][None, :, :]
    return (pres["IJ"][:, :, None] & pres["IK"][:, None, :]
            & pres["JK"][None, :, :] & (c_ij == c_ik) & (c_ik == c_jk))


def _cube_answers(g, pres, cube: np.ndarray) -> GridAnswers:
    return GridAnswers(g, pres, {"IJ": cube.any(axis=2),
                                 "JK": cube.any(axis=0),
                                 "IK": cube.any(axis=1)})


def ae_mono_triangle_bf(g: ColoredValuedGraph) -> GridAnswers:
    """Per edge, whether it lies in a triangle whose three colors agree."""
    pres, col, _val = _colored_arrays(g)
    return _cube_answers(g, pres, _mono_cube(pres, col))


def ae_monoeq_triangle_bf(g: ColoredValuedGraph) -> GridAnswers:
    """Per edge, whether it lies in a monochromatic triangle in which two
    valued edges carry equal values.

    Only the pairs named in ``value_sides`` can witness the equality; with
    fewer than two valued sides no triangle qualifies.
    """
    pres, col, val = _colored_arrays(g)
    cube = _mono_cube(pres, col)
    ni, nj, nk = g.part_sizes
    eq = np.zeros((ni, nj, nk), dtype=bool)
    sides = g.value_sides
    if "IJ" in sides and "IK" in sides:
        eq |= val["IJ"][:, :, None] == val["IK"][:, None, :]
    if "IJ" in sides and "JK" in sides:
        eq |= val["IJ"][:, :, None] == val["JK"][None, :, :]
    if "IK" in sides and "JK" in sides:
        eq |= val["IK"][:, None, :] == val["JK"][None, :, :]
    return _cube_answers(g, pres, cube & eq)


def mono_product_bf(g: ColoredValuedGraph, kind: str):
    """Per I x J edge, row-major, the monochromatic product answer over the
    K column.

    Requires values on IK and JK. MONO_EQ yields booleans; MONO_MIN_EQ and
    MONO_MIN_LE yield minima with PLUS_INF for an empty matching set.
    """
    if kind not in MONO_KINDS:
        raise UsageFailure(f"unknown mono product kind {kind!r}")
    if not {"IK", "JK"} <= g.value_sides:
        raise UsageFailure("mono products need values on IK and JK")
    pres, col, val = _colored_arrays(g)
    cube = _mono_cube(pres, col)
    v_ik, v_jk = val["IK"][:, None, :], val["JK"][None, :, :]
    if kind == MONO_MIN_LE:
        match = cube & (v_ik <= v_jk)
        payload = v_jk
    else:
        match = cube & (v_ik == v_jk)
        payload = v_ik
    if kind == MONO_EQ:
        answer = match.any(axis=2)
    else:
        answer = np.where(match, payload, PLUS_INF).min(axis=2,
                                                        initial=PLUS_INF)
    cells = pres["IJ"].nonzero()
    return dict(zip(_listed(cells), answer[cells].tolist()))


def product_bf(a: IntMatrix, b: IntMatrix, kind: str) -> IntMatrix:
    """Entry-wise (aggregate, compare)-product by direct enumeration over k.

    Sentinels take part as ordinary extreme integers. Empty-set conventions:
    min of nothing is PLUS_INF, max of nothing is MINUS_INF. MIN_WITNESS
    uses 1-based witness indices and requires 0/1 matrices.
    """
    if kind not in PRODUCT_KINDS:
        raise UsageFailure(f"unknown product kind {kind!r}")
    if a.cols != b.rows:
        raise UsageFailure(f"inner dimensions differ: {a.cols} vs {b.rows}")
    n, m, p = a.rows, a.cols, b.cols
    arows, brows = a.to_rows(), b.to_rows()
    if kind == MIN_WITNESS:
        for rows in (arows, brows):
            if any(e not in (0, 1) for row in rows for e in row):
                raise UsageFailure("MIN_WITNESS requires Boolean matrices")
    out = []
    for arow in arows:
        for j in range(p):
            if kind == MIN_WITNESS:
                res = PLUS_INF
                for k in range(m):
                    if arow[k] == 1 and brows[k][j] == 1:
                        res = k + 1
                        break
                out.append(res)
            elif kind == MAX_MIN:
                best = MINUS_INF
                for k in range(m):
                    cur = min(arow[k], brows[k][j])
                    if cur > best:
                        best = cur
                out.append(best)
            else:
                hits = []
                equality = kind in (MIN_EQ, EXISTS_EQ)
                for k in range(m):
                    av = arow[k]
                    bv = brows[k][j]
                    if (av == bv) if equality else (av <= bv):
                        hits.append(bv)
                if kind in (MIN_EQ, MIN_LE):
                    out.append(min(hits) if hits else PLUS_INF)
                elif kind == MAX_LE:
                    out.append(max(hits) if hits else MINUS_INF)
                else:  # EXISTS_EQ, EXISTS_DOM
                    out.append(1 if hits else 0)
    return IntMatrix(n, p, tuple(out))


def set_queries_bf(s: SetFamilyInstance, mode: str):
    """Answer disjointness or intersection queries by set operations.

    INTERSECTION emits elements in ascending order per query, queries in
    order, and stops globally once ``output_cap`` elements have been
    emitted.
    """
    members = [set(x) for x in s.family]
    if mode == DISJOINTNESS:
        return [not (members[i] & members[j]) for i, j in s.queries]
    if mode != INTERSECTION:
        raise UsageFailure(f"unknown set query mode {mode!r}")
    cap = s.output_cap
    emitted = 0
    out: list[list[int]] = []
    for i, j in s.queries:
        answer: list[int] = []
        out.append(answer)
        if cap is not None and emitted >= cap:
            continue
        for e in sorted(members[i] & members[j]):
            if cap is not None and emitted >= cap:
                break
            answer.append(e)
            emitted += 1
    return out
