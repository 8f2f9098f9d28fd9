"""The packed sparse solver and the BLAS mono solver against the oracles."""

import math

import pytest

from fgtri import (ColoredValuedGraph, RngStream, TripartiteWeightedGraph,
                   ae_mono_triangle_bf, ae_mono_triangle_fast,
                   ae_monoeq_triangle_bf, ae_sparse_triangle_bf,
                   ae_sparse_triangle_fast, fast_solvers, generate_colored,
                   generate_sparse_tripartite)
from fgtri.instances import _colored_arrays


def _light_c_only(g, threshold):
    # Keep the C-vertices of degree at most threshold (default
    # ceil(sqrt(m))): the light side of the former heavy/light split.
    if threshold is None:
        threshold = math.isqrt(g.edge_count - 1) + 1
    degree = [0] * g.part_sizes[2]
    for _b, c, _w in g.edges_bc:
        degree[c] += 1
    for c, _a, _w in g.edges_ca:
        degree[c] += 1
    return TripartiteWeightedGraph(
        g.part_sizes, g.edges_ab,
        [e for e in g.edges_bc if degree[e[1]] <= threshold],
        [e for e in g.edges_ca if degree[e[0]] <= threshold])


@pytest.mark.parametrize("threshold", [0, 1, None, math.inf])
def test_sparse_fast_equals_oracle_at_any_threshold(threshold):
    # The solver has no degree split; each threshold cuts the graph to its
    # light C-vertices, and inf keeps the whole graph.
    for seed in range(25):
        g = generate_sparse_tripartite((7, 6, 8), 40, 3, RngStream(seed))
        g = _light_c_only(g, threshold)
        assert ae_sparse_triangle_fast(g) == ae_sparse_triangle_bf(g)


def test_sparse_fast_degenerate_thresholds_on_dense_graph():
    # Every C-vertex has high degree here.
    g = generate_sparse_tripartite((10, 10, 10), 90, 2, RngStream(9))
    assert ae_sparse_triangle_fast(g) == ae_sparse_triangle_bf(g)


def test_sparse_fast_battery_default_threshold():
    for seed in range(200):
        sizes = (5 + seed % 4, 4 + seed % 5, 6 + seed % 3)
        g = generate_sparse_tripartite(sizes, 30 + (seed * 7) % 60, 4,
                                       RngStream(1000 + seed))
        assert ae_sparse_triangle_fast(g) == ae_sparse_triangle_bf(g)


def test_sparse_fast_battery_mixes_light_and_heavy_c_vertices():
    # At the default threshold ceil(sqrt(m)), these shapes put some
    # C-vertices on each side, so the light rows and the matmul rows both
    # feed one answer.
    mixed = 0
    for seed in range(60):
        g = generate_sparse_tripartite((10, 10, 6), 50 + (seed * 7) % 40, 4,
                                       RngStream(4000 + seed))
        threshold = math.isqrt(g.edge_count - 1) + 1
        degree = [0] * 6
        for _b, c, _w in g.edges_bc:
            degree[c] += 1
        for c, _a, _w in g.edges_ca:
            degree[c] += 1
        heavy = sum(d > threshold for d in degree)
        mixed += 0 < heavy < 6
        assert ae_sparse_triangle_fast(g) == ae_sparse_triangle_bf(g)
    assert mixed >= 40


def test_mono_fast_single_color_matches_sparse_semantics():
    # One color class: "in a monochromatic triangle" degenerates to plain
    # all-edges triangle detection on that class.
    g = generate_colored((5, 5, 5), 1, 60, 1, frozenset(), RngStream(3))
    fast = ae_mono_triangle_fast(g, degree_threshold=2)
    assert fast == ae_mono_triangle_bf(g)
    ij = {(i, j) for i, j, _c, _ in g.edges_ij}
    jk = {(j, k) for j, k, _c, _ in g.edges_jk}
    ik = {(i, k) for i, k, _c, _ in g.edges_ik}
    for (i, j) in ij:
        expect = any((j, k) in jk and (i, k) in ik for k in range(5))
        assert fast[("IJ", i, j)] == expect


@pytest.mark.parametrize("threshold", [0, 2, math.inf])
def test_mono_fast_equals_oracle(threshold):
    for seed in range(30):
        g = generate_colored((5, 5, 5), 3, 55, 1, frozenset(),
                             RngStream(2000 + seed))
        assert ae_mono_triangle_fast(g, threshold) == ae_mono_triangle_bf(g)


def test_mono_fast_battery_mixed_colors():
    for seed in range(100):
        colors = 1 + seed % 5
        g = generate_colored((6, 5, 6), colors, 50, 1, frozenset(),
                             RngStream(3000 + seed))
        d = 1 + seed % 4
        assert ae_mono_triangle_fast(g, d) == ae_mono_triangle_bf(g)


@pytest.mark.parametrize("solver", [ae_mono_triangle_bf, ae_mono_triangle_fast,
                                    ae_monoeq_triangle_bf])
def test_hit_grids_are_false_off_the_present_cells(solver):
    # The product searches and the monoeq combine step read a solver's hit
    # grids cell by cell, so a hit on an absent cell would read as an edge.
    positives = 0
    for seed in range(40):
        rng = RngStream(4000 + seed)
        sizes = tuple(rng.randint(1, 7) for _ in range(3))
        g = generate_colored(sizes, rng.randint(1, 3), rng.randint(20, 90),
                             rng.randint(1, 3), frozenset({"IJ", "JK", "IK"}),
                             rng.child("g"))
        pres = _colored_arrays(g)[0]
        hits = solver(g).hits
        for pair in ("IJ", "JK", "IK"):
            assert hits[pair].shape == pres[pair].shape
            assert not (hits[pair] & ~pres[pair]).any()
            positives += int(hits[pair].sum())
    assert positives > 0


def _cvg(sizes, ij=(), jk=(), ik=()):
    """Colored-only graph from (u, v, colour) triples per pair."""
    def edges(triples):
        return tuple((u, v, c, None) for u, v, c in triples)
    return ColoredValuedGraph(sizes, edges(ij), edges(jk), edges(ik))


_BIG = 1 << 40
_EDGE_CASES = {
    "sparse-empty-a-part": TripartiteWeightedGraph(
        (0, 3, 2), edges_bc=((0, 1, 5), (2, 0, 1))),
    "sparse-empty-c-part": TripartiteWeightedGraph(
        (2, 3, 0), edges_ab=((0, 1, 5), (1, 2, 0))),
    "sparse-edgeless": TripartiteWeightedGraph((3, 4, 2)),
    "mono-empty-j-part": _cvg((3, 0, 2), ik=((0, 1, 4), (2, 0, 4))),
    "mono-edgeless": _cvg((3, 4, 2)),
    # Colour 1 closes (0, 0, 0); colour 2 sits on IJ and JK only, colour 3
    # on IJ and JK with a colour-5 IK edge, so neither closes a triangle.
    "mono-colour-on-one-or-two-pairs": _cvg(
        (2, 2, 2), ij=((0, 0, 1), (0, 1, 2), (1, 1, 3)),
        jk=((0, 0, 1), (1, 0, 2), (1, 1, 3)), ik=((0, 0, 1), (1, 1, 5))),
    # Filler tags and composite colours: -1 and 2^40 close triangles;
    # -1 against -2 and 2^40 against 2^40 + 1 must stay apart.
    "mono-negative-and-huge-colours": _cvg(
        (3, 3, 3), ij=((0, 0, -1), (1, 1, _BIG), (2, 2, -2), (0, 1, _BIG + 1)),
        jk=((0, 0, -1), (1, 1, _BIG), (2, 2, -2)),
        ik=((0, 0, -1), (1, 1, _BIG), (2, 2, -1), (0, 1, _BIG + 1))),
}


@pytest.mark.parametrize("name", sorted(_EDGE_CASES))
def test_fast_solvers_match_oracles_on_edge_cases(name):
    g = _EDGE_CASES[name]
    if isinstance(g, TripartiteWeightedGraph):
        assert ae_sparse_triangle_fast(g) == ae_sparse_triangle_bf(g)
    else:
        assert ae_mono_triangle_fast(g) == ae_mono_triangle_bf(g)


def test_mono_fast_colour_batches_agree(monkeypatch):
    # One colour per batch: the batches' hits must OR to the same answers.
    monkeypatch.setattr(fast_solvers, "_BATCH_CELLS", 1)
    for seed in range(10):
        g = generate_colored((6, 5, 7), 6, 70, 1, frozenset(),
                             RngStream(5000 + seed))
        assert ae_mono_triangle_fast(g) == ae_mono_triangle_bf(g)
