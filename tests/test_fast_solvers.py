"""Bit-packed matmul and the degree-split solvers against the oracles."""

import math

import pytest

from fgtri import (BitMatrix, RngStream, ae_mono_triangle_bf,
                   ae_mono_triangle_fast, ae_sparse_triangle_bf,
                   ae_sparse_triangle_fast, bool_matmul, generate_colored,
                   generate_sparse_tripartite)


def naive_matmul(x: BitMatrix, y: BitMatrix):
    return [[any(x.get(i, k) and y.get(k, j) for k in range(x.cols))
             for j in range(y.cols)] for i in range(x.rows)]


def as_lists(m: BitMatrix):
    return [[m.get(i, j) for j in range(m.cols)] for i in range(m.rows)]


def random_bitmatrix(rows, cols, rng, density=50):
    ones = [(i, j) for i in range(rows) for j in range(cols)
            if rng.bernoulli(density, 100)]
    return BitMatrix.from_entries(rows, cols, ones)


def test_bitmatrix_rejects_padding_bits():
    with pytest.raises(ValueError):
        BitMatrix(1, 2, (4,))
    with pytest.raises(ValueError):
        BitMatrix(2, 2, (1,))


def test_identity_is_neutral():
    rng = RngStream(1)
    m = random_bitmatrix(6, 9, rng)
    assert bool_matmul(BitMatrix.identity(6), m) == m


def test_hand_product():
    x = BitMatrix.from_entries(1, 2, [(0, 0)])
    y = BitMatrix.from_entries(2, 1, [(1, 0)])
    assert bool_matmul(x, y) == BitMatrix.zeros(1, 1)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        bool_matmul(BitMatrix.zeros(2, 3), BitMatrix.zeros(2, 3))


def test_matmul_matches_naive_on_random_pairs():
    for seed in range(10):
        rng = RngStream(seed)
        x = random_bitmatrix(50, 50, rng.child("x"), 20)
        y = random_bitmatrix(50, 50, rng.child("y"), 20)
        assert as_lists(bool_matmul(x, y)) == naive_matmul(x, y)


def test_matmul_associative():
    for seed in range(8):
        rng = RngStream(50 + seed)
        x = random_bitmatrix(7, 5, rng.child("x"))
        y = random_bitmatrix(5, 8, rng.child("y"))
        z = random_bitmatrix(8, 6, rng.child("z"))
        assert bool_matmul(bool_matmul(x, y), z) == \
            bool_matmul(x, bool_matmul(y, z))


@pytest.mark.parametrize("threshold", [0, 1, None, math.inf])
def test_sparse_fast_equals_oracle_at_any_threshold(threshold):
    for seed in range(25):
        g = generate_sparse_tripartite((7, 6, 8), 40, 3, RngStream(seed))
        assert ae_sparse_triangle_fast(g, threshold) == \
            ae_sparse_triangle_bf(g)


def test_sparse_fast_degenerate_thresholds_on_dense_graph():
    g = generate_sparse_tripartite((10, 10, 10), 90, 2, RngStream(9))
    want = ae_sparse_triangle_bf(g)
    assert ae_sparse_triangle_fast(g, math.inf) == want  # pure enumeration
    assert ae_sparse_triangle_fast(g, 0) == want         # pure matmul


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
