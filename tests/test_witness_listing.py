"""Listing-from-detection reductions (witness recovery and subsampling)."""

from fgtri import (RngStream, TripartiteWeightedGraph,
                   ae_sparse_triangle_bf, ae_sparse_triangle_fast,
                   generate_sparse_tripartite, listing_via_detection,
                   listing_via_unique, reduce_mod_p, triangle_list_bf,
                   unique_listing_via_detection)
from fgtri.witness_listing import _restrict_c


def k222():
    return TripartiteWeightedGraph(
        (2, 2, 2),
        tuple((a, b, 0) for a in range(2) for b in range(2)),
        tuple((b, c, 0) for b in range(2) for c in range(2)),
        tuple((c, a, 0) for c in range(2) for a in range(2)))


def test_unique_single_c_vertex_needs_no_bits():
    g = TripartiteWeightedGraph((1, 1, 1), ((0, 0, 0),), ((0, 0, 0),),
                                ((0, 0, 0),))
    calls = []

    def solver(sub):
        calls.append(sub)
        return ae_sparse_triangle_bf(sub)

    assert unique_listing_via_detection(g, solver) == {(0, 0): (0, 0, 0)}
    assert calls == []  # |C| = 1: candidate is vertex 0, just verified


def test_unique_two_triangles_yields_none():
    # Edge (0,0) closes with both c=0 and c=1: the assembled index cannot
    # verify (bitwise OR of 0 and 1 gives c=1, which does close here, so
    # craft c indices 1 and 2 whose OR is 3, a non-vertex).
    g = TripartiteWeightedGraph(
        (1, 1, 3), ((0, 0, 0),),
        ((0, 1, 0), (0, 2, 0)), ((1, 0, 0), (2, 0, 0)))
    out = unique_listing_via_detection(g, ae_sparse_triangle_bf)
    assert out == {(0, 0): None}


def test_unique_candidates_always_verify():
    for seed in range(40):
        g = generate_sparse_tripartite((4, 4, 5), 45, 2, RngStream(seed))
        bc = {(b, c) for b, c, _ in g.edges_bc}
        ca = {(c, a) for c, a, _ in g.edges_ca}
        out = unique_listing_via_detection(g, ae_sparse_triangle_bf)
        truth = triangle_list_bf(g)
        for edge, tri in out.items():
            if tri is not None:
                a, b, c = tri
                assert (a, b) == edge and (b, c) in bc and (c, a) in ca
            if len(truth[edge]) == 1:
                assert tri == truth[edge][0]


def test_unique_equals_capped_listing_when_edges_have_one_triangle():
    kept = 0
    seed = 0
    while kept < 15:
        seed += 1
        g = generate_sparse_tripartite((4, 4, 6), 30, 2, RngStream(seed))
        truth = triangle_list_bf(g)
        if not truth or any(len(v) > 1 for v in truth.values()):
            continue
        kept += 1
        out = unique_listing_via_detection(g, ae_sparse_triangle_fast)
        want = {e: (v[0] if v else None) for e, v in truth.items()}
        assert out == want


def test_listing_cap_zero_returns_empty_lists():
    g = k222()
    out = listing_via_unique(
        g, 0, lambda sub: unique_listing_via_detection(
            sub, ae_sparse_triangle_bf), RngStream(1))
    assert out == {edge: [] for edge in out}


def test_listing_recovers_both_triangles_of_k222():
    truth = triangle_list_bf(k222())
    hits = 0
    runs = 200
    for seed in range(runs):
        got = listing_via_detection(k222(), 2, ae_sparse_triangle_bf,
                                    RngStream(seed))
        if got == truth:
            hits += 1
    assert hits / runs >= 0.99


def test_listing_unique_edges_short_circuit():
    # When every edge has at most one triangle the first saturating stage
    # settles it; verify against the capped oracle.
    for seed in range(10):
        g = generate_sparse_tripartite((3, 3, 4), 35, 2, RngStream(70 + seed))
        truth = triangle_list_bf(g, per_edge_cap=1)
        if any(len(v) > 1 for v in triangle_list_bf(g).values()):
            continue
        got = listing_via_detection(g, 1, ae_sparse_triangle_bf,
                                    RngStream(seed))
        assert got == truth


def test_listing_via_detection_battery():
    agree = 0
    total = 0
    for seed in range(40):
        g = generate_sparse_tripartite((4, 4, 4), 45, 2, RngStream(500 + seed))
        truth = triangle_list_bf(g)
        k = 1 + seed % 3
        got = listing_via_detection(g, k, ae_sparse_triangle_fast,
                                    RngStream(seed))
        total += 1
        ok = True
        for edge, tris in truth.items():
            want_len = min(k, len(tris))
            have = got[edge]
            if len(have) != want_len or not set(have) <= set(tris):
                ok = False
        agree += ok
    assert agree / total >= 0.95


def test_restrict_c_equals_the_validated_graph_of_its_fields():
    for seed in range(12):
        rng = RngStream(seed, ("restrict",))
        g = generate_sparse_tripartite((5 + seed % 3, 6, 7 + seed % 4),
                                       40 + 5 * seed, 9, rng.child("g"))
        if seed % 2:
            g = reduce_mod_p(g, 5)
        nc = g.part_sizes[2]
        for trial in range(10):
            mask = rng.child("mask", trial).randrange(1 << nc)
            sub = _restrict_c(g, mask)
            want = TripartiteWeightedGraph(
                g.part_sizes, g.edges_ab,
                [e for e in g.edges_bc if (mask >> e[1]) & 1],
                [e for e in g.edges_ca if (mask >> e[0]) & 1],
                g.weight_modulus)
            assert sub == want
            assert TripartiteWeightedGraph(
                sub.part_sizes, sub.edges_ab, sub.edges_bc, sub.edges_ca,
                sub.weight_modulus) == sub
