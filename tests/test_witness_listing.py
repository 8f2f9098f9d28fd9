"""Listing-from-detection reductions (witness recovery and subsampling)."""

from functools import reduce
from time import perf_counter

from fgtri import witness_listing
from fgtri import (RandomizationData, RngStream, TripartiteWeightedGraph,
                   ae_sparse_triangle_bf, ae_sparse_triangle_fast,
                   generate_sparse_tripartite, generate_tripartite,
                   listing_via_detection, listing_via_unique,
                   randomize_weights, seeded_listing_via_detection,
                   triangle_list_bf, unique_listing_via_detection)
from fgtri.textio import serialize
from fgtri.witness_listing import _bit_masks, _low_bits, _restrict_c
from fgtri.zero_triangle import ceil_log2


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


def _validated(g, mask, edges_ab=None):
    """The validated graph of g's fields restricted to the C-mask."""
    return TripartiteWeightedGraph(
        g.part_sizes, g.edges_ab if edges_ab is None else edges_ab,
        [e for e in g.edges_bc if (mask >> e[1]) & 1],
        [e for e in g.edges_ca if (mask >> e[0]) & 1],
        g.weight_modulus)


def test_restrict_c_equals_the_validated_graph_of_its_fields():
    # Rows are read before the edge tuples, so they are the source's rows
    # ANDed with the mask, not rows rebuilt from derived tuples.
    for seed in range(12):
        rng = RngStream(seed, ("restrict",))
        g = generate_sparse_tripartite((5 + seed % 3, 6, 7 + seed % 4),
                                       40 + 5 * seed, 9, rng.child("g"))
        if seed % 2:
            g = randomize_weights(g, RandomizationData(
                5, 1, tuple((0,) * n for n in g.part_sizes)))
        nc = g.part_sizes[2]
        for trial in range(10):
            draw = rng.child("mask", trial)
            mask = draw.randrange(1 << nc)
            sub = _restrict_c(g, mask)
            want = _validated(g, mask)
            assert sub.c_rows == want.c_rows
            assert sub.edge_count == want.edge_count == sum(
                map(len, (want.edges_ab, want.edges_bc, want.edges_ca)))
            assert "edges_bc" not in sub.__dict__
            assert sub == want
            assert TripartiteWeightedGraph(
                sub.part_sizes, sub.edges_ab, sub.edges_bc, sub.edges_ca,
                sub.weight_modulus) == sub
            # A restriction of a restriction, with an A x B subset, before
            # and after its source derived its tuples.
            inner = draw.randrange(1 << nc)
            ab = tuple(e for e in g.edges_ab if draw.randrange(2))
            for source in (_restrict_c(g, mask), sub):
                subsub = _restrict_c(source, inner, ab)
                want = _validated(g, mask & inner, ab)
                assert subsub.c_rows == want.c_rows
                assert subsub == want


def test_detector_and_unique_listing_on_nested_restrictions():
    # Restrictions of depth 1-3, each with or without an A x B subset, over
    # random, empty and full masks: the fast detector and unique listing
    # read the source's rows and the composed mask, and must answer as on
    # the validated rebuild.
    for seed in range(16):
        rng = RngStream(seed, ("nested",))
        g = generate_sparse_tripartite((5 + seed % 3, 6, 3 + seed % 9),
                                       30 + 4 * seed, 9, rng.child("g"))
        nc = g.part_sizes[2]
        for trial in range(12):
            draw = rng.child("chain", trial)
            sub, mask, ab = g, (1 << nc) - 1, g.edges_ab
            for depth in range(1 + trial % 3):
                keep = (0, (1 << nc) - 1, draw.randrange(1 << nc))[
                    (trial // 3 + depth) % 3]
                subset = None
                if draw.randrange(2):
                    subset = ab = tuple(e for e in ab if draw.randrange(3))
                sub, mask = _restrict_c(sub, keep, subset), mask & keep
            want = _validated(g, mask, ab)
            assert ae_sparse_triangle_fast(sub) == ae_sparse_triangle_bf(want)
            assert (unique_listing_via_detection(sub, ae_sparse_triangle_fast)
                    == unique_listing_via_detection(want,
                                                    ae_sparse_triangle_bf))
            assert "c_rows" not in sub.__dict__
            assert sub == want


def test_fast_listing_derives_no_bc_or_ca_tuples(monkeypatch):
    # Both halves and the fast detector read the source's C-rows and the
    # composed mask only, so no restricted graph ever copies its BC and CA
    # edges or ANDs its full C-rows: a restriction stays O(1).
    made = []

    def recorded(g, mask, edges_ab=None):
        sub = _restrict_c(g, mask, edges_ab)
        made.append(sub)
        return sub

    monkeypatch.setattr(witness_listing, "_restrict_c", recorded)
    g = generate_sparse_tripartite((8, 9, 10), 45, 2, RngStream(77))
    got = listing_via_detection(g, 3, ae_sparse_triangle_fast, RngStream(5))
    assert got == triangle_list_bf(g, per_edge_cap=3)
    assert len(made) > 100
    assert not any({"edges_bc", "edges_ca", "c_rows"} & set(sub.__dict__)
                   for sub in made)


def test_edges_of_a_pair_derive_only_that_pair():
    # A restriction derives its BC and CA tuples on first read, so reading
    # one pair must not derive the other.
    g = generate_sparse_tripartite((4, 5, 6), 60, 9, RngStream(3))
    for mask in (0, 0b101101, (1 << 6) - 1):
        want = _validated(g, mask)
        sub = _restrict_c(g, mask)
        assert sub.edges("AB") == want.edges_ab
        assert not {"edges_bc", "edges_ca"} & set(sub.__dict__)
        assert sub.edges("CA") == want.edges_ca
        assert "edges_bc" not in sub.__dict__
        assert sub.edges("BC") == want.edges_bc


def test_seeded_listing_is_a_pure_capped_listing():
    # The stream comes from the graph's text, so equal graphs get equal
    # lists whatever was listed before; each edge gets min(cap, count) of
    # its triangles, all of them once the cap is past every count.
    for seed in range(6):
        g = generate_sparse_tripartite((5, 6, 5 + seed), 50, 3,
                                       RngStream(seed, ("seeded",)))
        full = triangle_list_bf(g)
        for cap in (1, 2, 50):
            got = seeded_listing_via_detection(g, cap,
                                               ae_sparse_triangle_fast)
            assert got.keys() == full.keys()
            assert all(len(got[e]) == min(cap, len(tris))
                       and set(got[e]) <= set(tris)
                       for e, tris in full.items())
            assert cap < 50 or got == full
            assert got == seeded_listing_via_detection(
                TripartiteWeightedGraph(g.part_sizes, g.edges_ab, g.edges_bc,
                                        g.edges_ca), cap,
                ae_sparse_triangle_bf)


def test_low_bits_equal_the_reduce_target_and_the_scanned_list():
    # The reference expressions: an edge's settling target cleared the
    # lowest set bit min(cap, popcount) times in a reduce, and its list
    # scanned every index below the top bit, then sliced to the cap.
    rng = RngStream(5, ("low-bits",))
    for trial in range(600):
        width = (1, 8, 24, 64, 65, 130, 300)[trial % 7]
        m = rng.next_u64() >> rng.randrange(64)
        for _ in range(width // 64):
            m = m << 64 | rng.next_u64()
        m &= (1 << width) - 1
        for cap in (0, 1, 2, 3, m.bit_count(), m.bit_count() + 5, 10 ** 7):
            target = m ^ reduce(lambda r, _: r & (r - 1),
                                range(min(cap, m.bit_count())), m)
            listed = [c for c in range(m.bit_length()) if m >> c & 1][:cap]
            low = _low_bits(m, cap)
            assert sum(low) == target
            assert [b.bit_length() - 1 for b in low] == listed


def test_seeded_stream_is_the_polynomial_hash_of_the_text(monkeypatch):
    # The seed equals the byte loop h = h * p + byte mod 2^63.
    seeds = []
    real = witness_listing.listing_via_detection

    def spy(g, cap, detector, rng):
        seeds.append(rng.master_seed)
        return real(g, cap, detector, rng)

    monkeypatch.setattr(witness_listing, "listing_via_detection", spy)
    graphs = [TripartiteWeightedGraph((0, 0, 0)),
              generate_tripartite(144, 16, True, RngStream(3))[0]]
    graphs += [generate_sparse_tripartite((4, 5, 6), 20 * i, 2, RngStream(i))
               for i in range(4)]
    for g in graphs:
        want = 0
        for byte in serialize(g).encode("utf-8"):
            want = (want * 1099511628211 + byte) & ((1 << 63) - 1)
        seeded_listing_via_detection(g, 1, ae_sparse_triangle_fast)
        assert seeds.pop() == want


def _reference_listing(g, cap, unique_solver, rng):
    """listing_via_unique without the dedup: every non-empty stage mask is
    solved, and each mask is drawn by a scalar randrange loop."""
    ab_edges = [(a, b) for a, b, _w in g.edges_ab]
    found = {edge: set() for edge in ab_edges}
    if cap <= 0 or not ab_edges:
        return {edge: [] for edge in ab_edges}
    nc, n = g.part_sizes[2], sum(g.part_sizes)
    has_bc = {(b, c) for b, c, _w in g.edges_bc}
    has_ca = {(c, a) for c, a, _w in g.edges_ca}
    unsaturated = len(ab_edges)
    for stage in range(1, ceil_log2((nc + 2) ** 3) + 1):
        for it in range(4 * cap * cap * ceil_log2(n + 2)):
            if unsaturated == 0:
                break
            child = rng.child("stage", stage, "iter", it)
            mask = sum(1 << c for c in range(nc)
                       if child.randrange(1 << stage) == 0)
            if mask == 0:
                continue
            for edge, tri in unique_solver(_restrict_c(g, mask)).items():
                if tri is None:
                    continue
                a, b, c = tri
                if edge != (a, b) or (b, c) not in has_bc or (c, a) not in has_ca:
                    continue
                if tri not in found[edge]:
                    found[edge].add(tri)
                    if len(found[edge]) == cap:
                        unsaturated -= 1
        if unsaturated == 0:
            break
    return {edge: sorted(found[edge])[:cap] for edge in ab_edges}


def _closable(g):
    return ({c for _b, c, _w in g.edges_bc}
            & {c for c, _a, _w in g.edges_ca})


def _spy_unique(g, inner):
    """A unique solver that asserts every graph it gets is new and keeps
    only closable C-vertices."""
    closable, seen = _closable(g), set()

    def solver(sub):
        key = (sub.edges_bc, sub.edges_ca)
        assert key not in seen
        seen.add(key)
        assert {c for _b, c, _w in sub.edges_bc} <= closable
        assert {c for c, _a, _w in sub.edges_ca} <= closable
        return inner(sub)

    return solver


def _unique_bf(sub):
    # Per A x B edge its triangle when unique: cheap enough to run a
    # stage of more than 1024 iterations many times over.
    truth = triangle_list_bf(sub)
    return {edge: tris[0] if len(tris) == 1 else None
            for edge, tris in truth.items()}


def _fast_unique(sub):
    return unique_listing_via_detection(sub, ae_sparse_triangle_fast)


def test_listing_dedup_keeps_every_answer():
    for seed in range(40):
        sizes = (3 + seed % 4, 4 + seed % 3, 2 + seed % 7)
        g = generate_sparse_tripartite(sizes, 20 + 2 * seed, 2,
                                       RngStream(900 + seed))
        k = 1 + seed % 3
        want = _reference_listing(g, k, _fast_unique, RngStream(seed))
        got = listing_via_unique(g, k, _spy_unique(g, _fast_unique),
                                 RngStream(seed))
        assert list(got.items()) == list(want.items())


def test_listing_dedup_across_mask_blocks(monkeypatch):
    # Cap 12 on a (2, 2, 3) graph: 4 * 144 * ceil(log2 9) = 2304 iterations
    # a stage, three blocks of child masks.
    g = generate_sparse_tripartite((2, 2, 3), 80, 2, RngStream(41))
    assert any(triangle_list_bf(g).values())
    for seed in range(3):
        want = _reference_listing(g, 12, _unique_bf, RngStream(seed))
        got = listing_via_unique(g, 12, _spy_unique(g, _unique_bf),
                                 RngStream(seed))
        assert list(got.items()) == list(want.items())

    # A unique solver that finds nothing settles no edge, so every block of
    # every stage is drawn.
    blocks = []
    real_child_masks = RngStream.child_masks

    def recorded(self, n, count, bits, start=0):
        blocks.append((n, start))
        return real_child_masks(self, n, count, bits, start)

    def nothing(sub):
        return {(a, b): None for a, b, _w in sub.edges_ab}

    monkeypatch.setattr(RngStream, "child_masks", recorded)
    for seed in range(3):
        got = listing_via_unique(g, 12, _spy_unique(g, nothing),
                                 RngStream(seed))
        assert got == {(a, b): [] for a, b, _w in g.edges_ab}
    assert blocks == [(1024, 0), (1024, 1024), (256, 2048)] * 7 * 3


def test_listing_call_counts_match_their_formula(monkeypatch):
    # Detection calls are unique calls times the bit count of |C|; unique
    # calls are at most one per distinct non-empty closable mask.
    unique_calls, detect_calls = [], []
    real_unique = witness_listing.unique_listing_via_detection

    def counted_unique(sub, detector):
        unique_calls.append(1)
        return real_unique(sub, detector)

    def detector(sub):
        detect_calls.append(1)
        return ae_sparse_triangle_fast(sub)

    monkeypatch.setattr(witness_listing, "unique_listing_via_detection",
                        counted_unique)
    for seed in range(24):
        sizes = (3 + seed % 3, 3 + seed % 4, 1 + seed % 6)
        g = generate_sparse_tripartite(sizes, 30 + 2 * seed, 2,
                                       RngStream(1300 + seed))
        k = 1 + seed % 3
        unique_calls.clear()
        detect_calls.clear()
        listing_via_detection(g, k, detector, RngStream(seed))
        nc, n = g.part_sizes[2], sum(g.part_sizes)
        stages = ceil_log2((nc + 2) ** 3)
        iterations = 4 * k * k * ceil_log2(n + 2)
        assert len(detect_calls) == len(unique_calls) * len(_bit_masks(nc))
        assert len(unique_calls) <= min(stages * iterations,
                                        2 ** len(_closable(g)) - 1)


def _listing_cases():
    """(graph, cap, seed): seeded graphs in which some edge holds more than
    the first cap's triangles; the second cap is at or above every edge's
    count, as the zero pipeline's caps are."""
    for seed in range(10):
        sizes = (3 + seed % 3, 3 + seed % 2, 4 + seed % 3)
        g = generate_sparse_tripartite(sizes, 55 + 3 * seed, 2,
                                       RngStream(4200 + seed))
        widest = max(map(len, triangle_list_bf(g).values()))
        k = 1 + seed % 2
        assert widest > k
        yield g, k, seed
        yield g, widest + seed % 2, seed


def test_listing_settled_stop_keeps_every_answer():
    # An edge stops being sent once it holds its smallest min(cap, count)
    # triangles; whole dicts, key order included, equal the reference that
    # sends every edge until every edge holds cap triangles.
    for g, k, seed in _listing_cases():
        want = _reference_listing(g, k, _fast_unique, RngStream(seed))
        got = listing_via_unique(g, k, _fast_unique, RngStream(seed))
        assert list(got.items()) == list(want.items())


def test_listing_sends_no_settled_edge_and_stops_once_all_settle():
    all_settled = 0
    for g, k, seed in _listing_cases():
        truth = triangle_list_bf(g)
        target = {edge: set(sorted(tris)[:k]) for edge, tris in truth.items()}
        found = {edge: set() for edge in truth}

        def settled():
            return {edge for edge in truth if target[edge] <= found[edge]}

        def spy(sub):
            assert settled() != set(truth), "a call after every edge settled"
            assert not {(a, b) for a, b, _w in sub.edges_ab} & settled()
            out = _fast_unique(sub)
            for edge, tri in out.items():
                if tri is not None:
                    found[edge].add(tri)
            return out

        got = listing_via_unique(g, k, spy, RngStream(seed))
        if settled() == set(truth):
            all_settled += 1
            assert got == {edge: sorted(tris)[:k]
                           for edge, tris in truth.items()}
    assert all_settled >= 15


def test_listing_work_per_edge_does_not_grow_with_the_cap():
    # On a complete 4 x 4 x 4 graph every edge settles once it holds all
    # |C| of its triangles, so a cap far above |C| gives the same answer;
    # finding each edge's settling target must not cost a step per unit of
    # cap.
    g, _ = generate_tripartite(12, 9, True, RngStream(7))
    nc = g.part_sizes[2]
    want = listing_via_detection(g, nc, ae_sparse_triangle_fast, RngStream(7))
    assert want == triangle_list_bf(g)
    start = perf_counter()
    got = listing_via_detection(g, 10**7, ae_sparse_triangle_fast,
                                RngStream(7))
    assert perf_counter() - start < 5.0
    assert list(got.items()) == list(want.items())
