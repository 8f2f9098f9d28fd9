"""The randomized zero-triangle pipeline, piece by piece."""


import random
from collections import Counter
from math import prod

import pytest

from fgtri import zero_triangle as zt
from fgtri import (RandomizationData, RangeSplit, RngStream,
                   TripartiteWeightedGraph,
                   build_subinstance, claim_statistics, default_degree_cap,
                   draw_randomization, enumerate_zero_triples,
                   generate_sparse_tripartite,
                   generate_tripartite, is_prime, pick_prime,
                   randomize_weights,
                   triangle_list_bf, triangle_weight_sum,
                   zero_triangle_bf, zero_triangle_via_listing)


def trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def bf_lister(graph, cap):
    return triangle_list_bf(graph, per_edge_cap=cap)


def bf_global_lister(graph, cap):
    return triangle_list_bf(graph, global_cap=cap)


# ------------------------------------------------------------ primes

def test_is_prime_matches_trial_division():
    for n in range(2000):
        assert is_prime(n) == trial_division_prime(n)


def test_is_prime_past_the_small_range():
    """Composites that fool weaker Miller-Rabin witness sets, given with
    their factors, and primes and windows of the size pick_prime draws
    for weights up to 10^6 (about 10^8 to 2.7 * 10^9)."""
    # Strong pseudoprimes to every prime base up to 7, 11, 13 and 17.
    strong = {3215031751: (151, 751, 28351),
              2152302898747: (6763, 10627, 29947),
              3474749660383: (1303, 16927, 157543),
              341550071728321: (10670053, 32010157)}
    carmichael = {561: (3, 11, 17), 41041: (7, 11, 13, 41),
                  825265: (5, 7, 17, 19, 73)}
    for n, factors in {**strong, **carmichael}.items():
        assert n == prod(factors) and not is_prime(n)
    for p in (1_000_000_007, 2_147_483_647):
        assert trial_division_prime(p) and is_prime(p)
    for lo in (10**8, 2_700_000_000):
        for n in range(lo, lo + 300):
            assert is_prime(n) == trial_division_prime(n)


def test_pick_prime_range_and_determinism():
    p = pick_prime(4, RngStream(1))
    assert 400 <= p <= 3600 and trial_division_prime(p)
    q = pick_prime(1, RngStream(2))
    assert 100 <= q <= 700 and trial_division_prime(q)
    assert pick_prime(9, RngStream(3)) == pick_prime(9, RngStream(3))


# ------------------------------------------------------------ randomization

def fixed_randomization(g, p, x, offsets_value=0):
    na, nb, nc = g.part_sizes
    return RandomizationData(p, x, ((offsets_value,) * na,
                                    (offsets_value,) * nb,
                                    (offsets_value,) * nc))


def mod_p(g, p):
    """g's weights as residues mod the prime p: the shear with x = 1 and
    zero offsets."""
    return randomize_weights(g, fixed_randomization(g, p, 1))


def test_randomize_identity_parameters():
    ints = generate_sparse_tripartite((3, 3, 3), 80, 5, RngStream(5))
    g = mod_p(ints, 101)
    assert g.weight_modulus == 101
    assert [w for _u, _v, w in g.edges_ab] == \
        [w % 101 for _u, _v, w in ints.edges_ab]
    same = randomize_weights(g, fixed_randomization(g, 101, 1))
    assert same == g


def test_randomize_zero_multiplier_kills_all_sums():
    g = mod_p(generate_sparse_tripartite((4, 4, 4), 80, 9, RngStream(6)),
              103)
    flat = randomize_weights(g, draw_randomization(g.part_sizes, 103,
                                                   RngStream(7)))
    zeroed = randomize_weights(
        g, RandomizationData(103, 0, draw_randomization(
            g.part_sizes, 103, RngStream(8)).offsets))
    wab = {(a, b): w for a, b, w in zeroed.edges_ab}
    wbc = {(b, c): w for b, c, w in zeroed.edges_bc}
    wca = {(c, a): w for c, a, w in zeroed.edges_ca}
    for (a, b) in wab:
        for c in range(4):
            if (b, c) in wbc and (c, a) in wca:
                assert (wab[(a, b)] + wbc[(b, c)] + wca[(c, a)]) % 103 == 0
    assert flat != zeroed


def test_randomize_shears_integer_weights_like_their_residues():
    """Integer weights, negative ones included, shear to the residues that
    their reduction mod p shears to; any other modulus is refused."""
    negative = 0
    for seed in range(20):
        g = generate_sparse_tripartite((3 + seed % 3, 4, 2 + seed % 4), 70,
                                       10 ** 6, RngStream(seed))
        negative += sum(w < 0 for pair in ("AB", "BC", "CA")
                        for _u, _v, w in g.edges(pair))
        p = pick_prime(10 ** 6, RngStream(seed).child("p"))
        rd = draw_randomization(g.part_sizes, p, RngStream(seed).child("rd"))
        assert randomize_weights(g, rd) == randomize_weights(mod_p(g, p), rd)
        for other in (p - 1, p + 1, 2):
            residues = [tuple((u, v, w % other) for u, v, w in g.edges(pair))
                        for pair in ("AB", "BC", "CA")]
            with pytest.raises(ValueError):
                randomize_weights(TripartiteWeightedGraph(
                    g.part_sizes, *residues, weight_modulus=other), rd)
    assert negative > 0


def test_randomize_telescopes_every_triangle():
    for seed in range(15):
        p = pick_prime(9, RngStream(seed).child("p"))
        g = mod_p(
            generate_sparse_tripartite((4, 4, 4), 70, 9,
                                       RngStream(seed)), p)
        rd = draw_randomization(g.part_sizes, p, RngStream(seed).child("rd"))
        sheared = randomize_weights(g, rd)
        wab = {(a, b): w for a, b, w in g.edges_ab}
        wbc = {(b, c): w for b, c, w in g.edges_bc}
        wca = {(c, a): w for c, a, w in g.edges_ca}
        w2ab = {(a, b): w for a, b, w in sheared.edges_ab}
        w2bc = {(b, c): w for b, c, w in sheared.edges_bc}
        w2ca = {(c, a): w for c, a, w in sheared.edges_ca}
        for (a, b) in wab:
            for c in range(4):
                if (b, c) in wbc and (c, a) in wca:
                    before = (wab[(a, b)] + wbc[(b, c)] + wca[(c, a)]) % p
                    after = (w2ab[(a, b)] + w2bc[(b, c)] + w2ca[(c, a)]) % p
                    assert after == rd.multiplier * before % p


def test_randomization_data_validation():
    with pytest.raises(ValueError):
        RandomizationData(10, 0, ((), (), ()))  # not prime
    with pytest.raises(ValueError):
        RandomizationData(11, 11, ((), (), ()))  # residue out of range


# ------------------------------------------------------------ range split

def test_split_ranges_hand_cases():
    rs = RangeSplit(11, 2)
    assert rs.ranges == ((0, 5), (6, 10))
    assert RangeSplit(11, 1).ranges == ((0, 10),)
    singles = RangeSplit(7, 7)
    assert singles.ranges == tuple((i, i) for i in range(7))
    with pytest.raises(ValueError):
        RangeSplit(5, 6)


def test_range_index_lookup():
    rs = RangeSplit(11, 3)  # sizes 4, 4, 3
    for residue in range(11):
        lo, hi = rs.ranges[rs.index_of(residue) - 1]
        assert lo <= residue <= hi


def scanned_index(rs, residue):
    """The 1-based id of the range holding the residue, by a scan of
    ``ranges`` (whose tiling the split tests pin), not by bisection."""
    return next(r for r, (lo, hi) in enumerate(rs.ranges, 1)
                if lo <= residue <= hi)


def brute_zero_triples(p, s):
    rs = RangeSplit(p, s)
    home = [scanned_index(rs, residue) for residue in range(p)]
    return {(home[a], home[b], home[(-a - b) % p])
            for a in range(p) for b in range(p)}


@pytest.mark.parametrize("p,s", [(11, 1), (11, 2), (13, 4), (29, 5), (53, 8),
                                 (17, 17), (31, 3)])
def test_enumerate_zero_triples_matches_brute_force(p, s):
    rs = RangeSplit(p, s)
    assert [rs.index_of(r) for r in range(p)] == [
        scanned_index(rs, r) for r in range(p)]
    got = enumerate_zero_triples(rs)
    # The trial loop takes the first hit, so the order is part of the answer.
    assert got == sorted(set(got))
    assert set(got) == brute_zero_triples(p, s)


def test_triples_single_range():
    assert enumerate_zero_triples(RangeSplit(101, 1)) == [(1, 1, 1)]


@pytest.mark.parametrize("s", [2, 3, 5, 8, 16, 33, 64])
def test_triples_sparsity(s):
    p = pick_prime(50, RngStream(s))
    triples = enumerate_zero_triples(RangeSplit(p, s))
    assert len(triples) <= 5 * s * s
    per_pair = {}
    for i, j, k in triples:
        per_pair.setdefault((i, j), []).append(k)
    assert max(len(v) for v in per_pair.values()) <= 5


# ------------------------------------------------------------ subinstances

def sheared_instance(seed, sizes=(5, 5, 5), density=70, bound=8):
    g = generate_sparse_tripartite(sizes, density, bound, RngStream(seed))
    p = pick_prime(bound, RngStream(seed).child("p"))
    gp = mod_p(g, p)
    rd = draw_randomization(sizes, p, RngStream(seed).child("rd"))
    return g, randomize_weights(gp, rd), p


def test_subinstance_single_range_is_whole_graph():
    _g, sheared, p = sheared_instance(1)
    rs = RangeSplit(p, 1)
    report = build_subinstance(sheared, rs, (1, 1, 1),
                               degree_cap_ab=10**9, degree_cap_ca=10**9,
                               degree_cap_bc=10**9)
    assert report.graph == sheared
    assert report.pruned == ()


def test_subinstance_partition_of_edges():
    # Per part-pair, each edge lands in the subinstances of exactly the
    # enumerated triples carrying its range index.
    _g, sheared, p = sheared_instance(2)
    rs = RangeSplit(p, 3)
    triples = enumerate_zero_triples(rs)
    appearance = {("AB", e[0], e[1]): 0 for e in sheared.edges_ab}
    appearance.update({("BC", e[0], e[1]): 0 for e in sheared.edges_bc})
    appearance.update({("CA", e[0], e[1]): 0 for e in sheared.edges_ca})
    for triple in triples:
        rep = build_subinstance(sheared, rs, triple, 10**9, 10**9, 10**9)
        for a, b, _w in rep.graph.edges_ab:
            appearance[("AB", a, b)] += 1
        for b, c, _w in rep.graph.edges_bc:
            appearance[("BC", b, c)] += 1
        for c, a, _w in rep.graph.edges_ca:
            appearance[("CA", c, a)] += 1
    k_count = {}
    ij_count = {}
    i_count = {}
    for i, j, k in triples:
        k_count[k] = k_count.get(k, 0) + 1
        ij_count[j] = ij_count.get(j, 0) + 1
        i_count[i] = i_count.get(i, 0) + 1
    for a, b, w in sheared.edges_ab:
        assert appearance[("AB", a, b)] == k_count.get(rs.index_of(w), 0)
    for b, c, w in sheared.edges_bc:
        assert appearance[("BC", b, c)] == ij_count.get(rs.index_of(w), 0)
    for c, a, w in sheared.edges_ca:
        assert appearance[("CA", c, a)] == i_count.get(rs.index_of(w), 0)


def test_subinstance_covers_zero_triangles_exactly_once():
    for seed in range(10):
        g, sheared, p = sheared_instance(100 + seed)
        rs = RangeSplit(p, 4)
        triples = enumerate_zero_triples(rs)
        w2ab = {(a, b): w for a, b, w in sheared.edges_ab}
        w2bc = {(b, c): w for b, c, w in sheared.edges_bc}
        w2ca = {(c, a): w for c, a, w in sheared.edges_ca}
        zero_tris = [
            (a, b, c)
            for (a, b) in w2ab for c in range(g.part_sizes[2])
            if (b, c) in w2bc and (c, a) in w2ca
            and (w2ab[(a, b)] + w2bc[(b, c)] + w2ca[(c, a)]) % p == 0
        ]
        for (a, b, c) in zero_tris:
            home = (rs.index_of(w2ca[(c, a)]), rs.index_of(w2bc[(b, c)]),
                    rs.index_of(w2ab[(a, b)]))
            assert home in triples
            count = 0
            for triple in triples:
                rep = build_subinstance(sheared, rs, triple,
                                        10**9, 10**9, 10**9)
                sab = {(x, y) for x, y, _ in rep.graph.edges_ab}
                sbc = {(x, y) for x, y, _ in rep.graph.edges_bc}
                sca = {(x, y) for x, y, _ in rep.graph.edges_ca}
                if (a, b) in sab and (b, c) in sbc and (c, a) in sca:
                    count += 1
            assert count == 1


def test_subinstance_degree_caps_enforced():
    # A star from one A-vertex to all of B; tiny cap removes it.
    edges_ab = tuple((0, b, 0) for b in range(6))
    g = TripartiteWeightedGraph((2, 6, 1), edges_ab, ((0, 0, 0),),
                                ((0, 0, 0), (0, 1, 0)), weight_modulus=7)
    rs = RangeSplit(7, 1)
    rep = build_subinstance(g, rs, (1, 1, 1), degree_cap_ab=3,
                            degree_cap_ca=10, degree_cap_bc=10)
    assert ("A", 0) in rep.pruned
    assert all(a != 0 for a, _b, _w in rep.graph.edges_ab)
    assert all(a != 0 for _c, a, _w in rep.graph.edges_ca)
    # Survivors obey every cap.
    for part, idx in rep.pruned:
        assert part in "ABC"


def test_subinstance_default_caps_match_formula():
    assert default_degree_cap(16, 4) == 600
    _g, sheared, p = sheared_instance(3)
    rs = RangeSplit(p, 2)
    rep = build_subinstance(sheared, rs, enumerate_zero_triples(rs)[0])
    deg = {}
    for a, b, _w in rep.graph.edges_ab:
        deg[("A", a, "B")] = deg.get(("A", a, "B"), 0) + 1
        deg[("B", b, "A")] = deg.get(("B", b, "A"), 0) + 1
    for b, c, _w in rep.graph.edges_bc:
        deg[("B", b, "C")] = deg.get(("B", b, "C"), 0) + 1
        deg[("C", c, "B")] = deg.get(("C", c, "B"), 0) + 1
    for c, a, _w in rep.graph.edges_ca:
        deg[("C", c, "A")] = deg.get(("C", c, "A"), 0) + 1
        deg[("A", a, "C")] = deg.get(("A", a, "C"), 0) + 1
    sizes = dict(zip("ABC", sheared.part_sizes))
    for (part, _idx, toward), count in deg.items():
        assert count <= default_degree_cap(sizes[toward], 2)


def reference_subinstance(gp, rs, triple, caps):
    """A plain rescan of every edge, as build_subinstance once did it."""
    i, j, k = triple
    (lo_i, hi_i), (lo_j, hi_j), (lo_k, hi_k) = (rs.ranges[i - 1],
                                                rs.ranges[j - 1],
                                                rs.ranges[k - 1])
    sel_ab = [e for e in gp.edges_ab if lo_k <= e[2] <= hi_k]
    sel_bc = [e for e in gp.edges_bc if lo_j <= e[2] <= hi_j]
    sel_ca = [e for e in gp.edges_ca if lo_i <= e[2] <= hi_i]
    sizes = dict(zip("ABC", gp.part_sizes))
    pair_cap = {frozenset("AB"): caps[0], frozenset("CA"): caps[1],
                frozenset("BC"): caps[2]}
    deg = {}
    for pair, edges in (("AB", sel_ab), ("BC", sel_bc), ("CA", sel_ca)):
        for u, v, _w in edges:
            for part, idx, toward in ((pair[0], u, pair[1]),
                                      (pair[1], v, pair[0])):
                deg[(part, idx, toward)] = deg.get((part, idx, toward), 0) + 1
    doomed = set()
    for (part, idx, toward), count in deg.items():
        cap = pair_cap[frozenset(part + toward)]
        if cap is None:
            cap = default_degree_cap(sizes[toward], rs.count)
        if count > cap:
            doomed.add((part, idx))
    keep = lambda edges, pu, pv: tuple(
        e for e in edges if (pu, e[0]) not in doomed and (pv, e[1]) not in doomed)
    return ((keep(sel_ab, "A", "B"), keep(sel_bc, "B", "C"),
             keep(sel_ca, "C", "A")), tuple(sorted(doomed)))


def test_subinstance_matches_reference_scan_across_splits():
    # The per-range index is cached on the graph; alternating two splits
    # call by call must never serve one split's buckets to the other.
    cap_sets = [(None, None, None), (2, 1, 3), (-1, 0, 2)]
    pruned_somewhere = False
    for seed in range(6):
        _g, sheared, p = sheared_instance(200 + seed, sizes=(6, 7, 8))
        calls = {s: [(rs, t) for rs in [RangeSplit(p, s)]
                     for t in enumerate_zero_triples(rs)] for s in (2, 3)}
        longest = max(len(c) for c in calls.values())
        for n in range(longest):
            for s in (2, 3):
                if n >= len(calls[s]):
                    continue
                rs, triple = calls[s][n]
                for caps in cap_sets:
                    rep = build_subinstance(sheared, rs, triple, *caps)
                    edges, pruned = reference_subinstance(sheared, rs,
                                                          triple, caps)
                    assert (rep.graph.edges_ab, rep.graph.edges_bc,
                            rep.graph.edges_ca) == edges
                    assert rep.pruned == pruned
                    assert rep.graph.part_sizes == sheared.part_sizes
                    pruned_somewhere |= bool(pruned)
    assert pruned_somewhere


def _counter_reference(gp, rs, triple, caps):
    """Kept edges and pruned vertices from a Counter of each endpoint's
    degree over a plain rescan of the selected edges; caps by pair name."""
    i, j, k = triple
    sizes = dict(zip("ABC", gp.part_sizes))
    kept, doomed = [], set()
    for pair, r in (("AB", k), ("BC", j), ("CA", i)):
        lo, hi = rs.ranges[r - 1]
        kept.append([e for e in gp.edges(pair) if lo <= e[2] <= hi])
        for end in (0, 1):
            part, toward = pair[end], pair[1 - end]
            cap = caps[pair]
            if cap is None:
                cap = default_degree_cap(sizes[toward], rs.count)
            degree = Counter(e[end] for e in kept[-1])
            doomed |= {(part, v) for v, d in degree.items() if d > cap}
    return (tuple(tuple(e for e in edges if (pair[0], e[0]) not in doomed
                        and (pair[1], e[1]) not in doomed)
                  for pair, edges in zip(("AB", "BC", "CA"), kept)),
            tuple(sorted(doomed)))


@pytest.mark.parametrize("s", [1, 2, 3])
def test_pruning_matches_a_counter_reference_in_every_direction(s):
    # Every (part, toward-part) direction gets each cap around |toward|,
    # on part sizes that differ, so a cap can bite one way and not the
    # other; each direction must prune some vertex of its part.
    keywords = {"AB": "degree_cap_ab", "BC": "degree_cap_bc",
                "CA": "degree_cap_ca"}
    fired = set()
    for seed, sizes in enumerate([(3, 4, 5), (5, 3, 4), (4, 5, 3)] * 2):
        _g, sheared, p = sheared_instance(300 + seed, sizes=sizes,
                                          density=75 + 5 * seed)
        rs = RangeSplit(p, s)
        size = dict(zip("ABC", sizes))
        for pair in keywords:
            for part, toward in (pair, pair[::-1]):
                n = size[toward]
                for cap in (None, 0, 1, n - 1, n, n + 1):
                    caps = dict.fromkeys(keywords) | {pair: cap}
                    for triple in enumerate_zero_triples(rs):
                        rep = build_subinstance(
                            sheared, rs, triple,
                            **{keywords[q]: c for q, c in caps.items()})
                        edges, pruned = _counter_reference(sheared, rs,
                                                           triple, caps)
                        assert rep.pruned == pruned
                        assert (rep.graph.edges_ab, rep.graph.edges_bc,
                                rep.graph.edges_ca) == edges
                        if any(q == part for q, _v in pruned):
                            fired.add((part, toward))
    assert len(fired) == 6


def _validated_copy(g):
    return TripartiteWeightedGraph(g.part_sizes, g.edges_ab, g.edges_bc,
                                   g.edges_ca, g.weight_modulus)


def test_derived_graphs_equal_the_validated_graph_of_their_fields():
    # randomize_weights and build_subinstance skip validation; the
    # validating constructor must accept what they build, unchanged.
    pruned_somewhere = False
    for seed in range(8):
        g, _tri = generate_tripartite(9, 50, seed % 2 == 0, RngStream(seed))
        p = pick_prime(g.max_abs_weight(), RngStream(seed).child("p"))
        gp = mod_p(g, p)
        assert gp == _validated_copy(gp) and gp.weight_modulus == p
        rd = draw_randomization(g.part_sizes, p, RngStream(seed).child("rd"))
        sheared = randomize_weights(gp, rd)
        assert sheared == _validated_copy(sheared)
        rs = RangeSplit(p, 3)
        for triple in enumerate_zero_triples(rs):
            for caps in ((None, None, None), (2, 1, 3)):
                rep = build_subinstance(sheared, rs, triple, *caps)
                assert rep.graph == _validated_copy(rep.graph)
                pruned_somewhere |= bool(rep.pruned)
    assert pruned_somewhere


# ------------------------------------------------------------ pipelines

def test_pipeline_degenerate_parameters_match_brute_force():
    for seed in range(15):
        g = generate_sparse_tripartite((4, 4, 4), 70, 4, RngStream(seed))
        found, witness = zero_triangle_via_listing(
            g, 1, bf_lister, trials=1, rng=RngStream(seed).child("run"),
            cap=10**9)
        assert found == (zero_triangle_bf(g) is not None)
        if found:
            assert triangle_weight_sum(g, witness) == 0


def test_pipeline_soundness_on_no_zero_instances():
    checked = 0
    seed = 0
    while checked < 30:
        seed += 1
        g = generate_sparse_tripartite((4, 4, 4), 80, 10**6, RngStream(seed))
        if zero_triangle_bf(g) is not None:
            continue
        checked += 1
        found, witness = zero_triangle_via_listing(
            g, 2, bf_lister, trials=3, rng=RngStream(seed).child("x"))
        assert found is False and witness is None


def test_pipeline_completeness_on_planted_instances():
    for seed in range(10):
        g, planted = generate_tripartite(24, 40, True, RngStream(seed))
        found, witness = zero_triangle_via_listing(
            g, 2, bf_lister, trials=30, rng=RngStream(seed).child("x"))
        assert found and triangle_weight_sum(g, witness) == 0


def test_global_pipeline_mirrors_per_edge_pipeline():
    for seed in range(8):
        g, planted = generate_tripartite(18, 30, True, RngStream(40 + seed))
        found, witness = zero_triangle_via_listing(
            g, 2, bf_global_lister, trials=30, rng=RngStream(seed).child("y"),
            cap=zt.default_global_cap(g.part_sizes, 2))
        assert found and triangle_weight_sum(g, witness) == 0


@pytest.mark.parametrize("g", [
    TripartiteWeightedGraph((0, 2, 2), edges_bc=((0, 0, 0),)),
    TripartiteWeightedGraph((2, 0, 2), edges_ca=((0, 0, 0),)),
    TripartiteWeightedGraph((2, 2, 0), edges_ab=((0, 0, 0),))])
def test_zero_pipelines_with_an_empty_part_call_no_lister(g):
    def lister(_graph, _cap):
        raise AssertionError("no listing call is needed")

    for cap in (None, zt.default_global_cap(g.part_sizes, 2)):
        assert zero_triangle_via_listing(g, 2, lister, trials=3,
                                         rng=RngStream(1), cap=cap) \
            == (False, None)


def test_pipeline_report_sink_records_subinstances():
    g, _ = generate_tripartite(12, 20, True, RngStream(3))
    records = []
    zero_triangle_via_listing(g, 2, bf_lister, trials=2,
                              rng=RngStream(4), report_sink=records.append)
    assert records
    for rec in records:
        assert set(rec) == {"trial", "triple", "edges_kept", "pruned",
                            "listed", "hits"}


def _one_planted_zero(seed):
    """A 3 x 3 x 3 tripartite graph without two of its AB edges whose only
    zero triangle is the planted one, that triple, and the missing edges."""
    while True:
        seed += 1000
        full, planted = generate_tripartite(9, 10**6, True, RngStream(seed))
        drop = {(0, 0), (2, 1)} - {planted[:2]}
        g = TripartiteWeightedGraph(
            full.part_sizes,
            tuple(e for e in full.edges_ab if e[:2] not in drop),
            full.edges_bc, full.edges_ca)
        zeros = [(a, b, c) for a, b, w in g.edges_ab
                 for c in range(g.part_sizes[2])
                 if triangle_weight_sum(g, (a, b, c)) == 0]
        if zeros == [planted]:
            return g, planted, drop


def _lies(g, planted, drop):
    """Triangles a broken lister might report, none of them a zero
    triangle of g: the planted one shifted by a part size (negative
    indices, which a Python list would wrap, and indices past the part),
    triples through a missing AB edge, real triangles with a nonzero sum,
    and duplicates."""
    na, nb, nc = g.part_sizes
    pa, pb, pc = planted
    shifted = [(pa - na, pb, pc), (pa, pb - nb, pc), (pa, pb, pc - nc),
               (pa - na, pb - nb, pc - nc), (-1, -1, -1),
               (pa + na, pb, pc), (pa, pb + nb, pc), (pa, pb, pc + nc)]
    non_edges = [(a, b, c) for a, b in sorted(drop) for c in range(nc)]
    nonzero = [(a, b, c) for a, b, _w in g.edges_ab[:4] for c in range(2)
               if (a, b, c) != planted]
    return shifted + non_edges + nonzero + nonzero[:3] + shifted[:2]


def test_pipelines_reject_what_a_lying_lister_reports():
    for seed in range(6):
        g, planted, drop = _one_planted_zero(seed)
        lies = _lies(g, planted, drop)
        for honest_tail in ([], [planted]):
            told = lies + honest_tail
            calls = []

            def lister(_graph, _cap):
                calls.append(1)
                return {(0, n): [tri] for n, tri in enumerate(told)}

            for run in (
                    lambda: zero_triangle_via_listing(
                        g, 2, lister, 2, RngStream(seed)),
                    lambda: zero_triangle_via_listing(
                        g, 2, lister, 2, RngStream(seed),
                        zt.default_global_cap(g.part_sizes, 2))):
                calls.clear()
                found, witness = run()
                assert calls
                if honest_tail:
                    assert found and witness == planted
                    assert triangle_weight_sum(g, witness) == 0
                else:
                    assert found is False and witness is None
        na = g.part_sizes[0]
        with pytest.raises(ValueError):
            claim_statistics(g, (planted[0] - na,) + planted[1:], 2, 1,
                             RngStream(seed))


def test_trial_loop_reads_answers_in_sorted_edge_order():
    """A lister returning triangle_list_bf's lists with its keys reversed
    gets the same verdict, witness and report records: the loop reads each
    answer in sorted edge order, not in the lister's key order."""
    g, _ = generate_tripartite(18, 10, True, RngStream(4))
    for cap, honest in ((None, bf_lister),
                        (zt.default_global_cap(g.part_sizes, 2),
                         bf_global_lister)):
        runs = []
        for reverse in (False, True):
            answers, records = [], []

            def lister(graph, cap):
                lists = honest(graph, cap)
                answers.append(lists)
                return dict(reversed(lists.items())) if reverse else lists

            verdict = zero_triangle_via_listing(
                g, 2, lister, 3, RngStream(4).child("run"), cap,
                report_sink=records.append)
            runs.append((verdict, records))
        assert runs[0] == runs[1]
        assert runs[0][0][0] and len(runs[0][1]) > 1
        # The hitting subinstance has zero triangles on several A x B
        # edges, so reading the reversed keys in order would name another.
        zero_edges = {tri[:2] for tris in answers[-1].values()
                      for tri in tris if triangle_weight_sum(g, tri) == 0}
        assert len(zero_edges) > 1


def test_zero_pipelines_list_each_zero_triple_once_per_trial():
    """A trial without a hit makes one lister call per range triple that
    can hold a zero triangle, in enumeration order, each triple once:
    len(enumerate_zero_triples(rs)) calls, at most min(s, 3) s^2, since
    -(L_i + L_j) meets at most three ranges. No call follows the first
    call whose answer holds a zero triangle."""
    checked_trials = hits = 0
    for seed in range(10):
        planted = seed % 2 == 1  # with weights far apart, only then a hit
        g, _ = generate_tripartite(9 + seed, 50 if planted else 10 ** 6,
                                   planted, RngStream(seed, ("formula",)))
        for s in (1, 2, 3, 4, 6):
            splits = [rs for _t, _g, rs in zt._randomized_trials(
                g, s, 3, RngStream(seed))]
            for cap, lister in ((None, bf_lister),
                                (zt.default_global_cap(g.part_sizes, s),
                                 bf_global_lister)):
                calls, records = [], []

                def counted(graph, cap):
                    lists = lister(graph, cap)
                    calls.append(any(triangle_weight_sum(g, tri) == 0
                                     for tris in lists.values()
                                     for tri in tris))
                    return lists

                found, _w = zero_triangle_via_listing(
                    g, s, counted, 3, RngStream(seed), cap,
                    report_sink=records.append)
                assert len(calls) == len(records)
                assert (True in calls) == found
                if found:  # the first hit ends the run
                    assert calls.index(True) == len(calls) - 1
                    hits += 1
                for trial, rs in enumerate(splits):
                    listed = [tuple(r["triple"]) for r in records
                              if r["trial"] == trial]
                    if found and trial == records[-1]["trial"]:
                        assert listed == enumerate_zero_triples(rs)[
                            :len(listed)]
                        break
                    assert listed == enumerate_zero_triples(rs)
                    assert len(set(listed)) == len(listed) <= min(s, 3) * s * s
                    checked_trials += 1
    # Every unplanted run lists all its trials, every planted one hits.
    assert (checked_trials, hits) == (150, 50)


def _pipeline_traffic(run):
    """Lister calls, summed report fields and the verdict of one run."""
    calls = []
    sums = dict.fromkeys(("edges_kept", "pruned", "listed", "hits"), 0)

    def sink(record):
        for key in sums:
            sums[key] += record[key]

    def counted(lister):
        def call(graph, cap):
            calls.append(cap)
            return lister(graph, cap)
        return call

    verdict = run(counted, sink)
    return (len(calls),) + tuple(sums.values()) + verdict


def test_zero_pipeline_traffic_is_pinned():
    """Subinstances, listings and verdicts of both pipelines over a small
    seeded battery, with default and with binding explicit listing caps;
    the trial loop must not add, drop or resize a lister call."""
    battery = [(generate_tripartite(10 + 2 * seed, 1000, seed % 3 != 2,
                                    RngStream(700 + seed))[0], 2 + seed % 2)
               for seed in range(6)]
    # Sparse graphs split four ways, where some subinstances are empty.
    battery += [(generate_sparse_tripartite((6, 7, 5), 35, 1000,
                                            RngStream(710 + seed)), 4)
                for seed in range(2)]
    got = []
    for seed, (g, s) in enumerate(battery):
        for cap in (None, 1):
            got.append(_pipeline_traffic(
                lambda counted, sink: zero_triangle_via_listing(
                    g, s, counted(bf_lister), 3, RngStream(seed),
                    cap=cap, report_sink=sink)))
            got.append(_pipeline_traffic(
                lambda counted, sink: zero_triangle_via_listing(
                    g, s, counted(bf_global_lister), 3, RngStream(seed),
                    cap=2 if cap else zt.default_global_cap(g.part_sizes, s),
                    report_sink=sink)))
    # Per run: lister calls, summed edges_kept, pruned, listed and hits,
    # then the verdict and witness. For each graph the first two rows use
    # the default caps and the next two cap per edge at 1 and globally at
    # 2, which cuts the listed count wherever the run lasts long enough.
    # Pruning needs a degree above 100|P|/s + 200, which exceeds |P| for
    # s <= 100, so it never fires in a pipeline.
    assert got == [
        (1, 16, 0, 4, 1, True, (0, 1, 1)), (1, 16, 0, 4, 1, True, (0, 1, 1)),
        (1, 16, 0, 4, 1, True, (0, 1, 1)), (1, 16, 0, 2, 1, True, (0, 1, 1)),
        (16, 252, 0, 32, 1, True, (0, 1, 0)),
        (16, 252, 0, 32, 1, True, (0, 1, 0)),
        (16, 252, 0, 30, 1, True, (0, 1, 0)),
        (16, 252, 0, 20, 1, True, (0, 1, 0)),
        (24, 780, 0, 300, 0, False, None), (24, 780, 0, 300, 0, False, None),
        (24, 780, 0, 215, 0, False, None), (24, 780, 0, 48, 0, False, None),
        (8, 219, 0, 44, 1, True, (5, 4, 1)),
        (8, 219, 0, 44, 1, True, (5, 4, 1)),
        (8, 219, 0, 36, 1, True, (5, 4, 1)),
        (57, 1610, 0, 110, 0, False, None),
        (4, 228, 0, 126, 2, True, (0, 1, 5)),
        (4, 228, 0, 126, 2, True, (0, 1, 5)),
        (4, 228, 0, 57, 1, True, (4, 2, 0)),
        (15, 809, 0, 30, 1, True, (0, 1, 5)),
        (57, 2531, 0, 639, 0, False, None),
        (57, 2531, 0, 639, 0, False, None),
        (57, 2531, 0, 483, 0, False, None),
        (57, 2531, 0, 114, 0, False, None),
        (99, 787, 0, 13, 0, False, None), (99, 787, 0, 13, 0, False, None),
        (99, 787, 0, 13, 0, False, None), (99, 787, 0, 13, 0, False, None),
        (99, 743, 0, 3, 0, False, None), (99, 743, 0, 3, 0, False, None),
        (99, 743, 0, 3, 0, False, None), (99, 743, 0, 3, 0, False, None),
    ]


# ------------------------------------------------------------ claims

def test_claim_statistics_single_range_never_prunes():
    g, planted = generate_tripartite(18, 25, True, RngStream(10))
    stats = claim_statistics(g, planted, 1, 50, RngStream(11))
    assert stats.f1 == 1.0


def test_claim_statistics_requires_a_real_zero_triangle():
    g, planted = generate_tripartite(9, 25, True, RngStream(12))
    bogus = ((planted[0] + 1) % 3, planted[1], planted[2])
    if triangle_weight_sum(g, bogus) == 0:
        pytest.skip("accidental second zero triangle")
    with pytest.raises(ValueError):
        claim_statistics(g, bogus, 2, 5, RngStream(13))


def test_claim_statistics_reports_bounds():
    g, planted = generate_tripartite(48, 60, True, RngStream(14))
    stats = claim_statistics(g, planted, 4, 25, RngStream(15))
    assert stats.per_edge_bound == 900 * 16 // 16
    assert stats.global_bound == 8100 * 16 ** 3 // 64
    assert 0.0 <= min(stats.f1, stats.f2, stats.f3)
    assert max(stats.f1, stats.f2, stats.f3) <= 1.0


def test_claim_statistics_rejects_non_positive_trials():
    g, planted = generate_tripartite(9, 25, True, RngStream(16))
    for trials in (0, -1):
        with pytest.raises(ValueError):
            claim_statistics(g, planted, 2, trials, RngStream(17))


@pytest.mark.parametrize("s", [0, -1])
def test_range_count_below_one_is_a_value_error(s):
    g, planted = generate_tripartite(9, 25, True, RngStream(18))
    with pytest.raises(ValueError, match="range count"):
        zero_triangle_via_listing(g, s, bf_lister, 3, RngStream(19))
    with pytest.raises(ValueError, match="range count"):
        zero_triangle_via_listing(g, s, bf_global_lister, 3, RngStream(19),
                                  cap=zt.default_global_cap(g.part_sizes, s))
    with pytest.raises(ValueError, match="range count"):
        claim_statistics(g, planted, s, 3, RngStream(19))


def _modular_zero_graph():
    """Weights 1, 2, 2 sum to 0 mod 5, not as integers."""
    return TripartiteWeightedGraph((1, 1, 1), ((0, 0, 1),), ((0, 0, 2),),
                                   ((0, 0, 2),), weight_modulus=5)


def test_modular_graphs_are_rejected_before_any_trial():
    g = _modular_zero_graph()
    assert zero_triangle_bf(g) == (0, 0, 0)

    def lister(graph, cap):
        raise AssertionError("no subinstance may be listed")

    runs = (lambda: zero_triangle_via_listing(g, 1, lister, 3, RngStream(1)),
            lambda: zero_triangle_via_listing(
                g, 1, lister, 3, RngStream(1),
                zt.default_global_cap(g.part_sizes, 1)),
            lambda: claim_statistics(g, (0, 0, 0), 1, 3, RngStream(1)))
    for run in runs:
        with pytest.raises(ValueError, match="integer weights"):
            run()


def _reference_claim_counts(g, planted, s, trials, rng):
    """Largest per-trial false-positive and nonzero-triangle counts of the
    planted triangle's range triple, by a scan of every vertex triple after
    the public randomization steps."""
    na, nb, nc = g.part_sizes
    pa, pb, pc = planted
    weight = [{(u, v): w for u, v, w in g.edges(pair)}
              for pair in ("AB", "BC", "CA")]
    max_fp = max_nz = 0
    for trial in range(trials):
        stream = rng.child("trial", trial)
        p = pick_prime(max(1, g.max_abs_weight()), stream.child("prime"))
        rd = draw_randomization(g.part_sizes, p, stream.child("randomize"))
        gp = randomize_weights(g, rd)
        rs = RangeSplit(p, s)
        home = [{(u, v): rs.index_of(w) for u, v, w in gp.edges(pair)}
                for pair in ("AB", "BC", "CA")]
        triple = (home[0][(pa, pb)], home[1][(pb, pc)], home[2][(pc, pa)])
        fp = nz = 0
        for a in range(na):
            for b in range(nb):
                for c in range(nc):
                    if (home[0].get((a, b)), home[1].get((b, c)),
                            home[2].get((c, a))) != triple:
                        continue
                    if weight[0][(a, b)] + weight[1][(b, c)] \
                            + weight[2][(c, a)] != 0:
                        nz += 1
                        fp += (a, b) == (pa, pb)
        max_fp, max_nz = max(max_fp, fp), max(max_nz, nz)
    return max_fp, max_nz


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_claim_counts_match_a_nested_loop_reference(bound):
    seen = []
    for seed in range(3):
        rng = RngStream(7_000 + 10 * bound + seed)
        complete, planted = generate_tripartite(15, bound, True,
                                                rng.child("complete"))
        sparse = generate_sparse_tripartite((5, 4, 6), 60, bound,
                                            rng.child("sparse"))
        for g, tri in ((complete, planted), (sparse, zero_triangle_bf(sparse))):
            if tri is None:
                continue
            for s in (2, 3):
                stats = claim_statistics(g, tri, s, 10, rng.child("claims"))
                counts = (stats.max_false_positives, stats.max_nonzero)
                assert counts == _reference_claim_counts(
                    g, tri, s, 10, rng.child("claims"))
                seen.append(counts)
    assert len(seen) >= 12
    assert all(nonzero > 0 for _fp, nonzero in seen)
    assert any(fp > 0 for fp, _nonzero in seen)


def test_range_split_ranges_tile_the_field():
    for p, s in ((7, 0), (7, 8), (1, 2), (5, -1)):
        with pytest.raises(ValueError):
            RangeSplit(p, s)
    for p in range(1, 40):
        for s in range(1, p + 1):
            ranges = RangeSplit(p, s).ranges
            assert len(ranges) == s
            assert ranges[0][0] == 0 and ranges[-1][1] == p - 1
            assert all(hi + 1 == lo for (_, hi), (lo, _)
                       in zip(ranges, ranges[1:]))
            sizes = [hi - lo + 1 for lo, hi in ranges]
            assert sizes == sorted(sizes, reverse=True)
            assert sizes.count(p // s + 1) == p % s


def test_index_of_names_the_range_holding_each_residue():
    draw = random.Random(2_026)
    for _case in range(80):
        p = draw.randint(1, 300)
        s = draw.choice((1, 2, 3, p, draw.randint(1, p)))
        rs = RangeSplit(p, s)
        for residue in range(p):
            lo, hi = rs.ranges[rs.index_of(residue) - 1]
            assert lo <= residue <= hi
