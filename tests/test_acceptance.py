"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with its measured numbers. Tolerances are pinned here and nowhere
else."""

import math
import time

import fgtri as f
from fgtri.oracles import (MAX_LE, MAX_MIN, MIN_EQ, MIN_LE, MIN_WITNESS,
                           MONO_EQ, MONO_MIN_EQ, MONO_MIN_LE)
from test_products import BracketChecker

monoeq_bf = f.ae_monoeq_triangle_bf


def mono_eq_bf(g):
    return f.mono_product_bf(g, MONO_EQ)


def min_le_chain(a, b):
    return f.min_le_via_monoeq(a, b, monoeq_bf)


def max_min_chain(a, b):
    return f.max_min_product(a, b, min_le_chain)


def bf_lister(graph, cap):
    return f.triangle_list_bf(graph, per_edge_cap=cap)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def ij_only(answers):
    return {(u, v): val for (pair, u, v), val in answers.items()
            if pair == "IJ"}


def test_criterion_01_fast_solvers_match_oracles():
    """Fast sparse and mono solvers agree with the brute oracles on 500
    seeded instances each (n <= 64, mixed densities, 3-8 colors), within
    60 seconds total."""
    start = time.perf_counter()
    sparse_ok = 0
    for i in range(500):
        rng = f.RngStream(100_000 + i)
        sizes = (rng.randint(2, 21), rng.randint(2, 21), rng.randint(2, 21))
        density = rng.randint(15, 90)
        g = f.generate_sparse_tripartite(sizes, density, 9, rng.child("g"))
        if f.ae_sparse_triangle_fast(g) == f.ae_sparse_triangle_bf(g):
            sparse_ok += 1
    mono_ok = 0
    for i in range(500):
        rng = f.RngStream(110_000 + i)
        sizes = (rng.randint(2, 21), rng.randint(2, 21), rng.randint(2, 21))
        density = rng.randint(15, 90)
        colors = rng.randint(3, 8)
        g = f.generate_colored(sizes, colors, density, 1, frozenset(),
                               rng.child("g"))
        threshold = (1, 2, 4, math.inf)[i % 4]
        if f.ae_mono_triangle_fast(g, threshold) == f.ae_mono_triangle_bf(g):
            mono_ok += 1
    elapsed = time.perf_counter() - start
    report("criterion 1 (solver/oracle equivalence)",
           sparse_ok == 500 and mono_ok == 500 and elapsed < 60.0,
           f"sparse {sparse_ok}/500, mono {mono_ok}/500, {elapsed:.1f}s")


def test_criterion_02_reduction_soundness():
    """zero_triangle_via_listing answers false on all 500 seeded
    no-zero-triangle instances (n <= 48, s in {1, 2, 4})."""
    sound = 0
    produced = 0
    seed = 0
    while produced < 500:
        seed += 1
        rng = f.RngStream(200_000 + seed)
        n = rng.randint(6, 48)
        g, _ = f.generate_tripartite(n, 10 ** 6, False, rng.child("g"))
        if f.zero_triangle_bf(g) is not None:
            continue
        produced += 1
        s = (1, 2, 4)[produced % 3]
        found, witness = f.zero_triangle_via_listing(
            g, s, bf_lister, trials=2, rng=rng.child("run"))
        if not found and witness is None:
            sound += 1
    report("criterion 2 (reduction soundness)", sound == 500,
           f"false verdicts {sound}/500")


def test_criterion_03_reduction_completeness():
    """Planted instances are detected by the full pipeline: n = 48, s = 4,
    trials = 100 * ceil(log2 n), brute lister with the per-edge cap; at
    least 199 of 200 runs answer true."""
    n = 48
    trials = 100 * f.ceil_log2(n)
    hits = 0
    for i in range(200):
        rng = f.RngStream(300_000 + i)
        g, planted = f.generate_tripartite(n, 60, True, rng.child("g"))
        cap = f.default_per_edge_cap(g.part_sizes[2], 4)
        found, witness = f.zero_triangle_via_listing(
            g, 4, bf_lister, trials=trials, rng=rng.child("run"),
            per_edge_cap=cap)
        if found and f.triangle_weight_sum(g, witness) == 0:
            hits += 1
    report("criterion 3 (reduction completeness)", hits >= 199,
           f"true verdicts {hits}/200 (threshold 199)")


_CLAIM_STATS = {}


def _claim_stats():
    if not _CLAIM_STATS:
        g, planted = f.generate_tripartite(48, 60, True, f.RngStream(400_000))
        _CLAIM_STATS["stats"] = f.claim_statistics(
            g, planted, 4, 2000, f.RngStream(400_001))
    return _CLAIM_STATS["stats"]


def test_criterion_04_claim_planted_survives():
    """The planted triangle survives pruning in at least 90% of 2000
    randomizations at n = 48, s = 4."""
    stats = _claim_stats()
    report("criterion 4 (planted-survival frequency)", stats.f1 >= 0.90,
           f"f1 = {stats.f1:.4f} (threshold 0.90)")


def test_criterion_05_claim_per_edge_bound():
    """The planted edge's false-positive count stays within the per-edge
    bound in at least 95% of the same 2000 randomizations."""
    stats = _claim_stats()
    report("criterion 5 (per-edge false-positive bound)", stats.f2 >= 0.95,
           f"f2 = {stats.f2:.4f} (threshold 0.95, bound "
           f"{stats.per_edge_bound})")


def test_criterion_06_claim_global_bound():
    """The subinstance's nonzero-triangle count stays within the global
    bound in at least 95% of the same 2000 randomizations."""
    stats = _claim_stats()
    report("criterion 6 (global nonzero-triangle bound)", stats.f3 >= 0.95,
           f"f3 = {stats.f3:.4f} (threshold 0.95, bound "
           f"{stats.global_bound})")


def test_criterion_07_triple_sparsity():
    """For every tested (p, s) with s <= 64: at most 5 s^2 enumerated
    triples overall and at most 5 per (i, j) pair, exactly."""
    worst_ratio = 0.0
    worst_per_pair = 0
    cases = 0
    for s in (1, 2, 3, 4, 5, 8, 13, 16, 21, 32, 45, 64):
        for w in (1, 5, 311):
            p = f.pick_prime(w, f.RngStream(s * 1000 + w))
            triples = f.enumerate_zero_triples(f.RangeSplit(p, s))
            cases += 1
            assert len(triples) <= 5 * s * s
            worst_ratio = max(worst_ratio, len(triples) / (s * s))
            per_pair = {}
            for i, j, k in triples:
                per_pair[(i, j)] = per_pair.get((i, j), 0) + 1
            worst_per_pair = max(worst_per_pair, max(per_pair.values()))
            assert worst_per_pair <= 5
    report("criterion 7 (triple sparsity)",
           worst_ratio <= 5.0 and worst_per_pair <= 5,
           f"{cases} (p, s) cases, worst |triples|/s^2 = {worst_ratio:.2f}, "
           f"worst per-pair = {worst_per_pair}")


def test_criterion_08_listing_via_detection():
    """The detection-based lister recovers the capped per-edge triangle
    lists (as sets, cap k <= 3) on at least 99% of 300 seeded instances
    with the fast detection solver inside."""
    agree = 0
    for i in range(300):
        rng = f.RngStream(500_000 + i)
        sizes = (rng.randint(2, 16), rng.randint(2, 16), rng.randint(2, 16))
        density = rng.randint(25, 55)
        g = f.generate_sparse_tripartite(sizes, density, 5, rng.child("g"))
        k = 1 + i % 3
        got = f.listing_via_detection(g, k, f.ae_sparse_triangle_fast,
                                      rng.child("run"))
        truth = f.triangle_list_bf(g)
        ok = True
        for edge, tris in truth.items():
            have = got.get(edge, [])
            if len(have) != min(k, len(tris)) or not set(have) <= set(tris):
                ok = False
                break
        agree += ok
    report("criterion 8 (listing via detection)", agree >= 297,
           f"agreement {agree}/300 (threshold 297)")


def test_criterion_09_product_reductions_exact():
    """All eight product reductions match the enumeration oracles exactly
    on 300 seeded instances each (n <= 16, entries in [-20, 20], sentinels
    where legal: +inf only on the left, -inf anywhere)."""
    matrix_ok = {MIN_EQ: 0, MIN_LE: 0, MAX_LE: 0, MAX_MIN: 0, MIN_WITNESS: 0}
    for i in range(300):
        rng = f.RngStream(600_000 + i)
        r, m, c = (rng.randint(1, 16) for _ in range(3))
        with_inf = i % 3 == 0
        a = f.generate_matrix(r, m, -20, 20, rng.child("a"),
                              plus_inf_percent=6 if with_inf else 0,
                              minus_inf_percent=6 if with_inf else 0)
        b = f.generate_matrix(m, c, -20, 20, rng.child("b"),
                              minus_inf_percent=6 if with_inf else 0)
        matrix_ok[MIN_EQ] += (f.min_eq_via_monoeq(a, b, monoeq_bf)
                              == f.product_bf(a, b, MIN_EQ))
        matrix_ok[MIN_LE] += (f.min_le_via_monoeq(a, b, monoeq_bf)
                              == f.product_bf(a, b, MIN_LE))
        matrix_ok[MAX_LE] += (f.max_le_via_monoeq(a, b, monoeq_bf)
                              == f.product_bf(a, b, MAX_LE))
        finite_a = f.generate_matrix(r, m, -20, 20, rng.child("fa"))
        finite_b = f.generate_matrix(m, c, -20, 20, rng.child("fb"))
        matrix_ok[MAX_MIN] += (max_min_chain(finite_a, finite_b)
                               == f.product_bf(finite_a, finite_b, MAX_MIN))
        bool_a = f.generate_matrix(r, m, 0, 1, rng.child("ba"))
        bool_b = f.generate_matrix(m, c, 0, 1, rng.child("bb"))
        matrix_ok[MIN_WITNESS] += (
            f.min_witness_via_max_min(bool_a, bool_b, max_min_chain)
            == f.product_bf(bool_a, bool_b, MIN_WITNESS))

    mono_ok = {MONO_MIN_EQ: 0, MONO_EQ: 0, MONO_MIN_LE: 0}
    for i in range(300):
        rng = f.RngStream(610_000 + i)
        n = rng.randint(1, 16)
        g = f.generate_colored((n, n, n), rng.randint(1, 4),
                               rng.randint(40, 85), rng.randint(1, 8),
                               frozenset({"IK", "JK"}), rng.child("g"))
        mono_ok[MONO_MIN_EQ] += (f.mono_min_eq_via_mono_eq(g, mono_eq_bf)
                                 == f.mono_product_bf(g, MONO_MIN_EQ))
        mono_ok[MONO_EQ] += (
            f.mono_eq_via_mono_min_eq(
                g, lambda h: f.mono_min_eq_via_mono_eq(h, mono_eq_bf))
            == f.mono_product_bf(g, MONO_EQ))
        mono_ok[MONO_MIN_LE] += (
            f.mono_min_le_via_monoeq(g, monoeq_bf, mono_eq_bf)
            == f.mono_product_bf(g, MONO_MIN_LE))

    counts = {**matrix_ok, **mono_ok}
    all_exact = all(v == 300 for v in counts.values())
    detail = ", ".join(f"{k} {v}/300" for k, v in counts.items())
    report("criterion 9 (product reductions exact)", all_exact, detail)


def test_criterion_10_monoeq_plugin():
    """solve_ae_monoeq with brute and fast inner monochromatic solvers
    matches the brute oracle on 200 seeded instances per case tag
    (n <= 32), with T = max part size so the combine path executes."""
    tags = {"A": 0, "B": 0, "C": 0}
    for tag in tags:
        for i in range(200):
            rng = f.RngStream(700_000 + i * 3 + ord(tag))
            n = rng.randint(2, 10)
            g = f.generate_colored(
                (n, n, n), rng.randint(1, 3), rng.randint(35, 80),
                rng.randint(1, 5), f.CASE_VALUE_SIDES[tag], rng.child("g"))
            want = ij_only(f.ae_monoeq_triangle_bf(g))
            d = 1 + i % 3
            brute = f.solve_ae_monoeq(g, d, n, f.ae_mono_triangle_bf,
                                      rng.child("brute"))
            fast = f.solve_ae_monoeq(
                g, d, n,
                lambda h: f.ae_mono_triangle_fast(h, degree_threshold=3),
                rng.child("fast"))
            tags[tag] += (brute == want and fast == want)
    all_exact = all(v == 200 for v in tags.values())
    detail = ", ".join(f"case {t} {v}/200" for t, v in tags.items())
    report("criterion 10 (equality-triangle plug-in)", all_exact, detail)


def test_criterion_11_set_constructions():
    """Decoded set-disjointness and set-intersection answers equal the
    triangle oracles on 300 seeded instances, exactly."""
    ok = 0
    for i in range(300):
        rng = f.RngStream(800_000 + i)
        sizes = (rng.randint(2, 10), rng.randint(2, 10), rng.randint(2, 10))
        g = f.generate_sparse_tripartite(sizes, rng.randint(30, 75), 3,
                                         rng.child("g"))
        inst, decode = f.sparse_triangle_to_set_disjointness(g)
        disjoint_ok = decode.decode_disjointness(
            f.set_queries_bf(inst, f.DISJOINTNESS)) == \
            f.ae_sparse_triangle_bf(g)
        cap = (None, 0, 2, 7)[i % 4]
        inst2, decode2 = f.listing_to_set_intersection(g, cap)
        listing_ok = decode2.decode_intersection(
            f.set_queries_bf(inst2, f.INTERSECTION)) == \
            f.triangle_list_bf(g, global_cap=cap)
        ok += disjoint_ok and listing_ok
    report("criterion 11 (set constructions)", ok == 300, f"exact {ok}/300")


def test_criterion_12_bracketing_invariant():
    """Every level of every binary search keeps its bracketing invariant
    (estimate is a multiple of 2^level and estimate <= truth < estimate +
    2^level) on 50 instrumented seeded instances: zero violations, and
    every search kind reports level checks."""
    instrument = BracketChecker()

    for i in range(30):
        rng = f.RngStream(900_000 + i)
        r, m, c = (rng.randint(1, 8) for _ in range(3))
        a = f.generate_matrix(r, m, -20, 20, rng.child("a"))
        b = f.generate_matrix(m, c, -20, 20, rng.child("b"))
        f.min_eq_via_monoeq(a, b, monoeq_bf, instrument=instrument)
        if i % 2 == 0:
            f.min_le_via_monoeq(a, b, monoeq_bf, instrument=instrument)
        else:
            f.max_le_via_monoeq(a, b, monoeq_bf, instrument=instrument)
    for i in range(20):
        rng = f.RngStream(910_000 + i)
        n = rng.randint(2, 8)
        g = f.generate_colored((n, n, n), 2, 70, 4,
                               frozenset({"IK", "JK"}), rng.child("g"))
        f.mono_min_eq_via_mono_eq(g, mono_eq_bf, instrument=instrument)
        f.mono_min_le_via_monoeq(g, monoeq_bf, mono_eq_bf,
                                 instrument=instrument)
    checked, violations = instrument.levels_checked, instrument.violations
    by_kind = {op: instrument.checked_by_op[op] for op in (
        "min_eq", "max_eq", "min_le_inner", "max_le_inner")}
    kinds = ", ".join(f"{op} {n}" for op, n in by_kind.items())
    report("criterion 12 (bracketing invariant)",
           all(by_kind.values()) and violations == 0,
           f"{checked} level checks across 50 instances ({kinds}), "
           f"{violations} violations")
