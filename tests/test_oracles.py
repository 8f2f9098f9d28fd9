"""Oracles against hand-worked examples and independently written
triple-enumeration checkers. The checkers here deliberately share no code
with the package implementations."""

import numpy as np
import pytest

from fgtri import (ColoredValuedGraph, IntMatrix, MINUS_INF, PLUS_INF,
                   RngStream, SetFamilyInstance, TripartiteWeightedGraph,
                   ae_mono_triangle_bf, ae_mono_triangle_fast,
                   ae_monoeq_triangle_bf,
                   ae_sparse_triangle_bf, exact_triangle_bf, generate_colored,
                   generate_matrix, generate_sparse_tripartite,
                   mono_product_bf, product_bf, set_queries_bf,
                   triangle_list_bf, zero_triangle_bf)
from fgtri.oracles import (DISJOINTNESS, EXISTS_DOM, EXISTS_EQ, INTERSECTION,
                           MAX_LE, MAX_MIN, MIN_EQ, MIN_LE, MIN_WITNESS,
                           MONO_EQ, MONO_MIN_EQ, MONO_MIN_LE,
                           _colored_arrays)


def single_triangle(w_ab, w_bc, w_ca):
    return TripartiteWeightedGraph(
        (1, 1, 1), ((0, 0, w_ab),), ((0, 0, w_bc),), ((0, 0, w_ca),))


def cvg_triangle(colors, values, sides):
    c_ij, c_jk, c_ik = colors
    v_ij, v_jk, v_ik = values
    return ColoredValuedGraph(
        (1, 1, 1),
        ((0, 0, c_ij, v_ij),), ((0, 0, c_jk, v_jk),), ((0, 0, c_ik, v_ik),),
        frozenset(sides))


# ------------------------------------------------------ exact / zero

def test_exact_triangle_hand_cases():
    g = single_triangle(1, 2, -3)
    assert exact_triangle_bf(g, 0) == (0, 0, 0)
    assert exact_triangle_bf(g, 5) is None
    assert zero_triangle_bf(g) == (0, 0, 0)


def all_triangles(g):
    """Independent full triple enumeration (the second checker)."""
    wab = {(a, b): w for a, b, w in g.edges_ab}
    wbc = {(b, c): w for b, c, w in g.edges_bc}
    wca = {(c, a): w for c, a, w in g.edges_ca}
    na, nb, nc = g.part_sizes
    out = []
    for a in range(na):
        for b in range(nb):
            for c in range(nc):
                if (a, b) in wab and (b, c) in wbc and (c, a) in wca:
                    out.append(((a, b, c),
                                wab[(a, b)] + wbc[(b, c)] + wca[(c, a)]))
    return out


def test_exact_triangle_matches_triple_enumeration():
    for seed in range(30):
        g = generate_sparse_tripartite((7, 7, 6), 55, 6, RngStream(seed))
        for target in (0, 3, -2):
            expected = sorted(t for t, s in all_triangles(g) if s == target)
            got = exact_triangle_bf(g, target)
            if expected:
                assert got == expected[0]  # lexicographic first
            else:
                assert got is None


def test_exact_triangle_modular_sums():
    g = TripartiteWeightedGraph((1, 1, 1), ((0, 0, 4),), ((0, 0, 4),),
                                ((0, 0, 2),), weight_modulus=5)
    assert zero_triangle_bf(g) == (0, 0, 0)  # 10 = 0 mod 5


# ------------------------------------------------------ sparse / listing

def test_sparse_hand_cases():
    lone_edge = TripartiteWeightedGraph((1, 1, 1), ((0, 0, 1),))
    assert ae_sparse_triangle_bf(lone_edge) == {(0, 0): False}
    k111 = single_triangle(0, 0, 0)
    assert ae_sparse_triangle_bf(k111) == {(0, 0): True}


def test_sparse_matches_neighborhood_recount():
    for seed in range(25):
        g = generate_sparse_tripartite((6, 6, 6), 45, 3, RngStream(100 + seed))
        got = ae_sparse_triangle_bf(g)
        bc = {(b, c) for b, c, _ in g.edges_bc}
        ca = {(c, a) for c, a, _ in g.edges_ca}
        for a, b, _w in g.edges_ab:
            expect = any((b, c) in bc and (c, a) in ca
                         for c in range(g.part_sizes[2]))
            assert got[(a, b)] == expect


def complete_k222():
    return TripartiteWeightedGraph(
        (2, 2, 2),
        tuple((a, b, 0) for a in range(2) for b in range(2)),
        tuple((b, c, 0) for b in range(2) for c in range(2)),
        tuple((c, a, 0) for c in range(2) for a in range(2)))


def test_listing_caps():
    g = single_triangle(0, 0, 0)
    assert triangle_list_bf(g, per_edge_cap=1) == {(0, 0): [(0, 0, 0)]}

    k = complete_k222()
    capped = triangle_list_bf(k, per_edge_cap=1)
    assert all(len(v) == 1 for v in capped.values()) and len(capped) == 4

    full = triangle_list_bf(k)
    assert all(len(v) == 2 for v in full.values())
    assert sum(len(v) for v in full.values()) == 8


def test_listing_global_cap_and_order():
    k = complete_k222()
    two = triangle_list_bf(k, global_cap=3)
    assert sum(len(v) for v in two.values()) == 3
    # lexicographic: edge (0,0) exhausted first
    assert two[(0, 0)] == [(0, 0, 0), (0, 0, 1)]
    assert two[(0, 1)] == [(0, 1, 0)]
    assert two[(1, 0)] == [] and two[(1, 1)] == []


def capped_listing(g, per_edge_cap, global_cap):
    """Nested-loop listing: AB edges ascending, c ascending, each cap
    checked before every emission (a cap of 0 or below lists nothing)."""
    bc = {(b, c) for b, c, _w in g.edges_bc}
    ca = {(c, a) for c, a, _w in g.edges_ca}
    out = {}
    emitted = 0
    for a, b in sorted((a, b) for a, b, _w in g.edges_ab):
        found = out[(a, b)] = []
        for c in range(g.part_sizes[2]):
            if (b, c) not in bc or (c, a) not in ca:
                continue
            if per_edge_cap is not None and len(found) >= per_edge_cap:
                break
            if global_cap is not None and emitted >= global_cap:
                break
            found.append((a, b, c))
            emitted += 1
    return out


def test_listing_caps_match_nested_loop_reference():
    shapes = [((5, 6, 7), 60), ((7, 5, 6), 85), ((6, 6, 1), 90),
              ((4, 0, 5), 70), ((8, 7, 9), 35)]
    listed_somewhere = False
    for seed in range(20):
        sizes, keep = shapes[seed % len(shapes)]
        g = generate_sparse_tripartite(sizes, keep, 4, RngStream(600 + seed))
        for per_edge_cap in (None, 0, 1, 3, -1):
            for global_cap in (None, 0, 2, 10, -1):
                got = triangle_list_bf(g, per_edge_cap=per_edge_cap,
                                       global_cap=global_cap)
                want = capped_listing(g, per_edge_cap, global_cap)
                assert list(got.items()) == list(want.items())
                listed_somewhere |= any(got.values())
    assert listed_somewhere


# ------------------------------------------------------ mono / monoeq

def test_mono_triangle_hand_cases():
    mono = cvg_triangle((1, 1, 1), (None, None, None), set())
    assert ae_mono_triangle_bf(mono) == {
        ("IJ", 0, 0): True, ("JK", 0, 0): True, ("IK", 0, 0): True}
    broken = cvg_triangle((1, 1, 2), (None, None, None), set())
    assert all(v is False for v in ae_mono_triangle_bf(broken).values())


def mono_recount(g):
    """Independent per-color triple recount."""
    ij = {(i, j): c for i, j, c, _ in g.edges_ij}
    jk = {(j, k): c for j, k, c, _ in g.edges_jk}
    ik = {(i, k): c for i, k, c, _ in g.edges_ik}
    ni, nj, nk = g.part_sizes
    out = {("IJ",) + e: False for e in ij}
    out.update({("JK",) + e: False for e in jk})
    out.update({("IK",) + e: False for e in ik})
    for i in range(ni):
        for j in range(nj):
            for k in range(nk):
                if (i, j) in ij and (j, k) in jk and (i, k) in ik \
                        and ij[(i, j)] == jk[(j, k)] == ik[(i, k)]:
                    out[("IJ", i, j)] = True
                    out[("JK", j, k)] = True
                    out[("IK", i, k)] = True
    return out


def test_mono_matches_recount():
    for seed in range(20):
        g = generate_colored((4, 4, 4), 3, 60, 1, frozenset(),
                             RngStream(200 + seed))
        assert ae_mono_triangle_bf(g) == mono_recount(g)


def test_monoeq_hand_cases():
    yes = cvg_triangle((1, 1, 1), (None, 5, 5), {"IK", "JK"})
    assert ae_monoeq_triangle_bf(yes)[("IJ", 0, 0)] is True
    no = cvg_triangle((1, 1, 1), (None, 6, 5), {"IK", "JK"})
    assert all(v is False for v in ae_monoeq_triangle_bf(no).values())


def monoeq_recount(g):
    ij = {(i, j): (c, v) for i, j, c, v in g.edges_ij}
    jk = {(j, k): (c, v) for j, k, c, v in g.edges_jk}
    ik = {(i, k): (c, v) for i, k, c, v in g.edges_ik}
    sides = g.value_sides
    out = {("IJ",) + e: False for e in ij}
    out.update({("JK",) + e: False for e in jk})
    out.update({("IK",) + e: False for e in ik})
    for (i, j), (c1, v1) in ij.items():
        for k in range(g.part_sizes[2]):
            if (j, k) not in jk or (i, k) not in ik:
                continue
            c2, v2 = jk[(j, k)]
            c3, v3 = ik[(i, k)]
            if not c1 == c2 == c3:
                continue
            pairs = []
            if "IJ" in sides and "JK" in sides:
                pairs.append(v1 == v2)
            if "IJ" in sides and "IK" in sides:
                pairs.append(v1 == v3)
            if "JK" in sides and "IK" in sides:
                pairs.append(v2 == v3)
            if any(pairs):
                out[("IJ", i, j)] = True
                out[("JK", j, k)] = True
                out[("IK", i, k)] = True
    return out


@pytest.mark.parametrize("sides", [
    frozenset({"IK", "JK"}), frozenset({"IJ", "JK"}), frozenset({"IJ", "IK"}),
    frozenset({"IJ", "JK", "IK"})])
def test_monoeq_matches_recount(sides):
    for seed in range(12):
        g = generate_colored((4, 4, 4), 2, 60, 3, sides, RngStream(300 + seed))
        assert ae_monoeq_triangle_bf(g) == monoeq_recount(g)


def test_monoeq_single_valued_side_never_matches():
    g = ColoredValuedGraph(
        (1, 1, 1), ((0, 0, 1, 5),), ((0, 0, 1, None),), ((0, 0, 1, None),),
        frozenset({"IJ"}))
    assert all(v is False for v in ae_monoeq_triangle_bf(g).values())


# ------------------------------------------------------ matrix products

def test_product_hand_cases():
    a = IntMatrix.from_rows([[1, 2], [3, 1]])
    b = IntMatrix.from_rows([[1, 3], [2, 1]])
    c = product_bf(a, b, MIN_EQ)
    assert c.to_rows()[0][0] == 1  # both k match; min of {1, 2}
    zeros = IntMatrix.from_rows([[0, 0], [0, 0]])
    ones = IntMatrix.from_rows([[1, 1], [1, 1]])
    assert all(v == PLUS_INF for v in product_bf(zeros, ones, MIN_EQ).entries)
    assert product_bf(IntMatrix.from_rows([[1]]),
                      IntMatrix.from_rows([[2]]), MAX_MIN).entries == (1,)
    assert product_bf(IntMatrix.from_rows([[1]]),
                      IntMatrix.from_rows([[1]]), MIN_WITNESS).entries == (1,)
    assert product_bf(IntMatrix.from_rows([[0]]),
                      IntMatrix.from_rows([[1]]), MIN_WITNESS).entries == (PLUS_INF,)


def test_product_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        product_bf(IntMatrix.from_rows([[1, 2]]), IntMatrix.from_rows([[1, 2]]),
                   MIN_EQ)


def test_min_witness_requires_boolean():
    with pytest.raises(ValueError):
        product_bf(IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[1]]),
                   MIN_WITNESS)


def test_products_match_set_comprehension_checker():
    for seed in range(20):
        rng = RngStream(400 + seed)
        a = generate_matrix(3, 4, -5, 5, rng.child("a"))
        b = generate_matrix(4, 3, -5, 5, rng.child("b"))
        arows, brows = a.to_rows(), b.to_rows()
        got = {kind: product_bf(a, b, kind).to_rows()
               for kind in (MIN_EQ, MIN_LE, MAX_LE, MAX_MIN, EXISTS_EQ,
                            EXISTS_DOM)}
        for i in range(3):
            for j in range(3):
                col = [brows[k][j] for k in range(4)]
                row = [arows[i][k] for k in range(4)]
                eqs = [bv for av, bv in zip(row, col) if av == bv]
                les = [bv for av, bv in zip(row, col) if av <= bv]
                assert got[MIN_EQ][i][j] == (min(eqs) if eqs else PLUS_INF)
                assert got[MIN_LE][i][j] == (min(les) if les else PLUS_INF)
                assert got[MAX_LE][i][j] == (max(les) if les else MINUS_INF)
                assert got[MAX_MIN][i][j] == max(
                    min(av, bv) for av, bv in zip(row, col))
                assert got[EXISTS_EQ][i][j] == (1 if eqs else 0)
                assert got[EXISTS_DOM][i][j] == (1 if les else 0)


def test_exists_is_finiteness_of_min():
    for seed in range(25):
        rng = RngStream(500 + seed)
        a = generate_matrix(4, 4, -4, 4, rng.child("a"),
                            plus_inf_percent=8, minus_inf_percent=8)
        b = generate_matrix(4, 4, -4, 4, rng.child("b"),
                            minus_inf_percent=8)  # +inf stays on the left
        for kind, exists in ((MIN_EQ, EXISTS_EQ), (MIN_LE, EXISTS_DOM)):
            minimum = product_bf(a, b, kind)
            flags = product_bf(a, b, exists)
            assert flags.entries == tuple(
                0 if v == PLUS_INF else 1 for v in minimum.entries)


def test_max_min_always_min_of_some_pair():
    for seed in range(15):
        rng = RngStream(600 + seed)
        a = generate_matrix(3, 3, -6, 6, rng.child("a"))
        b = generate_matrix(3, 3, -6, 6, rng.child("b"))
        arows, brows = a.to_rows(), b.to_rows()
        c = product_bf(a, b, MAX_MIN).to_rows()
        for i in range(3):
            for j in range(3):
                options = {min(arows[i][k], brows[k][j]) for k in range(3)}
                assert c[i][j] in options


# ------------------------------------------------------ mono products

def case_a_instance(seed, n=4):
    return generate_colored((n, n, n), 2, 70, 3, frozenset({"IK", "JK"}),
                            RngStream(seed))


def test_mono_product_hand_cases():
    g = cvg_triangle((1, 1, 1), (None, 4, 4), {"IK", "JK"})
    assert mono_product_bf(g, MONO_EQ) == {(0, 0): True}
    assert mono_product_bf(g, MONO_MIN_EQ) == {(0, 0): 4}
    le = cvg_triangle((1, 1, 1), (None, 5, 3), {"IK", "JK"})
    assert mono_product_bf(le, MONO_MIN_LE) == {(0, 0): 5}  # 3 <= 5
    gt = cvg_triangle((1, 1, 1), (None, 3, 5), {"IK", "JK"})
    assert mono_product_bf(gt, MONO_MIN_LE) == {(0, 0): PLUS_INF}


def test_mono_min_eq_member_and_lower_bound():
    for seed in range(20):
        g = case_a_instance(700 + seed)
        jk = {(j, k): (c, v) for j, k, c, v in g.edges_jk}
        ik = {(i, k): (c, v) for i, k, c, v in g.edges_ik}
        result = mono_product_bf(g, MONO_MIN_EQ)
        for i, j, c1, _v in g.edges_ij:
            matches = [
                ik[(i, k)][1]
                for k in range(g.part_sizes[2])
                if (j, k) in jk and (i, k) in ik
                and ik[(i, k)][1] == jk[(j, k)][1]
                and ik[(i, k)][0] == jk[(j, k)][0] == c1
            ]
            if matches:
                assert result[(i, j)] == min(matches)
                assert result[(i, j)] in matches
            else:
                assert result[(i, j)] == PLUS_INF


# ------------------------------------------------------ set queries

def test_set_queries_hand_cases():
    s = SetFamilyInstance(4, ((1, 2), (3,), (2, 3)), ((0, 1), (0, 2)))
    assert set_queries_bf(s, DISJOINTNESS) == [True, False]
    assert set_queries_bf(s, INTERSECTION) == [[], [2]]


def test_set_intersection_global_cap():
    s = SetFamilyInstance(4, ((1, 2), (1, 2)), ((0, 1), (0, 1)), output_cap=1)
    assert set_queries_bf(s, INTERSECTION) == [[1], []]
    assert sum(len(x) for x in set_queries_bf(s, INTERSECTION)) == 1


# ------------------------------------------------------------ grid answers

_PAIRS = ("IJ", "JK", "IK")
_ANSWER_SIDES = (frozenset(), frozenset({"IK", "JK"}), frozenset({"IJ", "JK"}),
                 frozenset(_PAIRS))


def _answer_graphs(seed):
    """A public graph whose edges run in shuffled order, and the trusted
    graph built from its arrays, whose edges are derived row-major."""
    rng = RngStream(seed, ("grid-answers",))
    sizes = (2 + seed % 4, 3 + seed % 3, 2 + (seed * 7) % 5)
    base = generate_colored(sizes, 1 + seed % 3, 75, 3,
                            _ANSWER_SIDES[seed % 4], rng.child("g"))
    shuffled = []
    for pair in _PAIRS:
        edges = base.edges(pair)
        order = rng.child("order", pair).permutation(len(edges))
        shuffled.append(tuple(edges[i] for i in order))
    public = ColoredValuedGraph(sizes, *shuffled, base.value_sides)
    trusted = ColoredValuedGraph._trusted(sizes, base.value_sides,
                                          _colored_arrays(base))
    return public, trusted


def _reference_answers(g, need_equal):
    """The per-edge dict the colored oracles used to build, by triple
    enumeration: IJ, IK then JK, each in edge order."""
    by_pair = {p: {(u, v): (c, val) for u, v, c, val in g.edges(p)}
               for p in _PAIRS}
    good = set()
    ni, nj, nk = g.part_sizes
    for i in range(ni):
        for j in range(nj):
            for k in range(nk):
                here = {"IJ": (i, j), "JK": (j, k), "IK": (i, k)}
                if any(here[p] not in by_pair[p] for p in _PAIRS):
                    continue
                colors = {by_pair[p][here[p]][0] for p in _PAIRS}
                vals = [by_pair[p][here[p]][1] for p in g.value_sides]
                if len(colors) == 1 and (
                        not need_equal or len(set(vals)) < len(vals)):
                    good.update((p,) + here[p] for p in _PAIRS)
    return {(p, u, v): (p, u, v) in good
            for p in ("IJ", "IK", "JK") for u, v, _c, _val in g.edges(p)}


@pytest.mark.parametrize("solver, need_equal", [
    (ae_mono_triangle_bf, False), (ae_monoeq_triangle_bf, True),
    (ae_mono_triangle_fast, False)], ids=["mono-bf", "monoeq-bf", "mono-fast"])
def test_grid_answers_behave_like_the_per_edge_dict(solver, need_equal):
    """Each colored solver's answer mapping reads like the dict it replaced,
    on public tuple graphs and on trusted array-built graphs alike."""
    missing = object()
    positives = bool_cells = 0
    for seed in range(24):
        for g in _answer_graphs(seed):
            want = _reference_answers(g, need_equal)
            got = solver(g)
            assert list(got.items()) == list(want.items())
            assert got == want and want == got
            assert dict(got) == want and len(got) == len(want)
            assert all(type(v) is bool for v in got.values())
            positives += sum(want.values())
            # Every cell of every pair, each index one past its part on
            # either side: negative, out-of-range, wrong-pair and absent
            # cells all give the default, as in the dict.
            span = range(-max(g.part_sizes) - 1, max(g.part_sizes) + 2)
            for key in ((p, u, v) for p in _PAIRS for u in span
                        for v in span):
                assert got.get(key, missing) is want.get(key, missing)
            for u in (False, True, np.int64(0), np.int64(1)):
                for v in (False, True, np.intp(1)):
                    for p in _PAIRS:
                        key = (p, u, v)  # reads cell (int(u), int(v))
                        assert got.get(key, missing) is \
                            want.get(key, missing)
                        assert (key in got) == (key in want)
                        bool_cells += key in want and type(u) is bool
            for key in (("IJ", 0), "IJ", None, 3, ("IJ", 0, 0, 0),
                        ("AB", 0, 0), ("ij", 0, 0), ("IJ", None, 0),
                        ("IJ", 0.5, 0), ("IJ", "0", 0), ("IJ", [0], 0),
                        (["IJ"], 0, 0), ("IJ", np.array([0, 1]), 0)):
                assert got.get(key, missing) is missing
                assert key not in got
    assert positives > 0 and bool_cells > 0
