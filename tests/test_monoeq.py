"""Case split, value expansion, instance combining, and the plug-in
equality-triangle solver."""

import hashlib
import math
from collections import Counter

import pytest

from fgtri import (CASE_BLOWN_PART, CASE_VALUE_SIDES, ColoredValuedGraph,
                   RngStream, ae_mono_triangle_bf, ae_mono_triangle_fast,
                   ae_monoeq_triangle_bf, ceil_log2, combine_sparse_into_mono,
                   expand_values, generate_colored, solve_ae_monoeq,
                   solve_combined, split_cases)


def ij_only(answers):
    return {(u, v): val for (pair, u, v), val in answers.items()
            if pair == "IJ"}


def all_valued(seed, n=4, colors=2, density=65, values=3):
    return generate_colored((n, n, n), colors, density, values,
                            frozenset({"IJ", "JK", "IK"}), RngStream(seed))


def case_instance(tag, seed, n=4, colors=2, density=65, values=3):
    return generate_colored((n, n, n), colors, density, values,
                            CASE_VALUE_SIDES[tag], RngStream(seed))


def triangle_with_values(v_ij, v_jk, v_ik):
    return ColoredValuedGraph(
        (1, 1, 1), ((0, 0, 1, v_ij),), ((0, 0, 1, v_jk),), ((0, 0, 1, v_ik),),
        frozenset({"IJ", "JK", "IK"}))


# ------------------------------------------------------------ split_cases

def test_split_cases_identifies_the_matching_pair():
    only_a = triangle_with_values(1, 5, 5)   # IK = JK
    cases = split_cases(only_a)
    assert ij_only(ae_monoeq_triangle_bf(cases["A"])) == {(0, 0): True}
    assert ij_only(ae_monoeq_triangle_bf(cases["B"])) == {(0, 0): False}
    assert ij_only(ae_monoeq_triangle_bf(cases["C"])) == {(0, 0): False}

    only_b = triangle_with_values(5, 5, 1)   # IJ = JK
    cases = split_cases(only_b)
    assert ij_only(ae_monoeq_triangle_bf(cases["B"])) == {(0, 0): True}
    assert ij_only(ae_monoeq_triangle_bf(cases["A"])) == {(0, 0): False}
    assert ij_only(ae_monoeq_triangle_bf(cases["C"])) == {(0, 0): False}


def test_split_cases_union_rule():
    for seed in range(25):
        g = all_valued(seed)
        want = ij_only(ae_monoeq_triangle_bf(g))
        cases = split_cases(g)
        union = {}
        for tag, inst in cases.items():
            for edge, val in ij_only(ae_monoeq_triangle_bf(inst)).items():
                union[edge] = union.get(edge, False) or val
        assert union == want


def test_split_cases_requires_all_valued():
    with pytest.raises(ValueError):
        split_cases(case_instance("A", 1))


# ------------------------------------------------------------ expansion

def test_expand_values_lazy_copies():
    g = ColoredValuedGraph(
        (1, 2, 1),
        ((0, 0, 7, None), (0, 1, 7, None)),
        ((0, 0, 7, 5), (1, 0, 7, 6)),
        ((0, 0, 7, 5),),
        frozenset({"IK", "JK"}))
    expanded = expand_values(g)
    # k=0 appears with values {5, 6}: two copies, no more.
    assert expanded.graph.part_sizes == (1, 2, 2)
    assert expanded.edge_map == {(0, 0): (0, 0), (0, 1): (0, 1)}
    assert set(expanded.graph.edges_ik) == {(0, 0, 7, None)}
    assert set(expanded.graph.edges_jk) == {(0, 0, 7, None), (1, 1, 7, None)}


def test_expand_no_shared_values_no_triangles():
    g = ColoredValuedGraph(
        (1, 1, 1), ((0, 0, 1, None),), ((0, 0, 1, 3),), ((0, 0, 1, 4),),
        frozenset({"IK", "JK"}))
    expanded = expand_values(g)
    answers = ae_mono_triangle_bf(expanded.graph)
    assert not any(answers.values())


@pytest.mark.parametrize("tag", ["A", "B", "C"])
def test_expansion_preserves_answers(tag):
    for seed in range(20):
        g = case_instance(tag, 100 + seed)
        expanded = expand_values(g)
        mono = ae_mono_triangle_bf(expanded.graph)
        got = {edge: mono[("IJ", *image)]
               for edge, image in expanded.edge_map.items()}
        want = ij_only(ae_monoeq_triangle_bf(g))
        assert got == want


def test_expansion_blows_up_the_shared_part():
    for tag in ("A", "B", "C"):
        g = case_instance(tag, 7)
        expanded = expand_values(g)
        blown = CASE_BLOWN_PART[tag]
        for part in range(3):
            if part != blown:
                assert expanded.graph.part_sizes[part] == g.part_sizes[part]


# ------------------------------------------------------------ combining

def colored_only(seed, sizes=(3, 3, 3), density=60):
    return generate_colored(sizes, 1, density, 1, frozenset(),
                            RngStream(seed))


def test_combine_single_instance_round_trips():
    src = colored_only(1)
    combined = combine_sparse_into_mono([src], 3 * 3, RngStream(2))
    decoded = solve_combined(combined, ae_mono_triangle_bf)
    assert len(decoded) == 1
    assert decoded[0] == ij_only(ae_mono_triangle_bf(src))


def test_combine_many_instances_round_trip():
    sources = [colored_only(10 + q) for q in range(5)]
    combined = combine_sparse_into_mono(sources, 12, RngStream(3))
    decoded = solve_combined(combined, ae_mono_triangle_bf)
    for src, got in zip(sources, decoded):
        assert got == ij_only(ae_mono_triangle_bf(src))


def test_combine_label_grids_hold_each_source_edge_twice():
    # Each label's grid is symmetric, and a host pair gives its parallel
    # edges distinct labels: so every source edge fills exactly two cells
    # of one label's grid, coloured with its source's index.
    sources = [colored_only(30 + q) for q in range(4)]
    combined = combine_sparse_into_mono(sources, 12, RngStream(4))
    grids = {triple[0]: g for triple, g in combined.instances}
    assert sorted(grids) == list(range(1, len(grids) + 1))
    assert len(grids) <= 4 * ceil_log2(12 + 2)
    cells = Counter(color for g in grids.values()
                    for _x, _y, color, _value in g.edges_ij)
    assert cells == {q: 2 * s.edge_count for q, s in enumerate(sources)}


def test_combine_rejects_oversized_instance():
    big = colored_only(5, sizes=(4, 4, 4))
    with pytest.raises(ValueError):
        combine_sparse_into_mono([big], 10, RngStream(6))


def test_combine_multiplicity_within_budget_across_seeds():
    # One permutation draw and a budget of 3 labels, so the combine raises
    # whenever the draw piles more than 3 edges on one host pair; random
    # permutations spread the edges, identity ones stack them.
    ok = 0
    for seed in range(50):
        sources = [colored_only(700 + seed * 7 + q) for q in range(4)]
        try:
            combine_sparse_into_mono(sources, 12, RngStream(seed),
                                     max_label=3, max_retries=1)
        except RuntimeError:
            continue
        ok += 1
    assert ok >= 30


def test_combine_with_fast_solver_matches():
    sources = [colored_only(50 + q) for q in range(3)]
    combined = combine_sparse_into_mono(sources, 10, RngStream(8))
    fast = solve_combined(
        combined, lambda g: ae_mono_triangle_fast(g, degree_threshold=3))
    brute = solve_combined(combined, ae_mono_triangle_bf)
    assert fast == brute


# ------------------------------------------------------------ full solver

@pytest.mark.parametrize("tag", ["A", "B", "C"])
def test_solver_degenerate_thresholds(tag, monkeypatch):
    from fgtri import monoeq

    def no_combine(*_args, **_kwargs):
        raise AssertionError("the heavy-only run reached the combine step")

    for seed in range(10):
        g = case_instance(tag, 200 + seed, n=3)
        want = ij_only(ae_monoeq_triangle_bf(g))
        n = max(g.part_sizes)
        enumerate_all = solve_ae_monoeq(g, math.inf, n, ae_mono_triangle_bf,
                                        RngStream(seed))
        assert enumerate_all == want
        combine_all = solve_ae_monoeq(g, 0, math.inf, ae_mono_triangle_bf,
                                      RngStream(seed))
        assert combine_all == want
        # Every blown vertex with an edge is heavy and every colour's
        # heavy part is large: the large-blown-part pass alone answers.
        with monkeypatch.context() as patched:
            patched.setattr(monoeq, "combine_sparse_into_mono", no_combine)
            heavy_only = solve_ae_monoeq(g, 0, 1, ae_mono_triangle_bf,
                                         RngStream(seed))
        assert heavy_only == want


def test_solver_all_valued_instances():
    for seed in range(15):
        g = all_valued(300 + seed, n=3)
        want = ij_only(ae_monoeq_triangle_bf(g))
        got = solve_ae_monoeq(g, 2, 3, ae_mono_triangle_bf, RngStream(seed))
        assert got == want


def test_solver_with_fast_inner():
    for seed in range(10):
        g = all_valued(400 + seed, n=3)
        want = ij_only(ae_monoeq_triangle_bf(g))
        got = solve_ae_monoeq(
            g, 1, 3, lambda h: ae_mono_triangle_fast(h, degree_threshold=3),
            RngStream(seed))
        assert got == want


def test_solver_rejects_single_valued_side():
    g = generate_colored((2, 2, 2), 1, 80, 2, frozenset({"IJ"}), RngStream(1))
    with pytest.raises(ValueError):
        solve_ae_monoeq(g, 1, 2, ae_mono_triangle_bf, RngStream(2))


def test_internal_builds_equal_their_validated_rebuilds(monkeypatch):
    # split_cases, expand_values, the combine sources and the combine
    # step's label-triple instances skip validation; over a
    # criterion-10-style battery each graph they build must be what the
    # validating constructor makes of the same fields.
    from fgtri import monoeq
    built = {"split": [], "expand": [], "combine": [], "labels": []}

    def recording(name, fn, pick):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            built[name].extend(pick(args, out))
            return out
        monkeypatch.setattr(monoeq, fn.__name__, wrapper)

    recording("split", monoeq.split_cases, lambda _a, out: out.values())
    recording("expand", monoeq.expand_values, lambda _a, out: [out.graph])
    def combine_pick(args, out):
        built["labels"].extend(h for _triple, h in out.instances)
        return args[0]

    recording("combine", monoeq.combine_sparse_into_mono, combine_pick)
    for t, sides in enumerate(("A", "B", "C", "all")):
        for i in range(40):
            rng = RngStream(720_000 + i * 4 + t)
            n = rng.randint(2, 10)
            value_sides = CASE_VALUE_SIDES.get(
                sides, frozenset({"IJ", "JK", "IK"}))
            g = generate_colored((n, n, n), rng.randint(1, 3),
                                 rng.randint(35, 80), rng.randint(1, 5),
                                 value_sides, rng.child("g"))
            got = solve_ae_monoeq(g, 1 + i % 3, n, ae_mono_triangle_bf,
                                  rng.child("run"))
            assert got == ij_only(ae_monoeq_triangle_bf(g))
    for name, graphs in built.items():
        assert graphs, f"the battery never reached {name}"
        for h in graphs:
            assert h == ColoredValuedGraph(h.part_sizes, h.edges_ij,
                                           h.edges_jk, h.edges_ik,
                                           h.value_sides)


def test_monoeq_traffic_is_pinned(monkeypatch):
    # Over a seeded battery at four threshold pairs, the work the plug-in
    # solver sends on is pinned: per combine call its host size, source
    # count and summed source edges; the inner-solver calls; the answers.
    from fgtri import monoeq
    combines = []
    real_combine = monoeq.combine_sparse_into_mono

    def combine(sources, host_size, rng, *rest, **kwargs):
        combines.append((host_size, len(sources),
                         sum(s.edge_count for s in sources)))
        return real_combine(sources, host_size, rng, *rest, **kwargs)

    monkeypatch.setattr(monoeq, "combine_sparse_into_mono", combine)
    inner_calls = 0

    def inner(h):
        nonlocal inner_calls
        inner_calls += 1
        return ae_mono_triangle_bf(h)

    answers, positives = hashlib.sha256(), 0
    for t, sides in enumerate(("A", "B", "C", "all")):
        for i in range(12):
            rng = RngStream(730_000 + i * 4 + t)
            n = rng.randint(2, 10)
            value_sides = CASE_VALUE_SIDES.get(
                sides, frozenset({"IJ", "JK", "IK"}))
            g = generate_colored((n, n, n), rng.randint(1, 3),
                                 rng.randint(35, 80), rng.randint(1, 5),
                                 value_sides, rng.child("g"))
            want = ij_only(ae_monoeq_triangle_bf(g))
            for th in ((1 + i % 3, n), (0, 1), (math.inf, n),
                       (0, math.inf)):
                got = solve_ae_monoeq(g, *th, inner,
                                      rng.child("run", repr(th)))
                assert got == want
                answers.update(repr(sorted(got.items())).encode())
                positives += sum(got.values())
    assert len(combines) == 103
    assert sum(sources for _h, sources, _e in combines) == 189
    assert sum(edges for _h, _s, edges in combines) == 6667
    assert sum(host for host, _s, _e in combines) == 3678
    assert hashlib.sha256(repr(combines).encode()).hexdigest() == (
        "5a4f2ce40753301c542df3c87cdc95fb616bced6b0079ac64420122399d6d66c")
    assert inner_calls == 442
    assert positives == 2140
    assert answers.hexdigest() == (
        "62270ad9dd99fd0fea712cf60d8164ca95145c618abe158e0e179e4859faa406")
