"""Product reductions against the enumeration oracles, plus the bracketing
instrumentation the binary searches expose."""

import hashlib
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from fgtri import (ColoredValuedGraph, IntMatrix, MINUS_INF, PLUS_INF, RngStream,
                   ae_mono_triangle_fast, ae_monoeq_triangle_bf,
                   ceil_log2,
                   exists_dom_via_min_le, exists_eq_via_min_eq,
                   generate_colored, generate_matrix, max_le_via_monoeq,
                   max_min_product, min_eq_via_monoeq, min_le_via_monoeq,
                   min_witness_via_max_min, mono_eq_via_mono_min_eq,
                   mono_min_eq_via_mono_eq, mono_min_le_via_monoeq,
                   mono_product_bf, product_bf)
from fgtri.oracles import (MAX_LE, MAX_MIN, MIN_EQ, MIN_LE, MIN_WITNESS,
                           MONO_EQ, MONO_MIN_EQ, MONO_MIN_LE, _colored_arrays)
from fgtri.instances import UsageFailure
from fgtri.textio import serialize

monoeq_bf = ae_monoeq_triangle_bf


def mono_eq_bf(g):
    return mono_product_bf(g, MONO_EQ)


def min_le_chain(a, b):
    return min_le_via_monoeq(a, b, monoeq_bf)


def random_pair(seed, max_n=5, lo=-9, hi=9, inf=False):
    rng = RngStream(seed)
    r, m, c = (rng.randint(1, max_n) for _ in range(3))
    plus = 10 if inf else 0
    minus = 10 if inf else 0
    # Keep +inf out of the right matrix so NonEmpty and min-finiteness agree.
    a = generate_matrix(r, m, lo, hi, rng.child("a"),
                        plus_inf_percent=plus, minus_inf_percent=minus)
    b = generate_matrix(m, c, lo, hi, rng.child("b"),
                        minus_inf_percent=minus)
    return a, b


# ------------------------------------------------------------ min_eq

def test_min_eq_hand_cases():
    one = IntMatrix(1, 1, (7,))
    assert min_eq_via_monoeq(one, one, monoeq_bf).entries == (7,)
    a = IntMatrix(2, 2, (1, 2, 3, 1))
    b = IntMatrix(2, 2, (1, 3, 2, 1))
    got = min_eq_via_monoeq(a, b, monoeq_bf)
    assert got == product_bf(a, b, MIN_EQ)
    assert got.to_rows()[0][0] == 1


def test_min_eq_battery_including_sentinels():
    for seed in range(40):
        a, b = random_pair(seed, inf=(seed % 2 == 0))
        assert min_eq_via_monoeq(a, b, monoeq_bf) == product_bf(a, b, MIN_EQ)


# ------------------------------------------------------------ min_le / max_le

def test_min_le_hand_cases():
    five = IntMatrix(1, 1, (5,))
    assert min_le_via_monoeq(five, five, monoeq_bf).entries == (5,)
    assert min_le_via_monoeq(IntMatrix(1, 1, (7,)),
                             IntMatrix(1, 1, (3,)),
                             monoeq_bf).entries == (PLUS_INF,)


def test_max_le_hand_cases():
    assert max_le_via_monoeq(IntMatrix(1, 1, (1,)),
                             IntMatrix(1, 1, (4,)),
                             monoeq_bf).entries == (4,)
    assert max_le_via_monoeq(IntMatrix(1, 1, (5,)),
                             IntMatrix(1, 1, (4,)),
                             monoeq_bf).entries == (MINUS_INF,)


def test_le_products_battery():
    for seed in range(25):
        a, b = random_pair(seed + 100, max_n=4, inf=(seed % 3 == 0))
        assert min_le_via_monoeq(a, b, monoeq_bf) == product_bf(a, b, MIN_LE)
        assert max_le_via_monoeq(a, b, monoeq_bf) == product_bf(a, b, MAX_LE)


# ------------------------------------------------------------ max_min et al.

def test_max_min_hand_cases():
    assert max_min_product(IntMatrix(1, 1, (1,)),
                           IntMatrix(1, 1, (2,)),
                           min_le_chain).entries == (1,)
    # A row of huge values: the min saturates at B, so the row is B's max.
    a = IntMatrix(1, 2, (500, 500))
    b = IntMatrix(2, 1, (3, 9))
    assert max_min_product(a, b, min_le_chain).entries == (9,)


def test_max_min_battery():
    for seed in range(20):
        a, b = random_pair(seed + 200, max_n=4)
        assert max_min_product(a, b, min_le_chain) == \
            product_bf(a, b, MAX_MIN)


def test_min_witness_hand_cases():
    one = IntMatrix(1, 1, (1,))
    max_min = lambda a, b: max_min_product(a, b, min_le_chain)
    assert min_witness_via_max_min(one, one, max_min).entries == (1,)
    assert min_witness_via_max_min(IntMatrix(1, 1, (0,)),
                                   one, max_min).entries == (PLUS_INF,)
    with pytest.raises(ValueError):
        min_witness_via_max_min(IntMatrix(1, 1, (2,)), one, max_min)


def test_min_witness_battery():
    max_min = lambda a, b: max_min_product(a, b, min_le_chain)
    for seed in range(20):
        rng = RngStream(seed + 300)
        r, m, c = (rng.randint(1, 4) for _ in range(3))
        a = generate_matrix(r, m, 0, 1, rng.child("a"))
        b = generate_matrix(m, c, 0, 1, rng.child("b"))
        assert min_witness_via_max_min(a, b, max_min) == \
            product_bf(a, b, MIN_WITNESS)


def test_min_witness_rejects_inner_dimensions_that_differ():
    def max_min(_a, _b):
        raise AssertionError("no Max-Min call is needed")

    a, b = IntMatrix(1, 3, (1, 0, 1)), IntMatrix(2, 1, (1, 0))
    with pytest.raises(UsageFailure, match="^inner dimensions differ: 3 vs 2$"):
        min_witness_via_max_min(a, b, max_min)


def test_exists_projections():
    # A match whose value is PLUS_INF is still a match.
    one = lambda v: IntMatrix(1, 1, (v,))
    pairs = [(one(-1), one(PLUS_INF)), (one(PLUS_INF), one(PLUS_INF))]
    for seed in range(15):
        pairs.append(random_pair(seed + 400, max_n=4))
    min_eq = lambda x, y: min_eq_via_monoeq(x, y, monoeq_bf)
    for a, b in pairs:
        assert exists_eq_via_min_eq(a, b, min_eq) == \
            product_bf(a, b, "EXISTS_EQ")
        assert exists_dom_via_min_le(a, b, min_le_chain) == \
            product_bf(a, b, "EXISTS_DOM")


_MATRIX_PIPELINES = ("min-eq-via-monoeq", "min-le-via-monoeq",
                     "max-le-via-monoeq", "max-min", "min-witness",
                     "exists-eq", "exists-dom")


def test_matrix_products_run_over_the_plugin_monoeq_solver(monkeypatch):
    """The seven matrix products, composed as the CLI composes them, over
    the plug-in equality-triangle solver (value expansion and sparse
    combine around the fast mono solver) in place of the brute oracle.
    The plug-in answers a dict keyed (u, v), the oracle a GridAnswers;
    every search must read both."""
    from fgtri import cli, monoeq
    combines = []
    real_combine = monoeq.combine_sparse_into_mono

    def combine(*args, **kwargs):
        combines.append(1)
        return real_combine(*args, **kwargs)

    monkeypatch.setattr(monoeq, "combine_sparse_into_mono", combine)

    def plugin(h):
        return monoeq.solve_ae_monoeq(h, 3, max(h.part_sizes),
                                      ae_mono_triangle_fast, RngStream(5))

    right = 0
    for seed in range(40):
        for name in _MATRIX_PIPELINES:
            lo, hi = (0, 1) if name == "min-witness" else (-8, 8)
            a, b = random_pair(seed + 1400, 7, lo, hi)
            _text, check = cli._PIPELINES[name].run(
                SimpleNamespace(pipeline=name), plugin, None,
                lambda _record: None, a, b)
            right += check()
    assert right == 40 * len(_MATRIX_PIPELINES)
    assert combines  # the plug-in's combine step ran


# ------------------------------------------------------------ mono products

def case_a(seed, n=4, colors=2, values=3, density=70):
    return generate_colored((n, n, n), colors, density, values,
                            frozenset({"IK", "JK"}), RngStream(seed))


def test_mono_min_eq_hand_cases():
    g = ColoredValuedGraph(
        (1, 1, 1), ((0, 0, 1, None),), ((0, 0, 1, 4),), ((0, 0, 1, 4),),
        frozenset({"IK", "JK"}))
    assert mono_min_eq_via_mono_eq(g, mono_eq_bf) == {(0, 0): 4}
    miss = ColoredValuedGraph(
        (1, 1, 1), ((0, 0, 1, None),), ((0, 0, 1, 4),), ((0, 0, 1, 5),),
        frozenset({"IK", "JK"}))
    assert mono_min_eq_via_mono_eq(miss, mono_eq_bf) == {(0, 0): PLUS_INF}


def test_mono_min_eq_battery():
    for seed in range(30):
        g = case_a(seed + 500)
        assert mono_min_eq_via_mono_eq(g, mono_eq_bf) == \
            mono_product_bf(g, MONO_MIN_EQ)


def test_mono_eq_projection():
    # A match whose value is PLUS_INF is still a match.
    graphs = [ColoredValuedGraph(
        (1, 1, 1), ((0, 0, 0, None),), ((0, 0, 0, PLUS_INF),),
        ((0, 0, 0, PLUS_INF),), frozenset({"IK", "JK"}))]
    graphs += [case_a(seed + 600) for seed in range(15)]
    solver = lambda h: mono_min_eq_via_mono_eq(h, mono_eq_bf)
    for g in graphs:
        assert mono_eq_via_mono_min_eq(g, solver) == \
            mono_product_bf(g, MONO_EQ)


def test_mono_min_le_hand_cases():
    le = ColoredValuedGraph(
        (1, 1, 1), ((0, 0, 1, None),), ((0, 0, 1, 5),), ((0, 0, 1, 3),),
        frozenset({"IK", "JK"}))
    assert mono_min_le_via_monoeq(le, monoeq_bf, mono_eq_bf) == {(0, 0): 5}
    gt = ColoredValuedGraph(
        (1, 1, 1), ((0, 0, 1, None),), ((0, 0, 1, 3),), ((0, 0, 1, 5),),
        frozenset({"IK", "JK"}))
    assert mono_min_le_via_monoeq(gt, monoeq_bf, mono_eq_bf) == \
        {(0, 0): PLUS_INF}


def test_mono_min_le_battery():
    for seed in range(25):
        g = case_a(seed + 700, n=3)
        assert mono_min_le_via_monoeq(g, monoeq_bf, mono_eq_bf) == \
            mono_product_bf(g, MONO_MIN_LE)


def test_mono_searches_take_colors_near_the_int64_limits():
    """Colors are opaque, so the searches renumber them before pairing them
    with tags: colors near +/-2^62, whose composites would wrap, give the
    answers of the same graph with small colors."""
    # 0x3333333333333333 * 5 + 1 wraps to 0 * 5 + 0: with 4 distinct values
    # the (min, =) search's tag bound is 5, and k = 1 would close a false
    # triangle below the true minimum 30.
    wrap = 0x3333333333333333
    g = ColoredValuedGraph((1, 1, 3), ((0, 0, 0, None),),
                           ((0, 0, 0, 30), (0, 1, wrap, 20), (0, 2, 0, 10)),
                           ((0, 0, 0, 30), (0, 1, wrap, 20), (0, 2, 0, 0)),
                           frozenset({"IK", "JK"}))
    assert mono_min_eq_via_mono_eq(g, mono_eq_bf) == {(0, 0): 30}
    assert mono_min_le_via_monoeq(g, monoeq_bf, mono_eq_bf) == {(0, 0): 10}
    # At one bit the (min, <=) search's bound is 4 and 2^62 * 4 wraps to 0,
    # so k = 3 would close a false triangle below the true minimum 6.
    top = 1 << 62
    g = ColoredValuedGraph(
        (1, 1, 4), ((0, 0, 0, None),),
        ((0, 0, 0, 6), (0, 1, 0, 6), (0, 2, top, 7), (0, 3, top, 4)),
        ((0, 1, 0, 3), (0, 2, 0, 7), (0, 3, top, 2)), frozenset({"IK", "JK"}))
    assert mono_min_le_via_monoeq(g, monoeq_bf, mono_eq_bf) == {(0, 0): 6}
    big = (0, 1 << 62, -(1 << 62), (1 << 63) - 1, -(1 << 63))
    for seed in range(200):
        g = generate_colored((1 + seed % 2, 1, 2 + seed % 5), 2 + seed % 2,
                             85, 3 + seed % 6, frozenset({"IK", "JK"}),
                             RngStream(seed + 1000))
        wide = ColoredValuedGraph(g.part_sizes, *(
            [(u, v, big[(c + seed // 7) % 5], val)
             for u, v, c, val in g.edges(p)]
            for p in ("IJ", "JK", "IK")), g.value_sides)
        assert mono_min_eq_via_mono_eq(wide, mono_eq_bf) == \
            mono_product_bf(wide, MONO_MIN_EQ) == \
            mono_product_bf(g, MONO_MIN_EQ)
        assert mono_min_le_via_monoeq(wide, monoeq_bf, mono_eq_bf) == \
            mono_product_bf(wide, MONO_MIN_LE) == \
            mono_product_bf(g, MONO_MIN_LE)


# ------------------------------------------------------------ discretization

def test_rank_compression_preserves_order_and_equality():
    from fgtri.products import _ranked
    values = [5, -3, 5, PLUS_INF, 0, MINUS_INF, -3]
    a = IntMatrix(2, 4, values[:4] + values[3:])
    b = IntMatrix(7, 1, values)
    ra, rb = _ranked(a, b)
    assert (ra.rows, ra.cols, rb.rows, rb.cols) == (2, 4, 7, 1)
    pairs = [*zip(a.entries, ra.entries), *zip(b.entries, rb.entries)]
    for x, rx in pairs:
        for y, ry in pairs:
            assert (x < y) == (rx < ry)
            assert (x == y) == (rx == ry)
    # Dense ranks from 0 over both matrices' distinct values.
    assert sorted({r for _, r in pairs}) == list(range(len(set(values))))


# ------------------------------------------------------------ bracketing

class BracketChecker:
    """Replays search events and asserts each level's invariant: at every
    live cell the estimate is a multiple of 2^level and brackets the cell's
    answer.

    The answers are recomputed by brute force at every "start" event from
    the grids the search itself announced: per live I x J cell, the best
    ``jk_val`` over the k closing a triangle of one base colour with equal
    tags (and equal to the prefix, if any), or the search's ``miss`` where
    none does. So every live cell is checked, independently of the search's
    own bookkeeping. ``checked_by_op`` counts the checks per search kind.
    """

    def __init__(self):
        self.truth = {}
        self.levels_checked = 0
        self.checked_by_op = Counter()
        self.violations = 0

    def __call__(self, event):
        if event["kind"] == "start":
            pres, base = ({p: g.tolist() for p, g in event[f].items()}
                          for f in ("pres", "base"))
            ik, jk, jk_val = (event[f].tolist() for f in ("ik", "jk", "jk_val"))
            pre = None if event["pre"] is None else event["pre"].tolist()
            pick = min if event["mode"] == "min" else max
            self.truth = {}
            for i, row in enumerate(pres["IJ"]):
                for j, present in enumerate(row):
                    if not present:
                        continue
                    hits = [jk_val[j][k] for k in range(len(ik[i]))
                            if pres["IK"][i][k] and pres["JK"][j][k]
                            and base["IJ"][i][j] == base["IK"][i][k]
                            == base["JK"][j][k] and ik[i][k] == jk[j][k]
                            and (pre is None or ik[i][k] == pre[i][j])]
                    self.truth[i, j] = pick(hits) if hits else event["miss"]
        else:
            scale = 1 << event["level"]
            est, active = event["estimates"].tolist(), event["active"].tolist()
            for (i, j), value in self.truth.items():
                if not active[i][j]:
                    continue
                self.levels_checked += 1
                self.checked_by_op[event["op"]] += 1
                if value is None or est[i][j] % scale != 0 \
                        or not est[i][j] <= value < est[i][j] + scale:
                    self.violations += 1


def test_matrix_search_bracketing_invariant():
    checker = BracketChecker()
    for seed in range(6):
        a, b = random_pair(seed + 800, max_n=4)
        min_eq_via_monoeq(a, b, monoeq_bf, instrument=checker)
        min_le_via_monoeq(a, b, monoeq_bf, instrument=checker)
        max_le_via_monoeq(a, b, monoeq_bf, instrument=checker)
    assert checker.levels_checked > 0
    assert checker.violations == 0


def test_mono_search_bracketing_invariant():
    checker = BracketChecker()
    for seed in range(8):
        g = case_a(seed + 900, n=3)
        mono_min_eq_via_mono_eq(g, mono_eq_bf, instrument=checker)
        mono_min_le_via_monoeq(g, monoeq_bf, mono_eq_bf, instrument=checker)
    assert checker.levels_checked > 0
    assert checker.violations == 0


# ------------------------------------------------------------ call formulas

def _searches(run):
    """The searches ``run(count, instrument)`` starts, in order, each as its
    start event and the number of solver calls made before the next start;
    ``count(inner)`` wraps a solver so that its calls are counted."""
    searches = []

    def instrument(event):
        if event["kind"] == "start":
            searches.append([event, 0])

    def count(inner):
        def solve(g):
            searches[-1][1] += 1
            return inner(g)
        return solve

    run(count, instrument)
    return searches


def _distinct(start):
    """The number of distinct tags on an equality search's present I x K
    and J x K cells: as many as the values they rank."""
    pres = start["pres"]
    return len(set(start["ik"][pres["IK"]].tolist())
               | set(start["jk"][pres["JK"]].tolist()))


def _check_formulas(searches, le):
    """Each search's calls equal its announced level count and formula: an
    equality search with a live cell makes ceil_log2(d + 1) calls. A
    <=-search runs an equality step with no inner search, then per rank bit
    t an equality search and at most one inner search, of t calls."""
    steps = []   # per equality search, the calls of the inner ones after it
    for start, calls in searches:
        assert calls == start["levels"]
        if start["op"].endswith("_le_inner"):
            steps[-1].append(calls)
        else:
            assert calls == (ceil_log2(_distinct(start) + 1)
                             if start["pres"]["IJ"].any() else 0)
            steps.append([])
    if not le:
        assert steps == [[]]
    elif steps:
        assert len(steps) == 1 + ceil_log2(max(1, _distinct(searches[0][0])))
        assert steps[0] == []
        assert all(inner in ([], [t]) for t, inner in enumerate(steps[1:]))


def test_search_call_counts_match_their_formula():
    runs = 0
    for seed in range(10):
        a, b = random_pair(seed + 1400, max_n=5, inf=seed % 2 == 0)
        g = case_a(seed + 1500, n=4, colors=1 + seed % 2, values=2 + seed)
        for le, run in (
            (False, lambda c, i: min_eq_via_monoeq(a, b, c(monoeq_bf), i)),
            (True, lambda c, i: min_le_via_monoeq(a, b, c(monoeq_bf), i)),
            (True, lambda c, i: max_le_via_monoeq(a, b, c(monoeq_bf), i)),
            (False, lambda c, i: mono_min_eq_via_mono_eq(
                g, c(mono_eq_bf), i)),
            (True, lambda c, i: mono_min_le_via_monoeq(
                g, c(monoeq_bf), c(mono_eq_bf), i)),
        ):
            searches = _searches(run)
            _check_formulas(searches, le)
            runs += sum(start["levels"] > 0 for start, _ in searches
                        if start["op"].endswith("_le_inner"))
    assert runs > 0


# ------------------------------------------------------------ solver traffic

def _traffic(reduction, instances):
    """Number of inner-solver calls and total edges sent, summed over the
    instances; reduction(x, count) runs one instance over the counting
    solver wrapper count(inner)."""
    tally = [0, 0]

    def count(inner):
        def run(g):
            tally[0] += 1
            tally[1] += g.edge_count
            return inner(g)
        return run

    for x in instances:
        reduction(x, count)
    return tuple(tally)


_PAIRS = [random_pair(seed + 1000, max_n=5, inf=seed % 2 == 0)
          for seed in range(6)]
_BOOL_PAIRS = [(generate_matrix(3, 4, 0, 1, RngStream(seed + 1100)),
                generate_matrix(4, 3, 0, 1, RngStream(seed + 1200)))
               for seed in range(3)]
_MONO_GRAPHS = [case_a(seed + 1300, n=3, colors=1 + seed % 2,
                       values=2 + seed) for seed in range(4)]


def _min_le(a, b, count):
    return min_le_via_monoeq(a, b, count(monoeq_bf))


_REDUCTIONS = {
    "min-eq": (_PAIRS, lambda ab, c: min_eq_via_monoeq(*ab, c(monoeq_bf))),
    "min-le": (_PAIRS, lambda ab, c: _min_le(*ab, c)),
    "max-le": (_PAIRS, lambda ab, c: max_le_via_monoeq(*ab, c(monoeq_bf))),
    "max-min": (_PAIRS, lambda ab, c: max_min_product(
        *ab, lambda a, b: _min_le(a, b, c))),
    "min-witness": (_BOOL_PAIRS, lambda ab, c: min_witness_via_max_min(
        *ab, lambda a, b: max_min_product(
            a, b, lambda x, y: _min_le(x, y, c)))),
    "exists-eq": (_PAIRS, lambda ab, c: exists_eq_via_min_eq(
        *ab, lambda a, b: min_eq_via_monoeq(a, b, c(monoeq_bf)))),
    "exists-dom": (_PAIRS, lambda ab, c: exists_dom_via_min_le(
        *ab, lambda a, b: _min_le(a, b, c))),
    "mono-min-eq": (_MONO_GRAPHS, lambda g, c: mono_min_eq_via_mono_eq(
        g, c(mono_eq_bf))),
    "mono-eq": (_MONO_GRAPHS, lambda g, c: mono_eq_via_mono_min_eq(
        g, lambda h: mono_min_eq_via_mono_eq(h, c(mono_eq_bf)))),
    "mono-min-le": (_MONO_GRAPHS, lambda g, c: mono_min_le_via_monoeq(
        g, c(monoeq_bf), c(mono_eq_bf))),
}


def test_solver_traffic_is_pinned():
    """Calls and edges each product reduction sends to its inner solvers
    over a small seeded battery; the binary searches must not add, drop or
    resize a solver call."""
    got = {name: _traffic(run, instances)
           for name, (instances, run) in _REDUCTIONS.items()}
    assert got == {
        "min-eq": (24, 708), "min-le": (98, 2089), "max-le": (98, 2089),
        "max-min": (203, 4336), "min-witness": (54, 1315),
        "exists-eq": (24, 708), "exists-dom": (98, 2089),
        "mono-min-eq": (10, 202), "mono-eq": (10, 202),
        "mono-min-le": (25, 388),
    }


def _probe_digest():
    """One SHA-256 over every probe the traffic battery sends its inner
    solvers, in call order: part sizes, value sides, presence grids, and
    colours and values on the present cells only."""
    digest = hashlib.sha256()

    def record(inner):
        def run(g):
            pres, col, val = _colored_arrays(g)
            seen = [g.part_sizes, sorted(g.value_sides)]
            for pair in ("IJ", "JK", "IK"):
                here = pres[pair]
                seen.append((pair, np.flatnonzero(here).tolist(),
                             col[pair][here].tolist(),
                             val[pair][here].tolist()
                             if pair in g.value_sides else None))
            digest.update(repr(seen).encode())
            return inner(g)
        return run

    for instances, run in _REDUCTIONS.values():
        for x in instances:
            run(x, record)
    return digest.hexdigest()


def test_probe_sequence_is_pinned():
    """What each product reduction asks its inner solvers, probe by probe,
    over the traffic battery: a faster search must send the same
    instances in the same order, not just the same number of edges."""
    assert _probe_digest() == (
        "72f21867e37fcefb9eeb536b927cd20bc9112795961740ce6c6ad7298f32fcfe")


def _cell_keyed(answers):
    """``answers`` as a plain dict keyed (u, v), I x J edges only."""
    return {key[-2:]: hit for key, hit in answers.items()
            if len(key) == 2 or key[0] == "IJ"}


def _pair_keyed(answers):
    """``answers`` as a plain dict keyed (pair, u, v)."""
    return {key if len(key) == 3 else ("IJ", *key): hit
            for key, hit in answers.items()}


@pytest.mark.parametrize("name", sorted(_REDUCTIONS))
def test_searches_read_any_mapping_keyed_by_cell(name):
    """A search reads a ``GridAnswers`` through its I x J grid and any other
    mapping as answers[(u, v)]: a plain dict so keyed gives the same
    products, and one keyed (pair, u, v) raises ``KeyError`` at its first
    call."""
    instances, run = _REDUCTIONS[name]
    raised = 0
    for x in instances:
        want = run(x, lambda inner: inner)
        assert run(x, lambda inner: lambda g: _cell_keyed(inner(g))) == want
        calls = []

        def keyed(inner):
            def solve(g):
                calls.append(g)
                return _pair_keyed(inner(g))
            return solve

        try:
            run(x, keyed)
        except KeyError:
            raised += 1
            assert len(calls) == 1
        else:
            assert calls == []
    assert raised > 0


# ------------------------------------------------------------ trusted probes

_FIELDS = ("part_sizes", "edges_ij", "edges_jk", "edges_ik", "value_sides")


def _checked(oracle, seen):
    """``oracle``, checking first that each instance it gets equals its
    rebuild through the validating constructor: equal fields, attached
    arrays equal to the ones derived from the edges on every present cell
    (whose row-major order the edges follow), and equal answers in equal
    order, each a Python bool."""
    def run(g):
        rebuilt = ColoredValuedGraph(*(getattr(g, f) for f in _FIELDS))
        assert [getattr(g, f) for f in _FIELDS] == \
            [getattr(rebuilt, f) for f in _FIELDS]
        attached = g.__dict__.get("_arrays")
        if attached is not None:
            seen["attached"] += 1
            pres, col, val = _colored_arrays(rebuilt)
            for pair in ("IJ", "JK", "IK"):
                here = pres[pair]
                assert np.array_equal(attached[0][pair], here)
                assert attached[1][pair][here].tolist() == \
                    col[pair][here].tolist()
                if pair in g.value_sides:
                    assert attached[2][pair][here].tolist() == \
                        val[pair][here].tolist()
                assert [e[:2] for e in g.edges(pair)] == \
                    list(map(tuple, np.argwhere(here).tolist()))
        got, want = oracle(g), oracle(rebuilt)
        assert list(got.items()) == list(want.items())
        assert all(type(v) is bool for v in got.values())
        seen["checked"] += 1
        return got
    return run


def _le_pairs():
    return [random_pair(seed + 100, max_n=4, inf=seed % 3 == 0)
            for seed in range(25)]


def _bool_pairs():
    out = []
    for seed in range(20):
        rng = RngStream(seed + 300)
        r, m, c = (rng.randint(1, 4) for _ in range(3))
        out.append((generate_matrix(r, m, 0, 1, rng.child("a")),
                    generate_matrix(m, c, 0, 1, rng.child("b"))))
    return out


def _min_le_over(eq):
    return lambda a, b: min_le_via_monoeq(a, b, eq)


# name -> (battery, run(instance, checked monoeq, checked mono-eq), oracle)
_BATTERIES = {
    "min-eq": (lambda: [random_pair(seed, inf=seed % 2 == 0)
                        for seed in range(40)],
               lambda ab, eq, _mono: min_eq_via_monoeq(*ab, eq),
               lambda ab: product_bf(*ab, MIN_EQ)),
    "min-le": (_le_pairs, lambda ab, eq, _mono: min_le_via_monoeq(*ab, eq),
               lambda ab: product_bf(*ab, MIN_LE)),
    "max-le": (_le_pairs, lambda ab, eq, _mono: max_le_via_monoeq(*ab, eq),
               lambda ab: product_bf(*ab, MAX_LE)),
    "max-min": (lambda: [random_pair(seed + 200, max_n=4)
                         for seed in range(20)],
                lambda ab, eq, _mono: max_min_product(*ab, _min_le_over(eq)),
                lambda ab: product_bf(*ab, MAX_MIN)),
    "min-witness": (_bool_pairs, lambda ab, eq, _mono: min_witness_via_max_min(
        *ab, lambda a, b: max_min_product(a, b, _min_le_over(eq))),
        lambda ab: product_bf(*ab, MIN_WITNESS)),
    "mono-min-eq": (lambda: [case_a(seed + 500) for seed in range(30)],
                    lambda g, _eq, mono: mono_min_eq_via_mono_eq(g, mono),
                    lambda g: mono_product_bf(g, MONO_MIN_EQ)),
    "mono-min-le": (lambda: [case_a(seed + 700, n=3) for seed in range(25)],
                    lambda g, eq, mono: mono_min_le_via_monoeq(g, eq, mono),
                    lambda g: mono_product_bf(g, MONO_MIN_LE)),
}


@pytest.mark.parametrize("name", sorted(_BATTERIES))
def test_trusted_instances_equal_their_validated_rebuilds(name):
    """Every instance a reduction sends its solver is built without
    validation; rebuilt with it, it must be the same instance, and the
    oracle must read the same graph from its attached arrays as from its
    edges."""
    battery, run, truth = _BATTERIES[name]
    seen = {"checked": 0, "attached": 0}
    eq = _checked(monoeq_bf, seen)
    mono = _checked(mono_eq_bf, seen)
    for x in battery():
        assert run(x, eq, mono) == truth(x)
    assert seen["checked"] > 0
    assert seen["attached"] > 0


# ------------------------------------------------------------ derived matrices

def _rebuilt(m):
    """``m``, after checking that it holds a tuple of Python ints, equals and
    hashes like its rebuild through the validating constructor, serializes
    to the same text, and has a grid that cannot be written."""
    assert type(m.entries) is tuple
    assert all(type(e) is int for e in m.entries)
    rebuilt = IntMatrix(m.rows, m.cols, m.entries)
    assert rebuilt == m and hash(rebuilt) == hash(m)
    assert serialize(rebuilt) == serialize(m)
    assert not m._grid.flags.writeable
    return m


def test_derived_matrices_equal_their_validated_rebuilds():
    """Negation, transposition and every product reduction build their
    matrices without validation; each one, inputs handed to inner solvers
    included, passes the validating constructor unchanged."""
    def min_eq(x, y):
        return _rebuilt(min_eq_via_monoeq(_rebuilt(x), _rebuilt(y),
                                          monoeq_bf))

    def min_le(x, y):
        return _rebuilt(min_le_via_monoeq(_rebuilt(x), _rebuilt(y),
                                          monoeq_bf))

    def max_min(x, y):
        return _rebuilt(max_min_product(_rebuilt(x), _rebuilt(y), min_le))

    for seed in range(8):
        a, b = random_pair(seed + 1600, max_n=4, inf=seed % 2 == 0)
        for m in (a, b):
            assert _rebuilt(m.negate()).negate() == m
            assert _rebuilt(m.transpose()).transpose() == m
        _rebuilt(max_le_via_monoeq(a, b, monoeq_bf))
        assert max_min(a, b) == product_bf(a, b, MAX_MIN)
        _rebuilt(exists_eq_via_min_eq(a, b, min_eq))
        _rebuilt(exists_dom_via_min_le(a, b, min_le))
    for a, b in _BOOL_PAIRS:
        assert _rebuilt(min_witness_via_max_min(a, b, max_min)) == \
            product_bf(a, b, MIN_WITNESS)
