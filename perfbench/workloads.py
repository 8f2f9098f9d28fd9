"""The four benchmark workloads: one reduction family each, run as a closed
loop of single operations on seeded instances.

An operation is one reduction call on one instance. Instance shapes follow a
fixed schedule that repeats every ``len(schedule)`` operations, so a run's
mix of sizes is the same for every seed; the seed draws the contents (edges,
weights, colors, values, entries) and the reduction's random stream. Each
workload names its default inner solver; tests pass a broken one instead.

Every answer is checked against the brute-force oracles outside the timed
region. Solvers and reductions are looked up as module attributes at call
time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from fgtri import (fast_solvers, generators, monoeq, oracles, products,
                   witness_listing, zero_triangle)
from fgtri.rng import RngStream


@dataclass
class Case:
    """One operation's inputs and, where generation learned it, the oracle
    answer its check needs."""
    inputs: tuple
    expect: object = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stresses: tuple[str, ...]   # layers that do most of the work
    idle: tuple[str, ...]       # layers that do nothing timed here
    inner_layer: str            # layer of the injected inner solver
    inner_metric: str | None    # per-layer metric counting its calls
    tolerance: float            # largest fail_ratio that still counts as correct
    schedule: tuple
    make: Callable[[tuple, RngStream], Case]
    run: Callable               # (case, inner, sink) -> answer
    check: Callable[[Case, object], bool]
    inner: Callable
    # (per-layer metric, oracle, n): the oracle is timed against ``inner``
    # on the inputs of every n-th call of ``inner`` in a traced run.
    shadow: tuple | None = None

    def case(self, seed: int, index: int) -> Case:
        """Instance for operation ``index``; -1 is the warm-up instance."""
        stream = RngStream(seed, ("perfbench", self.name, "op", index))
        return self.make(self.schedule[max(index, 0) % len(self.schedule)],
                         stream)


# ------------------------------------------------------------------ zero-bf

ZERO_TRIALS = 8  # one fixed trial budget for every operation


def _zero_schedule():
    # 7 sizes x 2 range counts; every fourth op is planted (lcm 28).
    combos = [(n, s) for n in range(24, 49, 4) for s in (4, 8)]
    return tuple(combos[i % len(combos)] + (i % 4 == 3,) for i in range(28))


def _zero_make(params, stream):
    n, s, planted = params
    # Weights in [-10^6, 10^6], so a graph rarely holds a zero triangle by
    # chance: unplanted graphs are redrawn until they hold none (every trial
    # runs), planted ones until the planted triangle is the first. With a
    # small bound a planted graph holds dozens of zero triangles, and a
    # lister that loses some of them still finds one.
    attempt = 0
    while True:
        g, tri = generators.generate_tripartite(
            n, 10 ** 6, planted, stream.child("g", attempt))
        first = oracles.zero_triangle_bf(g)
        if first == tri:
            return Case((g, s, stream.child("run")), planted)
        attempt += 1


def bf_lister(g, cap):
    return oracles.triangle_list_bf(g, per_edge_cap=cap)


def _zero_run(case, inner, sink=None):
    g, s, rng = case.inputs
    return zero_triangle.zero_triangle_via_listing(
        g, s, inner, ZERO_TRIALS, rng, report_sink=sink)


def _zero_check(case, answer):
    found, witness = answer
    if found != case.expect:
        return False
    if found:  # the witness must be a real zero triangle of the input
        try:
            return oracles.triangle_weight_sum(case.inputs[0], witness) == 0
        except (KeyError, TypeError, ValueError):
            return False
    return witness is None


# ----------------------------------------------------------- listing-detect

def _listing_schedule():
    # Parts 8..24, density 25..55%, k cycling 1, 2, 3. Listing cost grows
    # with k^2, so larger k gets smaller parts and the op times spread
    # evenly. k = 1 stays sparse: at higher density every edge often finds
    # its one triangle early and the op ends after a seed-dependent stage,
    # which makes its time bimodal.
    shape = {1: (18, 7, 25, 6), 2: (11, 5, 25, 16), 3: (8, 3, 35, 21)}
    out = []
    for i in range(12):
        k, j = 1 + i % 3, i // 3
        lo, span, d_lo, d_span = shape[k]
        sizes = (lo + (2 * j) % span, lo + (7 * j + 2) % span,
                 lo + (11 * j + 1) % span)
        out.append((sizes, d_lo + (11 * j) % d_span, k))
    return tuple(out)


def _listing_make(params, stream):
    sizes, density, k = params
    g = generators.generate_sparse_tripartite(sizes, density, 5,
                                              stream.child("g"))
    return Case((g, k, stream.child("run")))


def fast_detector(g):
    return fast_solvers.ae_sparse_triangle_fast(g)


def _listing_run(case, inner, sink=None):
    g, k, rng = case.inputs
    return witness_listing.listing_via_detection(g, k, inner, rng)


def _listing_check(case, answer):
    g, k, _rng = case.inputs
    truth = oracles.triangle_list_bf(g)
    if set(answer) != set(truth):
        return False
    for edge, tris in truth.items():
        got = answer[edge]
        if len(got) != min(k, len(tris)) or not set(got) <= set(tris):
            return False
    return True


# -------------------------------------------------------------- products-bf

PRODUCT_KINDS = ("min-le", "max-le", "max-min", "min-witness")
_ORACLE_KIND = {"min-le": oracles.MIN_LE, "max-le": oracles.MAX_LE,
                "max-min": oracles.MAX_MIN, "min-witness": oracles.MIN_WITNESS}


def _products_schedule():
    # Kinds round-robin; each kind meets 26 shapes over [4, 16]^3, so op
    # times spread evenly and the 90th percentile sits in a dense tail. The
    # two <=-products carry sentinels on every other pass (+inf left only,
    # -inf anywhere), as acceptance does.
    return tuple((PRODUCT_KINDS[i % 4],
                  (4 + (5 * i) % 13, 4 + (8 * i + 6 + i // 52) % 13,
                   4 + (11 * i + 3 + 3 * (i // 52)) % 13),
                  (i // 4) % 2 == 0) for i in range(104))


def _products_make(params, stream):
    kind, (r, m, c), with_inf = params
    if kind == "min-witness":
        lo, hi = 0, 1
    else:
        lo, hi = -20, 20
    sentinels = with_inf and kind in ("min-le", "max-le")
    a = generators.generate_matrix(r, m, lo, hi, stream.child("a"),
                                   plus_inf_percent=6 if sentinels else 0,
                                   minus_inf_percent=6 if sentinels else 0)
    b = generators.generate_matrix(m, c, lo, hi, stream.child("b"),
                                   minus_inf_percent=6 if sentinels else 0)
    return Case((kind, a, b))


def bf_monoeq(g):
    return oracles.ae_monoeq_triangle_bf(g)


def product_chain(kind, inner):
    """The matrix solver for ``kind`` built over the equality-triangle
    solver ``inner``: max-min runs over min-le, min-witness over max-min."""
    def min_le(a, b):
        return products.min_le_via_monoeq(a, b, inner)

    def max_le(a, b):
        return products.max_le_via_monoeq(a, b, inner)

    def max_min(a, b):
        return products.max_min_product(a, b, min_le)

    def min_witness(a, b):
        return products.min_witness_via_max_min(a, b, max_min)

    return {"min-le": min_le, "max-le": max_le, "max-min": max_min,
            "min-witness": min_witness}[kind]


def _products_run(case, inner, sink=None):
    kind, a, b = case.inputs
    return product_chain(kind, inner)(a, b)


def _products_check(case, answer):
    kind, a, b = case.inputs
    return answer == oracles.product_bf(a, b, _ORACLE_KIND[kind])


# ------------------------------------------------------------ monoeq-plugin

MONOEQ_DEGREE_THRESHOLD = 2
MONO_DEGREE_THRESHOLD = 4


def _monoeq_schedule():
    # Balanced n in 24..36, 2-3 colors, density 40..70%, value range 4..8.
    return tuple((24 + (7 * i) % 13, 2 + i % 2, 40 + (11 * i + 5) % 31,
                  4 + (3 * i) % 5) for i in range(12))


def _monoeq_make(params, stream):
    n, colors, density, value_range = params
    g = generators.generate_colored(
        generators.balanced_split(n), colors, density, value_range,
        frozenset({"IJ", "JK", "IK"}), stream.child("g"))
    return Case((g, stream.child("run")))


def fast_mono(g):
    return fast_solvers.ae_mono_triangle_fast(
        g, degree_threshold=MONO_DEGREE_THRESHOLD)


def _monoeq_run(case, inner, sink=None):
    g, rng = case.inputs
    return monoeq.solve_ae_monoeq(g, MONOEQ_DEGREE_THRESHOLD,
                                  max(g.part_sizes), inner, rng)


def _monoeq_check(case, answer):
    g = case.inputs[0]
    want = {(u, v): val
            for (pair, u, v), val in oracles.ae_monoeq_triangle_bf(g).items()
            if pair == "IJ"}
    return answer == want


# --------------------------------------------------------------- registry

WORKLOADS = {w.name: w for w in (
    Workload(
        name="zero-bf",
        why="zero triangle via capped bf listing on complete tripartite "
            "graphs, n 24-48, s 4/8, 1 in 4 planted: randomize, subinstance "
            "build and validation do the work",
        stresses=("zero_triangle", "instances", "oracles"),
        idle=("rng", "fast_solvers", "monoeq", "products", "witness_listing"),
        inner_layer="oracles", inner_metric=None,
        tolerance=0.01,
        schedule=_zero_schedule(), make=_zero_make, run=_zero_run,
        check=_zero_check, inner=bf_lister),
    Workload(
        name="listing-detect",
        why="capped listing via detection with the fast sparse detector, "
            "parts 8-24, k 1-3: rng streams, C-restricted copies and many "
            "tiny detection calls do the work",
        stresses=("witness_listing", "rng", "fast_solvers", "instances"),
        idle=("zero_triangle", "oracles", "monoeq", "products"),
        inner_layer="fast_solvers",
        inner_metric="witness_listing.detect_calls", tolerance=0.01,
        schedule=_listing_schedule(), make=_listing_make, run=_listing_run,
        check=_listing_check, inner=fast_detector,
        shadow=("fast_solvers.sparse_vs_oracle",
                oracles.ae_sparse_triangle_bf, 97)),
    Workload(
        name="products-bf",
        why="min-le, max-le, max-min and min-witness over the bf "
            "equality-triangle oracle, dims 4-16: binary-search levels, "
            "validation and the numpy colored oracle do the work",
        stresses=("products", "instances", "oracles"),
        idle=("rng", "zero_triangle", "witness_listing", "monoeq",
              "fast_solvers"),
        inner_layer="oracles", inner_metric="products.inner_calls",
        tolerance=0.0,
        schedule=_products_schedule(), make=_products_make,
        run=_products_run, check=_products_check, inner=bf_monoeq),
    Workload(
        name="monoeq-plugin",
        why="equality triangles via the plug-in solver over fast mono, "
            "n 24-36, 2-3 colors: expansion, sparse combine and mono/matmul "
            "calls do the work; the only workload that runs monoeq",
        stresses=("monoeq", "fast_solvers", "instances"),
        idle=("zero_triangle", "witness_listing", "products"),
        inner_layer="fast_solvers", inner_metric="monoeq.inner_calls",
        tolerance=0.0,
        schedule=_monoeq_schedule(), make=_monoeq_make, run=_monoeq_run,
        check=_monoeq_check, inner=fast_mono,
        shadow=("fast_solvers.mono_vs_oracle",
                oracles.ae_mono_triangle_bf, 7)),
)}

