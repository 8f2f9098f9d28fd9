"""Seeded instance generators.

Generators are pure functions of (parameters, stream): the same seed and
parameters always produce the same instance, on any platform. Weighted
graphs come out complete tripartite with near-balanced parts; optional
planting rewrites one triangle so its weights sum to zero.
"""

from __future__ import annotations

from typing import Optional

from .instances import (_PAIR_PARTS, COLORED_PAIRS, WEIGHTED_PAIRS,
                        ColoredValuedGraph, IntMatrix, MINUS_INF, PLUS_INF,
                        SetFamilyInstance, TripartiteWeightedGraph,
                        UsageFailure)
from .rng import RngStream


def balanced_split(n: int) -> tuple[int, int, int]:
    """Split n vertices into three near-equal parts (sizes differ by <= 1)."""
    return ((n + 2) // 3, (n + 1) // 3, n // 3)


def _kept_cells(sizes, pair: str, keep_percent: int, stream: RngStream):
    """The pair's (u, v) cells, row-major, each kept with ``keep_percent``.
    Lazy: the caller draws a kept cell's fields from ``stream`` before the
    next cell's coin."""
    if not 0 <= keep_percent <= 100:
        raise UsageFailure("keep_percent must be in [0, 100]")
    pu, pv = _PAIR_PARTS[pair]
    return ((u, v) for u in range(sizes[pu]) for v in range(sizes[pv])
            if stream.bernoulli(keep_percent, 100))


def generate_tripartite(
    n: int,
    weight_bound: int,
    plant_zero: bool,
    rng: RngStream,
) -> tuple[TripartiteWeightedGraph, Optional[tuple[int, int, int]]]:
    """Complete tripartite graph with weights uniform in [-bound, bound].

    With ``plant_zero`` one triple (a, b, c) gets its three edge weights
    adjusted, within the bound, so they sum to zero; the triple is returned
    alongside the graph. An empty graph (n = 0) is fine without planting.
    """
    if weight_bound < 1:
        raise UsageFailure("weight_bound must be >= 1")
    sizes = balanced_split(n)
    if plant_zero and min(sizes) == 0:
        raise UsageFailure("cannot plant a zero triangle with an empty part")

    wstream = rng.child("weights")

    def draw(pair):
        pu, pv = _PAIR_PARTS[pair]
        return [(u, v, wstream.randint(-weight_bound, weight_bound))
                for u in range(sizes[pu]) for v in range(sizes[pv])]

    # Per pair u -> v, in WEIGHTED_PAIRS order, edge (u, v) at u * |V| + v.
    edges = {pair: draw(pair) for pair in WEIGHTED_PAIRS}

    planted = None
    if plant_zero:
        pstream = rng.child("plant")
        planted = tuple(pstream.randrange(size) for size in sizes)
        w_ab = pstream.randint(-weight_bound, weight_bound)
        # Constrain the second draw so the closing weight stays in range.
        lo = max(-weight_bound, -weight_bound - w_ab)
        hi = min(weight_bound, weight_bound - w_ab)
        w_bc = pstream.randint(lo, hi)
        for pair, w in zip(WEIGHTED_PAIRS, (w_ab, w_bc, -(w_ab + w_bc))):
            pu, pv = _PAIR_PARTS[pair]
            u, v = planted[pu], planted[pv]
            edges[pair][u * sizes[pv] + v] = (u, v, w)

    return TripartiteWeightedGraph(sizes, *edges.values()), planted


def generate_sparse_tripartite(
    sizes: tuple[int, int, int],
    keep_percent: int,
    weight_bound: int,
    rng: RngStream,
) -> TripartiteWeightedGraph:
    """Unbalanced tripartite graph keeping each edge with the given percent."""
    estream = rng.child("edges")
    return TripartiteWeightedGraph(sizes, *(
        [(u, v, estream.randint(-weight_bound, weight_bound))
         for u, v in _kept_cells(sizes, pair, keep_percent, estream)]
        for pair in WEIGHTED_PAIRS))


def generate_colored(
    sizes: tuple[int, int, int],
    num_colors: int,
    keep_percent: int,
    value_range: int,
    value_sides: frozenset,
    rng: RngStream,
) -> ColoredValuedGraph:
    """Random colored instance; valued pairs draw values in [0, value_range)."""
    if num_colors < 1:
        raise UsageFailure("need at least one color")
    if value_sides and value_range < 1:
        raise UsageFailure("value_range must be >= 1 when any side is valued")
    estream = rng.child("edges")
    sides = frozenset(value_sides)

    def draw(pair):
        valued = pair in sides
        return tuple((u, v, estream.randrange(num_colors),
                      estream.randrange(value_range) if valued else None)
                     for u, v in _kept_cells(sizes, pair, keep_percent,
                                             estream))

    return ColoredValuedGraph(sizes, *map(draw, COLORED_PAIRS), sides)


def generate_matrix(
    rows: int,
    cols: int,
    lo: int,
    hi: int,
    rng: RngStream,
    plus_inf_percent: int = 0,
    minus_inf_percent: int = 0,
) -> IntMatrix:
    """Random matrix with entries in [lo, hi] and optional sentinel entries."""
    stream = rng.child("matrix")
    entries = []
    for _ in range(rows * cols):
        roll = stream.randrange(100) if (plus_inf_percent or minus_inf_percent) else 100
        if roll < plus_inf_percent:
            entries.append(PLUS_INF)
        elif roll < plus_inf_percent + minus_inf_percent:
            entries.append(MINUS_INF)
        else:
            entries.append(stream.randint(lo, hi))
    return IntMatrix(rows, cols, tuple(entries))


def generate_set_family(
    universe_size: int,
    family_size: int,
    max_set_size: int,
    num_queries: int,
    rng: RngStream,
    output_cap: Optional[int] = None,
) -> SetFamilyInstance:
    stream = rng.child("sets")
    family = []
    for _ in range(family_size):
        size = stream.randrange(max_set_size + 1)
        size = min(size, universe_size)
        family.append(tuple(sorted(stream.sample_distinct(universe_size, size))))
    queries = tuple(
        (stream.randrange(family_size), stream.randrange(family_size))
        for _ in range(num_queries)
    ) if family_size else ()
    return SetFamilyInstance(universe_size, tuple(family), queries, output_cap)
