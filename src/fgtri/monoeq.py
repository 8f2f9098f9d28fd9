"""Solving the monochromatic-equality triangle problem through a plain
monochromatic-triangle solver.

The route: split an all-valued instance into the three cases by which two
part-pairs carry the equal values; rewrite each case as a colored-only
instance by blowing up the shared part into (vertex, value) copies; then
answer the blown-up instance per colour class on its presence grids. A
Boolean product over K closes the triangles through blown vertices of low
degree, and a second one those through the rest when at least a size
threshold of them remain; otherwise the rest go into one combined
monochromatic-triangle instance. Each case answers as one I x J hit grid.
The combine step packs many sparse per-edge-query graphs into one host
multigraph via random vertex permutations, separates parallel edges by
labels, and expands label triples into ordinary instances. Every graph
here is built from grids: the case split shares g's, the expansion and the
residue sources build their own, and the combine step builds one symmetric
presence grid and one colour grid per label, shared by the instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import isinf
from typing import Callable, Optional

import numpy as np

from .instances import (_PAIR_PARTS, CASE_VALUE_SIDES, COLORED_PAIRS,
                        ColoredValuedGraph, GridAnswers, UsageFailure,
                        _colored_arrays, _colored_grids, _listed, ceil_log2)
from .rng import RngStream

# The case tags (``CASE_VALUE_SIDES`` names each case's two valued pairs)
# and the part those pairs share, which the value expansion blows up.
CASE_TAGS = ("A", "B", "C")
CASE_BLOWN_PART = {"A": 2, "B": 1, "C": 0}

MonoSolver = Callable[[ColoredValuedGraph], GridAnswers]  # decode reads hits


def case_of(g: ColoredValuedGraph) -> str:
    for tag, sides in CASE_VALUE_SIDES.items():
        if g.value_sides == sides:
            return tag
    raise UsageFailure(f"value sides {sorted(g.value_sides)} match no case")


def split_cases(g: ColoredValuedGraph) -> dict[str, ColoredValuedGraph]:
    """Project an all-valued instance onto the three two-sided cases.

    An I x J edge is in a monochromatic-equality triangle of g exactly when
    it is positive in at least one case instance (the union rule).
    """
    if g.value_sides != frozenset(COLORED_PAIRS):
        raise ValueError("split_cases expects values on all three pairs")
    grids = _colored_arrays(g)  # each case reads values on its sides only
    return {tag: ColoredValuedGraph._trusted(g.part_sizes,
                                             CASE_VALUE_SIDES[tag], grids)
            for tag in CASE_TAGS}


@dataclass(frozen=True)
class ExpandedCase:
    """A case instance rewritten colored-only, one part blown up into
    (vertex, value) copies; ``edge_map`` sends each original I x J query
    edge to its counterpart in the expanded graph's query pair."""

    graph: ColoredValuedGraph
    edge_map: dict


def expand_values(g: ColoredValuedGraph) -> ExpandedCase:
    """Blow up the shared part: vertex k becomes copies (k, v), created only
    for values v actually incident to k; valued edges re-attach to the copy
    carrying their value and lose the value.

    A query edge is in a good triangle of g iff its image is in a
    monochromatic triangle of the expansion.
    """
    blown = CASE_BLOWN_PART[case_of(g)]
    pres, col, val = _colored_arrays(g)
    cells = {pair: pres[pair].nonzero() for pair in COLORED_PAIRS}
    # Each valued edge's (blown vertex, value) key, in edge order.
    keys = {p: list(zip(cells[p][_PAIR_PARTS[p].index(blown)].tolist(),
                        val[p][cells[p]].tolist()))
            for p in COLORED_PAIRS if p in g.value_sides}
    copies = {kv: idx for idx, kv
              in enumerate(sorted(set().union(*keys.values())))}

    sizes = list(g.part_sizes)
    sizes[blown] = len(copies)
    moved = dict(cells)  # valued edges re-attach to their copies
    for pair, edge_keys in keys.items():
        moved[pair] = list(cells[pair])
        moved[pair][_PAIR_PARTS[pair].index(blown)] = np.array(
            [copies[k] for k in edge_keys], np.intp)
    grids = _colored_grids(sizes, {p: (*moved[p], col[p][cells[p]])
                                   for p in COLORED_PAIRS})
    graph = ColoredValuedGraph._trusted(tuple(sizes), frozenset(), grids)
    edge_map = dict(zip(_listed(cells["IJ"]), _listed(moved["IJ"])))
    return ExpandedCase(graph, edge_map)


@dataclass(frozen=True)
class CombinedMonoInstance:
    """Many sparse per-edge-query graphs packed into one host: ``instances``
    are the label-triple monochromatic instances; ``query_maps`` give, per
    source, each query edge's placement (label, x, y)."""

    instances: tuple[tuple[tuple[int, int, int], ColoredValuedGraph], ...]
    query_maps: tuple[dict, ...]

    def decode(self, per_instance_answers) -> list[dict[tuple[int, int], bool]]:
        """Map host answers back to each source's query edges.

        ``per_instance_answers`` aligns with ``instances``, one
        ``GridAnswers`` each; a source edge is positive iff its placed copy
        is positive, either way round, in the I x J hit grid of some
        label-triple instance whose first label is the edge's own.
        """
        if len(per_instance_answers) != len(self.instances):
            raise ValueError("answers do not align with the instances")
        hit: dict[int, np.ndarray] = {}
        for (triple, _g), answers in zip(self.instances, per_instance_answers):
            grid = answers.hits["IJ"]
            hit[triple[0]] = hit.get(triple[0], False) | grid | grid.T
        return [{edge: bool(hit[label][x, y])
                 for edge, (label, x, y) in qmap.items()}
                for qmap in self.query_maps]


def combine_sparse_into_mono(
    instances: list[ColoredValuedGraph],
    host_size: int,
    rng: RngStream,
    max_label: Optional[int] = None,
    max_retries: int = 20,
) -> CombinedMonoInstance:
    """Pack sparse instances into one host multigraph, then expand.

    Each source's vertices land in the host through a random permutation;
    its edges take the source index as color, so a monochromatic host
    triangle can only assemble within one source. Parallel edges on a host
    pair get labels; if any pair's multiplicity exceeds the label budget the
    permutations are resampled. One ordinary instance is built per triple
    of labels (first label between V1/V2, second V2/V3, third V3/V1), and a
    source triangle shows up in the instance keyed by its three edges'
    labels.
    """
    if max_label is None:
        max_label = 4 * ceil_log2(host_size + 2)
    for inst in instances:
        if sum(inst.part_sizes) > host_size:
            raise ValueError(
                f"source with {sum(inst.part_sizes)} vertices exceeds host "
                f"size {host_size}")

    # Each source's edges as (pair, u, v, flat u, flat v), numbering I, J, K.
    flat = []
    for inst in instances:
        first = (0, inst.part_sizes[0], sum(inst.part_sizes[:2]))
        pres = _colored_arrays(inst)[0]
        flat.append([(pair, u, v, first[_PAIR_PARTS[pair][0]] + u,
                      first[_PAIR_PARTS[pair][1]] + v)
                     for pair in COLORED_PAIRS
                     for u, v in _listed(pres[pair].nonzero())])
    for attempt in range(max_retries):
        perms = []
        placed: dict[tuple[int, int], list] = {}
        for q, edges in enumerate(flat):
            perm = rng.child("perm", attempt, q).permutation(host_size)
            perms.append(perm)
            for pair, u, v, fu, fv in edges:
                x, y = perm[fu], perm[fv]
                key = (x, y) if x < y else (y, x)
                placed.setdefault(key, []).append((q, pair, u, v))
        mult = max((len(v) for v in placed.values()), default=0)
        if mult <= max_label:
            break
    else:
        raise RuntimeError(
            f"multiplicity exceeded {max_label} in {max_retries} attempts")

    # One pass over the placed edges in host-pair order labels them and
    # records the I x J queries; then each label gets one symmetric presence
    # grid and one grid of source-index colours, which every label-triple
    # instance shares. A host pair gives each of its edges a distinct
    # label, so no two edges of one label share a cell.
    query_maps: list[dict] = [{} for _ in instances]
    label_cells: list = []
    for key in sorted(placed):
        for label, (q, pair, u, v) in enumerate(sorted(placed[key])):
            label_cells.append((label, *key, q))
            if pair == "IJ":
                query_maps[q][(u, v)] = (label + 1, perms[q][u], perms[q][
                    instances[q].part_sizes[0] + v])
    labels, xs, ys, sources = np.array(label_cells, np.intp).reshape(-1, 4).T
    pres = np.zeros((mult, host_size, host_size), bool)
    col = np.zeros(pres.shape, np.int64)
    pres[labels, xs, ys] = pres[labels, ys, xs] = True
    col[labels, xs, ys] = col[labels, ys, xs] = sources
    no_values = np.zeros(pres.shape[1:], np.int64)
    for grid in (pres, col, no_values):
        grid.flags.writeable = False
    built = [((li + 1, lj + 1, lk + 1), ColoredValuedGraph._trusted(
        (host_size,) * 3, frozenset(),
        ({"IJ": pres[li], "JK": pres[lj], "IK": pres[lk]},
         {"IJ": col[li], "JK": col[lj], "IK": col[lk]},
         dict.fromkeys(COLORED_PAIRS, no_values))))
        for li, lj, lk in product(range(mult), repeat=3)]

    return CombinedMonoInstance(tuple(built), tuple(query_maps))


def solve_combined(
    combined: CombinedMonoInstance, mono_solver: MonoSolver,
) -> list[dict[tuple[int, int], bool]]:
    answers = [mono_solver(g) for _triple, g in combined.instances]
    return combined.decode(answers)


def _cut(grids: dict, blown: int, keep: np.ndarray) -> dict:
    """grids without the edges at blown vertices outside keep."""
    return {p: grids[p] & (keep[:, None] if _PAIR_PARTS[p][0] == blown
                           else keep) if blown in _PAIR_PARTS[p] else grids[p]
            for p in COLORED_PAIRS}


def _closed(grids: dict) -> np.ndarray:
    """The I x J cells of grids closed by some k: IJ & (IK @ JK^T), with
    the product taken over the k that have both an IK and a JK edge."""
    ks = (grids["IK"].any(axis=0) & grids["JK"].any(axis=0)).nonzero()[0]
    return grids["IJ"] & (grids["IK"].take(ks, 1) @ grids["JK"].take(ks, 1).T)


def _ae_mono_on_expansion(
    g: ColoredValuedGraph,
    blown: int,
    degree_threshold,
    size_threshold,
    mono_solver: MonoSolver,
    rng: RngStream,
) -> np.ndarray:
    """The I x J hit grid of a colored-only expanded instance: whether each
    query cell lies in a monochromatic triangle.

    Only colours with an edge on every pair can close a triangle. Per
    such colour, a blown vertex is heavy with at least one and more than
    degree_threshold edges of the colour. If some but fewer than
    size_threshold blown vertices are heavy, a Boolean product over K
    closes the triangles through the others, and the heavy vertices'
    edges, cut to the vertices they touch, become one source of a single
    combined instance for mono_solver. Otherwise one product over every
    vertex answers the colour."""
    pres, col, _val = _colored_arrays(g)
    third = next(p for p in COLORED_PAIRS if blown not in _PAIR_PARTS[p])
    (p1, axis1), (p2, axis2) = ((p, 1 - _PAIR_PARTS[p].index(blown))
                                for p in COLORED_PAIRS if p != third)
    closing = set.intersection(*(set(col[p][pres[p]].tolist()) for p in pres))
    hit = np.zeros(pres["IJ"].shape, bool)
    sources, supports = [], []
    for color in sorted(closing):
        grids = {p: pres[p] & (col[p] == color) for p in COLORED_PAIRS}
        degree = grids[p1].sum(axis=axis1) + grids[p2].sum(axis=axis2)
        heavy = degree > max(degree_threshold, 0)
        if not 0 < np.count_nonzero(heavy) < size_threshold:
            hit |= _closed(grids)  # one product covers every vertex
            continue
        hit |= _closed(_cut(grids, blown, ~heavy))
        live = _cut(grids, blown, heavy)
        touched = [np.zeros(n, bool) for n in g.part_sizes]
        for p in COLORED_PAIRS:
            u, v = _PAIR_PARTS[p]
            touched[u] |= live[p].any(axis=1)
            touched[v] |= live[p].any(axis=0)
        support = [part.nonzero()[0] for part in touched]
        sizes = tuple(map(len, support))
        cells = {p: (*live[p][np.ix_(*(support[q] for q in _PAIR_PARTS[p]))]
                     .nonzero(), 0) for p in COLORED_PAIRS}
        sources.append(ColoredValuedGraph._trusted(
            sizes, frozenset(), _colored_grids(sizes, cells)))
        supports.append(support)

    if sources:
        host = max(3 * (max(g.part_sizes) if isinf(size_threshold)
                        else int(size_threshold)),
                   *(sum(s.part_sizes) for s in sources))
        combined = combine_sparse_into_mono(sources, host,
                                            rng.child("combine"))
        for per_source, (rows, cols, _k) in zip(
                solve_combined(combined, mono_solver), supports):
            for (u, v), positive in per_source.items():
                hit[rows[u], cols[v]] |= positive
    return hit


def solve_ae_monoeq(
    g: ColoredValuedGraph,
    degree_threshold,
    size_threshold,
    mono_solver: MonoSolver,
    rng: RngStream,
) -> dict[tuple[int, int], bool]:
    """Per I x J edge, whether it lies in a monochromatic triangle with two
    equal-valued edges; answers match the brute oracle's I x J entries.

    Accepts an all-valued instance (split into the three cases, answers
    OR-ed) or a single two-sided case. Each case's expansion answers as
    one I x J hit grid, read at the images of g's query edges. Per
    colour, a Boolean product closes the triangles through blown vertices
    of degree at most ``degree_threshold``; the heavier ones go through
    the same product when at least ``size_threshold`` of them remain, else
    through one combined monochromatic instance handled by ``mono_solver``.
    """
    cases = (split_cases(g) if g.value_sides == frozenset(COLORED_PAIRS)
             else {case_of(g): g})

    answers = {(u, v): False for u, v, _c, _val in g.edges_ij}
    for tag in sorted(cases):
        expanded = expand_values(cases[tag])
        hit = _ae_mono_on_expansion(
            expanded.graph, CASE_BLOWN_PART[tag], degree_threshold,
            size_threshold, mono_solver, rng.child("case", tag))
        answers.update((edge, True) for edge, image
                       in expanded.edge_map.items() if hit[image])
    return answers
