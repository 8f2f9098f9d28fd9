"""Solving the monochromatic-equality triangle problem through a plain
monochromatic-triangle solver.

The route: split an all-valued instance into the three cases by which two
part-pairs carry the equal values; rewrite each case as a colored-only
instance by blowing up the shared part into (vertex, value) copies; then
answer the blown-up instance per color class with a low-degree
enumeration, packed K-masks for colors whose blown part stays large, and
one combined monochromatic-triangle instance for everything else. The
masks are the Boolean product over K on packed ints: one OR per I x K and
J x K edge, one AND per query edge, where a bit-matrix product would build
and validate the same packed rows and then OR them again. The combine
step packs many sparse per-edge-query graphs into one host multigraph via
random vertex permutations, separates parallel edges by labels, and
expands label triples into ordinary instances. Every graph here is built
from grids: the case split shares g's, the expansion and the residue
sources build their own, and the combine step builds one symmetric
presence grid and one colour grid per label, shared by the instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import isinf
from typing import Callable, Optional

import numpy as np

from .instances import (_PAIR_PARTS, ColoredValuedGraph, _colored_arrays,
                        _colored_grids, _listed)
from .rng import RngStream
from .zero_triangle import ceil_log2

# Which two part-pairs carry the equal values, and which part they share
# (the one the value expansion blows up).
CASE_TAGS = ("A", "B", "C")
CASE_VALUE_SIDES = {
    "A": frozenset({"IK", "JK"}),  # shared part K
    "B": frozenset({"IJ", "JK"}),  # shared part J
    "C": frozenset({"IJ", "IK"}),  # shared part I
}
CASE_BLOWN_PART = {"A": 2, "B": 1, "C": 0}
_PAIRS = ("IJ", "JK", "IK")

MonoSolver = Callable[[ColoredValuedGraph], dict[tuple[str, int, int], bool]]


def case_of(g: ColoredValuedGraph) -> str:
    for tag, sides in CASE_VALUE_SIDES.items():
        if g.value_sides == sides:
            return tag
    raise ValueError(f"value sides {sorted(g.value_sides)} match no case")


def split_cases(g: ColoredValuedGraph) -> dict[str, ColoredValuedGraph]:
    """Project an all-valued instance onto the three two-sided cases.

    An I x J edge is in a monochromatic-equality triangle of g exactly when
    it is positive in at least one case instance (the union rule).
    """
    if g.value_sides != frozenset({"IJ", "JK", "IK"}):
        raise ValueError("split_cases expects values on all three pairs")
    grids = _colored_arrays(g)  # each case reads values on its sides only
    return {tag: ColoredValuedGraph._trusted(g.part_sizes,
                                             CASE_VALUE_SIDES[tag], grids)
            for tag in CASE_TAGS}


@dataclass(frozen=True)
class ExpandedCase:
    """A case instance rewritten colored-only, one part blown up into
    (vertex, value) copies.

    ``vertex_map`` sends (original index, value) to the blown part's new
    index; ``edge_map`` sends each original I x J query edge to its
    counterpart in the expanded graph's query pair.
    """

    tag: str
    graph: ColoredValuedGraph
    vertex_map: dict
    edge_map: dict

    def decode(self, expanded_answers: dict) -> dict[tuple[int, int], bool]:
        return {
            edge: bool(expanded_answers.get(("IJ",) + self.edge_map[edge], False))
            for edge in self.edge_map
        }


def expand_values(g: ColoredValuedGraph, tag: Optional[str] = None) -> ExpandedCase:
    """Blow up the shared part: vertex k becomes copies (k, v), created only
    for values v actually incident to k; valued edges re-attach to the copy
    carrying their value and lose the value.

    A query edge is in a good triangle of g iff its image is in a
    monochromatic triangle of the expansion.
    """
    if tag is None:
        tag = case_of(g)
    if g.value_sides != CASE_VALUE_SIDES[tag]:
        raise ValueError(f"instance value sides do not match case {tag}")
    blown = CASE_BLOWN_PART[tag]
    pres, col, val = _colored_arrays(g)
    cells = {pair: pres[pair].nonzero() for pair in _PAIRS}
    # Each valued edge's (blown vertex, value) key, in edge order.
    keys = {p: list(zip(cells[p][_PAIR_PARTS[p].index(blown)].tolist(),
                        val[p][cells[p]].tolist()))
            for p in _PAIRS if p in g.value_sides}
    vertex_map = {kv: idx for idx, kv
                  in enumerate(sorted(set().union(*keys.values())))}

    sizes = list(g.part_sizes)
    sizes[blown] = len(vertex_map)
    moved = dict(cells)  # valued edges re-attach to their copies
    for pair, edge_keys in keys.items():
        moved[pair] = list(cells[pair])
        moved[pair][_PAIR_PARTS[pair].index(blown)] = np.array(
            [vertex_map[k] for k in edge_keys], np.intp)
    grids = _colored_grids(sizes, {p: (*moved[p], col[p][cells[p]])
                                   for p in _PAIRS})
    graph = ColoredValuedGraph._trusted(tuple(sizes), frozenset(), grids)
    edge_map = dict(zip(_listed(cells["IJ"]), _listed(moved["IJ"])))
    return ExpandedCase(tag, graph, vertex_map, edge_map)


@dataclass(frozen=True)
class CombinedMonoInstance:
    """Many sparse per-edge-query graphs packed into one host of
    ``host_size`` vertices per part.

    ``parallel`` lists, per host pair, its parallel edges as
    (label, source, pair, u, v); ``instances`` are the label-triple
    monochromatic instances; ``query_maps`` give, per source, each query
    edge's placement (label, x, y)."""

    host_size: int
    max_label: int
    observed_max_label: int
    parallel: tuple[tuple[tuple[int, int], tuple[tuple[int, int, str, int, int], ...]], ...]
    instances: tuple[tuple[tuple[int, int, int], ColoredValuedGraph], ...]
    query_maps: tuple[dict, ...]

    def decode(self, per_instance_answers) -> list[dict[tuple[int, int], bool]]:
        """Map host answers back to each source's query edges.

        ``per_instance_answers`` aligns with ``instances``; a source edge is
        positive iff its placed copy is positive in some label-triple
        instance whose first label matches the edge's own label.
        """
        if len(per_instance_answers) != len(self.instances):
            raise ValueError("answers do not align with the instances")
        out = []
        for qmap in self.query_maps:
            decoded = {}
            for edge, (label, x, y) in qmap.items():
                hit = False
                for (triple, _g), answers in zip(self.instances,
                                                 per_instance_answers):
                    if triple[0] != label:
                        continue
                    if answers.get(("IJ", x, y), False) or \
                            answers.get(("IJ", y, x), False):
                        hit = True
                        break
                decoded[edge] = hit
            out.append(decoded)
        return out


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
                      first[_PAIR_PARTS[pair][1]] + v) for pair in _PAIRS
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
    parallel = []
    query_maps: list[dict] = [{} for _ in instances]
    label_cells: list = []
    for key in sorted(placed):
        labelled = tuple((lab + 1, q, pair, u, v) for lab, (q, pair, u, v)
                         in enumerate(sorted(placed[key])))
        parallel.append((key, labelled))
        for label, q, pair, u, v in labelled:
            label_cells.append((label - 1, *key, q))
            if pair == "IJ":
                query_maps[q][(u, v)] = (label, perms[q][u], perms[q][
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
         dict.fromkeys(_PAIRS, no_values))))
        for li, lj, lk in product(range(mult), repeat=3)]

    return CombinedMonoInstance(
        host_size, max_label, mult, tuple(parallel),
        tuple(built), tuple(query_maps))


def solve_combined(
    combined: CombinedMonoInstance, mono_solver: MonoSolver,
) -> list[dict[tuple[int, int], bool]]:
    answers = [mono_solver(g) for _triple, g in combined.instances]
    return combined.decode(answers)


def _ae_mono_on_expansion(
    g: ColoredValuedGraph,
    blown: int,
    degree_threshold,
    size_threshold,
    mono_solver: MonoSolver,
    rng: RngStream,
) -> dict[tuple[int, int], bool]:
    """Per-I x J-edge monochromatic triangle answers for a colored-only
    expanded instance, splitting per color into low-degree enumeration,
    packed K-masks when the blown part stays at least size_threshold, and
    a single combined instance for the rest."""
    pres, col, _val = _colored_arrays(g)
    answers = dict.fromkeys(_listed(pres["IJ"].nonzero()), False)
    split: dict = {}  # color -> {pair -> set of (u, v)}
    for pair in _PAIRS:
        for edge, color in zip(_listed(pres[pair].nonzero()),
                               col[pair][pres[pair]].tolist()):
            split.setdefault(color, {p: set() for p in _PAIRS})[pair].add(edge)

    # Which pairs touch the blown part, and the blown slot in their keys.
    touching = [p for p in _PAIRS if blown in _PAIR_PARTS[p]]
    third_pair = next(p for p in _PAIRS if p not in touching)

    combine_sources: list[ColoredValuedGraph] = []
    combine_edge_maps: list[dict] = []

    for color in sorted(split):
        edges = split[color]
        live = dict(edges)

        # Adjacency of blown-part vertices within this color.
        nbrs: dict[int, dict[str, list[int]]] = {}
        for pair in touching:
            slot = _PAIR_PARTS[pair].index(blown)
            for e in edges[pair]:
                x = e[slot]
                other = e[1 - slot]
                nbrs.setdefault(x, {p: [] for p in touching})[pair].append(other)

        p1, p2 = touching
        part1 = _PAIR_PARTS[p1][1 - _PAIR_PARTS[p1].index(blown)]
        part2 = _PAIR_PARTS[p2][1 - _PAIR_PARTS[p2].index(blown)]
        third = set(live[third_pair])

        def third_key(u1, u2):
            # Orient (u1 in part1, u2 in part2) to the third pair's key,
            # which always runs lower part to higher part.
            return (u1, u2) if part1 < part2 else (u2, u1)

        def query_edge(x, u1, u2):
            # The I x J edge of the triangle {blown x, u1 via p1, u2 via p2}.
            members = {blown: x, part1: u1, part2: u2}
            return (members[0], members[1])

        # Low-degree pass over blown-part vertices (one pass suffices: blown
        # vertices are never adjacent to each other). Degrees come from nbrs,
        # so the pass deletes its vertices only once it is done.
        dropped = set()
        for x in sorted(nbrs):
            around = nbrs[x]
            if sum(len(v) for v in around.values()) > degree_threshold:
                continue
            for u1 in around[p1]:
                for u2 in around[p2]:
                    if third_key(u1, u2) in third:
                        answers[query_edge(x, u1, u2)] = True
            dropped.add(x)
        for pair in touching:
            slot = _PAIR_PARTS[pair].index(blown)
            live[pair] = {e for e in live[pair] if e[slot] not in dropped}
        remaining_blown = len(nbrs) - len(dropped)
        if not remaining_blown or not live[third_pair]:
            continue

        if remaining_blown >= size_threshold:
            # Packed K-masks resolve the color: query (i, j) is in a
            # triangle iff (i, j) is alive and some k has both (i, k) and
            # (j, k) alive.
            k_of_i, k_of_j = ([0] * n for n in g.part_sizes[:2])
            for i, k in live["IK"]:
                k_of_i[i] |= 1 << k
            for j, k in live["JK"]:
                k_of_j[j] |= 1 << k
            for (i, j) in live["IJ"]:
                if k_of_i[i] & k_of_j[j]:
                    answers[(i, j)] = True
            continue

        # Compact the residue onto the vertices its edges touch and queue it
        # for the combined instance.
        cells = {p: tuple(np.array(list(live[p]), np.intp).reshape(-1, 2).T)
                 for p in _PAIRS}
        support = [sorted({x for p in _PAIRS if part in _PAIR_PARTS[p] for x
                           in cells[p][_PAIR_PARTS[p].index(part)].tolist()})
                   for part in range(3)]
        compact = {p: tuple(np.searchsorted(support[part], ends) for part, ends
                            in zip(_PAIR_PARTS[p], cells[p])) for p in _PAIRS}
        sizes = tuple(len(part) for part in support)
        grids = _colored_grids(sizes, {p: (*compact[p], 0) for p in _PAIRS})
        combine_sources.append(
            ColoredValuedGraph._trusted(sizes, frozenset(), grids))
        combine_edge_maps.append(dict(zip(_listed(compact["IJ"]),
                                          _listed(cells["IJ"]))))

    if combine_sources:
        host = max(3 * (max(g.part_sizes) if isinf(size_threshold)
                        else int(size_threshold)),
                   *(sum(s.part_sizes) for s in combine_sources))
        combined = combine_sparse_into_mono(combine_sources, host,
                                            rng.child("combine"))
        decoded = solve_combined(combined, mono_solver)
        for per_source, back in zip(decoded, combine_edge_maps):
            answers.update((back[edge], True)
                           for edge, positive in per_source.items() if positive)
    return answers


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
    OR-ed) or a single two-sided case. ``degree_threshold`` bounds the
    neighbor-pair enumeration; blown parts of at least ``size_threshold``
    go through packed K-masks, everything else through one combined
    monochromatic instance handled by ``mono_solver``.
    """
    if g.value_sides == frozenset({"IJ", "JK", "IK"}):
        cases = split_cases(g)
    else:
        cases = {case_of(g): g}

    answers = {(u, v): False for u, v, _c, _val in g.edges_ij}
    for tag in sorted(cases):
        expanded = expand_values(cases[tag], tag)
        part_answers = _ae_mono_on_expansion(
            expanded.graph, CASE_BLOWN_PART[tag], degree_threshold,
            size_threshold, mono_solver, rng.child("case", tag))
        for edge, image in expanded.edge_map.items():
            if part_answers.get(image, False):
                answers[edge] = True
    return answers
