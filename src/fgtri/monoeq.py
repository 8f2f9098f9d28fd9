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
expands label triples into ordinary instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isinf
from typing import Callable, Optional

from .instances import _PAIR_PARTS, ColoredValuedGraph
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
    out = {}
    for tag in CASE_TAGS:
        sides = CASE_VALUE_SIDES[tag]
        kwargs = {}
        for pair, attr in (("IJ", "edges_ij"), ("JK", "edges_jk"),
                           ("IK", "edges_ik")):
            keep = pair in sides
            kwargs[attr] = tuple(
                (u, v, c, val if keep else None)
                for u, v, c, val in g.edges(pair))
        out[tag] = ColoredValuedGraph._trusted(g.part_sizes, value_sides=sides,
                                               **kwargs)
    return out


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
    valued_pairs = CASE_VALUE_SIDES[tag]

    # Position of the blown part inside each valued pair's (u, v) key.
    copies = set()
    for pair in valued_pairs:
        slot = _PAIR_PARTS[pair].index(blown)
        for e in g.edges(pair):
            copies.add((e[slot], e[3]))
    vertex_map = {kv: idx for idx, kv in enumerate(sorted(copies))}

    sizes = list(g.part_sizes)
    sizes[blown] = len(vertex_map)

    def rewritten(pair):
        edges = g.edges(pair)
        if pair not in valued_pairs:
            return tuple((u, v, c, None) for u, v, c, _ in edges)
        slot = _PAIR_PARTS[pair].index(blown)
        out = []
        for e in edges:
            u, v, c, val = e
            key = (e[slot], val)
            if slot == 0:
                out.append((vertex_map[key], v, c, None))
            else:
                out.append((u, vertex_map[key], c, None))
        return tuple(out)

    graph = ColoredValuedGraph._trusted(
        tuple(sizes), rewritten("IJ"), rewritten("JK"), rewritten("IK"),
        frozenset())

    edge_map = {}
    for u, v, _c, val in g.edges_ij:
        if tag == "A":
            edge_map[(u, v)] = (u, v)
        elif tag == "B":
            edge_map[(u, v)] = (u, vertex_map[(v, val)])
        else:
            edge_map[(u, v)] = (vertex_map[(u, val)], v)
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


def _flatten_vertex(part_sizes, part, idx) -> int:
    return idx + sum(part_sizes[:part])


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

    for attempt in range(max_retries):
        perms = []
        placed: dict[tuple[int, int], list] = {}
        for q, inst in enumerate(instances):
            perm = rng.child("perm", attempt, q).permutation(host_size)
            perms.append(perm)
            for pair in ("IJ", "JK", "IK"):
                pu, pv = _PAIR_PARTS[pair]
                for u, v, _c, _val in inst.edges(pair):
                    x = perm[_flatten_vertex(inst.part_sizes, pu, u)]
                    y = perm[_flatten_vertex(inst.part_sizes, pv, v)]
                    key = (x, y) if x < y else (y, x)
                    placed.setdefault(key, []).append((q, pair, u, v))
        mult = max((len(v) for v in placed.values()), default=0)
        if mult <= max_label:
            break
    else:
        raise RuntimeError(
            f"multiplicity exceeded {max_label} in {max_retries} attempts")

    # One pass over the placed edges in host-pair order labels them, records
    # the I x J queries and buckets both orientations of each edge by label;
    # every label-triple instance then reads three buckets.
    parallel = []
    query_maps: list[dict] = [{} for _ in instances]
    by_label: list[list] = [[] for _ in range(mult + 1)]
    for key in sorted(placed):
        edges = tuple((lab + 1, q, pair, u, v)
                      for lab, (q, pair, u, v) in enumerate(sorted(placed[key])))
        parallel.append((key, edges))
        for label, q, pair, u, v in edges:
            by_label[label] += [(key[0], key[1], q, None),
                                (key[1], key[0], q, None)]
            if pair == "IJ":
                inst = instances[q]
                x = perms[q][_flatten_vertex(inst.part_sizes, 0, u)]
                y = perms[q][_flatten_vertex(inst.part_sizes, 1, v)]
                query_maps[q][(u, v)] = (label, x, y)

    # The L^3 instances skip validation: endpoints are perm positions below
    # host_size, distinct as they flatten vertices of distinct parts, and a
    # bucket is duplicate-free because a host pair gives each of its edges a
    # distinct label, so a bucket holds the pair at most once per direction.
    buckets = [tuple(edges) for edges in by_label]
    sizes, no_values = (host_size, host_size, host_size), frozenset()
    built = []
    for li in range(1, mult + 1):
        for lj in range(1, mult + 1):
            for lk in range(1, mult + 1):
                built.append(((li, lj, lk), ColoredValuedGraph._trusted(
                    sizes, buckets[li], buckets[lj], buckets[lk],
                    no_values)))

    return CombinedMonoInstance(
        host_size, max_label, mult, tuple(parallel),
        tuple(built), tuple(query_maps))


def solve_combined(
    combined: CombinedMonoInstance, mono_solver: MonoSolver,
) -> list[dict[tuple[int, int], bool]]:
    answers = [mono_solver(g) for _triple, g in combined.instances]
    return combined.decode(answers)


def _color_subgraphs(g: ColoredValuedGraph):
    """color -> {pair -> set of (u, v)} for the three part-pairs."""
    by_color: dict = {}
    for pair in ("IJ", "JK", "IK"):
        for u, v, color, _val in g.edges(pair):
            by_color.setdefault(color, {"IJ": set(), "JK": set(), "IK": set()})
            by_color[color][pair].add((u, v))
    return by_color


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
    answers = {(u, v): False for u, v, _c, _val in g.edges_ij}
    ni, nj, nk = g.part_sizes

    # Which pairs touch the blown part, and the blown slot in their keys.
    touching = [p for p in ("IJ", "JK", "IK") if blown in _PAIR_PARTS[p]]
    third_pair = next(p for p in ("IJ", "JK", "IK") if p not in touching)

    combine_sources: list[ColoredValuedGraph] = []
    combine_edge_maps: list[dict] = []

    split = _color_subgraphs(g)
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
                        qe = query_edge(x, u1, u2)
                        if qe in answers:
                            answers[qe] = True
            dropped.add(x)
        for pair in touching:
            slot = _PAIR_PARTS[pair].index(blown)
            live[pair] = {e for e in live[pair] if e[slot] not in dropped}

        remaining_blown = set()
        for pair in touching:
            slot = _PAIR_PARTS[pair].index(blown)
            remaining_blown.update(e[slot] for e in live[pair])
        if not remaining_blown or not live[third_pair]:
            continue

        if len(remaining_blown) >= size_threshold:
            # Packed K-masks resolve the color: query (i, j) is in a
            # triangle iff (i, j) is alive and some k has both (i, k) and
            # (j, k) alive.
            k_of_i, k_of_j = [0] * ni, [0] * nj
            for i, k in live["IK"]:
                k_of_i[i] |= 1 << k
            for j, k in live["JK"]:
                k_of_j[j] |= 1 << k
            for (i, j) in live["IJ"]:
                if k_of_i[i] & k_of_j[j] and (i, j) in answers:
                    answers[(i, j)] = True
            continue

        # Compact the residue and queue it for the combined instance.
        support = [sorted({e[0] for e in live["IJ"]} | {e[0] for e in live["IK"]}),
                   sorted({e[1] for e in live["IJ"]} | {e[0] for e in live["JK"]}),
                   sorted({e[1] for e in live["JK"]} | {e[1] for e in live["IK"]})]
        remap = [
            {orig: new for new, orig in enumerate(part)} for part in support
        ]
        src = ColoredValuedGraph._trusted(
            (len(support[0]), len(support[1]), len(support[2])),
            tuple((remap[0][u], remap[1][v], 0, None) for u, v in sorted(live["IJ"])),
            tuple((remap[1][u], remap[2][v], 0, None) for u, v in sorted(live["JK"])),
            tuple((remap[0][u], remap[2][v], 0, None) for u, v in sorted(live["IK"])),
            frozenset())
        combine_sources.append(src)
        combine_edge_maps.append(
            {(remap[0][u], remap[1][v]): (u, v) for u, v in live["IJ"]})

    if combine_sources:
        if isinf(size_threshold):
            host = max(3 * max(ni, nj, nk),
                       max(sum(s.part_sizes) for s in combine_sources))
        else:
            host = 3 * int(size_threshold)
            host = max(host, max(sum(s.part_sizes) for s in combine_sources))
        combined = combine_sparse_into_mono(combine_sources, host,
                                            rng.child("combine"))
        decoded = solve_combined(combined, mono_solver)
        for per_source, back in zip(decoded, combine_edge_maps):
            for edge, positive in per_source.items():
                if positive:
                    orig = back[edge]
                    if orig in answers:
                        answers[orig] = True
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
