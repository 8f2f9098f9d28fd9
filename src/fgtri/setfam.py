"""Set-family constructions from triangle instances.

The universe is the C part; each A-vertex and each B-vertex contributes its
C-neighborhood as a set (A-vertices occupy family slots [0, |A|),
B-vertices the next |B| slots); each A x B edge becomes one query. An edge
is in a triangle exactly when its two sets intersect, and the intersection
elements are the completing C-vertices, so listing round-trips through
set intersection with the same global cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .instances import SetFamilyInstance, Triangle, TripartiteWeightedGraph


@dataclass(frozen=True)
class SetDecodeMap:
    """Query order for decoding set answers back to per-edge answers."""

    edges: tuple[tuple[int, int], ...]

    def decode_disjointness(self, answers) -> dict[tuple[int, int], bool]:
        """Per A x B edge: in a triangle iff its query is NOT disjoint."""
        if len(answers) != len(self.edges):
            raise ValueError("answers do not align with the queries")
        return {edge: not disjoint
                for edge, disjoint in zip(self.edges, answers)}

    def decode_intersection(self, element_lists) -> dict[tuple[int, int], list[Triangle]]:
        """Per A x B edge: the triangles its intersection elements complete."""
        if len(element_lists) != len(self.edges):
            raise ValueError("answers do not align with the queries")
        return {(a, b): [(a, b, c) for c in elements]
                for (a, b), elements in zip(self.edges, element_lists)}


def _build(g: TripartiteWeightedGraph, output_cap: Optional[int]):
    # The sets are g's C-rows, A's then B's, each read in ascending order.
    rows_a, rows_b, mask = g.c_rows
    family = tuple(tuple(c for c in range(row.bit_length()) if row >> c & 1)
                   for row in [r & mask for r in rows_a + rows_b])
    edges = tuple(sorted((a, b) for a, b, _w in g.edges_ab))
    queries = tuple((a, len(rows_a) + b) for a, b in edges)
    return (SetFamilyInstance(g.part_sizes[2], family, queries, output_cap),
            SetDecodeMap(edges))


def sparse_triangle_to_set_disjointness(
    g: TripartiteWeightedGraph,
) -> tuple[SetFamilyInstance, SetDecodeMap]:
    """All-edges triangle detection as batched set disjointness."""
    return _build(g, None)


def listing_to_set_intersection(
    g: TripartiteWeightedGraph,
    global_cap: Optional[int],
) -> tuple[SetFamilyInstance, SetDecodeMap]:
    """Globally-capped triangle listing as batched set intersection."""
    return _build(g, global_cap)
