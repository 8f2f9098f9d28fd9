"""Domain types shared by every solver and reduction.

All types are frozen dataclasses. Values are validated at the boundary:
``textio.parse``, the generators and the public constructors check every
invariant, so a value built there satisfies them. Internal derivations of
validated data skip the checks through ``_trusted``: tripartite copies that
are restricted, reduced or re-weighted, and the colored graphs of the
product searches and of the monoeq case split, value expansion and combine
step. A trusted colored graph may carry the dense (presence, colour, value)
arrays per pair that the colored oracles read. The caller guarantees that
they equal what the edges imply (colours and values are read on present
cells only) and that each edge list runs row-major over its present cells.
Equality, hashing, repr and text output see only the fields.

Vertex indices are 0-based within each part; triangles are always reported in
part order (A, B, C) or (I, J, K).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

# Extreme values standing in for +/- infinity in integer matrices. A quarter
# of the signed 64-bit range, so the sum of any two finite-or-sentinel
# entries still fits in 64 bits (products add and compare, never multiply).
PLUS_INF = (1 << 63) // 4
MINUS_INF = -PLUS_INF

# Endpoint parts (by position 0/1/2 in part_sizes) for each pair name.
# Weighted graphs use AB/BC/CA; colored graphs use IJ/JK/IK. Edge tuples
# are keyed (first-part index, second-part index).
_PAIR_PARTS = {
    "AB": (0, 1), "BC": (1, 2), "CA": (2, 0),
    "IJ": (0, 1), "JK": (1, 2), "IK": (0, 2),
}


def _check_edges(pair: str, edges, part_sizes, arity: int) -> None:
    pu, pv = _PAIR_PARTS[pair]
    nu, nv = part_sizes[pu], part_sizes[pv]
    seen = set()
    for e in edges:
        if len(e) != arity:
            raise ValueError(f"{pair} edge {e!r}: expected {arity} fields")
        u, v = e[0], e[1]
        if not (0 <= u < nu and 0 <= v < nv):
            raise ValueError(f"{pair} edge ({u},{v}) out of range {nu}x{nv}")
        if (u, v) in seen:
            raise ValueError(f"duplicate {pair} edge ({u},{v})")
        seen.add((u, v))


@dataclass(frozen=True)
class TripartiteWeightedGraph:
    """Three vertex parts with integer-weighted edges between distinct parts.

    Edge lists hold (u, v, weight) with u indexing the pair's first part:
    AB edges go A->B, BC go B->C, CA go C->A. When ``weight_modulus`` is set
    the weights are residues in [0, modulus).
    """

    part_sizes: tuple[int, int, int]
    edges_ab: tuple[tuple[int, int, int], ...] = ()
    edges_bc: tuple[tuple[int, int, int], ...] = ()
    edges_ca: tuple[tuple[int, int, int], ...] = ()
    weight_modulus: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "part_sizes", tuple(self.part_sizes))
        if len(self.part_sizes) != 3 or any(s < 0 for s in self.part_sizes):
            raise ValueError("part_sizes must be three non-negative counts")
        object.__setattr__(self, "edges_ab", tuple(map(tuple, self.edges_ab)))
        object.__setattr__(self, "edges_bc", tuple(map(tuple, self.edges_bc)))
        object.__setattr__(self, "edges_ca", tuple(map(tuple, self.edges_ca)))
        for pair, edges in (("AB", self.edges_ab), ("BC", self.edges_bc),
                            ("CA", self.edges_ca)):
            _check_edges(pair, edges, self.part_sizes, 3)
        if self.weight_modulus is not None:
            if self.weight_modulus <= 0:
                raise ValueError("weight_modulus must be positive")
            for edges in (self.edges_ab, self.edges_bc, self.edges_ca):
                for u, v, w in edges:
                    if not 0 <= w < self.weight_modulus:
                        raise ValueError(
                            f"weight {w} outside [0, {self.weight_modulus})")

    @classmethod
    def _trusted(cls, part_sizes, edges_ab, edges_bc, edges_ca,
                 weight_modulus=None) -> "TripartiteWeightedGraph":
        """Build without validation; for graphs derived from a validated one.

        The caller guarantees what ``__post_init__`` would check: part_sizes
        is a tuple of three counts, each edge list is a tuple of (u, v, w)
        tuples with in-range, distinct endpoints, and every weight is a
        residue in [0, weight_modulus) when the modulus is set.
        """
        g = object.__new__(cls)
        g.__dict__.update(part_sizes=part_sizes, edges_ab=edges_ab,
                          edges_bc=edges_bc, edges_ca=edges_ca,
                          weight_modulus=weight_modulus)
        return g

    def edges(self, pair: str) -> tuple[tuple[int, int, int], ...]:
        return {"AB": self.edges_ab, "BC": self.edges_bc, "CA": self.edges_ca}[pair]

    @property
    def edge_count(self) -> int:
        return len(self.edges_ab) + len(self.edges_bc) + len(self.edges_ca)

    def max_abs_weight(self) -> int:
        best = 0
        for edges in (self.edges_ab, self.edges_bc, self.edges_ca):
            for _, _, w in edges:
                best = max(best, abs(w))
        return best


@dataclass(frozen=True)
class ColoredValuedGraph:
    """Tripartite graph with colored edges and values on designated pairs.

    ``value_sides`` names the part-pairs whose edges carry a value; an edge
    has a value exactly when its pair is listed there. Colors are opaque
    integers (composite colors use the injective pairing c*M + tag).
    """

    part_sizes: tuple[int, int, int]
    edges_ij: tuple[tuple[int, int, int, Optional[int]], ...] = ()
    edges_jk: tuple[tuple[int, int, int, Optional[int]], ...] = ()
    edges_ik: tuple[tuple[int, int, int, Optional[int]], ...] = ()
    value_sides: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "part_sizes", tuple(self.part_sizes))
        if len(self.part_sizes) != 3 or any(s < 0 for s in self.part_sizes):
            raise ValueError("part_sizes must be three non-negative counts")
        sides = frozenset(self.value_sides)
        if not sides <= {"IJ", "JK", "IK"}:
            raise ValueError(f"bad value_sides {sorted(sides)}")
        object.__setattr__(self, "value_sides", sides)
        object.__setattr__(self, "edges_ij", tuple(map(tuple, self.edges_ij)))
        object.__setattr__(self, "edges_jk", tuple(map(tuple, self.edges_jk)))
        object.__setattr__(self, "edges_ik", tuple(map(tuple, self.edges_ik)))
        for pair, edges in (("IJ", self.edges_ij), ("JK", self.edges_jk),
                            ("IK", self.edges_ik)):
            _check_edges(pair, edges, self.part_sizes, 4)
            valued = pair in sides
            for u, v, _c, val in edges:
                if valued and val is None:
                    raise ValueError(f"{pair} edge ({u},{v}) missing value")
                if not valued and val is not None:
                    raise ValueError(f"{pair} edge ({u},{v}) carries a value "
                                     "but the pair is not in value_sides")

    @classmethod
    def _trusted(cls, part_sizes, edges_ij, edges_jk, edges_ik, value_sides,
                 arrays=None) -> "ColoredValuedGraph":
        """Build without validation, like ``TripartiteWeightedGraph._trusted``;
        ``arrays`` is the (presence, colour, value) triple of dicts keyed by
        pair that ``oracles._colored_arrays`` would derive from the edges."""
        g = object.__new__(cls)
        g.__dict__.update(part_sizes=part_sizes, edges_ij=edges_ij,
                          edges_jk=edges_jk, edges_ik=edges_ik,
                          value_sides=value_sides)
        if arrays is not None:
            g.__dict__["_arrays"] = arrays
        return g

    def edges(self, pair: str) -> tuple[tuple[int, int, int, Optional[int]], ...]:
        return {"IJ": self.edges_ij, "JK": self.edges_jk, "IK": self.edges_ik}[pair]

    @property
    def edge_count(self) -> int:
        return len(self.edges_ij) + len(self.edges_jk) + len(self.edges_ik)


@dataclass(frozen=True)
class IntMatrix:
    """Dense rectangular integer matrix with +/- infinity sentinels.

    Entries are stored row-major as a flat tuple. Finite entries must stay
    strictly below the sentinel magnitude.
    """

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("rows and cols must be non-negative")
        object.__setattr__(self, "entries", tuple(self.entries))
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"entries length {len(self.entries)} != {self.rows}x{self.cols}")
        for e in self.entries:
            if abs(e) > PLUS_INF:
                raise ValueError(f"entry {e} exceeds the sentinel threshold")

    @staticmethod
    def from_rows(rows: "list[list[int]]") -> "IntMatrix":
        r = len(rows)
        c = len(rows[0]) if rows else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return IntMatrix(r, c, tuple(v for row in rows for v in row))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def to_rows(self) -> "list[list[int]]":
        return [list(self.entries[i * self.cols:(i + 1) * self.cols])
                for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows,
                         tuple(self.at(i, j)
                               for j in range(self.cols) for i in range(self.rows)))

    def negate(self) -> "IntMatrix":
        # Sentinels swap roles under negation.
        return IntMatrix(self.rows, self.cols, tuple(-e for e in self.entries))


@dataclass(frozen=True)
class SetFamilyInstance:
    """Universe, family of subsets, query pairs, optional global output cap."""

    universe_size: int
    family: tuple[tuple[int, ...], ...]
    queries: tuple[tuple[int, int], ...]
    output_cap: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "family",
                           tuple(tuple(s) for s in self.family))
        object.__setattr__(self, "queries",
                           tuple((int(a), int(b)) for a, b in self.queries))
        if self.universe_size < 0:
            raise ValueError("universe_size must be non-negative")
        for idx, members in enumerate(self.family):
            if len(set(members)) != len(members):
                raise ValueError(f"set {idx} has duplicate elements")
            for e in members:
                if not 0 <= e < self.universe_size:
                    raise ValueError(f"set {idx}: element {e} outside universe")
        for a, b in self.queries:
            if not (0 <= a < len(self.family) and 0 <= b < len(self.family)):
                raise ValueError(f"query ({a},{b}) indexes outside the family")
        if self.output_cap is not None and self.output_cap < 0:
            raise ValueError("output_cap must be >= 0 or None")
