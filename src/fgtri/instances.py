"""Domain types shared by every solver and reduction, and the names that
several layers read: ``Triangle``, ``ceil_log2``, the colored solvers'
answer type ``GridAnswers``, the weighted and colored pair orders, the
parts each pair joins and the two-sided equality cases' value sides.

The domain types are frozen dataclasses. Values are validated at the boundary:
``textio.parse``, the generators and the public constructors check every
invariant, so a value built there satisfies them. Internal derivations of
validated data skip the checks through ``_trusted``: tripartite copies that
are reduced or re-weighted, the colored graphs of the product searches and
of the monoeq case split, value expansion and combine step, and the matrices
that negation, transposition and the product reductions derive. A colored
graph has one internal form, its dense (presence, colour, value) grids per
pair, which the colored oracles read. The validating constructor checks
the edge tuples once, keeps them, and builds the grids once, read-only;
colours and values must fit in 64 bits. ``_trusted`` takes grids only,
and derives the edge tuples on first read, row-major over the present
cells, so an instance that only reaches an oracle never builds them. An
integer matrix keeps one read-only int64 grid likewise and derives
``entries`` from it on first read. A tripartite graph carries its packed
C-rows in one form, ``c_rows = (rows_a, rows_b, mask)``: per A-vertex the
C-bits of its CA edges, per B-vertex those of its BC edges, and the C-mask
that every reader ANDs where it reads; derived on first read.
A C-restriction (``_trusted_restriction``) is O(1): it stores its source's
row tuples with one composed C-mask, and derives its BC and CA tuples (by
filtering its parent's) only on first read, so the listing reduction's
many restricted graphs copy no row and no edge tuple unless a reader asks.
Equality, hashing, repr and text output see only the fields.

Vertex indices are 0-based within each part; triangles are always reported in
part order (A, B, C) or (I, J, K).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from numbers import Integral
from operator import index
from typing import Optional

import numpy as np


class UsageFailure(ValueError):
    """An argument or instance that the callee does not accept: the
    caller's mistake, not a fault inside. The CLI reports it as exit 2."""


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

# The weighted pairs in field and text order, the colored pairs in field,
# text and probe-grid order, each pair's edge field, and each two-sided
# equality case's value sides: case A shares part K, B part J, C part I.
WEIGHTED_PAIRS = ("AB", "BC", "CA")
COLORED_PAIRS = ("IJ", "JK", "IK")
_WEIGHTED_FIELDS = {pair: f"edges_{pair.lower()}" for pair in WEIGHTED_PAIRS}
_COLORED_FIELDS = {pair: f"edges_{pair.lower()}" for pair in COLORED_PAIRS}
CASE_VALUE_SIDES = {tag: frozenset(sides) for tag, sides in (
    ("A", ("IK", "JK")), ("B", ("IJ", "JK")), ("C", ("IJ", "IK")))}

Triangle = tuple[int, int, int]


def ceil_log2(x: int) -> int:
    """Smallest t with 2^t >= x, for x >= 1."""
    if x < 1:
        raise ValueError("ceil_log2 needs x >= 1")
    return (x - 1).bit_length()


def _is_int(x) -> bool:
    """Whether x is an integer and not a bool (``True`` would be written
    as text that ``parse`` rejects). The exact-type test comes first: the
    ABC test alone triples the cost."""
    return type(x) is int or isinstance(x, Integral) and type(x) is not bool


def _part_sizes(sizes) -> tuple:
    sizes = tuple(sizes)
    if len(sizes) != 3 or not all(_is_int(s) and s >= 0 for s in sizes):
        raise ValueError("part_sizes must be three non-negative integers")
    return tuple(map(int, sizes))


def _check_edges(pair: str, edges, part_sizes, arity: int) -> bool:
    """Check each edge; return whether every endpoint is already an int."""
    pu, pv = _PAIR_PARTS[pair]
    nu, nv = part_sizes[pu], part_sizes[pv]
    seen = set()
    plain = True
    for e in edges:
        if len(e) != arity:
            raise ValueError(f"{pair} edge {e!r}: expected {arity} fields")
        u, v = e[0], e[1]
        plain = plain and type(u) is int and type(v) is int
        if not ((plain or _is_int(u) and _is_int(v))
                and 0 <= u < nu and 0 <= v < nv):
            raise ValueError(f"{pair} edge ({u!r},{v!r}) is not an integer "
                             f"pair in range {nu}x{nv}")
        if (u, v) in seen:
            raise ValueError(f"duplicate {pair} edge ({u},{v})")
        seen.add((u, v))
    return plain


class _Derived:
    """A field that an instance built without it derives on first read,
    through its class's ``_derive(name)``, and keeps in its ``__dict__``,
    which later reads find first."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return ()  # the field's default
        value = obj.__dict__[self.name] = obj._derive(self.name)
        return value


@dataclass(frozen=True)
class TripartiteWeightedGraph:
    """Three vertex parts with integer-weighted edges between distinct parts.

    Edge lists hold (u, v, weight) with u indexing the pair's first part:
    AB edges go A->B, BC go B->C, CA go C->A. When ``weight_modulus`` is set
    the weights are residues in [0, modulus).
    """

    part_sizes: tuple[int, int, int]
    edges_ab: tuple[tuple[int, int, int], ...] = ()
    edges_bc: tuple[tuple[int, int, int], ...] = _Derived()
    edges_ca: tuple[tuple[int, int, int], ...] = _Derived()
    weight_modulus: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "part_sizes", _part_sizes(self.part_sizes))
        modulus = self.weight_modulus
        if not (modulus is None or _is_int(modulus) and modulus > 0):
            raise ValueError("weight_modulus must be a positive integer")
        if modulus is not None:
            object.__setattr__(self, "weight_modulus", modulus := int(modulus))
        for pair, field in _WEIGHTED_FIELDS.items():
            edges = tuple(map(tuple, getattr(self, field)))
            plain = _check_edges(pair, edges, self.part_sizes, 3)
            for u, v, w in edges:  # weights are unbounded without a modulus
                plain = plain and type(w) is int
                if not ((plain or _is_int(w))
                        and (modulus is None or 0 <= w < modulus)):
                    raise ValueError(f"{pair} edge ({u},{v}): weight {w!r} is "
                                     "not an integer" + ("" if modulus is None
                                     else f" in [0, {modulus})"))
            object.__setattr__(self, field, edges if plain else tuple(
                tuple(map(int, e)) for e in edges))

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

    @classmethod
    def _trusted_restriction(cls, g, keep_mask: int,
                             edges_ab=None) -> "TripartiteWeightedGraph":
        """g without the BC and CA edges whose C endpoint is outside
        ``keep_mask``, and with only ``edges_ab`` (a subset of g's, in g's
        order) of its AB edges when given; a subset of g's edges keeps g's
        invariants, so nothing is re-validated.

        O(1): the restriction's ``c_rows`` are g's row tuples themselves
        with g's mask ANDed with ``keep_mask``. Its ``__dict__`` holds no
        ``edges_bc`` or ``edges_ca``, only g and the mask, from which
        ``_derive`` filters g's tuples on first read.
        """
        rows_a, rows_b, mask = g.c_rows
        sub = object.__new__(cls)
        sub.__dict__.update(
            part_sizes=g.part_sizes,
            edges_ab=g.edges_ab if edges_ab is None else edges_ab,
            weight_modulus=g.weight_modulus,
            c_rows=(rows_a, rows_b, mask & keep_mask),
            _restricted=(g, keep_mask))
        return sub

    def _derive(self, name):
        # Only a C-restriction lacks the field: its parent's, in order, cut
        # to the C endpoints in its mask.
        parent, mask = self.__dict__["_restricted"]
        at = 1 if name == "edges_bc" else 0
        return tuple(e for e in getattr(parent, name) if mask >> e[at] & 1)

    @cached_property
    def c_rows(self) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """Packed C-rows (rows_a, rows_b, mask): per A-vertex the C-bits of
        its CA edges, per B-vertex those of its BC edges, and the C-mask
        that every reader ANDs with them. An unrestricted graph builds its
        rows (one OR per BC and CA edge) with the mask of all of C; a
        C-restriction keeps its source's rows, so no mask has a bit at or
        above |C|."""
        na, nb, nc = self.part_sizes
        rows_a, rows_b = [0] * na, [0] * nb
        for c, a, _w in self.edges_ca:
            rows_a[a] |= 1 << c
        for b, c, _w in self.edges_bc:
            rows_b[b] |= 1 << c
        return tuple(rows_a), tuple(rows_b), (1 << nc) - 1

    def edges(self, pair: str) -> tuple[tuple[int, int, int], ...]:
        return getattr(self, _WEIGHTED_FIELDS[pair])

    @property
    def edge_count(self) -> int:
        # One row bit per BC and CA edge (no edge is repeated), so a
        # C-restriction counts without deriving its tuples.
        rows_a, rows_b, mask = self.c_rows
        return len(self.edges_ab) + sum(
            (r & mask).bit_count() for r in rows_a + rows_b)

    def max_abs_weight(self) -> int:
        return max((abs(w) for pair in WEIGHTED_PAIRS
                    for _u, _v, w in self.edges(pair)), default=0)


def _int64(x) -> bool:
    return _is_int(x) and -(1 << 63) <= x < 1 << 63


def _colored_grids(part_sizes, cells, values=None):
    """Read-only (presence, colour, value) grids, dicts by pair. Pair p has
    an edge at each cell (us[e], vs[e]) of cells[p] = (us, vs, colours), of
    colour colours[e] or one colour for all, and value values[p][e] or 0."""
    grids = ({}, {}, {})
    for pair, (us, vs, colors) in cells.items():
        pu, pv = _PAIR_PARTS[pair]
        for by_pair, dtype, fill in zip(grids, (bool, np.int64, np.int64),
                                        (True, colors, (values or {}).get(pair))):
            grid = by_pair[pair] = np.zeros((part_sizes[pu], part_sizes[pv]),
                                            dtype)
            if len(us) and fill is not None:
                grid[us, vs] = fill
            grid.flags.writeable = False
    return grids


def _colored_arrays(g: "ColoredValuedGraph"):
    """g's (presence, colour, value) grids, dicts by pair."""
    return g.__dict__["_arrays"]


def _listed(cells):
    """The (row, column) pairs of a pair of index arrays."""
    return list(zip(*(c.tolist() for c in cells)))


@dataclass(frozen=True)
class ColoredValuedGraph:
    """Tripartite graph with colored edges and values on designated pairs.

    ``value_sides`` names the part-pairs whose edges carry a value; an edge
    has a value exactly when its pair is listed there. Colors are opaque
    64-bit integers (the product searches' composite colours are
    (c << w) + tag, for tags below 2^w), and so are values.
    """

    part_sizes: tuple[int, int, int]
    edges_ij: tuple[tuple[int, int, int, Optional[int]], ...] = _Derived()
    edges_jk: tuple[tuple[int, int, int, Optional[int]], ...] = _Derived()
    edges_ik: tuple[tuple[int, int, int, Optional[int]], ...] = _Derived()
    value_sides: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "part_sizes", _part_sizes(self.part_sizes))
        sides = frozenset(self.value_sides)
        if not sides <= set(COLORED_PAIRS):
            raise ValueError(f"bad value_sides {sorted(sides)}")
        object.__setattr__(self, "value_sides", sides)
        cells, values = {}, {}
        for pair, field in _COLORED_FIELDS.items():
            edges = tuple(map(tuple, getattr(self, field)))
            object.__setattr__(self, field, edges)
            _check_edges(pair, edges, self.part_sizes, 4)
            valued = pair in sides
            for u, v, c, val in edges:
                if (val is None) == valued:
                    raise ValueError(f"{pair} edge ({u},{v}) " + (
                        "missing value" if valued else
                        "carries a value but the pair is not in value_sides"))
                if not (_int64(c) and (val is None or _int64(val))):
                    raise ValueError(f"{pair} edge ({u},{v}): color {c!r} or "
                                     f"value {val!r} is not a 64-bit integer")
            us, vs, colors, vals = zip(*edges) if edges else ((),) * 4
            cells[pair] = (us, vs, colors)
            if valued:
                values[pair] = vals
        object.__setattr__(self, "_arrays",
                           _colored_grids(self.part_sizes, cells, values))

    @classmethod
    def _trusted(cls, part_sizes, value_sides, grids) -> "ColoredValuedGraph":
        """Build without validation, like ``TripartiteWeightedGraph._trusted``,
        from ``grids``: the (presence, colour, value) dicts by pair that the
        validating constructor builds and the colored oracles read. Values
        are read on the pairs in ``value_sides`` only, colours and values on
        present cells only; the edge fields are derived on first read."""
        g = object.__new__(cls)
        g.__dict__.update(part_sizes=part_sizes, value_sides=value_sides,
                          _arrays=grids)
        return g

    def _derive(self, name):
        # Row-major over the present cells of the pair's grids.
        pair = name[-2:].upper()
        pres, col, val = (grids[pair] for grids in self.__dict__["_arrays"])
        us, vs = pres.nonzero()
        vals = (val[us, vs].tolist() if pair in self.value_sides
                else repeat(None))
        return tuple(zip(us.tolist(), vs.tolist(), col[us, vs].tolist(), vals))

    def edges(self, pair: str) -> tuple[tuple[int, int, int, Optional[int]], ...]:
        return getattr(self, _COLORED_FIELDS[pair])

    @property
    def edge_count(self) -> int:
        return len(self.edges_ij) + len(self.edges_jk) + len(self.edges_ik)


class GridAnswers(Mapping):
    """Per-edge answers of a colored solver: (pair, u, v) -> bool over g's
    edges, IJ, IK then JK, each in edge order. ``pres`` and ``hits`` map
    each pair to g's presence grid and to a Boolean grid of answers that is
    False off the present cells."""

    def __init__(self, g: ColoredValuedGraph, pres: dict, hits: dict):
        self._g, self._pres, self.hits = g, pres, hits

    def __getitem__(self, key):
        try:  # index() keeps a bool a cell number, not a numpy mask
            pair, u, v = key
            grid, i, j = self.hits[pair], index(u), index(v)
        except (TypeError, ValueError, KeyError):
            raise KeyError(key) from None
        if (0 <= i < grid.shape[0] and 0 <= j < grid.shape[1]
                and self._pres[pair][i, j]):
            return bool(grid[i, j])
        raise KeyError(key)

    def __iter__(self):
        for pair in ("IJ", "IK", "JK"):
            for e in self._g.edges(pair):
                yield pair, e[0], e[1]

    def __len__(self):
        return sum(map(np.count_nonzero, self._pres.values()))


@dataclass(frozen=True)
class IntMatrix:
    """Dense rectangular integer matrix with +/- infinity sentinels.

    Stored as a read-only rows x cols int64 grid; ``entries`` is its
    row-major tuple. Entries must be integers, and finite ones must stay
    strictly below the sentinel magnitude.
    """

    rows: int
    cols: int
    entries: tuple[int, ...] = _Derived()

    def __post_init__(self):
        if not all(_is_int(n) and n >= 0 for n in (self.rows, self.cols)):
            raise ValueError("rows and cols must be non-negative integers")
        object.__setattr__(self, "entries", tuple(self.entries))
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"entries length {len(self.entries)} != {self.rows}x{self.cols}")
        for e in self.entries:
            if not (_int64(e) and abs(e) <= PLUS_INF):
                raise ValueError(f"entry {e!r} is not an integer within the "
                                 "sentinels")
        grid = np.array(self.entries, np.int64).reshape(self.rows, self.cols)
        grid.flags.writeable = False
        object.__setattr__(self, "_grid", grid)

    @classmethod
    def _trusted(cls, grid) -> "IntMatrix":
        """Build without validation, like ``TripartiteWeightedGraph._trusted``,
        for matrices derived from validated ones: the caller guarantees that
        ``grid`` is a 2-D int64 array within the sentinels, and hands it
        over; it is made read-only. ``entries`` is derived on first read."""
        grid.flags.writeable = False
        m = object.__new__(cls)
        m.__dict__.update(rows=grid.shape[0], cols=grid.shape[1], _grid=grid)
        return m

    def _derive(self, name):
        return tuple(self._grid.ravel().tolist())

    def to_rows(self) -> "list[list[int]]":
        return self._grid.tolist()

    def transpose(self) -> "IntMatrix":
        return IntMatrix._trusted(self._grid.T)

    def negate(self) -> "IntMatrix":
        # Sentinels swap roles under negation.
        return IntMatrix._trusted(-self._grid)


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
        queries = tuple(map(tuple, self.queries))
        if not (_is_int(self.universe_size) and self.universe_size >= 0):
            raise ValueError("universe_size must be a non-negative integer")
        for idx, members in enumerate(self.family):
            if len(set(members)) != len(members):
                raise ValueError(f"set {idx} has duplicate elements")
            for e in members:
                if not (_is_int(e) and 0 <= e < self.universe_size):
                    raise ValueError(f"set {idx}: element {e!r} is not an "
                                     "integer in the universe")
        for a, b in queries:
            if not all(_is_int(x) and 0 <= x < len(self.family) for x in (a, b)):
                raise ValueError(f"query ({a!r},{b!r}) is not a pair of "
                                 "family indices")
        object.__setattr__(self, "queries",
                           tuple((int(a), int(b)) for a, b in queries))
        cap = self.output_cap
        if not (cap is None or _is_int(cap) and cap >= 0):
            raise ValueError("output_cap must be a non-negative integer or None")
