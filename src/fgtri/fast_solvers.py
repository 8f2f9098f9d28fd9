"""Bit-packed Boolean matrix multiplication and the degree-split triangle
solvers that consume it.

The matmul kernel is word-parallel cubic: each row is one packed bit
integer, and a product row is the OR of the second factor's rows selected
by the first factor's set bits. Rectangular shapes go through the same
kernel. The two fast solvers split work between neighbor-pair enumeration
(low-degree vertices) and this kernel (the dense residue); their contract
is exact agreement with the brute-force oracles for every threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from operator import itemgetter

from .instances import ColoredValuedGraph, TripartiteWeightedGraph

_endpoints = itemgetter(0, 1)  # (u, v, ...) edge -> (u, v)

# Degree thresholds are ints, except math.inf meaning "everything is low
# degree"; None picks a solver-specific default where one exists.


@dataclass(frozen=True)
class BitMatrix:
    """Row-major packed Boolean matrix; row i is one arbitrary-width integer
    whose bit j is entry (i, j). Bits at column cols and beyond are zero."""

    rows: int
    cols: int
    row_words: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("rows and cols must be non-negative")
        object.__setattr__(self, "row_words", tuple(self.row_words))
        if len(self.row_words) != self.rows:
            raise ValueError("need exactly one packed word per row")
        limit = 1 << self.cols
        for i, word in enumerate(self.row_words):
            if word < 0 or word >= limit:
                raise ValueError(f"row {i} has padding bits set")

    @staticmethod
    def zeros(rows: int, cols: int) -> "BitMatrix":
        return BitMatrix(rows, cols, (0,) * rows)

    @staticmethod
    def identity(n: int) -> "BitMatrix":
        return BitMatrix(n, n, tuple(1 << i for i in range(n)))

    @staticmethod
    def from_entries(rows: int, cols: int, ones) -> "BitMatrix":
        words = [0] * rows
        for i, j in ones:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"bit ({i},{j}) out of range")
            words[i] |= 1 << j
        return BitMatrix(rows, cols, tuple(words))

    def get(self, i: int, j: int) -> bool:
        return bool((self.row_words[i] >> j) & 1)


def bool_matmul(x: BitMatrix, y: BitMatrix) -> BitMatrix:
    """(xy)[i][j] = OR over k of x[i][k] AND y[k][j]."""
    if x.cols != y.rows:
        raise ValueError(f"inner dimensions differ: {x.cols} vs {y.rows}")
    y_rows = y.row_words
    out = []
    for word in x.row_words:
        acc = 0
        w = word
        while w:
            k = (w & -w).bit_length() - 1
            w &= w - 1
            acc |= y_rows[k]
        out.append(acc)
    return BitMatrix(x.rows, y.cols, tuple(out))


def ae_sparse_triangle_fast(
    g: TripartiteWeightedGraph,
    degree_threshold=None,
) -> dict[tuple[int, int], bool]:
    """Heavy/light answer to the all-edges triangle question on A x B edges.

    C-vertices of degree at most the threshold are resolved by enumerating
    their neighbor pairs; the heavy rest goes through one Boolean matrix
    product restricted to heavy columns. Threshold defaults to
    ceil(sqrt(m)); math.inf forces pure enumeration and 0 pure matmul.

    Both halves work on packed rows: hits[a] collects the B-vertices b for
    which some C-vertex closes a-b into a triangle. A light c adds
    ab_bits[a] & b_bits[c] for each of its A-neighbors a, which enumerates
    its neighbor pairs a word at a time; the matmul rows add the heavy ones.
    """
    na, nb, nc = g.part_sizes
    m = g.edge_count
    if degree_threshold is None:
        degree_threshold = isqrt(max(m - 1, 0)) + 1 if m else 1

    b_bits = [0] * nc  # per c: adjacent b's (via BC)
    degree = [0] * nc
    for b, c, _w in g.edges_bc:
        b_bits[c] |= 1 << b
        degree[c] += 1
    for c, _a, _w in g.edges_ca:
        degree[c] += 1
    ab_bits = [0] * na  # per a: adjacent b's (via AB)
    for a, b, _w in g.edges_ab:
        ab_bits[a] |= 1 << b

    heavy = [c for c in range(nc) if degree[c] > degree_threshold]
    column = [-1] * nc  # heavy c -> its matmul column; -1 for light c
    for h, c in enumerate(heavy):
        column[c] = h
    hits = [0] * na
    x_rows = [0] * na
    for c, a, _w in g.edges_ca:
        h = column[c]
        if h < 0:
            hits[a] |= ab_bits[a] & b_bits[c]
        else:
            x_rows[a] |= 1 << h

    if heavy:
        y_rows = [b_bits[c] for c in heavy]
        paths = bool_matmul(BitMatrix(na, len(heavy), x_rows),
                            BitMatrix(len(heavy), nb, y_rows))
        for a, row in enumerate(paths.row_words):
            hits[a] |= row & ab_bits[a]
    # Keys in edges_ab order; hits[a] only holds b's of AB edges.
    answers = dict.fromkeys(map(_endpoints, g.edges_ab), False)
    for a, row in enumerate(hits):
        while row:
            low = row & -row
            answers[(a, low.bit_length() - 1)] = True
            row ^= low
    return answers


def _color_subgraphs(g: ColoredValuedGraph):
    """color -> {pair -> set of (u, v)} for the three part-pairs."""
    by_color: dict = {}
    for pair in ("IJ", "JK", "IK"):
        for u, v, color, _val in g.edges(pair):
            by_color.setdefault(color, {"IJ": set(), "JK": set(), "IK": set()})
            by_color[color][pair].add((u, v))
    return by_color


def ae_mono_triangle_fast(
    g: ColoredValuedGraph,
    degree_threshold,
) -> dict[tuple[str, int, int], bool]:
    """Per-color low-degree cascade plus Boolean matmul on the residue.

    Within each color class, vertices of degree <= degree_threshold get
    their neighbor pairs enumerated and are then deleted (repeatedly, since
    deletions lower other degrees); Boolean matrix products resolve the
    leftover dense subgraph. Answers equal the brute oracle's for every
    threshold choice.
    """
    answers: dict[tuple[str, int, int], bool] = {}
    for pair in ("IJ", "JK", "IK"):
        for u, v, _c, _val in g.edges(pair):
            answers[(pair, u, v)] = False

    def mark(i: int, j: int, k: int) -> None:
        answers[("IJ", i, j)] = True
        answers[("JK", j, k)] = True
        answers[("IK", i, k)] = True

    # Vertices are (part, index) with parts 0=I, 1=J, 2=K. The pair name and
    # key orientation for an edge between two parts:
    pair_of = {(0, 1): "IJ", (1, 2): "JK", (0, 2): "IK"}

    subgraphs = _color_subgraphs(g)
    for color in sorted(subgraphs):
        edges = subgraphs[color]
        adj: dict = {}

        def link(pu, u, pv, v):
            adj.setdefault((pu, u), set()).add((pv, v))
            adj.setdefault((pv, v), set()).add((pu, u))

        for (u, v) in edges["IJ"]:
            link(0, u, 1, v)
        for (u, v) in edges["JK"]:
            link(1, u, 2, v)
        for (u, v) in edges["IK"]:
            link(0, u, 2, v)

        present = {"IJ": set(edges["IJ"]), "JK": set(edges["JK"]),
                   "IK": set(edges["IK"])}

        def has_edge(pu, u, pv, v) -> bool:
            if pu > pv:
                pu, u, pv, v = pv, v, pu, u
            return (u, v) in present[pair_of[(pu, pv)]]

        def triangle_of(vertices) -> tuple[int, int, int]:
            by_part = dict(vertices)
            return (by_part[0], by_part[1], by_part[2])

        # Low-degree cascade.
        while True:
            light = sorted(v for v, nb in adj.items()
                           if nb and len(nb) <= degree_threshold)
            if not light:
                break
            for v in light:
                nbrs = sorted(adj.get(v, ()))
                for idx, u in enumerate(nbrs):
                    for w in nbrs[idx + 1:]:
                        if u[0] != w[0] and u[0] != v[0] and w[0] != v[0] \
                                and has_edge(u[0], u[1], w[0], w[1]):
                            mark(*triangle_of((v, u, w)))
                # Delete v with all incident edges.
                for u in nbrs:
                    adj[u].discard(v)
                    pu, pv = sorted((u[0], v[0]))
                    key = (u[1], v[1]) if u[0] < v[0] else (v[1], u[1])
                    present[pair_of[(pu, pv)]].discard(key)
                adj[v] = set()

        res_ij = sorted(present["IJ"])
        res_jk = sorted(present["JK"])
        res_ik = sorted(present["IK"])
        if not (res_ij and res_jk and res_ik):
            continue

        ni, nj, nk = g.part_sizes
        x_ik = BitMatrix.from_entries(ni, nk, res_ik)
        x_ij = BitMatrix.from_entries(ni, nj, res_ij)
        y_jk = BitMatrix.from_entries(nj, nk, res_jk)
        y_kj = BitMatrix.from_entries(nk, nj, ((k, j) for j, k in res_jk))
        x_ji = BitMatrix.from_entries(nj, ni, ((j, i) for i, j in res_ij))

        p_ij = bool_matmul(x_ik, y_kj)   # i-k-j paths
        p_ik = bool_matmul(x_ij, y_jk)   # i-j-k paths
        p_jk = bool_matmul(x_ji, x_ik)   # j-i-k paths
        for (i, j) in res_ij:
            if p_ij.get(i, j):
                answers[("IJ", i, j)] = True
        for (i, k) in res_ik:
            if p_ik.get(i, k):
                answers[("IK", i, k)] = True
        for (j, k) in res_jk:
            if p_jk.get(j, k):
                answers[("JK", j, k)] = True
    return answers
