"""Parallel-binary-search reductions from matrix and monochromatic products
to monochromatic-equality triangle queries.

Every reduction first rank-compresses the participating values (order- and
equality-preserving, so comparisons transfer), then narrows each output
entry level by level in one skeleton, ``_bisect``: a level-l estimate is a
multiple of 2^l bracketing the true answer in [estimate, estimate + 2^l),
and one solver call per level decides which half survives. Each search
hands it a ``probe(level)`` that builds that level's instance. The
(min, =)/(max, =) matrix searches share ``_eq_product``; the <=-style
products split further by the highest differing bit of the compared pair
(``_by_highest_bit``), using filler tags -1/-2 that can never match.

Strictness without value shifts: rank r of the left matrix becomes 2r and
rank r of the right becomes 2r + 1, so "left <= right" is exactly "left
tag < right tag" and no sentinel ever needs incrementing.

Passing an ``instrument`` callable exposes the searches for verification:
a "start" event describes the discretized search space and a "level" event
per round carries the current estimates and active flags, as grids for the
matrix searches and as dicts keyed by I x J edge for the monochromatic ones
(test mode asserts the bracketing invariant against brute force). A start
event hands over the search's own grids, so an instrument only reads them.

Every instance is built from grids by ``_probe_graph``. A matrix search
makes its colour and value grids once; a monochromatic search starts from
g's own grids, its colours renumbered densely so that the composites
colour * bound + tag stay inside int64. A level's probe shifts them right
by the level and hands only grids to the solver, so no edge tuple is built
unless the solver reads one. Each level reads the hits at the live entries
in one pass: one index into a ``GridAnswers``' I x J grid.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .instances import (ColoredValuedGraph, IntMatrix, MINUS_INF, PLUS_INF,
                        _colored_arrays, _listed)
from .oracles import GridAnswers
from .zero_triangle import ceil_log2

MonoeqSolver = Callable[[ColoredValuedGraph], dict]      # AE-MonoEq triangle
MonoEqProductSolver = Callable[[ColoredValuedGraph], dict]  # MonoEq product
Instrument = Optional[Callable[[dict], None]]

_CASE_A = frozenset({"IK", "JK"})   # values on I x K and J x K
_CASE_B = frozenset({"IJ", "JK"})   # values on I x J and J x K
_PAIRS = ("IJ", "JK", "IK")


def composite_color(base, tag, tag_bound: int):
    """Injective pairing of base colors with bounded tags, elementwise."""
    if np.logical_or(tag < 0, tag >= tag_bound).any():
        raise ValueError(f"tag {tag} outside [0, {tag_bound})")
    return base * tag_bound + tag


def _joint_ranks(*value_iters):
    values = sorted({v for it in value_iters for v in it})
    return {v: r for r, v in enumerate(values)}, values


def _bisect(cells, est, levels, mode, probe, solver, key, on_level):
    """The one binary-search level loop, shared by every search here.

    The grid ``est`` holds, at each live entry of the index arrays
    ``cells``, a multiple of 2^levels at or below its answer; the final
    ones are returned keyed by entry. At each level the solver answers
    ``probe(level)``, keyed by ``key + entry``: whether the lower half of
    the entry's bracket holds a match (mode "min") or its upper half does
    (mode "max"). A min search that misses, or a max search that hits,
    moves into the upper half.
    """
    for level in range(levels - 1, -1, -1):
        answers = solver(probe(level))
        if key and isinstance(answers, GridAnswers):
            hits = answers.hits[key[0]][cells]
        else:
            hits = np.fromiter((answers.get(key + e) for e in zip(
                *(c.tolist() for c in cells))), bool, cells[0].size)
        est[tuple(c[hits != (mode == "min")] for c in cells)] += 1 << level
        if on_level is not None:
            on_level(level)
    return _at(cells, est)


def _cells(entries):
    """Row and column index arrays of a list of (row, column) entries."""
    return tuple(np.array(entries, np.intp).reshape(-1, 2).T)


def _probe_graph(part_sizes, sides, grids):
    """A trusted probe from (presence, colour, value) grids for IJ, JK and
    IK, value None on an unvalued pair; edges are derived only if read."""
    arrays = ({}, {}, {})
    for pair, (pres, col, val) in zip(_PAIRS, grids):
        for kind, grid in zip(arrays, (pres, col, val)):
            kind[pair] = np.zeros_like(col) if grid is None else grid
    return ColoredValuedGraph._trusted(part_sizes, sides, arrays)


def _levels(instrument, op, estimates, active):
    """Level events carrying ``estimates()`` and ``active()``: grids (0
    where inactive) for the matrix searches, dicts keyed by I x J edge for
    the monochromatic ones."""
    if instrument is None:
        return None
    return lambda level: instrument({
        "kind": "level", "op": op, "level": level,
        "estimates": estimates(), "active": active()})


def _at(cells, est):
    """The estimates at the live cells, keyed by (row, column)."""
    return dict(zip(zip(*(c.tolist() for c in cells)), est[cells].tolist()))


def _eq_product(a_grid, b_grid, mode, solver, instrument):
    """(min, =) or (max, =)-product of integer grids; None marks no match.
    ``b_grid`` has at least one row.

    Values become ranks (shifted up by one for max) and a padding column of
    A and row of B carry ``pad``, which matches everything: one rank beyond
    all values for min, zero (the floor) for max. An entry whose search
    lands on ``pad`` has no real match. The level-l instance colors edge
    (i, k) with a>>l, (j, k) with b>>l and (i, j) with the half being
    probed; values are the full numbers, so a positive answer means a full
    match inside that half.
    """
    rank, unrank = _joint_ranks(*a_grid, *b_grid)
    upper = int(mode == "max")
    pad = 0 if upper else len(unrank)
    a_vals = [[rank[v] + upper for v in row] + [pad] for row in a_grid]
    b_vals = [[rank[v] + upper for v in row] for row in b_grid]
    n_rows, inner, n_cols = len(a_vals), len(b_vals) + 1, len(b_vals[0])
    b_vals.append([pad] * n_cols)
    op = f"{mode}_eq"
    if instrument is not None:
        instrument({"kind": "start", "op": op, "mode": mode, "a_tag": a_vals,
                    "b_tag": b_vals, "pre_tag": None, "b_val": b_vals})
    ik = np.array(a_vals, np.int64).reshape(n_rows, inner)
    jk = np.array(b_vals, np.int64).reshape(inner, n_cols).T
    live = np.ones((n_rows, n_cols), bool)
    est = np.zeros(live.shape, np.int64)

    def probe(level):
        return _probe_graph((n_rows, n_cols, inner), _CASE_A, (
            (live, (est >> level) | upper, None),
            (np.ones(jk.shape, bool), jk >> level, jk),
            (np.ones(ik.shape, bool), ik >> level, ik)))

    _bisect(live.nonzero(), est, ceil_log2(len(unrank) + 1), mode, probe,
            solver, ("IJ",), _levels(instrument, op, est.tolist, live.tolist))
    return [[None if e == pad else unrank[e - upper] for e in row]
            for row in est.tolist()]


def min_eq_via_monoeq(
    a: IntMatrix, b: IntMatrix,
    monoeq_solver: MonoeqSolver,
    instrument: Instrument = None,
) -> IntMatrix:
    """Exact (min, =)-product through one equality-triangle call per level.

    A padding column/row guarantees every entry matches something, so the
    search always lands; entries that land on the padding decode to
    PLUS_INF.
    """
    if a.cols != b.rows:
        raise ValueError(f"inner dimensions differ: {a.cols} vs {b.rows}")
    if a.cols == 0:
        return IntMatrix(a.rows, b.cols, (PLUS_INF,) * (a.rows * b.cols))
    found = _eq_product(a.to_rows(), b.to_rows(), "min", monoeq_solver,
                        instrument)
    return IntMatrix(a.rows, b.cols, tuple(
        PLUS_INF if v is None else v for row in found for v in row))


def _by_highest_bit(a_vals, b_vals, mode, search):
    """The <=-products' outer loop over the highest differing bit.

    Ranks get parity tags (left 2r, right 2r + 1), and left tag < right tag
    exactly when the left tag has a 0 and the right tag a 1 at their
    highest differing bit. Each bit handles the pairs that first differ
    there: tags are cut to the bits above it, and entries whose own bit is
    wrong get the fillers -1 (left) and -2 (right), which match nothing.
    ``search(bit, a_cut, b_cut, b_tags)``, on flat lists aligned with
    ``a_vals`` and ``b_vals``, returns for each entry with such a pair its
    best (odd) right tag. Returns entry -> the best value over all bits.
    """
    rank, unrank = _joint_ranks(a_vals, b_vals)
    a_tags = [2 * rank[v] for v in a_vals]
    b_tags = [2 * rank[v] + 1 for v in b_vals]
    best: dict = {}
    for bit in range(ceil_log2(max(1, 2 * len(unrank)))):
        a_cut = [v >> (bit + 1) if not (v >> bit) & 1 else -1 for v in a_tags]
        b_cut = [v >> (bit + 1) if (v >> bit) & 1 else -2 for v in b_tags]
        for entry, tag in search(bit, a_cut, b_cut, b_tags).items():
            r = (tag - 1) // 2
            cur = best.get(entry)
            if cur is None or (r < cur if mode == "min" else r > cur):
                best[entry] = r
    return {entry: unrank[r] for entry, r in best.items()}


def _le_product(a, b, mode, monoeq_solver, instrument):
    """Shared skeleton of the (min, <=) and (max, <=) reductions."""
    if a.cols != b.rows:
        raise ValueError(f"inner dimensions differ: {a.cols} vs {b.rows}")
    n_rows, inner, n_cols = a.rows, a.cols, b.cols
    empty = PLUS_INF if mode == "min" else MINUS_INF
    if inner == 0 or n_rows == 0 or n_cols == 0:
        return IntMatrix(n_rows, n_cols, (empty,) * (n_rows * n_cols))
    op = f"{mode}_le_inner"
    upper = int(mode == "max")

    def search(bit, a_cut, b_cut, b_tags):
        """Case-B search: colors stay fixed (the cut tags and each entry's
        common prefix); each level puts the probed half on the I x J values
        and the shifted b tags on the J x K values."""
        a_cut = np.array(a_cut, np.int64).reshape(n_rows, inner)
        b_cut = np.array(b_cut, np.int64).reshape(inner, n_cols)
        a_grid, b_grid = a_cut.tolist(), b_cut.tolist()
        prefix = _eq_product(a_grid, b_grid, mode, monoeq_solver, instrument)
        live = np.array([[p is not None for p in row] for row in prefix])
        if not live.any():
            return {}
        b_tags = np.array(b_tags, np.int64).reshape(inner, n_cols)
        if instrument is not None:
            instrument({"kind": "start", "op": op, "mode": mode,
                        "a_tag": a_grid, "b_tag": b_grid, "pre_tag": prefix,
                        "b_val": b_tags.tolist()})
        ij_col = np.array([[0 if p is None else p for p in row]
                           for row in prefix], np.int64)
        est = ij_col << (bit + 1)
        ik = (np.ones(a_cut.shape, bool), a_cut, None)

        def probe(level):
            return _probe_graph((n_rows, n_cols, inner), _CASE_B, (
                (live, ij_col, (est >> level) | upper),
                (np.ones(b_cut.T.shape, bool), b_cut.T, b_tags.T >> level),
                ik))

        return _bisect(live.nonzero(), est, bit + 1, mode, probe,
                       monoeq_solver, ("IJ",),
                       _levels(instrument, op, est.tolist, live.tolist))

    found = _by_highest_bit(a.entries, b.entries, mode, search)
    return IntMatrix(n_rows, n_cols, tuple(found.get((i, j), empty)
                                           for i in range(n_rows)
                                           for j in range(n_cols)))


def min_le_via_monoeq(a, b, monoeq_solver, instrument: Instrument = None):
    """Exact (min, <=)-product: split by the highest differing bit, find the
    common prefix with the (min, =) search, then binary-search the
    smallest qualifying right-side entry; combine by entry-wise min."""
    return _le_product(a, b, "min", monoeq_solver, instrument)


def max_le_via_monoeq(a, b, monoeq_solver, instrument: Instrument = None):
    """Mirror of the (min, <=) reduction with max-side binary searches."""
    return _le_product(a, b, "max", monoeq_solver, instrument)


MatrixSolver = Callable[[IntMatrix, IntMatrix], IntMatrix]


def max_min_product(a: IntMatrix, b: IntMatrix,
                    min_le_solver: MatrixSolver) -> IntMatrix:
    """Max-Min product as the entry-wise max of two (min, <=) calls:

    max_k min(A_ik, B_kj) splits by which side achieves the min into
    max{B : B <= A} and max{A : A <= B}; each piece is a negated (and for
    the second, transposed) (min, <=)-product.
    """
    part1 = min_le_solver(a.negate(), b.negate()).negate()
    part2 = min_le_solver(b.transpose().negate(),
                          a.transpose().negate()).negate().transpose()
    entries = tuple(max(x, y) for x, y in zip(part1.entries, part2.entries))
    return IntMatrix(a.rows, b.cols, entries)


def min_witness_via_max_min(a: IntMatrix, b: IntMatrix,
                            max_min_solver: MatrixSolver) -> IntMatrix:
    """Min-Witness product (1-based indices) through one Max-Min call: a
    witness k scores n-k, so the best witness is the max-min and the result
    is n minus it; no witness bottoms out at MINUS_INF and decodes to
    PLUS_INF."""
    for mat in (a, b):
        if any(e not in (0, 1) for e in mat.entries):
            raise ValueError("min witness needs Boolean matrices")
    if a.cols != b.rows:
        raise ValueError(f"inner dimensions differ: {a.cols} vs {b.rows}")
    n = a.cols
    a2 = IntMatrix(a.rows, n, tuple(
        (n - 1 - k) if a.at(i, k) == 1 else MINUS_INF
        for i in range(a.rows) for k in range(n)))
    b2 = IntMatrix(n, b.cols, tuple(
        (n - 1 - k) if b.at(k, j) == 1 else MINUS_INF
        for k in range(n) for j in range(b.cols)))
    scored = max_min_solver(a2, b2)
    entries = tuple(PLUS_INF if v == MINUS_INF else n - v
                    for v in scored.entries)
    return IntMatrix(a.rows, b.cols, entries)


def _finite(product: IntMatrix) -> IntMatrix:
    """The Boolean projection: 1 where the entry is finite."""
    return IntMatrix(product.rows, product.cols,
                     tuple(0 if v == PLUS_INF else 1 for v in product.entries))


def exists_eq_via_min_eq(a, b, min_eq_solver: MatrixSolver) -> IntMatrix:
    return _finite(min_eq_solver(a, b))


def exists_dom_via_min_le(a, b, min_le_solver: MatrixSolver) -> IntMatrix:
    return _finite(min_le_solver(a, b))


def _ranks(pres, grids, pairs):
    """The sorted distinct entries of ``grids`` on the present cells of
    ``pairs``, and each of those grids as ranks among them."""
    distinct = sorted({x for p in pairs for x in grids[p][pres[p]].tolist()})
    return distinct, {p: np.searchsorted(distinct, grids[p]) for p in pairs}


def _case_a_grids(g: ColoredValuedGraph):
    """g's presence, colour and value grids, and its colours renumbered
    densely from 0: colours are opaque, so composites of the renumbered
    ones with small tags stay far inside int64."""
    if g.value_sides != _CASE_A:
        raise ValueError("expected a case-A instance (values on IK and JK)")
    pres, col, val = _colored_arrays(g)
    return pres, col, _ranks(pres, col, _PAIRS)[1], val


def mono_min_eq_via_mono_eq(
    g: ColoredValuedGraph,
    mono_eq_solver: MonoEqProductSolver,
    instrument: Instrument = None,
) -> dict[tuple[int, int], int]:
    """Monochromatic (min, =)-product from Boolean monochromatic-equality
    product calls: one initial call finds the finite entries, then each
    level recolors edges with (original color, value prefix) composites and
    halves the bracket."""
    pres, col, dense, val = _case_a_grids(g)
    unrank, rank = _ranks(pres, val, ("JK", "IK"))
    t = ceil_log2(max(2, len(unrank)))
    tag_bound = (1 << t) + 1

    rank_graph = _probe_graph(g.part_sizes, _CASE_A, (
        (pres["IJ"], col["IJ"], None), (pres["JK"], col["JK"], rank["JK"]),
        (pres["IK"], col["IK"], rank["IK"])))
    base = mono_eq_solver(rank_graph)
    active = {e: bool(base.get(e, False))
              for e in _listed(pres["IJ"].nonzero())}
    cells = _cells([e for e, alive in active.items() if alive])
    live = np.zeros_like(pres["IJ"])
    live[cells] = True
    est = np.zeros(g.part_sizes[:2], np.int64)
    if instrument is not None:
        instrument({"kind": "start", "op": "mono_min_eq",
                    "rank_graph": rank_graph})

    def probe(level):
        return _probe_graph(g.part_sizes, _CASE_A, (
            (live, composite_color(dense["IJ"], est >> level, tag_bound), None),
            *((pres[p], composite_color(dense[p], rank[p] >> level, tag_bound),
               rank[p]) for p in ("JK", "IK"))))

    found = _bisect(cells, est, t, "min", probe, mono_eq_solver, (),
                    _levels(instrument, "mono_min_eq",
                            lambda: _at(cells, est), active.copy))
    return {edge: (unrank[found[edge]] if alive else PLUS_INF)
            for edge, alive in active.items()}


def mono_eq_via_mono_min_eq(
    g: ColoredValuedGraph,
    mono_min_eq_solver: Callable[[ColoredValuedGraph], dict],
) -> dict[tuple[int, int], bool]:
    """The Boolean projection: an entry is positive iff its minimum is finite."""
    return {edge: value != PLUS_INF
            for edge, value in mono_min_eq_solver(g).items()}


def mono_min_le_via_monoeq(
    g: ColoredValuedGraph,
    monoeq_solver: MonoeqSolver,
    mono_eq_solver: MonoEqProductSolver,
    instrument: Instrument = None,
) -> dict[tuple[int, int], int]:
    """Monochromatic (min, <=)-product: per highest-differing-bit, the
    smallest common prefix comes from the monochromatic (min, =) machinery,
    and equality-triangle calls with values on I x J and J x K then
    binary-search the smallest qualifying J x K value."""
    pres, col, dense, val = _case_a_grids(g)
    sizes = g.part_sizes

    def on_edges(pair, flat):
        """A grid holding ``flat``, aligned with the pair's edges."""
        grid = np.zeros(pres[pair].shape, np.int64)
        grid[pres[pair]] = flat
        return grid

    def listed(pair, *extra):
        us, vs = (c.tolist() for c in pres[pair].nonzero())
        return list(zip(us, vs, col[pair][pres[pair]].tolist(), *extra))

    def search(bit, a_cut, b_cut, b_tags):
        ik_cut, jk_cut = on_edges("IK", a_cut), on_edges("JK", b_cut)
        prefix = mono_min_eq_via_mono_eq(_probe_graph(sizes, _CASE_A, (
            (pres["IJ"], col["IJ"], None), (pres["JK"], col["JK"], jk_cut),
            (pres["IK"], col["IK"], ik_cut))), mono_eq_solver, instrument)
        active = {e: p != PLUS_INF for e, p in prefix.items()}
        edges = [e for e, alive in active.items() if alive]
        if not edges:
            return {}
        cells = _cells(edges)
        live = np.zeros_like(pres["IJ"])
        live[cells] = True
        pre = np.zeros(sizes[:2], np.int64)
        pre[cells] = [prefix[e] for e in edges]
        est = pre << (bit + 1)
        # Room for the +2 filler shift above every tag and prefix.
        bound = max(max(a_cut, default=0), max(b_cut, default=0),
                    int(pre.max())) + 3
        if instrument is not None:
            instrument({"kind": "start", "op": "mono_min_le_inner",
                        "ij": listed("IJ"), "ik": listed("IK", a_cut),
                        "jk": listed("JK", b_cut, b_tags),
                        "prefix": dict(prefix)})
        ij_col = composite_color(dense["IJ"], pre + 2, bound)
        jk = (pres["JK"], composite_color(dense["JK"], jk_cut + 2, bound))
        ik = (pres["IK"], composite_color(dense["IK"], ik_cut + 2, bound),
              None)
        jk_tag = on_edges("JK", b_tags)

        def probe(level):
            return _probe_graph(sizes, _CASE_B, (
                (live, ij_col, est >> level), (*jk, jk_tag >> level), ik))

        return _bisect(cells, est, bit + 1, "min", probe, monoeq_solver,
                       ("IJ",), _levels(instrument, "mono_min_le_inner",
                                        lambda: _at(cells, est), active.copy))

    found = _by_highest_bit(val["IK"][pres["IK"]].tolist(),
                            val["JK"][pres["JK"]].tolist(), "min", search)
    return {edge: found.get(edge, PLUS_INF)
            for edge in _listed(pres["IJ"].nonzero())}
