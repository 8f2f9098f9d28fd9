"""Parallel-binary-search reductions from matrix and monochromatic products
to monochromatic-equality triangle queries.

A matrix product is the monochromatic product on a one-colour complete
tripartite graph whose I x K values are A and J x K values are B
transposed. So every product here runs one of two searches over such
"case-A" grids (presence and base colour per pair, values on I x K and
J x K): ``_eq_search`` for (min, =)/(max, =), and ``_le_search`` for the
<=-products, which takes each bit's common prefix from ``_eq_search``.
Matrices stay int64 grids: the searches read A's and a transposed view of
B's, and each matrix built here is one numpy expression handed to
``IntMatrix._trusted``.

Both rank-compress the values first (order- and equality-preserving, so
comparisons transfer), then narrow each I x J cell level by level in one
skeleton, ``_bisect``: a level-l estimate is a multiple of 2^l bracketing
the true answer in [estimate, estimate + 2^l), and one solver call per
level, read through one flat index of the live cells, decides which half
survives. An equality search runs over one rank beyond its values, so a
cell with no match ends on its ``miss`` rank: 2^levels - 1 for min, 0
for max.

A <=-search runs over the J x K ranks, and each of its steps takes each
cell's best common prefix from an equality search. At the equality step
that prefix is the whole answer rank, so the step makes no inner call. At
rank bit t the answer rank is the prefix, a 1 and t open bits, so its
inner search makes t calls; no value is shifted or sentinel incremented.

Each search hands ``_bisect`` a ``probe(level)``: a trusted graph over
grid dicts, in one colour format, (colour << w) + tag for tags below 2^w
(a monochromatic search renumbers g's colours densely first, so these
stay inside int64). What its levels share is set up once per search: the
presence and value grids, the shifted base colours and every level's
tags (a <=-search's rank cuts, for all bits), so a probe is a few grid
operations, and no edge tuple is built unless the solver reads one.

Passing an ``instrument`` callable exposes the searches for verification
(test mode asserts the bracketing invariant against brute force). Each
search sends one "start" event holding its ``levels`` count and its own
grids: ``pres`` and ``base`` by pair, tags ``ik`` and ``jk``, the prefix
grid ``pre`` (None in an equality search) and ``jk_val``. A live cell's
answer is the least (``mode`` "min") or greatest ``jk_val`` over the k
that close a triangle of one base colour with ``ik`` == ``jk``
(== ``pre``), or ``miss`` if none does. A "level" event per level carries
the ``estimates`` and ``active`` grids. The grids are the search's own,
so an instrument only reads them.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .instances import (CASE_VALUE_SIDES, COLORED_PAIRS, ColoredValuedGraph,
                        GridAnswers, IntMatrix, MINUS_INF, PLUS_INF,
                        UsageFailure, _colored_arrays, _listed, ceil_log2)

# AE-MonoEq triangle, MonoEq product: a GridAnswers or dict keyed (u, v).
MonoeqSolver = Callable[[ColoredValuedGraph], GridAnswers | dict]
Instrument = Optional[Callable[[dict], None]]


def _ranks(pres, grids, pairs, small=False):
    """The sorted distinct entries of ``grids`` on the present cells of
    ``pairs``, an int64 array, and each of those grids as ranks among them
    (0 off its present cells). ``small`` entries are small non-negative
    integers, such as ranks cut to their high bits, found by counting."""
    present = np.concatenate([grids[p][pres[p]] for p in pairs])
    distinct = (np.bincount(present).nonzero()[0] if small else
                np.array(sorted(set(present.tolist())), np.int64))
    return distinct, {p: np.where(pres[p], distinct.searchsorted(grids[p]), 0)
                      for p in pairs}


def _unrank(distinct, ranks, hit):
    """The values of rank ``ranks`` where ``hit``, 0 elsewhere."""
    return np.concatenate((distinct, [0]))[np.where(hit, ranks, -1)]


def _bisect(live, est, probe, solver, instrument, start):
    """The one binary-search level loop, shared by every search here.

    The grid ``est`` holds, at each cell of the Boolean grid ``live``, a
    multiple of 2^levels at or below its answer, and ends on the answer;
    ``start["levels"]`` is that level count. At each level the solver
    answers ``probe(level)`` per I x J cell: whether the lower half of the
    cell's bracket holds a match (mode "min") or its upper half does (mode
    "max"). A min search that misses, or a max search that hits, moves
    into the upper half. Each level reads the hits (a ``GridAnswers``' I x J
    grid, else ``answers[(u, v)]``) and bumps ``est``, a fresh C-ordered
    grid, through one flat index of the live cells. ``instrument`` gets
    ``start`` as the start event and, after each level, the ``est`` and
    ``live`` grids themselves.
    """
    if instrument is not None:
        instrument({"kind": "start", **start})
    cells, flat = np.flatnonzero(live), est.reshape(-1)
    miss = start["mode"] == "min"
    for level in range(start["levels"] - 1, -1, -1):
        answers = solver(probe(level))
        if isinstance(answers, GridAnswers):
            hits = answers.hits["IJ"].take(cells)
        else:
            hits = np.fromiter(map(answers.__getitem__, _listed(
                np.divmod(cells, live.shape[1]))), bool, cells.size)
        flat[cells[hits != miss]] += 1 << level
        if instrument is not None:
            instrument({"kind": "level", "op": start["op"], "level": level,
                        "estimates": est, "active": live})


def _eq_search(sizes, pres, base, ik, jk, mode, solver, instrument,
               small=False):
    """The (min, =) or (max, =) search over case-A grids: per present I x J
    cell, the least or greatest v that some k closes into a triangle of one
    ``base`` colour whose I x K and J x K values are both v.

    Values become ranks among the present IK and JK cells (``small``: see
    ``_ranks``), shifted up by one for max, and the levels leave room for
    one rank beyond them. The level-l instance colours each edge with
    (base colour, tag >> l), the I x J tag being the half probed, and keeps
    the full tags as values, so a positive answer means a full match inside
    that half. Returns the grid of cells with a match and the values found
    there (0 elsewhere).
    """
    distinct, tag = _ranks(pres, {"JK": jk, "IK": ik}, ("JK", "IK"), small)
    upper = int(mode == "max")
    tag = {p: t + upper for p, t in tag.items()}
    live = pres["IJ"]
    levels = ceil_log2(len(distinct) + 1) if live.any() else 0
    miss = 0 if upper else (1 << levels) - 1
    # Every tag is below 2^levels, so base << levels leaves room for it;
    # est is a multiple of 2^(level + 1), so (est >> level) | upper adds.
    at = np.arange(levels)[:, None, None]
    ij = (base["IJ"] << levels) + upper
    col = {p: (base[p] << levels) + (tag[p] >> at) for p in ("JK", "IK")}
    est = np.zeros(sizes[:2], np.int64)
    vals = {"IJ": np.zeros(sizes[:2], np.int64), **tag}

    def probe(level):
        return ColoredValuedGraph._trusted(sizes, CASE_VALUE_SIDES["A"], (
            pres, {"IJ": ij + (est >> level), "JK": col["JK"][level],
                   "IK": col["IK"][level]}, vals))

    _bisect(live, est, probe, solver, instrument, {
        "op": f"{mode}_eq", "mode": mode, "levels": levels, "pres": pres,
        "base": base, "ik": tag["IK"], "jk": tag["JK"], "pre": None,
        "jk_val": tag["JK"], "miss": miss})
    hit = live & (est != miss)
    return hit, _unrank(distinct, est - upper, hit)


def _le_search(sizes, pres, base, ik, jk, mode, solver, eq_solver,
               instrument):
    """The (min, <=) or (max, <=) search over case-A grids: per present
    I x J cell, the least or greatest J x K value at or above the I x K
    value over the k that close a triangle of one ``base`` colour.

    Over the ranks s on I x K and r on J x K, s <= r exactly when s == r or
    s has a 0 and r a 1 at their highest differing bit t. One step handles
    each case, and ``_eq_search`` over ``eq_solver`` finds each cell's best
    common prefix in it. The equality step keeps every cell, and its prefix
    is the answer rank. The step at rank bit t keeps the IK and JK cells
    whose own bit t is right and cuts their ranks to the bits above it; its
    answer rank is the prefix, then a 1, then t open bits, so t
    equality-triangle calls with the prefixes as colours and values on
    I x J and J x K narrow it. The steps combine by min or max. Returns what
    ``_eq_search`` returns.
    """
    distinct, rank = _ranks(pres, {"IK": ik, "JK": jk}, ("IK", "JK"))
    upper = int(mode == "max")
    pick = np.maximum if upper else np.minimum
    none = -1 if upper else len(distinct)   # beyond every rank
    best = np.full(sizes[:2], none, np.int64)
    if len(distinct):
        live, pre = _eq_search(sizes, pres, base, rank["IK"], rank["JK"],
                               mode, eq_solver, instrument, True)
        best[live] = pre[live]
    bits = ceil_log2(max(1, len(distinct)))  # every tag is below 2^bits
    scaled = {p: base[p] << bits for p in COLORED_PAIRS}
    at = np.arange(bits + 1)[:, None, None]
    ik_at, jk_at = rank["IK"] >> at, rank["JK"] >> at
    ik_in = pres["IK"] & (ik_at[:-1] % 2 == 0)
    jk_in = pres["JK"] & (jk_at[:-1] % 2 == 1)
    no_val = np.zeros(ik.shape, np.int64)
    for bit in range(bits):
        cut = {"IJ": pres["IJ"], "JK": jk_in[bit], "IK": ik_in[bit]}
        ik_cut, jk_cut = ik_at[bit + 1], jk_at[bit + 1]
        live, pre = _eq_search(sizes, cut, base, ik_cut, jk_cut, mode,
                               eq_solver, instrument, True)
        if not live.any():
            continue
        cut = {**cut, "IJ": live}
        col = {p: scaled[p] + t
               for p, t in (("IJ", pre), ("JK", jk_cut), ("IK", ik_cut))}
        est = (pre << (bit + 1)) | (1 << bit)

        def probe(level):
            return ColoredValuedGraph._trusted(sizes, CASE_VALUE_SIDES["B"], (
                cut, col, {"IJ": (est >> level) | upper, "JK": jk_at[level],
                           "IK": no_val}))

        _bisect(live, est, probe, solver, instrument, {
            "op": f"{mode}_le_inner", "mode": mode, "levels": bit,
            "pres": cut, "base": base, "ik": ik_cut, "jk": jk_cut,
            "pre": pre, "jk_val": rank["JK"], "miss": None})
        best = np.where(live, pick(best, est), best)
    hit = best != none
    return hit, _unrank(distinct, best, hit)


def _inner(a: IntMatrix, b: IntMatrix) -> int:
    """The inner dimension that A's columns and B's rows share."""
    if a.cols != b.rows:
        raise UsageFailure(f"inner dimensions differ: {a.cols} vs {b.rows}")
    return a.cols


def _on_matrices(a, b, search, mode, *solvers, empty) -> IntMatrix:
    """The product matrix of ``search`` over the case-A grids of A x B as a
    one-colour graph (every cell present, base colour 0, I x K values A and
    J x K values B transposed): the value found where the search hits,
    ``empty`` elsewhere."""
    sizes = (a.rows, b.cols, _inner(a, b))
    shapes = {"IJ": sizes[:2], "JK": sizes[1:], "IK": (a.rows, a.cols)}
    hit, found = search(
        sizes, {p: np.ones(s, bool) for p, s in shapes.items()},
        {p: np.zeros(s, np.int64) for p, s in shapes.items()},
        a._grid, b._grid.T, mode, *solvers)
    return IntMatrix._trusted(np.where(hit, found, empty))


def min_eq_via_monoeq(
    a: IntMatrix, b: IntMatrix,
    monoeq_solver: MonoeqSolver,
    instrument: Instrument = None,
) -> IntMatrix:
    """Exact (min, =)-product through one equality-triangle call per level;
    entries with no match decode to PLUS_INF."""
    return _on_matrices(a, b, _eq_search, "min", monoeq_solver, instrument,
                        empty=PLUS_INF)


def min_le_via_monoeq(a, b, monoeq_solver, instrument: Instrument = None):
    """Exact (min, <=)-product: split by the highest differing bit, find the
    common prefix with the (min, =) search, then binary-search the
    smallest qualifying right-side entry; combine by entry-wise min."""
    return _on_matrices(a, b, _le_search, "min", monoeq_solver, monoeq_solver,
                        instrument, empty=PLUS_INF)


def max_le_via_monoeq(a, b, monoeq_solver, instrument: Instrument = None):
    """Mirror of the (min, <=) reduction with max-side binary searches."""
    return _on_matrices(a, b, _le_search, "max", monoeq_solver, monoeq_solver,
                        instrument, empty=MINUS_INF)


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
    return IntMatrix._trusted(np.maximum(part1._grid, part2._grid))


def min_witness_via_max_min(a: IntMatrix, b: IntMatrix,
                            max_min_solver: MatrixSolver) -> IntMatrix:
    """Min-Witness product (1-based indices) through one Max-Min call: a
    witness k scores n-k, so the best witness is the max-min and the result
    is n minus it; no witness bottoms out at MINUS_INF and decodes to
    PLUS_INF."""
    if not all(np.isin(m._grid, (0, 1)).all() for m in (a, b)):
        raise UsageFailure("min witness needs Boolean matrices")
    n = _inner(a, b)
    score = n - 1 - np.arange(n, dtype=np.int64)   # 0-based k scores n-1-k
    scored = max_min_solver(
        IntMatrix._trusted(np.where(a._grid == 1, score, MINUS_INF)),
        IntMatrix._trusted(np.where(b._grid == 1, score[:, None], MINUS_INF))
    )._grid
    return IntMatrix._trusted(np.where(scored == MINUS_INF, PLUS_INF,
                                       n - scored))


def _finite(product: IntMatrix) -> IntMatrix:
    """The Boolean projection: 1 where the entry is finite."""
    return IntMatrix._trusted((product._grid != PLUS_INF).astype(np.int64))


def _ranked(a: IntMatrix, b: IntMatrix):
    """A and B with each entry replaced by its rank among all of theirs:
    order and equality hold, and no entry is PLUS_INF, so a finite minimum
    means a match even where the matched value is PLUS_INF."""
    grids = {"A": a._grid, "B": b._grid}
    everywhere = {p: np.ones(g.shape, bool) for p, g in grids.items()}
    return map(IntMatrix._trusted, _ranks(everywhere, grids, grids)[1].values())


def exists_eq_via_min_eq(a, b, min_eq_solver: MatrixSolver) -> IntMatrix:
    return _finite(min_eq_solver(*_ranked(a, b)))


def exists_dom_via_min_le(a, b, min_le_solver: MatrixSolver) -> IntMatrix:
    return _finite(min_le_solver(*_ranked(a, b)))


def _on_case_a(g: ColoredValuedGraph, search, *solvers) -> dict:
    """The min ``search`` over g's presence grids, its colours renumbered
    densely from 0 (colours are opaque, so composites of the renumbered ones
    with small tags stay far inside int64) and its value grids: per I x J
    edge, row-major, the value found or PLUS_INF."""
    if g.value_sides != CASE_VALUE_SIDES["A"]:
        raise UsageFailure("expected a case-A instance (values on IK and JK)")
    pres, col, val = _colored_arrays(g)
    dense = _ranks(pres, col, COLORED_PAIRS)[1]
    hit, found = search(g.part_sizes, pres, dense, val["IK"], val["JK"],
                        "min", *solvers)
    cells = pres["IJ"].nonzero()
    return dict(zip(_listed(cells),
                    np.where(hit, found, PLUS_INF)[cells].tolist()))


def mono_min_eq_via_mono_eq(
    g: ColoredValuedGraph,
    mono_eq_solver: MonoeqSolver,
    instrument: Instrument = None,
) -> dict[tuple[int, int], int]:
    """Monochromatic (min, =)-product from Boolean monochromatic-equality
    product calls: each level recolors edges with (original color, value
    prefix) composites and halves the bracket."""
    return _on_case_a(g, _eq_search, mono_eq_solver, instrument)


def mono_eq_via_mono_min_eq(
    g: ColoredValuedGraph,
    mono_min_eq_solver: Callable[[ColoredValuedGraph], dict],
) -> dict[tuple[int, int], bool]:
    """The Boolean projection: an entry is positive iff its minimum is
    finite, over g with its values ranked as in ``_ranked``."""
    pres, col, val = _colored_arrays(g)
    ranked = ColoredValuedGraph._trusted(g.part_sizes, g.value_sides, (
        pres, col, {**val, **_ranks(pres, val, ("IK", "JK"))[1]}))
    return {edge: value != PLUS_INF
            for edge, value in mono_min_eq_solver(ranked).items()}


def mono_min_le_via_monoeq(
    g: ColoredValuedGraph,
    monoeq_solver: MonoeqSolver,
    mono_eq_solver: MonoeqSolver,
    instrument: Instrument = None,
) -> dict[tuple[int, int], int]:
    """Monochromatic (min, <=)-product: per highest-differing-bit, the
    smallest common prefix comes from the monochromatic (min, =) machinery,
    and equality-triangle calls with values on I x J and J x K then
    binary-search the smallest qualifying J x K value."""
    return _on_case_a(g, _le_search, monoeq_solver, mono_eq_solver,
                      instrument)
