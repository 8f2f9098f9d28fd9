"""Parallel-binary-search reductions from matrix and monochromatic products
to monochromatic-equality triangle queries.

Every reduction first rank-compresses the participating values (order- and
equality-preserving, so comparisons transfer), then narrows each output
entry level by level: a level-l estimate is a multiple of 2^l bracketing
the true answer in [estimate, estimate + 2^l), and one solver call per
level decides which half survives. The <=-style products split further by
the highest differing bit of the compared pair, using filler tags -1/-2
that can never match.

Strictness without value shifts: rank r of the left matrix becomes 2r and
rank r of the right becomes 2r + 1, so "left <= right" is exactly "left
tag < right tag" and no sentinel ever needs incrementing.

Passing an ``instrument`` callable exposes the searches for verification:
a "start" event describes the discretized search space and a "level" event
per round carries the current estimates (test mode asserts the bracketing
invariant against brute force).
"""

from __future__ import annotations

from typing import Callable, Optional

from .instances import ColoredValuedGraph, IntMatrix, MINUS_INF, PLUS_INF
from .zero_triangle import ceil_log2

MonoeqSolver = Callable[[ColoredValuedGraph], dict]      # AE-MonoEq triangle
MonoEqProductSolver = Callable[[ColoredValuedGraph], dict]  # MonoEq product
Instrument = Optional[Callable[[dict], None]]


def composite_color(base: int, tag: int, tag_bound: int) -> int:
    """Injective pairing of a base color with a bounded tag."""
    if not 0 <= tag < tag_bound:
        raise ValueError(f"tag {tag} outside [0, {tag_bound})")
    return base * tag_bound + tag


def _joint_ranks(*value_iters):
    values = sorted({v for it in value_iters for v in it})
    return {v: r for r, v in enumerate(values)}, values


def _snapshot(grid):
    return [row[:] for row in grid]


def _search_case_a(a_vals, b_vals, t, mode, monoeq_solver, instrument, op):
    """Per (i, j), the min/max of {b_vals[k][j] : a_vals[i][k] == b_vals[k][j]}
    over nonnegative grids, by t levels of case-A equality queries.

    The level-l graph colors edge (i, k) with a>>l, (j, k) with b>>l and
    (i, j) with the half being probed; values are the full numbers, so a
    positive answer means a full match inside that half.
    """
    n_rows = len(a_vals)
    inner = len(b_vals)
    n_cols = len(b_vals[0]) if inner else 0
    est = [[0] * n_cols for _ in range(n_rows)]
    if instrument is not None:
        instrument({"kind": "start", "op": op, "mode": mode,
                    "a_tag": _snapshot(a_vals), "b_tag": _snapshot(b_vals),
                    "pre_tag": None, "b_val": _snapshot(b_vals)})
    all_edges = [(i, j) for i in range(n_rows) for j in range(n_cols)]
    for level in range(t - 1, -1, -1):
        edges_ij = []
        for (i, j) in all_edges:
            probe = est[i][j] >> level
            if mode == "max":
                probe |= 1
            edges_ij.append((i, j, probe, None))
        edges_ik = tuple((i, k, a_vals[i][k] >> level, a_vals[i][k])
                         for i in range(n_rows) for k in range(inner))
        edges_jk = tuple((j, k, b_vals[k][j] >> level, b_vals[k][j])
                         for j in range(n_cols) for k in range(inner))
        graph = ColoredValuedGraph((n_rows, n_cols, inner), tuple(edges_ij),
                                   edges_jk, edges_ik,
                                   frozenset({"IK", "JK"}))
        answers = monoeq_solver(graph)
        for (i, j) in all_edges:
            positive = answers.get(("IJ", i, j), False)
            if mode == "min":
                if not positive:
                    est[i][j] += 1 << level
            else:
                if positive:
                    est[i][j] += 1 << level
        if instrument is not None:
            instrument({"kind": "level", "op": op, "level": level,
                        "estimates": _snapshot(est),
                        "active": [[True] * n_cols for _ in range(n_rows)]})
    return est


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
    rank, unrank = _joint_ranks(a.entries, b.entries)
    pad = len(unrank)  # one rank beyond everything: the always-match column
    a_vals = [[rank[a.at(i, k)] for k in range(a.cols)] + [pad]
              for i in range(a.rows)]
    b_vals = [[rank[b.at(k, j)] for j in range(b.cols)] for k in range(b.rows)]
    b_vals.append([pad] * b.cols)
    t = ceil_log2(max(2, pad + 1))
    est = _search_case_a(a_vals, b_vals, t, "min", monoeq_solver, instrument,
                         "min_eq")
    entries = tuple(PLUS_INF if est[i][j] == pad else unrank[est[i][j]]
                    for i in range(a.rows) for j in range(b.cols))
    return IntMatrix(a.rows, b.cols, entries)


def _max_eq_via_monoeq(a_vals, b_vals, monoeq_solver, instrument):
    """(max, =)-product on integer grids; None marks no match.

    Mirror of the min search. Rank compression first (so filler tags stay
    unequal and arbitrary integers become small nonnegative ones), then a
    shift up by one with a zero-valued padding column as the floor: a
    result of zero decodes to "no real match"."""
    n_rows = len(a_vals)
    n_cols = len(b_vals[0]) if b_vals else 0
    rank, unrank = _joint_ranks((v for row in a_vals for v in row),
                                (v for row in b_vals for v in row))
    shifted_a = [[rank[v] + 1 for v in row] + [0] for row in a_vals]
    shifted_b = [[rank[v] + 1 for v in row] for row in b_vals]
    shifted_b.append([0] * n_cols)
    t = ceil_log2(max(2, len(unrank) + 1))
    est = _search_case_a(shifted_a, shifted_b, t, "max", monoeq_solver,
                         instrument, "max_eq")
    return [[unrank[est[i][j] - 1] if est[i][j] > 0 else None
             for j in range(n_cols)] for i in range(n_rows)]


def _parity_tags(a: IntMatrix, b: IntMatrix):
    """Joint ranks with the strictness parity trick: left entries map to
    2r, right entries to 2r + 1, so left <= right iff tag(left) < tag(right)."""
    rank, unrank = _joint_ranks(a.entries, b.entries)
    a_tags = [[2 * rank[a.at(i, k)] for k in range(a.cols)]
              for i in range(a.rows)]
    b_tags = [[2 * rank[b.at(k, j)] + 1 for j in range(b.cols)]
              for k in range(b.rows)]
    t = ceil_log2(max(2, 2 * len(unrank)))
    return a_tags, b_tags, unrank, t


def _split_by_bit(a_tags, b_tags, bit):
    """Filler -1/-2 for entries whose bit disagrees with a<b at this bit."""
    a_cut = [[(v >> (bit + 1)) if not (v >> bit) & 1 else -1 for v in row]
             for row in a_tags]
    b_cut = [[(v >> (bit + 1)) if (v >> bit) & 1 else -2 for v in row]
             for row in b_tags]
    return a_cut, b_cut


def _search_fixed_tags(a_cut, b_cut, prefix, b_tags, levels, est, active,
                       mode, monoeq_solver, instrument, op):
    """Narrow est within [prefix<<levels, (prefix+1)<<levels) to the min/max
    b_tags entry whose cut tags match the prefix.

    Colors stay fixed (the cut tags and the per-entry prefix); each level
    puts the probed half on the I x J values and the shifted b tags on the
    J x K values, case-B style.
    """
    n_rows = len(a_cut)
    inner = len(b_cut)
    n_cols = len(b_cut[0]) if inner else 0
    if instrument is not None:
        instrument({"kind": "start", "op": op, "mode": mode,
                    "a_tag": _snapshot(a_cut), "b_tag": _snapshot(b_cut),
                    "pre_tag": _snapshot(prefix),
                    "b_val": _snapshot(b_tags)})
    for level in range(levels - 1, -1, -1):
        edges_ij = []
        for i in range(n_rows):
            for j in range(n_cols):
                if not active[i][j]:
                    continue
                probe = est[i][j] >> level
                if mode == "max":
                    probe |= 1
                edges_ij.append((i, j, prefix[i][j], probe))
        edges_ik = tuple((i, k, a_cut[i][k], None)
                         for i in range(n_rows) for k in range(inner))
        edges_jk = tuple((j, k, b_cut[k][j], b_tags[k][j] >> level)
                         for j in range(n_cols) for k in range(inner))
        graph = ColoredValuedGraph((n_rows, n_cols, inner), tuple(edges_ij),
                                   edges_jk, edges_ik,
                                   frozenset({"IJ", "JK"}))
        answers = monoeq_solver(graph)
        for i in range(n_rows):
            for j in range(n_cols):
                if not active[i][j]:
                    continue
                positive = answers.get(("IJ", i, j), False)
                if mode == "min":
                    if not positive:
                        est[i][j] += 1 << level
                else:
                    if positive:
                        est[i][j] += 1 << level
        if instrument is not None:
            instrument({"kind": "level", "op": op, "level": level,
                        "estimates": _snapshot(est),
                        "active": _snapshot(active)})
    return est


def _le_product(a, b, mode, monoeq_solver, instrument):
    """Shared skeleton of the (min, <=) and (max, <=) reductions."""
    if a.cols != b.rows:
        raise ValueError(f"inner dimensions differ: {a.cols} vs {b.rows}")
    n_rows, inner, n_cols = a.rows, a.cols, b.cols
    empty = PLUS_INF if mode == "min" else MINUS_INF
    if inner == 0 or n_rows == 0 or n_cols == 0:
        return IntMatrix(n_rows, n_cols, (empty,) * (n_rows * n_cols))
    a_tags, b_tags, unrank, t = _parity_tags(a, b)

    best: list[list[Optional[int]]] = [[None] * n_cols for _ in range(n_rows)]
    for bit in range(t):
        a_cut, b_cut = _split_by_bit(a_tags, b_tags, bit)
        if mode == "min":
            prefix_mat = min_eq_via_monoeq(
                IntMatrix.from_rows(a_cut),
                IntMatrix.from_rows(b_cut), monoeq_solver, instrument)
            prefix = [[None if prefix_mat.at(i, j) == PLUS_INF
                       else prefix_mat.at(i, j) for j in range(n_cols)]
                      for i in range(n_rows)]
        else:
            prefix = _max_eq_via_monoeq(a_cut, b_cut, monoeq_solver,
                                        instrument)
        active = [[prefix[i][j] is not None for j in range(n_cols)]
                  for i in range(n_rows)]
        if not any(any(row) for row in active):
            continue
        est = [[(prefix[i][j] << (bit + 1)) if active[i][j] else 0
                for j in range(n_cols)] for i in range(n_rows)]
        est = _search_fixed_tags(a_cut, b_cut, prefix, b_tags, bit + 1, est,
                                 active, mode, monoeq_solver, instrument,
                                 f"{'min' if mode == 'min' else 'max'}_le_inner")
        for i in range(n_rows):
            for j in range(n_cols):
                if not active[i][j]:
                    continue
                rank = (est[i][j] - 1) // 2  # est is an odd right-side tag
                cur = best[i][j]
                if cur is None or (rank < cur if mode == "min" else rank > cur):
                    best[i][j] = rank
    entries = tuple(
        empty if best[i][j] is None else unrank[best[i][j]]
        for i in range(n_rows) for j in range(n_cols))
    return IntMatrix(n_rows, n_cols, entries)


def min_le_via_monoeq(a, b, monoeq_solver, instrument: Instrument = None):
    """Exact (min, <=)-product: split by the highest differing bit, find the
    common prefix with the (min, =) reduction, then binary-search the
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


def exists_eq_via_min_eq(a, b, min_eq_solver: MatrixSolver) -> IntMatrix:
    product = min_eq_solver(a, b)
    return IntMatrix(product.rows, product.cols,
                     tuple(0 if v == PLUS_INF else 1 for v in product.entries))


def exists_dom_via_min_le(a, b, min_le_solver: MatrixSolver) -> IntMatrix:
    product = min_le_solver(a, b)
    return IntMatrix(product.rows, product.cols,
                     tuple(0 if v == PLUS_INF else 1 for v in product.entries))


def _case_a_data(g: ColoredValuedGraph):
    if g.value_sides != frozenset({"IK", "JK"}):
        raise ValueError("expected a case-A instance (values on IK and JK)")
    return list(g.edges_ij), list(g.edges_ik), list(g.edges_jk)


def mono_min_eq_via_mono_eq(
    g: ColoredValuedGraph,
    mono_eq_solver: MonoEqProductSolver,
    instrument: Instrument = None,
) -> dict[tuple[int, int], int]:
    """Monochromatic (min, =)-product from Boolean monochromatic-equality
    product calls: one initial call finds the finite entries, then each
    level recolors edges with (original color, value prefix) composites and
    halves the bracket."""
    ij_edges, ik_edges, jk_edges = _case_a_data(g)
    rank, unrank = _joint_ranks(
        (e[3] for e in ik_edges), (e[3] for e in jk_edges))
    universe = max(2, len(unrank))
    t = ceil_log2(universe)
    tag_bound = (1 << t) + 1

    rank_graph = ColoredValuedGraph(
        g.part_sizes,
        tuple((u, v, c, None) for u, v, c, _ in ij_edges),
        tuple((u, v, c, rank[val]) for u, v, c, val in jk_edges),
        tuple((u, v, c, rank[val]) for u, v, c, val in ik_edges),
        frozenset({"IK", "JK"}))
    base = mono_eq_solver(rank_graph)
    active = {(u, v): bool(base.get((u, v), False)) for u, v, _c, _ in ij_edges}
    est = {edge: 0 for edge, alive in active.items() if alive}
    if instrument is not None:
        instrument({"kind": "start", "op": "mono_min_eq",
                    "rank_graph": rank_graph})

    for level in range(t - 1, -1, -1):
        edges_ij = tuple(
            (u, v, composite_color(c, est[(u, v)] >> level, tag_bound), None)
            for u, v, c, _ in ij_edges if active[(u, v)])
        edges_ik = tuple(
            (u, v, composite_color(c, rank[val] >> level, tag_bound), rank[val])
            for u, v, c, val in ik_edges)
        edges_jk = tuple(
            (u, v, composite_color(c, rank[val] >> level, tag_bound), rank[val])
            for u, v, c, val in jk_edges)
        probe = ColoredValuedGraph(g.part_sizes, edges_ij, edges_jk, edges_ik,
                                   frozenset({"IK", "JK"}))
        answers = mono_eq_solver(probe)
        for edge in est:
            if not answers.get(edge, False):
                est[edge] += 1 << level
        if instrument is not None:
            instrument({"kind": "level", "op": "mono_min_eq",
                        "level": level, "estimates": dict(est),
                        "active": dict(active)})

    return {edge: (unrank[est[edge]] if alive else PLUS_INF)
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
    ij_edges, ik_edges, jk_edges = _case_a_data(g)
    rank, unrank = _joint_ranks(
        (e[3] for e in ik_edges), (e[3] for e in jk_edges))
    if not unrank:
        return {(u, v): PLUS_INF for u, v, _c, _ in ij_edges}
    a_tag = {(u, v): 2 * rank[val] for u, v, _c, val in ik_edges}
    b_tag = {(u, v): 2 * rank[val] + 1 for u, v, _c, val in jk_edges}
    t = ceil_log2(max(2, 2 * len(unrank)))

    best: dict[tuple[int, int], Optional[int]] = {
        (u, v): None for u, v, _c, _ in ij_edges}

    for bit in range(t):
        cut_a = {e: (v >> (bit + 1)) if not (v >> bit) & 1 else -1
                 for e, v in a_tag.items()}
        cut_b = {e: (v >> (bit + 1)) if (v >> bit) & 1 else -2
                 for e, v in b_tag.items()}
        prefix_instance = ColoredValuedGraph(
            g.part_sizes,
            tuple((u, v, c, None) for u, v, c, _ in ij_edges),
            tuple((u, v, c, cut_b[(u, v)]) for u, v, c, _ in jk_edges),
            tuple((u, v, c, cut_a[(u, v)]) for u, v, c, _ in ik_edges),
            frozenset({"IK", "JK"}))
        prefix = mono_min_eq_via_mono_eq(prefix_instance, mono_eq_solver,
                                         instrument)
        active = {e: prefix[e] != PLUS_INF for e in prefix}
        if not any(active.values()):
            continue
        est = {e: prefix[e] << (bit + 1) for e, alive in active.items() if alive}

        max_tag = max(max(cut_a.values(), default=0),
                      max(cut_b.values(), default=0))
        for e, alive in active.items():
            if alive:
                max_tag = max(max_tag, prefix[e])
        bound = max_tag + 3  # room for the +2 filler shift

        if instrument is not None:
            instrument({"kind": "start", "op": "mono_min_le_inner",
                        "ij": [(u, v, c) for u, v, c, _ in ij_edges],
                        "ik": [(u, v, c, cut_a[(u, v)]) for u, v, c, _ in ik_edges],
                        "jk": [(u, v, c, cut_b[(u, v)], b_tag[(u, v)])
                               for u, v, c, _ in jk_edges],
                        "prefix": dict(prefix)})
        for level in range(bit, -1, -1):
            edges_ij = tuple(
                (u, v, composite_color(c, prefix[(u, v)] + 2, bound),
                 est[(u, v)] >> level)
                for u, v, c, _ in ij_edges if active[(u, v)])
            edges_ik = tuple(
                (u, v, composite_color(c, cut_a[(u, v)] + 2, bound), None)
                for u, v, c, _ in ik_edges)
            edges_jk = tuple(
                (u, v, composite_color(c, cut_b[(u, v)] + 2, bound),
                 b_tag[(u, v)] >> level)
                for u, v, c, _ in jk_edges)
            probe = ColoredValuedGraph(
                g.part_sizes, edges_ij, edges_jk, edges_ik,
                frozenset({"IJ", "JK"}))
            answers = monoeq_solver(probe)
            for e in est:
                if not answers.get(("IJ",) + e, False):
                    est[e] += 1 << level
            if instrument is not None:
                instrument({"kind": "level", "op": "mono_min_le_inner",
                            "level": level, "estimates": dict(est),
                            "active": dict(active)})
        for e, alive in active.items():
            if not alive:
                continue
            rank_found = (est[e] - 1) // 2
            if best[e] is None or rank_found < best[e]:
                best[e] = rank_found

    return {e: (PLUS_INF if r is None else unrank[r]) for e, r in best.items()}
