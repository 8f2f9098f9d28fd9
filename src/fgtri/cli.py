"""Operator surface: generate instances, run solvers and reduction
pipelines, run the statistical verification suites, and emit
machine-readable reports.

Every command funnels its randomness through one seed (--seed, the
FGT_SEED environment variable, or a fresh draw that gets printed), so any
reported result can be replayed. Reports are JSON lines with sorted keys
and no timestamps: same seed, same bytes.

Exit codes: 0 success, 1 check mismatch, 2 usage error, 3 I/O or parse
error (an unreadable or non-UTF-8 input, or an unwritable output path).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import secrets
import sys
import time
from functools import partial

from . import generators, oracles, products, setfam, textio, witness_listing
from . import monoeq as monoeq_mod
from . import zero_triangle as zt
from .fast_solvers import ae_mono_triangle_fast, ae_sparse_triangle_fast
from .instances import (ColoredValuedGraph, IntMatrix, PLUS_INF,
                        SetFamilyInstance, TripartiteWeightedGraph)
from .rng import RngStream

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2
EXIT_IO = 3


class CheckFailure(Exception):
    pass


class UsageFailure(Exception):
    pass


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("FGT_SEED")
    if env is not None:
        return int(env)
    seed = secrets.randbits(63)
    print(f"# seed {seed} (drawn from system entropy; pass --seed to replay)")
    return seed


def _read_documents(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return textio.parse_documents(handle.read())


def _write_text(path, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _json_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True) + "\n"


# ---------------------------------------------------------------- gen

_VALUE_SIDES = {
    "all": frozenset({"IJ", "JK", "IK"}),
    "a": frozenset({"IK", "JK"}),
    "b": frozenset({"IJ", "JK"}),
    "c": frozenset({"IJ", "IK"}),
    "none": frozenset(),
}


def cmd_gen(args) -> int:
    seed = _resolve_seed(args)
    rng = RngStream(seed, ("gen", args.type))
    lines = []
    if args.type == "zero-triangle":
        graph, planted = generators.generate_tripartite(
            args.n, args.weight_bound, args.plant, rng)
        text = textio.serialize(graph)
        if planted is not None:
            lines.append(f"PLANTED {planted[0]} {planted[1]} {planted[2]}")
    elif args.type == "colored":
        sizes = generators.balanced_split(args.n)
        graph = generators.generate_colored(
            sizes, args.colors, args.density, args.value_range,
            _VALUE_SIDES[args.value_sides], rng)
        text = textio.serialize(graph)
    elif args.type == "product":
        lo, hi = -args.weight_bound, args.weight_bound
        if args.kind == "min-witness":
            lo, hi = 0, 1
        a = generators.generate_matrix(args.n, args.n, lo, hi, rng.child("a"))
        b = generators.generate_matrix(args.n, args.n, lo, hi, rng.child("b"))
        text = textio.serialize(a) + textio.serialize(b)
    elif args.type == "sets":
        inst = generators.generate_set_family(
            args.universe, args.family, args.max_set, args.queries, rng,
            args.cap)
        text = textio.serialize(inst)
    else:  # pragma: no cover - argparse restricts choices
        raise UsageFailure(f"unknown instance type {args.type}")
    _write_text(args.out, text)
    for line in lines:
        print(line)
    return EXIT_OK


# ---------------------------------------------------------------- solve

def _format_sparse_answers(answers) -> str:
    return "".join(f"EDGE {a} {b} {int(val)}\n"
                   for (a, b), val in sorted(answers.items()))


def _format_mono_answers(answers) -> str:
    return "".join(f"{pair} {u} {v} {int(val)}\n"
                   for (pair, u, v), val in sorted(answers.items()))


def _format_lists(lists) -> str:
    return "".join(
        f"LIST {a} {b} : " + " ".join(str(c) for _a, _b, c in tris) + "\n"
        for (a, b), tris in sorted(lists.items()))


def _format_witness(witness) -> str:
    if witness is None:
        return "NONE\n"
    return f"WITNESS {witness[0]} {witness[1]} {witness[2]}\n"


def _expect(instance, cls, what: str):
    if not isinstance(instance, cls):
        raise UsageFailure(f"{what} needs a {cls.__name__} input")
    return instance


_PRODUCT_KIND_FLAGS = {
    "min-eq": oracles.MIN_EQ, "min-le": oracles.MIN_LE,
    "max-le": oracles.MAX_LE, "max-min": oracles.MAX_MIN,
    "min-witness": oracles.MIN_WITNESS, "exists-eq": oracles.EXISTS_EQ,
    "exists-dom": oracles.EXISTS_DOM,
}
_MONO_KIND_FLAGS = {
    "mono-eq": oracles.MONO_EQ, "mono-min-eq": oracles.MONO_MIN_EQ,
    "mono-min-le": oracles.MONO_MIN_LE,
}


def cmd_solve(args) -> int:
    docs = _read_documents(args.input)
    instance = docs[0]
    name = args.solver
    out: str
    if name == "zero-bf":
        g = _expect(instance, TripartiteWeightedGraph, name)
        out = _format_witness(oracles.zero_triangle_bf(g))
    elif name == "exact-bf":
        g = _expect(instance, TripartiteWeightedGraph, name)
        out = _format_witness(oracles.exact_triangle_bf(g, args.target))
    elif name in ("ae-sparse-bf", "ae-sparse-fast"):
        g = _expect(instance, TripartiteWeightedGraph, name)
        if name == "ae-sparse-bf":
            answers = oracles.ae_sparse_triangle_bf(g)
        else:
            delta = math.inf if args.delta == -1 else args.delta
            answers = ae_sparse_triangle_fast(g, delta)
            if args.check and answers != oracles.ae_sparse_triangle_bf(g):
                raise CheckFailure("fast sparse solver disagrees with oracle")
        out = _format_sparse_answers(answers)
    elif name in ("ae-mono-bf", "ae-mono-fast"):
        g = _expect(instance, ColoredValuedGraph, name)
        if name == "ae-mono-bf":
            answers = oracles.ae_mono_triangle_bf(g)
        else:
            d = math.inf if args.degree_threshold == -1 else args.degree_threshold
            answers = ae_mono_triangle_fast(g, d)
            if args.check and answers != oracles.ae_mono_triangle_bf(g):
                raise CheckFailure("fast mono solver disagrees with oracle")
        out = _format_mono_answers(answers)
    elif name == "ae-monoeq-bf":
        g = _expect(instance, ColoredValuedGraph, name)
        out = _format_mono_answers(oracles.ae_monoeq_triangle_bf(g))
    elif name == "list-bf":
        g = _expect(instance, TripartiteWeightedGraph, name)
        per_edge = None if args.per_edge_cap == -1 else args.per_edge_cap
        global_cap = None if args.global_cap == -1 else args.global_cap
        out = _format_lists(oracles.triangle_list_bf(g, per_edge, global_cap))
    elif name == "product-bf":
        if len(docs) != 2:
            raise UsageFailure("product-bf needs a file with two matrices")
        a = _expect(docs[0], IntMatrix, name)
        b = _expect(docs[1], IntMatrix, name)
        out = textio.serialize(oracles.product_bf(a, b,
                                                  _PRODUCT_KIND_FLAGS[args.kind]))
    elif name == "mono-product-bf":
        g = _expect(instance, ColoredValuedGraph, name)
        answers = oracles.mono_product_bf(g, _MONO_KIND_FLAGS[args.kind])
        out = "".join(
            f"ENTRY {u} {v} {'inf' if val == PLUS_INF else val}\n"
            if not isinstance(val, bool) else f"ENTRY {u} {v} {int(val)}\n"
            for (u, v), val in sorted(answers.items()))
    elif name == "sets-bf":
        s = _expect(instance, SetFamilyInstance, name)
        if args.mode == "disjointness":
            answers = oracles.set_queries_bf(s, oracles.DISJOINTNESS)
            out = "".join(f"Q {i} {j} {int(val)}\n"
                          for (i, j), val in zip(s.queries, answers))
        else:
            lists = oracles.set_queries_bf(s, oracles.INTERSECTION)
            out = "".join(
                f"Q {i} {j} : " + " ".join(map(str, elems)) + "\n"
                for (i, j), elems in zip(s.queries, lists))
    else:
        raise UsageFailure(f"unknown solver {name!r}")
    _write_text(args.out, out)
    return EXIT_OK


# ---------------------------------------------------------------- reduce

def _bf_lister(graph, cap):
    return oracles.triangle_list_bf(graph, per_edge_cap=cap)


def _bf_global_lister(graph, cap):
    lists = oracles.triangle_list_bf(graph, global_cap=cap)
    return [tri for _edge, tris in sorted(lists.items()) for tri in tris]


def _detect_lister(graph, cap):
    # Deterministic stream derived from the subinstance itself, so the
    # lister is a pure function of its arguments regardless of call order.
    digest = 0
    for ch in textio.serialize(graph).encode("utf-8"):
        digest = (digest * 1099511628211 + ch) & ((1 << 63) - 1)
    rng = RngStream(digest, ("detect-lister",))
    # No edge has more triangles than its common C-neighborhood, so capping
    # there is lossless; the subsampling lister's round count grows with
    # cap^2, and pipeline caps are far beyond what sparse subinstances hold.
    mask_a, mask_b = oracles._c_masks(graph)
    widest = max((bin(mask_a[a] & mask_b[b]).count("1")
                  for a, b, _w in graph.edges_ab), default=0)
    effective = min(cap, widest)
    if effective == 0:
        return {(a, b): [] for a, b, _w in graph.edges_ab}
    return witness_listing.listing_via_detection(
        graph, effective, ae_sparse_triangle_fast, rng)


_LISTERS = {"bf-lister": _bf_lister, "detect-lister": _detect_lister}
_DETECTORS = {"sparse-bf": oracles.ae_sparse_triangle_bf,
              "sparse-fast": ae_sparse_triangle_fast}
_MONO_SOLVERS = {
    "mono-bf": oracles.ae_mono_triangle_bf,
    "mono-fast": lambda g: ae_mono_triangle_fast(g, degree_threshold=4),
}
_MONOEQ_SOLVERS = {"monoeq-bf": oracles.ae_monoeq_triangle_bf}


def _ij_only(answers):
    return {(u, v): val for (pair, u, v), val in answers.items()
            if pair == "IJ"}


def _tiles(total: int, width: int):
    return [(lo, min(lo + width, total)) for lo in range(0, total, width)] \
        or [(0, 0)]


def _tile_graph(g: TripartiteWeightedGraph, spans):
    """Induced subgraph on one (A, B, C) block triple, reindexed to the
    block origins."""
    (a_lo, a_hi), (b_lo, b_hi), (c_lo, c_hi) = spans
    return TripartiteWeightedGraph(
        (a_hi - a_lo, b_hi - b_lo, c_hi - c_lo),
        tuple((a - a_lo, b - b_lo, w) for a, b, w in g.edges_ab
              if a_lo <= a < a_hi and b_lo <= b < b_hi),
        tuple((b - b_lo, c - c_lo, w) for b, c, w in g.edges_bc
              if b_lo <= b < b_hi and c_lo <= c < c_hi),
        tuple((c - c_lo, a - a_lo, w) for c, a, w in g.edges_ca
              if c_lo <= c < c_hi and a_lo <= a < a_hi),
        g.weight_modulus,
    )


def _iterate_tiles(args, g, rng, sink):
    """Split the parts into blocks of the requested tile sizes and run the
    pipeline once per block triple; a triangle lives in exactly one triple,
    so the verdict is the OR with early exit."""
    ta, tb, tc = (int(tok) for tok in args.tile.split(","))
    if min(ta, tb, tc) < 1:
        raise UsageFailure("tile sizes must be positive")
    na, nb, nc = g.part_sizes
    for ia, a_span in enumerate(_tiles(na, ta)):
        for ib, b_span in enumerate(_tiles(nb, tb)):
            for ic, c_span in enumerate(_tiles(nc, tc)):
                tile = _tile_graph(g, (a_span, b_span, c_span))
                if min(tile.part_sizes) == 0:
                    continue
                found, witness = _run_zero_pipeline(
                    args, tile, rng.child("tile", ia, ib, ic), sink)
                if found:
                    a, b, c = witness
                    return True, (a + a_span[0], b + b_span[0],
                                  c + c_span[0])
    return False, None


def _run_zero_pipeline(args, g, rng, sink) -> tuple[bool, object]:
    trials = args.trials if args.trials is not None \
        else zt.default_trials(sum(g.part_sizes), args.trial_multiplier)
    if args.pipeline == "zero-via-listing":
        if args.inner not in _LISTERS:
            raise UsageFailure(f"unknown inner lister {args.inner!r}")
        return zt.zero_triangle_via_listing(
            g, args.s, _LISTERS[args.inner], trials, rng, report_sink=sink)
    return zt.zero_triangle_via_global_listing(
        g, args.s, _bf_global_lister, trials, rng, report_sink=sink)


def cmd_reduce(args) -> int:
    seed = _resolve_seed(args)
    rng = RngStream(seed, ("reduce", args.pipeline))
    docs = _read_documents(args.input)
    instance = docs[0]
    report_lines: list[str] = []

    def sink(record: dict) -> None:
        report_lines.append(_json_line(record))

    verdict_text = ""
    failed_check = False
    name = args.pipeline

    if name in ("zero-via-listing", "zero-via-global-listing"):
        g = _expect(instance, TripartiteWeightedGraph, name)
        if args.tile is not None:
            found, witness = _iterate_tiles(args, g, rng, sink)
        else:
            found, witness = _run_zero_pipeline(args, g, rng, sink)
        verdict_text = _format_witness(witness if found else None)
        if args.check:
            truth = oracles.zero_triangle_bf(g) is not None
            if found and not truth:
                failed_check = True  # unreachable: hits are verified
            if truth and not found:
                failed_check = True
    elif name == "listing-via-detection":
        g = _expect(instance, TripartiteWeightedGraph, name)
        if args.inner not in _DETECTORS:
            raise UsageFailure(f"unknown inner detector {args.inner!r}")
        lists = witness_listing.listing_via_detection(
            g, args.cap, _DETECTORS[args.inner], rng)
        verdict_text = _format_lists(lists)
        if args.check:
            truth = oracles.triangle_list_bf(g)
            for edge, tris in truth.items():
                got = lists.get(edge, [])
                want = min(args.cap, len(tris))
                if len(got) != want or not set(got) <= set(tris):
                    failed_check = True
                    break
        sink({"pipeline": name, "edges": len(lists),
              "triangles": sum(len(v) for v in lists.values())})
    elif name == "monoeq":
        g = _expect(instance, ColoredValuedGraph, name)
        if args.inner not in _MONO_SOLVERS:
            raise UsageFailure(f"unknown inner mono solver {args.inner!r}")
        threshold = math.inf if args.degree_threshold == -1 \
            else args.degree_threshold
        if args.size_threshold == -1:
            size_threshold = math.inf
        elif args.size_threshold == -2:
            size_threshold = max(g.part_sizes)
        else:
            size_threshold = args.size_threshold
        answers = monoeq_mod.solve_ae_monoeq(
            g, threshold, size_threshold, _MONO_SOLVERS[args.inner], rng)
        verdict_text = "".join(f"EDGE {u} {v} {int(val)}\n"
                               for (u, v), val in sorted(answers.items()))
        if args.check:
            failed_check = answers != _ij_only(oracles.ae_monoeq_triangle_bf(g))
        sink({"pipeline": name, "edges": len(answers),
              "positive": sum(answers.values())})
    elif name in ("min-eq-via-monoeq", "min-le-via-monoeq",
                  "max-le-via-monoeq", "max-min", "min-witness",
                  "exists-eq", "exists-dom"):
        if len(docs) != 2:
            raise UsageFailure(f"{name} needs a file with two matrices")
        a = _expect(docs[0], IntMatrix, name)
        b = _expect(docs[1], IntMatrix, name)
        if args.inner not in _MONOEQ_SOLVERS:
            raise UsageFailure(f"unknown inner monoeq solver {args.inner!r}")
        solver = _MONOEQ_SOLVERS[args.inner]
        min_le = partial(products.min_le_via_monoeq, monoeq_solver=solver)
        chains = {
            "min-eq-via-monoeq": (oracles.MIN_EQ, partial(
                products.min_eq_via_monoeq, monoeq_solver=solver)),
            "min-le-via-monoeq": (oracles.MIN_LE, min_le),
            "max-le-via-monoeq": (oracles.MAX_LE, partial(
                products.max_le_via_monoeq, monoeq_solver=solver)),
            "max-min": (oracles.MAX_MIN, partial(
                products.max_min_product, min_le_solver=min_le)),
            "min-witness": (oracles.MIN_WITNESS, partial(
                products.min_witness_via_max_min,
                max_min_solver=partial(products.max_min_product,
                                       min_le_solver=min_le))),
            "exists-eq": (oracles.EXISTS_EQ, partial(
                products.exists_eq_via_min_eq,
                min_eq_solver=partial(products.min_eq_via_monoeq,
                                      monoeq_solver=solver))),
            "exists-dom": (oracles.EXISTS_DOM, partial(
                products.exists_dom_via_min_le, min_le_solver=min_le)),
        }
        kind, chain = chains[name]
        result = chain(a, b)
        verdict_text = textio.serialize(result)
        if args.check:
            failed_check = result != oracles.product_bf(a, b, kind)
        sink({"pipeline": name, "rows": result.rows, "cols": result.cols})
    elif name in ("mono-min-eq", "mono-eq", "mono-min-le"):
        g = _expect(instance, ColoredValuedGraph, name)
        mono_eq_solver = lambda h: oracles.mono_product_bf(h, oracles.MONO_EQ)
        if name == "mono-min-eq":
            answers = products.mono_min_eq_via_mono_eq(g, mono_eq_solver)
            truth = oracles.mono_product_bf(g, oracles.MONO_MIN_EQ)
        elif name == "mono-eq":
            answers = products.mono_eq_via_mono_min_eq(
                g, partial(products.mono_min_eq_via_mono_eq,
                           mono_eq_solver=mono_eq_solver))
            truth = oracles.mono_product_bf(g, oracles.MONO_EQ)
        else:
            answers = products.mono_min_le_via_monoeq(
                g, oracles.ae_monoeq_triangle_bf, mono_eq_solver)
            truth = oracles.mono_product_bf(g, oracles.MONO_MIN_LE)
        verdict_text = "".join(
            f"ENTRY {u} {v} {'inf' if val == PLUS_INF else int(val)}\n"
            for (u, v), val in sorted(answers.items()))
        if args.check:
            failed_check = answers != truth
        sink({"pipeline": name, "edges": len(answers)})
    elif name in ("sparse-to-disjointness", "listing-to-intersection"):
        g = _expect(instance, TripartiteWeightedGraph, name)
        if name == "sparse-to-disjointness":
            inst, decode = setfam.sparse_triangle_to_set_disjointness(g)
            answers = decode.decode_disjointness(
                oracles.set_queries_bf(inst, oracles.DISJOINTNESS))
            verdict_text = _format_sparse_answers(answers)
            if args.check:
                failed_check = answers != oracles.ae_sparse_triangle_bf(g)
        else:
            cap = None if args.global_cap == -1 else args.global_cap
            inst, decode = setfam.listing_to_set_intersection(g, cap)
            lists = decode.decode_intersection(
                oracles.set_queries_bf(inst, oracles.INTERSECTION))
            verdict_text = _format_lists(lists)
            if args.check:
                failed_check = lists != oracles.triangle_list_bf(
                    g, global_cap=cap)
        sink({"pipeline": name, "queries": len(inst.queries)})
    else:
        raise UsageFailure(f"unknown pipeline {name!r}")

    _write_text(args.out, verdict_text)
    if args.report is not None:
        _write_text(args.report, "".join(report_lines))
    if args.check and failed_check:
        print("check: MISMATCH against brute oracle", file=sys.stderr)
        return EXIT_CHECK
    if args.check:
        print("check: ok", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------- verify

def _multiplicity_suite(host_size: int, runs: int, rng: RngStream):
    """Fraction of seeded packings whose observed multiplicity stays within
    the label budget on the first permutation draw."""
    def one(run: int) -> bool:
        stream = rng.child("mult", run)
        sources = []
        for q in range(4):
            n = host_size // 6 + 1
            sources.append(generators.generate_colored(
                (n, n, n), 1, 60, 1, frozenset(),
                stream.child("src", q)))
        try:
            combined = monoeq_mod.combine_sparse_into_mono(
                sources, host_size, stream.child("combine"), max_retries=1)
        except RuntimeError:
            return False
        return combined.observed_max_label <= combined.max_label

    return sum(one(run) for run in range(runs)) / runs


def cmd_verify(args) -> int:
    seed = _resolve_seed(args)
    rng = RngStream(seed, ("verify",))
    graph, planted = generators.generate_tripartite(
        args.n, args.weight_bound, True, rng.child("instance"))
    stats = zt.claim_statistics(graph, planted, args.s, args.trials,
                                rng.child("claims"))
    mult_ok = _multiplicity_suite(3 * args.n, args.mult_runs,
                                  rng.child("suite"))

    checks = [
        ("f1_planted_survives", stats.f1, args.f1_min),
        ("f2_per_edge_bound", stats.f2, args.f2_min),
        ("f3_global_bound", stats.f3, args.f3_min),
        ("combine_multiplicity", mult_ok, args.mult_min),
    ]
    lines = []
    all_pass = True
    for metric, value, target in checks:
        ok = value >= target
        all_pass = all_pass and ok
        lines.append(_json_line({
            "metric": metric, "value": round(value, 6), "target": target,
            "pass": ok, "n": args.n, "s": args.s, "trials": args.trials,
            "seed": seed,
        }))
    text = "".join(lines)
    _write_text(args.out, text)
    if args.report is not None:
        _write_text(args.report, text)
    return EXIT_OK if all_pass else EXIT_CHECK


# ---------------------------------------------------------------- bench

def cmd_bench(args) -> int:
    seed = _resolve_seed(args)
    rng = RngStream(seed, ("bench",))
    sizes = [int(tok) for tok in args.sizes.split(",") if tok] if args.sizes else []
    solvers = [tok for tok in args.solvers.split(",") if tok] if args.solvers else []

    def time_once(fn) -> float:
        start = time.perf_counter()
        fn()
        return (time.perf_counter() - start) * 1000.0

    rows = []
    for n in sorted(sizes):
        graph, _ = generators.generate_tripartite(
            n, 50, False, rng.child("instance", n))
        colored = generators.generate_colored(
            generators.balanced_split(n), 4, 60, 8,
            frozenset(), rng.child("colored", n))
        for solver in solvers:
            if solver == "ae-sparse-bf":
                fn = lambda: oracles.ae_sparse_triangle_bf(graph)
            elif solver == "ae-sparse-fast":
                fn = lambda: ae_sparse_triangle_fast(graph)
            elif solver == "ae-mono-bf":
                fn = lambda: oracles.ae_mono_triangle_bf(colored)
            elif solver == "ae-mono-fast":
                fn = lambda: ae_mono_triangle_fast(colored, degree_threshold=4)
            elif solver == "zero-bf":
                fn = lambda: oracles.zero_triangle_bf(graph)
            else:
                raise UsageFailure(f"unknown bench solver {solver!r}")
            samples = sorted(time_once(fn) for _ in range(args.reps))
            rows.append({"solver": solver, "n": n,
                         "median_ms": round(samples[len(samples) // 2], 3),
                         "reps": args.reps})
    table = {"seed": seed, "rows": rows}
    _write_text(args.out, json.dumps(table, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------- parser

def _positive_int(text: str) -> int:
    """A repetition count: non-positive values are usage errors."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fgtri",
        description="triangle reductions workbench: generate, solve, "
                    "reduce, verify, bench")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output path (default stdout)")

    gen = sub.add_parser("gen", help="generate a seeded instance file")
    add_common(gen)
    gen.add_argument("--type", required=True,
                     choices=("zero-triangle", "colored", "product", "sets"))
    gen.add_argument("--n", type=int, default=12)
    gen.add_argument("--weight-bound", type=int, default=50)
    gen.add_argument("--plant", action="store_true")
    gen.add_argument("--colors", type=int, default=3)
    gen.add_argument("--density", type=int, default=60,
                     help="edge keep percentage")
    gen.add_argument("--value-range", type=int, default=8)
    gen.add_argument("--value-sides", choices=sorted(_VALUE_SIDES), default="a")
    gen.add_argument("--kind", choices=sorted(_PRODUCT_KIND_FLAGS), default="min-eq")
    gen.add_argument("--universe", type=int, default=16)
    gen.add_argument("--family", type=int, default=8)
    gen.add_argument("--max-set", type=int, default=6)
    gen.add_argument("--queries", type=int, default=12)
    gen.add_argument("--cap", type=int, default=None)
    gen.set_defaults(func=cmd_gen)

    solve = sub.add_parser("solve", help="run an oracle or fast solver")
    add_common(solve)
    solve.add_argument("--solver", required=True)
    solve.add_argument("--in", dest="input", required=True)
    solve.add_argument("--check", action="store_true",
                       help="cross-validate against the brute oracle")
    solve.add_argument("--target", type=int, default=0)
    solve.add_argument("--delta", type=int, default=-1,
                       help="sparse degree threshold; -1 = infinity, i.e. "
                            "pure enumeration (not the solver's sqrt(m) "
                            "default)")
    solve.add_argument("--degree-threshold", type=int, default=4)
    solve.add_argument("--per-edge-cap", type=int, default=-1)
    solve.add_argument("--global-cap", type=int, default=-1)
    solve.add_argument("--kind", default="min-eq")
    solve.add_argument("--mode", choices=("disjointness", "intersection"),
                       default="disjointness")
    solve.set_defaults(func=cmd_solve)

    reduce_p = sub.add_parser("reduce", help="run a reduction pipeline")
    add_common(reduce_p)
    reduce_p.add_argument("--pipeline", required=True)
    reduce_p.add_argument("--in", dest="input", required=True)
    reduce_p.add_argument("--inner", default="bf-lister")
    reduce_p.add_argument("--check", action="store_true")
    reduce_p.add_argument("--report", default=None,
                          help="JSON-lines per-subinstance report path")
    reduce_p.add_argument("--s", type=int, default=4,
                          help="range count for the field split")
    reduce_p.add_argument("--trials", type=_positive_int, default=None)
    reduce_p.add_argument("--trial-multiplier", type=_positive_int,
                          default=100)
    reduce_p.add_argument("--cap", type=int, default=3)
    reduce_p.add_argument("--global-cap", type=int, default=-1)
    reduce_p.add_argument("--degree-threshold", type=int, default=2)
    reduce_p.add_argument("--size-threshold", type=int, default=-2,
                          help="-1 = inf; -2 = instance part-size default")
    reduce_p.add_argument("--tile", default=None, metavar="A,B,C",
                          help="run the zero pipelines per part-block "
                               "triple of these sizes")
    reduce_p.set_defaults(func=cmd_reduce)

    verify = sub.add_parser(
        "verify", help="statistical verification of the pipeline claims")
    add_common(verify)
    verify.add_argument("--n", type=int, default=48)
    verify.add_argument("--s", type=int, default=4)
    verify.add_argument("--trials", type=_positive_int, default=2000)
    verify.add_argument("--weight-bound", type=int, default=60)
    verify.add_argument("--f1-min", type=float, default=0.90)
    verify.add_argument("--f2-min", type=float, default=0.95)
    verify.add_argument("--f3-min", type=float, default=0.95)
    verify.add_argument("--mult-min", type=float, default=0.99)
    verify.add_argument("--mult-runs", type=_positive_int, default=200)
    verify.add_argument("--report", default=None)
    verify.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", help="timing table over a size sweep")
    add_common(bench)
    bench.add_argument("--sizes", default="")
    bench.add_argument("--solvers", default="")
    bench.add_argument("--reps", type=_positive_int, default=3)
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageFailure as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except textio.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (OSError, UnicodeDecodeError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
