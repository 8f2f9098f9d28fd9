"""Operator surface: generate instances, run solvers and reduction
pipelines, run the statistical verification suites, and emit
machine-readable reports.

Every command funnels its randomness through one seed (--seed, the
FGT_SEED environment variable, or a fresh draw that gets printed), so any
reported result can be replayed. Reports are JSON lines with sorted keys
and no timestamps: same seed, same bytes.

Exit codes: 0 success, 1 check mismatch, 2 usage error (a ``UsageFailure``:
an option, or an input that the chosen solver does not accept), 3 I/O or
parse error (an unreadable or non-UTF-8 input, or an unwritable output
path), 4 internal error (any other exception, such as a randomized step
that ran out of retries or a ``KeyError`` from a fault inside; only
``SystemExit`` and ``KeyboardInterrupt`` pass through).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import secrets
import sys
import time
from functools import partial
from typing import Callable, NamedTuple, Optional

from . import generators, oracles, products, setfam, textio, witness_listing
from . import monoeq as monoeq_mod
from . import zero_triangle as zt
from .fast_solvers import ae_mono_triangle_fast, ae_sparse_triangle_fast
from .instances import (_PAIR_PARTS, CASE_VALUE_SIDES, COLORED_PAIRS,
                        WEIGHTED_PAIRS, ColoredValuedGraph, IntMatrix,
                        PLUS_INF, SetFamilyInstance, TripartiteWeightedGraph,
                        UsageFailure)
from .rng import RngStream

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


def _resolve_seed(args) -> int:
    if args.seed is not None:  # --seed, else FGT_SEED (see add_common)
        return args.seed
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

_VALUE_SIDES = {"all": frozenset(COLORED_PAIRS), "none": frozenset(),
                **{t.lower(): sides for t, sides in CASE_VALUE_SIDES.items()}}


def cmd_gen(args) -> int:
    seed = _resolve_seed(args)
    rng = RngStream(seed, ("gen", args.type))
    planted = None
    if args.type == "zero-triangle":
        graph, planted = generators.generate_tripartite(
            args.n, args.weight_bound, args.plant, rng)
        docs = [graph]
    elif args.type == "colored":
        docs = [generators.generate_colored(
            generators.balanced_split(args.n), args.colors, args.density,
            args.value_range, _VALUE_SIDES[args.value_sides], rng)]
    elif args.type == "product":
        lo, hi = -args.weight_bound, args.weight_bound
        if args.kind == "min-witness":
            lo, hi = 0, 1
        docs = [generators.generate_matrix(args.n, args.n, lo, hi,
                                           rng.child(side)) for side in "ab"]
    else:  # sets; argparse restricts the choices
        docs = [generators.generate_set_family(
            args.universe, args.family, args.max_set, args.queries, rng,
            args.cap)]
    _write_text(args.out, "".join(map(textio.serialize, docs)))
    if planted is not None:
        print(f"PLANTED {planted[0]} {planted[1]} {planted[2]}")
    return EXIT_OK


# ---------------------------------------------------------------- tables

def _format_sparse_answers(answers) -> str:
    return "".join(f"EDGE {a} {b} {int(val)}\n"
                   for (a, b), val in sorted(answers.items()))


def _format_mono_answers(answers) -> str:
    return "".join(f"{pair} {u} {v} {int(val)}\n"
                   for (pair, u, v), val in sorted(answers.items()))


def _format_entries(answers) -> str:
    return "".join(f"ENTRY {u} {v} {'inf' if val == PLUS_INF else int(val)}\n"
                   for (u, v), val in sorted(answers.items()))


def _format_lists(lists) -> str:
    return "".join(
        f"LIST {a} {b} : " + " ".join(str(c) for _a, _b, c in tris) + "\n"
        for (a, b), tris in sorted(lists.items()))


def _format_witness(witness) -> str:
    if witness is None:
        return "NONE\n"
    return f"WITNESS {witness[0]} {witness[1]} {witness[2]}\n"


# An input type is the class of each document its file must hold.
_TWG = (TripartiteWeightedGraph,)
_CVG = (ColoredValuedGraph,)
_PAIR = (IntMatrix, IntMatrix)


class _Solver(NamedTuple):
    input: tuple
    run: Callable       # (args, kind, *documents) -> answers
    format: Callable    # answers -> output text
    oracle: Optional[Callable] = None  # *documents -> what --check expects
    kinds: dict = {}    # --kind value -> product flag; the first is the default


class _Pipeline(NamedTuple):
    input: tuple
    inners: dict        # --inner value -> solver; the first is the default
    run: Callable       # (args, inner, rng, sink, *documents) -> (text, check)


def _plain(fn):
    """A solver run that needs neither the options nor a kind."""
    return lambda _args, _kind, *docs: fn(*docs)


def _kind_names(flags) -> dict:
    """--kind values: each oracle flag in lower case with dashes, in order."""
    return {flag.lower().replace("_", "-"): flag for flag in flags}


def _sets_bf(args, _kind, s: SetFamilyInstance) -> str:
    if args.mode == "disjointness":
        answers = oracles.set_queries_bf(s, oracles.DISJOINTNESS)
        return "".join(f"Q {i} {j} {int(val)}\n"
                       for (i, j), val in zip(s.queries, answers))
    lists = oracles.set_queries_bf(s, oracles.INTERSECTION)
    return "".join(f"Q {i} {j} : " + " ".join(map(str, elems)) + "\n"
                   for (i, j), elems in zip(s.queries, lists))


_SOLVERS = {
    "zero-bf": _Solver(_TWG, _plain(oracles.zero_triangle_bf), _format_witness),
    "exact-bf": _Solver(
        _TWG, lambda args, _k, g: oracles.exact_triangle_bf(g, args.target),
        _format_witness),
    "ae-sparse-bf": _Solver(_TWG, _plain(oracles.ae_sparse_triangle_bf),
                            _format_sparse_answers),
    "ae-sparse-fast": _Solver(_TWG, _plain(ae_sparse_triangle_fast),
                              _format_sparse_answers,
                              oracles.ae_sparse_triangle_bf),
    "ae-mono-bf": _Solver(_CVG, _plain(oracles.ae_mono_triangle_bf),
                          _format_mono_answers),
    "ae-mono-fast": _Solver(_CVG, _plain(ae_mono_triangle_fast),
                            _format_mono_answers, oracles.ae_mono_triangle_bf),
    "ae-monoeq-bf": _Solver(_CVG, _plain(oracles.ae_monoeq_triangle_bf),
                            _format_mono_answers),
    "list-bf": _Solver(
        _TWG, lambda args, _k, g: oracles.triangle_list_bf(
            g, args.per_edge_cap, args.global_cap), _format_lists),
    "product-bf": _Solver(
        _PAIR, lambda _args, kind, a, b: oracles.product_bf(a, b, kind),
        textio.serialize, kinds=_kind_names(oracles.PRODUCT_KINDS)),
    "mono-product-bf": _Solver(
        _CVG, lambda _args, kind, g: oracles.mono_product_bf(g, kind),
        _format_entries, kinds=_kind_names(oracles.MONO_KINDS)),
    "sets-bf": _Solver((SetFamilyInstance,), _sets_bf, str),
}


def _detect_lister(g: TripartiteWeightedGraph, per_edge_cap: int):
    return witness_listing.seeded_listing_via_detection(
        g, per_edge_cap, ae_sparse_triangle_fast)


def _tiles(total: int, width: int):
    return [(lo, min(lo + width, total)) for lo in range(0, total, width)]


def _tile_graph(g: TripartiteWeightedGraph, spans):
    """Induced subgraph on one (A, B, C) block triple, reindexed to the
    block origins; a tile of a validated graph keeps its invariants."""
    def cut(pair):
        (p_lo, p_hi), (q_lo, q_hi) = (spans[i] for i in _PAIR_PARTS[pair])
        return tuple((u - p_lo, v - q_lo, w) for u, v, w in g.edges(pair)
                     if p_lo <= u < p_hi and q_lo <= v < q_hi)
    return TripartiteWeightedGraph._trusted(
        tuple(hi - lo for lo, hi in spans), *map(cut, WEIGHTED_PAIRS),
        g.weight_modulus)


def _iterate_tiles(tile: str, g, rng, once):
    """Split the parts into blocks of the requested tile sizes and run the
    pipeline once per block triple; a triangle lives in exactly one triple,
    so the verdict is the OR with early exit."""
    sizes = tile.split(",")
    if len(sizes) != 3 or not all(tok.isdecimal() and int(tok) for tok in sizes):
        raise UsageFailure(f"tile sizes must be three positive counts: {tile}")
    blocks = (enumerate(_tiles(n, int(t)))
              for n, t in zip(g.part_sizes, sizes))
    for triple in itertools.product(*blocks):
        index, spans = zip(*triple)
        found, witness = once(_tile_graph(g, spans), rng.child("tile", *index))
        if found:
            return True, tuple(v + lo for v, (lo, _hi) in zip(witness, spans))
    return False, None


def _is_zero_triangle(g: TripartiteWeightedGraph, tri) -> bool:
    try:
        return oracles.triangle_weight_sum(g, tri) == 0
    except KeyError:  # an edge of tri is missing from g
        return False


def _run_zero(cap_rule, args, lister, rng, sink, g):
    """A zero pipeline; cap_rule(part_sizes, s) is the lister's cap per
    graph or --tile block, or None for the per-edge default."""
    def once(graph, stream):
        trials = args.trials if args.trials is not None \
            else zt.default_trials(sum(graph.part_sizes), args.trial_multiplier)
        cap = cap_rule and cap_rule(graph.part_sizes, args.s)
        return zt.zero_triangle_via_listing(graph, args.s, lister, trials,
                                            stream, cap, sink)

    if args.tile is None:
        found, witness = once(g, rng)
    else:
        found, witness = _iterate_tiles(args.tile, g, rng, once)
    # Hits are re-verified, so a correct run fails the check only by a
    # missed triangle; the witness is checked too, against g's own weights.
    return (_format_witness(witness if found else None),
            lambda: found == (oracles.zero_triangle_bf(g) is not None)
            and (not found or _is_zero_triangle(g, witness)))


def _run_listing(args, detector, rng, sink, g):
    lists = witness_listing.listing_via_detection(g, args.cap, detector, rng)
    sink({"pipeline": args.pipeline, "edges": len(lists),
          "triangles": sum(len(v) for v in lists.values())})

    def check():  # each list sorted, free of repeats and of the right size
        truth = oracles.triangle_list_bf(g)
        return lists.keys() == truth.keys() and all(
            got == sorted(set(got)) and set(got) <= set(truth[edge])
            and len(got) == min(args.cap, len(truth[edge]))
            for edge, got in lists.items())
    return _format_lists(lists), check


def _run_monoeq(args, mono_solver, rng, sink, g):
    if args.degree_threshold < 0:
        raise UsageFailure("--degree-threshold must be -1 (infinity) or at "
                           f"least 0, got {args.degree_threshold}")
    if args.size_threshold < -2:
        raise UsageFailure("--size-threshold must be -1 (infinity), -2 (the "
                           f"default) or at least 0, got {args.size_threshold}")
    size = max(g.part_sizes) if args.size_threshold == -2 \
        else args.size_threshold
    answers = monoeq_mod.solve_ae_monoeq(
        g, args.degree_threshold, size, mono_solver, rng)
    sink({"pipeline": args.pipeline, "edges": len(answers),
          "positive": sum(answers.values())})
    return _format_sparse_answers(answers), lambda: answers == {
        (u, v): val for (pair, u, v), val
        in oracles.ae_monoeq_triangle_bf(g).items() if pair == "IJ"}


def _product(kind, chain):
    """A product pipeline: chain(a, b, monoeq solver) is the kind product."""
    def run(args, monoeq_solver, _rng, sink, a, b):
        result = chain(a, b, monoeq_solver)
        sink({"pipeline": args.pipeline, "rows": result.rows,
              "cols": result.cols})
        return (textio.serialize(result),
                lambda: result == oracles.product_bf(a, b, kind))
    return _Pipeline(_PAIR, _MONOEQ_BF, run)


def _min_le(solver):
    return partial(products.min_le_via_monoeq, monoeq_solver=solver)


def _mono(kind, solve):
    """A monochromatic product pipeline: solve(g, mono-eq solver) for kind."""
    def run(args, mono_eq_solver, _rng, sink, g):
        answers = solve(g, mono_eq_solver)
        sink({"pipeline": args.pipeline, "edges": len(answers)})
        return (_format_entries(answers),
                lambda: answers == oracles.mono_product_bf(g, kind))
    return _Pipeline(_CVG, _MONO_EQ_BF, run)


def _run_disjointness(args, set_solver, _rng, sink, g):
    inst, decode = setfam.sparse_triangle_to_set_disjointness(g)
    answers = decode.decode_disjointness(
        set_solver(inst, oracles.DISJOINTNESS))
    sink({"pipeline": args.pipeline, "queries": len(inst.queries)})
    return (_format_sparse_answers(answers),
            lambda: answers == oracles.ae_sparse_triangle_bf(g))


def _run_intersection(args, set_solver, _rng, sink, g):
    inst, decode = setfam.listing_to_set_intersection(g, args.global_cap)
    lists = decode.decode_intersection(set_solver(inst, oracles.INTERSECTION))
    sink({"pipeline": args.pipeline, "queries": len(inst.queries)})
    return _format_lists(lists), lambda: lists == oracles.triangle_list_bf(
        g, global_cap=args.global_cap)


# Inner solvers shared by several pipelines.
_MONOEQ_BF = {"monoeq-bf": oracles.ae_monoeq_triangle_bf}
_MONO_EQ_BF = {"mono-eq-bf": partial(oracles.mono_product_bf,
                                     kind=oracles.MONO_EQ)}
_SETS_BF = {"sets-bf": oracles.set_queries_bf}

_PIPELINES = {
    "zero-via-listing": _Pipeline(
        _TWG, {"bf-lister": oracles.triangle_list_bf,
               "detect-lister": _detect_lister},
        partial(_run_zero, None)),
    "zero-via-global-listing": _Pipeline(
        _TWG, {"bf-lister": lambda graph, cap: oracles.triangle_list_bf(
            graph, global_cap=cap)},
        partial(_run_zero, zt.default_global_cap)),
    "listing-via-detection": _Pipeline(
        _TWG, {"sparse-bf": oracles.ae_sparse_triangle_bf,
               "sparse-fast": ae_sparse_triangle_fast}, _run_listing),
    "monoeq": _Pipeline(
        _CVG, {"mono-bf": oracles.ae_mono_triangle_bf,
               "mono-fast": ae_mono_triangle_fast}, _run_monoeq),
    "min-eq-via-monoeq": _product(oracles.MIN_EQ, products.min_eq_via_monoeq),
    "min-le-via-monoeq": _product(oracles.MIN_LE, products.min_le_via_monoeq),
    "max-le-via-monoeq": _product(oracles.MAX_LE, products.max_le_via_monoeq),
    "max-min": _product(oracles.MAX_MIN, lambda a, b, s: products.max_min_product(
        a, b, _min_le(s))),
    "min-witness": _product(
        oracles.MIN_WITNESS, lambda a, b, s: products.min_witness_via_max_min(
            a, b, partial(products.max_min_product, min_le_solver=_min_le(s)))),
    "exists-eq": _product(
        oracles.EXISTS_EQ, lambda a, b, s: products.exists_eq_via_min_eq(
            a, b, partial(products.min_eq_via_monoeq, monoeq_solver=s))),
    "exists-dom": _product(
        oracles.EXISTS_DOM, lambda a, b, s: products.exists_dom_via_min_le(
            a, b, _min_le(s))),
    "mono-min-eq": _mono(oracles.MONO_MIN_EQ, products.mono_min_eq_via_mono_eq),
    "mono-eq": _mono(oracles.MONO_EQ, lambda g, s: products.mono_eq_via_mono_min_eq(
        g, partial(products.mono_min_eq_via_mono_eq, mono_eq_solver=s))),
    "mono-min-le": _mono(
        oracles.MONO_MIN_LE, lambda g, s: products.mono_min_le_via_monoeq(
            g, oracles.ae_monoeq_triangle_bf, s)),
    "sparse-to-disjointness": _Pipeline(_TWG, _SETS_BF, _run_disjointness),
    "listing-to-intersection": _Pipeline(_TWG, _SETS_BF, _run_intersection),
}


# Each pipeline-specific reduce flag (by dest) and the pipelines that read
# it; any other pipeline rejects the flag when it is set off its default.
_ZERO = ("zero-via-listing", "zero-via-global-listing")
_FLAG_READERS = {
    "s": _ZERO, "trials": _ZERO, "trial_multiplier": _ZERO, "tile": _ZERO,
    "cap": ("listing-via-detection",),
    "global_cap": ("listing-to-intersection",),
    "degree_threshold": ("monoeq",), "size_threshold": ("monoeq",),
}


# ---------------------------------------------------------------- solve, reduce

def _entry(table: dict, what: str, name: str, docs: list):
    """name's table entry, once docs are known to be its input."""
    if name not in table:
        raise UsageFailure(f"unknown {what} {name!r}; valid: {', '.join(table)}")
    entry = table[name]
    if tuple(map(type, docs)) != entry.input:
        raise UsageFailure(f"{name} needs an input file holding exactly "
                           + " + ".join(c.__name__ for c in entry.input))
    return entry


def _choose(name: str, flag: str, given, choices: dict):
    """The value flag names among name's choices; the first when absent."""
    if given is None:
        return next(iter(choices.values()), None)
    if given not in choices:
        raise UsageFailure(f"unknown {flag} {given!r} for {name}; valid: "
                           f"{', '.join(choices) or 'none'}")
    return choices[given]


def _finish(args, text: str, check, report=None) -> int:
    """Write the output and the report, then run check() under --check."""
    _write_text(args.out, text)
    if report is not None and args.report is not None:
        _write_text(args.report, report)
    if not (check and args.check):
        return EXIT_OK
    if not check():
        print("check: MISMATCH against brute oracle", file=sys.stderr)
        return EXIT_CHECK
    print("check: ok", file=sys.stderr)
    return EXIT_OK


def cmd_solve(args) -> int:
    docs = _read_documents(args.input)
    solver = _entry(_SOLVERS, "solver", args.solver, docs)
    kind = _choose(args.solver, "--kind", args.kind, solver.kinds)
    answers = solver.run(args, kind, *docs)
    check = solver.oracle and (lambda: answers == solver.oracle(*docs))
    return _finish(args, solver.format(answers), check)


def cmd_reduce(args) -> int:
    seed = _resolve_seed(args)
    rng = RngStream(seed, ("reduce", args.pipeline))
    docs = _read_documents(args.input)
    pipeline = _entry(_PIPELINES, "pipeline", args.pipeline, docs)
    for dest, readers in _FLAG_READERS.items():
        if args.pipeline not in readers \
                and getattr(args, dest) != args.flag_defaults[dest]:
            raise UsageFailure(
                f"--{dest.replace('_', '-')} is read only by "
                f"{' and '.join(readers)}, not by {args.pipeline}")
    inner = _choose(args.pipeline, "--inner", args.inner, pipeline.inners)
    report: list[str] = []
    text, check = pipeline.run(
        args, inner, rng, lambda record: report.append(_json_line(record)),
        *docs)
    return _finish(args, text, check, "".join(report))


# ---------------------------------------------------------------- verify

def _multiplicity_suite(host_size: int, runs: int, rng: RngStream):
    """Fraction of seeded packings whose multiplicity fits the label budget
    on the first permutation draw; the combine raises where it does not."""
    def one(run: int) -> bool:
        stream = rng.child("mult", run)
        sources = []
        for q in range(4):
            n = host_size // 6 + 1
            sources.append(generators.generate_colored(
                (n, n, n), 1, 60, 1, frozenset(),
                stream.child("src", q)))
        try:
            monoeq_mod.combine_sparse_into_mono(
                sources, host_size, stream.child("combine"), max_retries=1)
        except RuntimeError:
            return False
        return True

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
    _finish(args, text, None, text)
    return EXIT_OK if all_pass else EXIT_CHECK


# ---------------------------------------------------------------- bench

# The ``_SOLVERS`` rows that bench times.
_BENCH_SOLVERS = ("ae-sparse-bf", "ae-sparse-fast", "ae-mono-bf",
                  "ae-mono-fast", "zero-bf")


def cmd_bench(args) -> int:
    seed = _resolve_seed(args)
    rng = RngStream(seed, ("bench",))
    sizes = [tok for tok in args.sizes.split(",") if tok]
    if not all(map(str.isdecimal, sizes)):
        raise UsageFailure(f"sizes must be non-negative counts: {args.sizes}")
    sizes = list(map(int, sizes))
    solvers = [tok for tok in args.solvers.split(",") if tok] if args.solvers else []

    def time_once(fn) -> float:
        start = time.perf_counter()
        fn()
        return (time.perf_counter() - start) * 1000.0

    unknown = [name for name in solvers if name not in _BENCH_SOLVERS]
    if unknown:
        raise UsageFailure(f"unknown bench solver {unknown[0]!r}")
    rows = []
    for n in sorted(sizes):
        graph, _ = generators.generate_tripartite(
            n, 50, False, rng.child("instance", n))
        colored = generators.generate_colored(
            generators.balanced_split(n), 4, 60, 8,
            frozenset(), rng.child("colored", n))
        for solver in solvers:
            row = _SOLVERS[solver]
            samples = []
            for _ in range(args.reps):
                # A fresh copy per rep, built outside the timed region, so
                # no rep reads C-rows that an earlier rep cached.
                inst = colored
                if row.input == _TWG:
                    inst = TripartiteWeightedGraph._trusted(
                        graph.part_sizes, *map(graph.edges, WEIGHTED_PAIRS),
                        graph.weight_modulus)
                samples.append(time_once(partial(row.run, args, None, inst)))
            samples.sort()
            rows.append({"solver": solver, "n": n,
                         "median_ms": round(samples[len(samples) // 2], 3),
                         "reps": args.reps})
    table = {"seed": seed, "rows": rows}
    _write_text(args.out, json.dumps(table, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------- parser

def _positive_int(text: str) -> int:
    """A count: non-positive values are usage errors."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    """A cap: negative values are usage errors."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _or_inf(text: str):
    """A threshold where -1 means infinity."""
    return math.inf if int(text) == -1 else int(text)


def _or_none(text: str):
    """A cap where -1 means no cap."""
    return None if int(text) == -1 else _non_negative_int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fgtri",
        description="triangle reductions workbench: generate, solve, "
                    "reduce, verify, bench")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        # argparse converts a string default as it converts the option.
        p.add_argument("--seed", type=int, default=os.environ.get("FGT_SEED"))
        p.add_argument("--out", default=None, help="output path (default stdout)")

    gen = sub.add_parser("gen", help="generate a seeded instance file")
    add_common(gen)
    gen.add_argument("--type", required=True,
                     choices=("zero-triangle", "colored", "product", "sets"))
    gen.add_argument("--n", type=_non_negative_int, default=12)
    gen.add_argument("--weight-bound", type=_non_negative_int, default=50)
    gen.add_argument("--plant", action="store_true")
    gen.add_argument("--colors", type=int, default=3)
    gen.add_argument("--density", type=int, default=60,
                     help="edge keep percentage")
    gen.add_argument("--value-range", type=int, default=8)
    gen.add_argument("--value-sides", choices=sorted(_VALUE_SIDES), default="a")
    gen.add_argument("--kind", choices=sorted(_SOLVERS["product-bf"].kinds),
                     default="min-eq")
    gen.add_argument("--universe", type=_non_negative_int, default=16)
    gen.add_argument("--family", type=_non_negative_int, default=8)
    gen.add_argument("--max-set", type=_non_negative_int, default=6)
    gen.add_argument("--queries", type=_non_negative_int, default=12)
    gen.add_argument("--cap", type=_non_negative_int, default=None)
    gen.set_defaults(func=cmd_gen)

    solve = sub.add_parser("solve", help="run an oracle or fast solver")
    add_common(solve)
    solve.add_argument("--solver", required=True)
    solve.add_argument("--in", dest="input", required=True)
    solve.add_argument("--check", action="store_true",
                       help="cross-validate against the brute oracle")
    solve.add_argument("--target", type=int, default=0)
    solve.add_argument("--per-edge-cap", type=_or_none, default=None)
    solve.add_argument("--global-cap", type=_or_none, default=None)
    solve.add_argument("--kind", default=None,
                       help="product kind of product-bf or mono-product-bf; "
                            "default: the solver's first kind")
    solve.add_argument("--mode", choices=("disjointness", "intersection"),
                       default="disjointness")
    solve.set_defaults(func=cmd_solve)

    reduce_p = sub.add_parser("reduce", help="run a reduction pipeline")
    add_common(reduce_p)
    reduce_p.add_argument("--pipeline", required=True)
    reduce_p.add_argument("--in", dest="input", required=True)
    reduce_p.add_argument("--inner", default=None,
                          help="inner solver; default: the pipeline's first")
    reduce_p.add_argument("--check", action="store_true")
    reduce_p.add_argument("--report", default=None,
                          help="JSON-lines per-subinstance report path")
    reduce_p.add_argument("--s", type=_positive_int, default=4,
                          help="range count for the field split")
    reduce_p.add_argument("--trials", type=_positive_int, default=None)
    reduce_p.add_argument("--trial-multiplier", type=_positive_int,
                          default=100)
    reduce_p.add_argument("--cap", type=_non_negative_int, default=3,
                          help="per-edge triangle cap of "
                               "listing-via-detection")
    reduce_p.add_argument("--global-cap", type=_or_none, default=None)
    reduce_p.add_argument("--degree-threshold", type=_or_inf, default=2)
    reduce_p.add_argument("--size-threshold", type=_or_inf, default=-2,
                          help="-1 = inf; -2 = instance part-size default")
    reduce_p.add_argument("--tile", default=None, metavar="A,B,C",
                          help="run the zero pipelines per part-block "
                               "triple of these sizes")
    reduce_p.set_defaults(func=cmd_reduce, flag_defaults={
        dest: reduce_p.get_default(dest) for dest in _FLAG_READERS})

    verify = sub.add_parser(
        "verify", help="statistical verification of the pipeline claims")
    add_common(verify)
    verify.add_argument("--n", type=_non_negative_int, default=48)
    verify.add_argument("--s", type=_positive_int, default=4)
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
    except textio.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (OSError, UnicodeDecodeError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except UsageFailure as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a KeyError's text is only its key
        plain = isinstance(exc, (ValueError, RuntimeError))
        print("internal error:", exc if plain else repr(exc), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
