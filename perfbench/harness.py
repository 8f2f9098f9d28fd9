"""Closed-loop measurement of one workload: one caller, one thread, the next
operation sent only after the previous one returns and has been checked.

``measure`` gives the end-to-end metrics with tracing off. ``trace`` runs a
fixed set of operations twice, untraced and then traced, and derives the
per-layer metrics from the spans; a fixed set makes every count repeat
exactly for a given seed.
"""

from __future__ import annotations

import resource
import statistics
import subprocess
import sys
import traceback
from collections import deque
from pathlib import Path
from time import perf_counter

from tracer import Tracer
from workloads import Workload

SETUP_REPS = 3          # set-up is repeated and its median reported
WALL_LIMIT_S = 120.0    # stop mid-cycle past this, whatever --seconds says
REFERENCE_S = 0.005     # reference_kernel's time at the reference speed
SPEED_WINDOW = 5        # slowdown is the median of this many latest kernels
SPEED_EVERY_S = 0.2     # the kernel runs again once this much time has passed
IMPORT_REPS = 5         # fresh interpreters whose fgtri import time is taken
SHADOW_REPS = 3         # timings per solver per sampled input; the min is kept
SAMPLE_CAP = 16         # shadow inputs kept per operation at most

CONSTRUCTORS = ("TripartiteWeightedGraph", "ColoredValuedGraph", "IntMatrix")
RANDOMIZE = ("pick_prime", "reduce_mod_p", "draw_randomization",
             "randomize_weights")


def run_op(w: Workload, case, inner, sink=None, tracer: Tracer = None):
    """Time one operation, then check it; returns (seconds, answer, ok).

    An operation that raises counts as failed. Only the reduction call is
    timed and, when a tracer is given, traced.
    """
    if tracer is not None:
        tracer.active = True
    start = perf_counter()
    try:
        answer = w.run(case, inner, sink)
    except Exception:  # a raising reduction is a failed operation
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.active = False
        traceback.print_exc(file=sys.stderr)
        return elapsed, None, False
    elapsed = perf_counter() - start
    if tracer is not None:
        tracer.active = False
    try:
        ok = bool(w.check(case, answer))
    except Exception:  # a malformed answer fails its check
        traceback.print_exc(file=sys.stderr)
        ok = False
    return elapsed, answer, ok


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_kernel() -> int:
    """Fixed pure-Python work of the kind the library's inner loops do:
    tuple keys, dict updates, integer mixing and small lists."""
    table: dict = {}
    acc = 0
    for i in range(10_000):
        key = (i % 97, i & 15)
        table[key] = table.get(key, 0) + i
        acc = (acc * 31 + (i ^ (i >> 3))) & 0xFFFFFFFF
    rows = [[j * i for j in range(8)] for i in range(64)]
    return acc + sum(map(sum, rows)) + len(table)


class Speedometer:
    """How many times slower than the reference speed the machine runs now.

    A host shared with other tenants changes speed by tens of percent within
    seconds. Dividing each timing by the slowdown measured just before it
    reports times at the reference speed, so that runs made at different
    moments compare. The kernel runs at most every SPEED_EVERY_S seconds,
    and the median of its latest SPEED_WINDOW timings keeps one interrupted
    kernel from skewing an operation.
    """

    def __init__(self):
        self._recent: deque = deque(maxlen=SPEED_WINDOW)
        self._last = float("-inf")

    def slowdown(self) -> float:
        start = perf_counter()
        if start - self._last >= SPEED_EVERY_S:
            reference_kernel()
            self._last = perf_counter()
            self._recent.append((self._last - start) / REFERENCE_S)
        return statistics.median(self._recent)


def import_seconds(src: Path) -> float:
    """Median time a fresh interpreter takes to import fgtri from ``src``."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import fgtri; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPS):
        proc = subprocess.run([sys.executable, "-c", code, str(src)],
                              capture_output=True, text=True, check=True,
                              timeout=60)
        times.append(float(proc.stdout))
    return statistics.median(times)


def _summary(times: list[float], cycle: int) -> dict:
    """Rates and percentiles of op times listed in schedule order."""
    slots = [times[j::cycle] for j in range(min(cycle, len(times)))]
    return {
        "ops_per_s": len(slots) / sum(map(statistics.median, slots)),
        "op_ms_p50": statistics.median(times) * 1e3,
        "op_ms_p90": statistics.quantiles(times, n=10)[8] * 1e3,
    }


def measure(w: Workload, seed: int, seconds: float, inner=None,
            src: Path = None) -> dict:
    """Run operations until ``seconds`` of operation time have passed, and
    at least one whole schedule cycle; the first cycle's instances are
    generated during set-up.

    Every time is scaled to the reference speed (see ``Speedometer``).
    ``ops_per_s`` is the rate of a median cycle: each schedule slot's median
    time over the cycles, summed. ``setup_s`` is the median import time
    of fgtri from ``src`` (0 without it) plus the median of SETUP_REPS
    set-ups, each generating one cycle's instances and running one warm-up
    operation. ``raw`` repeats the timings unscaled.
    """
    inner = inner or w.inner
    cycle = len(w.schedule)
    import_s = import_seconds(src) if src is not None else 0.0
    speed = Speedometer()
    setup, raw_setup = [], []
    for _ in range(SETUP_REPS):
        factor = speed.slowdown()
        start = perf_counter()
        pool = [w.case(seed, i) for i in range(cycle)]
        run_op(w, w.case(seed, -1), inner)
        raw_setup.append(perf_counter() - start)
        setup.append(raw_setup[-1] / factor)

    times, raw_times = [], []
    failed = 0
    wall = perf_counter()
    # One whole cycle at least; after that stop as soon as the time is spent.
    while (len(times) < cycle or sum(raw_times) < seconds) \
            and perf_counter() - wall < WALL_LIMIT_S:
        index = len(times)
        case = pool[index] if index < cycle else w.case(seed, index)
        factor = speed.slowdown()
        elapsed, _answer, ok = run_op(w, case, inner)
        times.append(elapsed / factor)
        raw_times.append(elapsed)
        failed += not ok
    return {
        "attempted": len(times),
        "failed": failed,
        **_summary(times, cycle),
        "setup_s": import_s + statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
        "raw": {**_summary(raw_times, cycle),
                "setup_s": import_s + statistics.median(raw_setup)},
    }


def _shadow_ratio(fast, oracle, graphs) -> tuple[float, float]:
    """Summed best-of-N seconds of the oracle and of the fast solver."""
    t_oracle = t_fast = 0.0
    for g in graphs:
        best_o = best_f = float("inf")
        for _ in range(SHADOW_REPS):
            start = perf_counter()
            oracle(g)
            mid = perf_counter()
            fast(g)
            end = perf_counter()
            best_o = min(best_o, mid - start)
            best_f = min(best_f, end - mid)
        t_oracle += best_o
        t_fast += best_f
    return t_oracle, t_fast


def trace(w: Workload, seed: int, ops: int = None, out_path=None) -> dict:
    """Per-layer metrics over operations 0..ops-1 (default: one cycle)."""
    inner = w.inner
    ops = ops or len(w.schedule)
    failed = 0

    speed = Speedometer()
    run_op(w, w.case(seed, -1), inner)  # warm-up, as in ``measure``
    untraced = []
    for i in range(ops):
        case = w.case(seed, i)
        factor = speed.slowdown()
        elapsed, _answer, ok = run_op(w, case, inner)
        untraced.append(elapsed / factor)
        failed += not ok

    tracer = Tracer()
    samples = []
    seen = [0]
    every = w.shadow[2] if w.shadow else 0

    def inner_hook(args, _result):
        seen[0] += 1
        if every and seen[0] % every == 1 and len(samples) < SAMPLE_CAP:
            samples.append(args[0])
        return args[0].edge_count

    tracer.install({"monoeq.combine_sparse_into_mono":
                    lambda _args, combined: len(combined.instances)})
    try:
        traced_inner = tracer.inject(inner, w.inner_layer, "inner",
                                     hook=inner_hook)
        tracer.active = True
        cases = [w.case(seed, i) for i in range(ops)]
        tracer.active = False
        base_calls = list(tracer.calls)
        base_amount = list(tracer.amount)
        combine = tracer.site("monoeq", "combine_sparse_into_mono")

        sink_totals = {"edges_kept": 0, "pruned": 0, "listed": 0, "hits": 0}

        def sink(record):
            for key in sink_totals:
                sink_totals[key] += record[key]

        traced, traced_scaled, listed = [], [], 0
        combine_ops = 0
        shadow_oracle = shadow_fast = 0.0
        for i, case in enumerate(cases):
            tracer.op = i
            before = tracer.calls[combine]
            factor = speed.slowdown()
            elapsed, answer, ok = run_op(w, case, traced_inner, sink, tracer)
            traced.append(elapsed)
            traced_scaled.append(elapsed / factor)
            failed += not ok
            combine_ops += tracer.calls[combine] > before
            if w.name == "listing-detect" and answer is not None:
                listed += sum(len(tris) for tris in answer.values())
            if w.shadow and samples:
                t_o, t_f = _shadow_ratio(w.inner, w.shadow[1], samples)
                shadow_oracle += t_o
                shadow_fast += t_f
            samples.clear()
    finally:
        tracer.uninstall()
    if out_path is not None:
        tracer.save(out_path)

    calls = {name: tracer.calls[i] - base_calls[i]
             for i, name in enumerate(tracer.site_names)}
    amount = {name: tracer.amount[i] - base_amount[i]
              for i, name in enumerate(tracer.site_names)}
    op_self = tracer.self_by_site(in_ops=True)
    setup_self = tracer.self_by_site(in_ops=False)
    layer_self: dict[str, float] = {}
    for name, layer in zip(tracer.site_names, tracer.site_layer):
        layer_self[layer] = layer_self.get(layer, 0.0) + op_self[name]

    def c(*names):
        return sum(calls.get(n, 0) for n in names)

    def s(*names):
        return sum(op_self.get(n, 0.0) for n in names)

    inner_site = f"{w.inner_layer}.inject.inner"
    inner_calls = {"witness_listing.detect_calls": 0, "monoeq.inner_calls": 0,
             "products.inner_calls": 0}
    if w.inner_metric:
        inner_calls[w.inner_metric] = calls.get(inner_site, 0)
    randomize_s = s(*(f"zero_triangle.{n}" for n in RANDOMIZE))
    build_s = s("zero_triangle.build_subinstance")
    expand_s = s("monoeq.expand_values")
    combine_s = s("monoeq.combine_sparse_into_mono")

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        "instances.graphs_built": c(*(f"instances.{k}.__init__"
                                      for k in CONSTRUCTORS)),
        "instances.validate_s": s(*(f"instances.{k}.__init__"
                                    for k in CONSTRUCTORS)),
        "rng.streams_derived": c("rng.RngStream.__init__"),
        "rng.draws": c("rng.RngStream.next_u64"),
        "rng.self_s": layer_self.get("rng", 0.0),
        "generators.self_s": sum(v for n, v in setup_self.items()
                                 if n.startswith("generators.")),
        "oracles.calls": sum(v for n, v in calls.items()
                             if n.startswith("oracles.")
                             and ".inject." not in n),
        "oracles.self_s": layer_self.get("oracles", 0.0),
        "fast_solvers.calls": c("fast_solvers.ae_sparse_triangle_fast",
                                "fast_solvers.ae_mono_triangle_fast"),
        "fast_solvers.self_s": layer_self.get("fast_solvers", 0.0),
        "fast_solvers.bool_matmul_calls": c("fast_solvers.bool_matmul"),
        "fast_solvers.sparse_vs_oracle": 0.0,
        "fast_solvers.mono_vs_oracle": 0.0,
        "zero_triangle.trials": c("zero_triangle.pick_prime"),
        "zero_triangle.subinstances": c("zero_triangle.build_subinstance"),
        "zero_triangle.randomize_s": randomize_s,
        "zero_triangle.build_subinstance_s": build_s,
        "zero_triangle.self_s": layer_self.get("zero_triangle", 0.0)
        - randomize_s - build_s,
        "zero_triangle.edges_kept": sink_totals["edges_kept"],
        "zero_triangle.pruned": sink_totals["pruned"],
        "zero_triangle.hit_ratio": ratio(sink_totals["hits"],
                                         sink_totals["listed"]),
        "witness_listing.unique_calls":
            c("witness_listing.unique_listing_via_detection"),
        "witness_listing.detect_calls": inner_calls["witness_listing.detect_calls"],
        "witness_listing.self_s": layer_self.get("witness_listing", 0.0),
        "witness_listing.triangles_per_detect_call":
            ratio(listed, inner_calls["witness_listing.detect_calls"]),
        "monoeq.expand_s": expand_s,
        "monoeq.combine_calls": c("monoeq.combine_sparse_into_mono"),
        "monoeq.combined_instances":
            amount.get("monoeq.combine_sparse_into_mono", 0),
        "monoeq.combine_s": combine_s,
        "monoeq.inner_calls": inner_calls["monoeq.inner_calls"],
        "monoeq.self_s": layer_self.get("monoeq", 0.0) - expand_s - combine_s,
        "monoeq.combine_op_share": combine_ops / ops,
        "products.inner_calls": inner_calls["products.inner_calls"],
        "products.inner_edges": amount.get(inner_site, 0)
        if inner_calls["products.inner_calls"] else 0,
        "products.self_s": layer_self.get("products", 0.0),
        "trace.coverage": ratio(sum(layer_self.values()), sum(traced)),
        # Median over ops of traced / untraced time for the same op.
        "trace.overhead_ratio": statistics.median(
            t / u for t, u in zip(traced_scaled, untraced)),
    }
    if w.shadow:
        metrics[w.shadow[0]] = ratio(shadow_oracle, shadow_fast)
    return {"attempted": 2 * ops, "failed": failed, "metrics": metrics}
