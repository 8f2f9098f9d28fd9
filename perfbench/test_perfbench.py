"""Tests of the benchmark itself: its answer checks can fail, its traced
counts repeat, and it refuses to run without the sources.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
from fgtri import fast_solvers, oracles  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def drop_last_lister(g, cap):
    """Lists each edge's triangles but the last one."""
    return {edge: tris[:-1]
            for edge, tris in oracles.triangle_list_bf(g, per_edge_cap=cap).items()}


def flip_first(answers):
    answers = dict(answers)
    edge = min(answers)
    answers[edge] = not answers[edge]
    return answers


BROKEN = {
    "zero-bf": drop_last_lister,
    "listing-detect": lambda g: flip_first(fast_solvers.ae_sparse_triangle_fast(g)),
    "products-bf": lambda g: flip_first(oracles.ae_monoeq_triangle_bf(g)),
    "monoeq-plugin": lambda g: flip_first(
        fast_solvers.ae_mono_triangle_fast(g, degree_threshold=4)),
}


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_broken_inner_solver_is_caught(name):
    result = harness.measure(WORKLOADS[name], SEED, 0.0, inner=BROKEN[name])
    assert result["failed"] / result["attempted"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat(name):
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    first = harness.trace(WORKLOADS[name], SEED, ops=4)
    second = harness.trace(WORKLOADS[name], SEED, ops=4)
    assert first["failed"] == second["failed"] == 0
    assert {k: first["metrics"][k] for k in counts} == \
        {k: second["metrics"][k] for k in counts}
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_spec_and_baseline_describe_every_workload():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    baseline = json.loads((HERE / "baseline.json").read_text())["workloads"]
    assert {name: (b["why"], tuple(b["stresses"]), tuple(b["idle"]))
            for name, b in baseline.items()} == \
        {w.name: (w.why, w.stresses, w.idle) for w in WORKLOADS.values()}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "zero-bf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
