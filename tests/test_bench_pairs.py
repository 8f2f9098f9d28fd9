"""tools/bench_pairs.py: argument checks and failing benchmark runs."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tree(path: Path, run_py: str) -> Path:
    """A checkout stand-in: the repo's BENCHMARK.json and a fake run.py."""
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(run_py)
    (path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    return path


def _bench_pairs(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_pairs.py"), *args],
        capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("flag,value", [
    ("--pairs", "0"), ("--pairs", "-3"), ("--seconds", "0"),
    ("--seconds", "-2.5"), ("--seconds", "nan")])
def test_non_positive_pairs_and_seconds_are_rejected(flag, value, tmp_path):
    tree = _tree(tmp_path, "raise SystemExit('must not run')\n")
    done = _bench_pairs("--base", str(tree), "--change", str(tree),
                        "--workload", "zero-bf", "--seed", "1", flag, value)
    assert done.returncode == 2
    assert f"argument {flag}: must be positive, got {value}" in done.stderr
    assert "Traceback" not in done.stderr and done.stdout == ""


def test_failed_run_reports_tree_workload_and_child_stderr(tmp_path):
    tree = _tree(tmp_path / "broken", (
        "import sys\n"
        "sys.stderr.write('perfbench: no such workload\\n')\n"
        "sys.exit(3)\n"))
    done = _bench_pairs("--base", str(tree), "--change", str(tree),
                        "--workload", "listing-detect", "--seed", "1",
                        "--pairs", "1", "--seconds", "0.5")
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        f"perfbench/run.py failed in {tree} on workload listing-detect"
        " (exit 3):",
        "perfbench: no such workload"]


def test_one_pair_summarises_each_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": 2.0} for m in spec["end_to_end"]}
    tree = _tree(tmp_path, (
        "import json\n"
        f"print(json.dumps({{'failed': 0, 'attempted': 4,"
        f" 'metrics': {metrics!r}}}))\n"))
    done = _bench_pairs("--base", str(tree), "--change", str(tree),
                        "--workload", "zero-bf", "--seed", "1",
                        "--pairs", "1", "--seconds", "0.5")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["attempted"] == {"base": 4, "change": 4}
    for name in metrics:
        row = result["metrics"][name]
        assert row["base"] == row["change"] == {
            "median": 2.0, "q1": 2.0, "q3": 2.0, "runs": [2.0]}
        assert row["change_better_pairs"] == 0 and row["pairs"] == 1


def _fake_run(scaled: float, raw: float) -> str:
    """A run.py printing the repo's end-to-end metrics, all at ``scaled``,
    after an unscaled line at ``raw``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": scaled} for m in spec["end_to_end"]}
    return ("import json\n"
            f"print('# unscaled: ops_per_s={raw} op_ms_p50={raw}"
            f" op_ms_p90={raw} setup_s={raw}')\n"
            f"print(json.dumps({{'failed': 0, 'attempted': 4,"
            f" 'metrics': {metrics!r}}}))\n")


def test_unscaled_rates_are_summarised_and_winner_flips_counted(tmp_path):
    # The change reads faster scaled (2.5 > 2.0) but slower unscaled
    # (2.0 < 3.0), so the two pick different winners in both pairs.
    base = _tree(tmp_path / "base", _fake_run(2.0, 3.0))
    change = _tree(tmp_path / "change", _fake_run(2.5, 2.0))
    done = _bench_pairs("--base", str(base), "--change", str(change),
                        "--workload", "zero-bf", "--seed", "1",
                        "--pairs", "2", "--seconds", "0.5")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["metrics"]["ops_per_s"]["change_better_pairs"] == 2
    assert set(result["unscaled"]) == {"ops_per_s", "op_ms_p50", "op_ms_p90",
                                       "setup_s"}
    rate = result["unscaled"]["ops_per_s"]
    assert rate["base"] == {"median": 3.0, "q1": 3.0, "q3": 3.0,
                            "runs": [3.0, 3.0]}
    assert rate["change"]["runs"] == [2.0, 2.0]
    assert rate["change_better_pairs"] == 0 and rate["pairs"] == 2
    assert rate["winner_differs_pairs"] == 2
    # Lower is better for a time, so the change wins it unscaled.
    assert result["unscaled"]["op_ms_p50"]["change_better_pairs"] == 2
    assert "winner_differs_pairs" not in result["unscaled"]["op_ms_p50"]


def _counting_run(values: list[float]) -> str:
    """A run.py printing the repo's end-to-end metrics, all at the next of
    ``values`` on each call, counted in a file of its tree."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]
    return ("import json, pathlib\n"
            "count = pathlib.Path('count')\n"
            "n = int(count.read_text()) if count.exists() else 0\n"
            "count.write_text(str(n + 1))\n"
            f"v = {values!r}[n]\n"
            f"print(json.dumps({{'failed': 0, 'attempted': 4, 'metrics':"
            f" {{k: {{'value': v}} for k in {names!r}}}}}))\n")


@pytest.mark.parametrize("base,change,verdicts", [
    # 20% above: a gain where higher is better, a regression only against
    # peak_rss_mb's 10% bound where lower is.
    ([2.0] * 10, [2.4] * 10,
     {"ops_per_s": "gain", "op_ms_p50": "within_bound",
      "op_ms_p90": "within_bound", "setup_s": "within_bound",
      "peak_rss_mb": "regression"}),
    # Equal medians, and a base spread (q3 - q1 = 1.5) wider than any bound.
    ([1.0, 3.0, 2.0, 4.0], [2.5] * 4,
     dict.fromkeys(("ops_per_s", "op_ms_p50", "op_ms_p90", "setup_s",
                    "peak_rss_mb"), "unresolved")),
    # Every change run above every base run, but the medians differ by
    # less than the base's q3 - q1 (1.6 < 2.85).
    ([1.0, 1.1, 3.9, 4.0], [4.1] * 4,
     {"ops_per_s": "within_bound", "op_ms_p50": "regression",
      "op_ms_p90": "regression", "setup_s": "regression",
      "peak_rss_mb": "regression"}),
    # The first case over 4 pairs: too few to call a gain.
    ([2.0] * 4, [2.4] * 4,
     {"ops_per_s": "too_few_pairs", "op_ms_p50": "within_bound",
      "op_ms_p90": "within_bound", "setup_s": "within_bound",
      "peak_rss_mb": "regression"}),
])
def test_each_metric_gets_a_verdict(base, change, verdicts, tmp_path):
    trees = [_tree(tmp_path / side, _counting_run(values))
             for side, values in (("base", base), ("change", change))]
    done = _bench_pairs("--base", str(trees[0]), "--change", str(trees[1]),
                        "--workload", "zero-bf", "--seed", "1",
                        "--pairs", str(len(base)), "--seconds", "0.5")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["metrics"]["ops_per_s"]["base"]["runs"] == base
    assert {name: row["verdict"] for name, row
            in result["metrics"].items()} == verdicts
    assert [line for line in lines if line.startswith("# verdict ")] == [
        f"# verdict {name}: {v}" for name, v in verdicts.items()]
