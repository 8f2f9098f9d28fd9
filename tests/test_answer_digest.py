"""tools/answer_digest.py: one digest line per operation, stable across
runs, key order included."""

import hashlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "answer_digest.py"


def _digest_lines(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), *args],
                          capture_output=True, text=True, timeout=120)


def test_digest_reads_key_order_and_non_dict_answers(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOL.parent))
    spec = importlib.util.spec_from_file_location("answer_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    one = {(0, 0): [(0, 0, 1)], (0, 1): []}
    assert tool.digest(one) == hashlib.sha256(
        repr(list(one.items())).encode()).hexdigest()
    assert tool.digest(one) != tool.digest(dict(reversed(one.items())))
    assert tool.digest((False, None)) == hashlib.sha256(
        b"(False, None)").hexdigest()


def test_digest_reads_any_mapping_by_its_items(monkeypatch):
    # A GridAnswers' repr holds its address: two equal answers must still
    # digest alike, through their items.
    from fgtri import RngStream, ae_mono_triangle_bf, generate_colored
    monkeypatch.syspath_prepend(str(TOOL.parent))
    spec = importlib.util.spec_from_file_location("answer_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    g = generate_colored((3, 3, 3), 2, 80, 4, frozenset(), RngStream(5))
    first, second = ae_mono_triangle_bf(g), ae_mono_triangle_bf(g)
    assert first == second and first is not second
    assert tool.digest(first) == tool.digest(second) == hashlib.sha256(
        repr(list(first.items())).encode()).hexdigest()


def test_listing_ops_give_one_stable_line_each():
    args = ("--workload", "listing-detect", "--seed", "3", "--ops", "3")
    first = _digest_lines(*args)
    assert first.returncode == 0, first.stderr
    lines = first.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["0", "1", "2"]
    assert all(len(line.split()[1]) == 64 for line in lines)
    again = _digest_lines(*args, "--root", str(ROOT))
    assert again.stdout == first.stdout


def test_unknown_workload_is_rejected():
    done = _digest_lines("--workload", "nope", "--seed", "1", "--ops", "1")
    assert done.returncode == 2
    assert "unknown workload 'nope'" in done.stderr
    assert done.stdout == ""


@pytest.mark.parametrize("ops", ["0", "-3"])
def test_non_positive_ops_are_a_usage_error(ops):
    done = _digest_lines("--workload", "zero-bf", "--seed", "1", "--ops", ops)
    assert done.returncode == 2
    assert f"argument --ops: must be positive, got {ops}" in done.stderr
    assert "Traceback" not in done.stderr and done.stdout == ""
