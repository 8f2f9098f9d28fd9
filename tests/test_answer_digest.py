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


def _tool(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOL.parent))
    spec = importlib.util.spec_from_file_location("answer_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_digest_reads_key_order_and_non_dict_answers(monkeypatch):
    tool = _tool(monkeypatch)
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
    tool = _tool(monkeypatch)
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


def test_recording_digests_each_input_in_call_order(monkeypatch):
    # Instances by their text, anything else (a lister's cap) by its repr.
    from fgtri import RngStream, generate_tripartite
    from fgtri.textio import serialize
    tool = _tool(monkeypatch)
    g, _ = generate_tripartite(3, 5, False, RngStream(2))
    h, _ = generate_tripartite(2, 5, False, RngStream(3))
    seen = hashlib.sha256()
    run = tool.recording(lambda *args: len(args), seen, serialize)
    assert run(g, 4) == 2 and run(h) == 1
    assert seen.hexdigest() == hashlib.sha256(
        (serialize(g) + "4\n" + serialize(h)).encode()).hexdigest()


def test_inputs_lines_digest_what_the_products_solver_received(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from fgtri.textio import serialize
    from workloads import WORKLOADS
    w = WORKLOADS["products-bf"]
    want = []
    for index in range(2):
        texts = []

        def inner(g):
            texts.append(serialize(g))
            return w.inner(g)

        w.run(w.case(5, index), inner)
        assert texts
        want.append(f"{index} "
                    + hashlib.sha256("".join(texts).encode()).hexdigest())
    done = _digest_lines("--workload", "products-bf", "--seed", "5",
                         "--ops", "2", "--inputs")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == want
    answers = _digest_lines("--workload", "products-bf", "--seed", "5",
                            "--ops", "2")
    assert answers.stdout != done.stdout


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
