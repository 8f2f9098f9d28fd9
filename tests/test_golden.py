"""Golden corpus: seeded CLI runs whose stdout, --out and --report bytes are
pinned under tests/golden/.

Each entry of tests/golden/cases.json names a run and its argv. In the argv,
``{out}`` and ``{report}`` stand for fresh output paths and ``{golden}`` for
the corpus directory, so a run can read an instance another run generated.
A run's pinned files are ``<name>.stdout``, plus ``<name>.out`` and
``<name>.report`` when its argv writes them.

Regenerate the corpus (only when a change is meant to alter the bytes) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from fgtri.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def _argv(case, scratch: Path):
    subst = {"{out}": str(scratch / "out"), "{report}": str(scratch / "report")}
    return [subst.get(tok, tok.replace("{golden}", str(GOLDEN)))
            for tok in case["argv"]]


def _produced(case, scratch: Path, stdout: str) -> dict:
    files = {"stdout": stdout.encode("utf-8")}
    for kind in ("out", "report"):
        if "{" + kind + "}" in case["argv"]:
            files[kind] = (scratch / kind).read_bytes()
    return files


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_run(case, tmp_path, capsys):
    code = main(_argv(case, tmp_path))
    stdout = capsys.readouterr().out
    assert code == case["exit"]
    for kind, data in _produced(case, tmp_path, stdout).items():
        want = (GOLDEN / f"{case['name']}.{kind}").read_bytes()
        assert data == want, f"{case['name']}.{kind} differs from the corpus"


def test_every_solver_and_pipeline_is_pinned():
    # Every solver, and every (pipeline, inner) pair; a case with no
    # --inner runs its pipeline's first inner.
    from fgtri.cli import _PIPELINES, _SOLVERS
    solvers, inners = set(), set()
    for case in CASES:
        flags = dict(zip(case["argv"], case["argv"][1:]))
        if "--solver" in flags:
            solvers.add(flags["--solver"])
        if "--pipeline" in flags:
            pipeline = flags["--pipeline"]
            inners.add((pipeline, flags.get(
                "--inner", next(iter(_PIPELINES[pipeline].inners)))))
    assert set(_SOLVERS) - solvers == set()
    assert {(name, inner) for name, pipeline in _PIPELINES.items()
            for inner in pipeline.inners} - inners == set()


def _regenerate() -> None:
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(_argv(case, Path(tmp)))
            if code != case["exit"]:
                raise SystemExit(f"{case['name']}: exit {code}, "
                                 f"manifest says {case['exit']}")
            for kind, data in _produced(case, Path(tmp), buf.getvalue()).items():
                (GOLDEN / f"{case['name']}.{kind}").write_bytes(data)


if __name__ == "__main__":
    sys.exit(_regenerate())
