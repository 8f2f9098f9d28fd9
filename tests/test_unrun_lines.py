"""tools/unrun_lines.py: lists the statements a pytest run never reached,
and nothing else."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "unrun_lines.py"

MODULE = '''"""A module docstring."""
import os


def pick(x):
    """A function docstring."""
    if x > 0:
        return os.path.join(
            "pos", str(x))
    else:
        y = -x
        return f"neg {y}"


class Kept:
    """A class docstring."""

    def unused(self):
        return 1
'''

TEST = '''from synthetic.mod import pick


def test_pick():
    assert pick(2) == "pos/2"
'''


def test_lists_the_unrun_branch_and_not_the_run_one(tmp_path):
    package = tmp_path / "synthetic"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    (tmp_path / "test_pick.py").write_text(TEST)
    done = subprocess.run(
        [sys.executable, str(TOOL), "--package", str(package),
         str(tmp_path / "test_pick.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == ("mod:11: y = -x\n"
                           "mod:12: return f\"neg {y}\"\n"
                           "mod:19: return 1\n")
    assert "1 passed" in done.stderr
    assert done.stderr.endswith("3 statements never ran\n")
