"""List the statements of ``src/fgtri`` that a pytest run never executes.

    python3 tools/unrun_lines.py tests [more pytest arguments]

Runs pytest in this process on the given arguments under a ``sys.settrace``
line tracer (``coverage`` is not a dependency) that watches only the files
of one package directory, ``src/fgtri`` unless ``--package`` names another.
Then prints ``module:line: statement`` for every executable statement that
never ran, in file and line order; pytest's report and a count go to
stderr. Docstrings and ``def``, ``class`` and import lines are left out:
they run at import, which may come before the tracer starts. A statement
counts as run when any line of its header ran: all of a simple statement,
or a compound one's lines before its body. The exit status is pytest's.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
            ast.ImportFrom)


def _docstrings(tree) -> set:
    """The id of each docstring statement in ``tree``."""
    owners = [tree] + [n for n in ast.walk(tree) if isinstance(n, (
        ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    return {id(o.body[0]) for o in owners
            if o.body and isinstance(o.body[0], ast.Expr)
            and isinstance(o.body[0].value, ast.Constant)
            and isinstance(o.body[0].value.value, str)}


def statements(source: str) -> dict[int, range]:
    """Each executable statement's first line and the lines of its header."""
    tree = ast.parse(source)
    docs = _docstrings(tree)
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED) \
                or id(node) in docs:
            continue
        body = [c.lineno for c in ast.iter_child_nodes(node)
                if isinstance(c, ast.stmt)]
        out[node.lineno] = range(node.lineno,
                                 min(body) if body else node.end_lineno + 1)
    return out


class LineTracer:
    """Records the lines run in files under ``package``; each code object
    stops being traced once every one of its lines has run."""

    def __init__(self, package: Path):
        self.prefix = str(package.resolve()) + "/"
        self.hit: dict[str, set[int]] = {}
        self._todo: dict = {}

    def _call(self, frame, _event, _arg):
        code = frame.f_code
        todo = self._todo.get(code)
        if todo is None:
            # A function's first line holds its entry, which fires no line
            # event; leaving it in would keep the function traced for good.
            first = code.co_firstlineno if code.co_name != "<module>" else 0
            todo = self._todo[code] = (
                {n for _s, _e, n in code.co_lines() if n not in (None, first)}
                if code.co_filename.startswith(self.prefix) else set())
        if not todo:
            return None
        hit = self.hit.setdefault(code.co_filename, set())

        def line(frame, event, _arg):
            if event == "line" and frame.f_lineno in todo:
                todo.discard(frame.f_lineno)
                hit.add(frame.f_lineno)
            return line
        return line

    def __enter__(self):
        threading.settrace(self._call)
        sys.settrace(self._call)
        return self

    def __exit__(self, *_exc):
        sys.settrace(None)
        threading.settrace(None)


def unrun(package: Path, hit: dict[str, set[int]]) -> list[str]:
    """``module:line: statement`` for each statement of ``package``'s
    modules with no header line in ``hit``."""
    out = []
    for path in sorted(package.resolve().glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines, ran = source.splitlines(), hit.get(str(path), set())
        for first, span in sorted(statements(source).items()):
            if ran.isdisjoint(span):
                out.append(f"{path.stem}:{first}: {lines[first - 1].strip()}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--package", type=Path, default=ROOT / "src" / "fgtri",
                        help="the package directory to trace")
    args, pytest_args = parser.parse_known_args(argv)
    sys.path.insert(0, str(args.package.resolve().parent))
    import pytest

    # pytest's own report goes to stderr, so stdout holds only the list.
    with LineTracer(args.package) as tracer, \
            contextlib.redirect_stdout(sys.stderr):
        status = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    missing = unrun(args.package, tracer.hit)
    sys.stdout.write("".join(line + "\n" for line in missing))
    print(f"{len(missing)} statements never ran", file=sys.stderr)
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
