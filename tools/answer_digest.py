"""Print one SHA-256 per perfbench operation answer, to compare two trees.

    python3 tools/answer_digest.py --workload listing-detect --seed 7301977 \\
        --ops 48 [--root ../parent] [--inputs]

``--root`` is a checkout holding ``src/fgtri`` and ``perfbench/`` (by
default the tree this script lives in). Operation i runs on
``WORKLOADS[W].case(seed, i)`` with the workload's own inner solver, as in
``perfbench/run.py``, untimed and unchecked. Each output line is
``i <hex digest>``, the digest taken over ``repr(list(answer.items()))`` for
a mapping answer (a dict or a ``GridAnswers``, whose own repr holds its
address), so key order counts, and over ``repr(answer)`` otherwise. Two
trees give the same answers when ``diff`` finds no line that differs.
With ``--inputs`` the digest of operation i is taken instead over what the
inner solver received, call by call: ``textio.serialize`` of each argument
that is an instance, ``repr`` of any other (zero-bf's per-edge cap), so
two trees that agree send their solver the same instances in the same
order.
``--ops`` must be positive: a run that prints no line would agree with any
other.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from collections.abc import Mapping
from pathlib import Path

from bench_pairs import positive

ROOT = Path(__file__).resolve().parent.parent


def digest(answer) -> str:
    text = repr(list(answer.items()) if isinstance(answer, Mapping)
                else answer)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def recording(inner, digest, serialize):
    """``inner``, first feeding each call's arguments to ``digest``."""
    def run(*args):
        for arg in args:
            try:
                text = serialize(arg)
            except TypeError:
                text = repr(arg) + "\n"
            digest.update(text.encode("utf-8"))
        return inner(*args)
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=positive(int), required=True)
    parser.add_argument("--root", type=Path, default=ROOT)
    parser.add_argument("--inputs", action="store_true",
                        help="digest the inner solver's inputs instead")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from fgtri.textio import serialize
    from workloads import WORKLOADS

    w = WORKLOADS.get(args.workload)
    if w is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    for index in range(args.ops):
        if args.inputs:
            seen = hashlib.sha256()
            inner = recording(w.inner, seen, serialize)
            w.run(w.case(args.seed, index), inner)
            print(index, seen.hexdigest(), flush=True)
        else:
            answer = w.run(w.case(args.seed, index), w.inner)
            print(index, digest(answer), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
