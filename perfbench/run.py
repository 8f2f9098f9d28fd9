"""Reduction-chain benchmark for fgtri.

    python3 perfbench/run.py --workload zero-bf --seed 1 --seconds 25 --trace 0

Run from the root of a source tree that holds ``src/fgtri`` and
``BENCHMARK.json``. With ``--trace 0`` the workload runs untraced for
``--seconds`` seconds of operation time and the end-to-end metrics are
printed; times are scaled to a reference machine speed (see
``harness.Speedometer``) and a ``# unscaled`` line gives them as measured.
With ``--trace 1`` a fixed set of operations runs untraced and then traced,
and the per-layer metrics are printed (``--seconds`` is not used, so that
counts repeat exactly); a 0 means the workload does not exercise that
layer. Every answer is checked against the brute-force oracles. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it repeat the
metrics for people, with the failure ratio and the sample count. Spans of a
traced run are written to ``.bench_out/`` under the root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "fgtri" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: {ROOT} holds no src/fgtri or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    # One thread: keep numpy's BLAS pool from spinning up extra workers.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))

    import fgtri
    import numpy
    if Path(fgtri.__file__).resolve().parent != src / "fgtri":
        print(f"perfbench: imported fgtri from {fgtri.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import harness
    from workloads import WORKLOADS

    w = WORKLOADS.get(args.workload)
    if w is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        result = harness.trace(
            w, args.seed, out_path=out_dir / f"trace-{w.name}-{args.seed}.npz")
        declared = spec["per_layer"]
    else:
        result = harness.measure(w, args.seed, args.seconds, src=src)
        raw = result.pop("raw")
        print("# unscaled: " + " ".join(f"{k}={v}" for k, v in raw.items()))
        result = {"attempted": result.pop("attempted"),
                  "failed": result.pop("failed"), "metrics": result}
        declared = spec["end_to_end"]

    values = result["metrics"]
    if set(values) != {m["name"] for m in declared}:
        print(f"perfbench: metrics {sorted(values)} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    attempted, failed = result["attempted"], result["failed"]
    fail_ratio = failed / attempted
    print(f"# {w.name} seed={args.seed} trace={args.trace} python="
          f"{platform.python_version()} numpy={numpy.__version__} "
          f"nproc={os.cpu_count()} machine={platform.machine()}")
    print(f"# why: {w.why}")
    print(f"# stresses: {' '.join(w.stresses)}; idle: {' '.join(w.idle)}")
    for m in declared:
        print(f"{w.name} {m['name']} {values[m['name']]} {m['unit']}")
    print(f"{w.name} fail_ratio {fail_ratio} ratio "
          f"({failed}/{attempted} ops failed or raised)")
    print(json.dumps({
        "correct": fail_ratio <= w.tolerance,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
