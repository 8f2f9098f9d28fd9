"""Compare two source trees on the perfbench workloads in alternating pairs.

    python3 tools/bench_pairs.py --base ../parent --change . \\
        --workload zero-bf --seed 7301977 --pairs 10 --seconds 25

Each tree is a checkout holding ``src/fgtri``, ``perfbench/`` and
``BENCHMARK.json``. A pair runs ``perfbench/run.py --trace 0`` once in each
tree, the base first in even pairs and the change first in odd ones. For
every end-to-end metric the script reports each side's median and
quartiles, every run, the number of pairs in which the change read
better (ties count for neither side), and a verdict (see ``verdict``),
also printed as one ``# verdict`` line per metric. Under ``unscaled`` it
reports the same for the timings of each run's ``# unscaled:`` line,
taken before speed scaling, and counts the pairs in which the scaled and
unscaled ``ops_per_s`` pick different winners. With ``--trace`` it instead
runs ``perfbench/run.py --trace 1`` once per tree and reports both sides'
per-layer metrics. The last line of standard output is one JSON object;
``--out FILE`` also merges it into FILE under the workload's name.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

UNSCALED = "# unscaled: "


def run_once(root: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"perfbench/run.py failed in {root} on workload {workload}"
                 f" (exit {done.returncode}):\n{done.stderr.rstrip()}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    return {"failed": result["failed"], "attempted": result["attempted"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "unscaled": unscaled(lines)}


def unscaled(lines: list[str]) -> dict:
    """The metrics of the ``# unscaled: k=v ...`` line, {} without one."""
    for line in lines:
        if line.startswith(UNSCALED):
            return {k: float(v) for k, v in (
                item.split("=", 1) for item in line[len(UNSCALED):].split())}
    return {}


def positive(kind):
    """An argparse type: a number of the given kind above 0."""
    def parse(text: str):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse's "invalid int value" name
    return parse


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else (values[0],) * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def winners(base: list[float], change: list[float]) -> list[int]:
    """Per pair, 1 if the change read higher, -1 if lower, 0 on a tie."""
    return [(c > b) - (c < b) for b, c in zip(base, change)]


def verdict(base: dict, change: dict, better_pairs: int, sign: int,
            bound: float) -> str:
    """``gain`` when the change read better in at least 9 of 10 pairs and
    its median beats the base's by more than the base's q3 - q1, over at
    least 10 pairs; ``too_few_pairs`` when that holds over fewer;
    ``regression`` when its median is worse than the base's by more than
    ``bound`` times the base's median; ``unresolved`` when the base's
    q3 - q1 is wider than that, unless every change run beats every base
    run; ``within_bound`` otherwise. ``sign`` is 1 where higher is better
    and -1 where lower is."""
    lead = sign * (change["median"] - base["median"])
    spread = base["q3"] - base["q1"]
    allowed = bound * abs(base["median"])
    pairs = len(base["runs"])
    if 10 * better_pairs >= 9 * pairs and lead > spread:
        return "gain" if pairs >= 10 else "too_few_pairs"
    if -lead > allowed:
        return "regression"
    if spread > allowed and not all(sign * (c - b) > 0 for c in change["runs"]
                                    for b in base["runs"]):
        return "unresolved"
    return "within_bound"


def row(base: list[float], change: list[float], better: str,
        bound: float) -> dict:
    sign = 1 if better == "higher" else -1
    sides = summary(base), summary(change)
    better_pairs = sum(sign * w > 0 for w in winners(base, change))
    return {"base": sides[0], "change": sides[1],
            "change_better_pairs": better_pairs, "pairs": len(base),
            "verdict": verdict(*sides, better_pairs, sign, bound)}


def compare(args, spec) -> dict:
    runs = {"base": [], "change": []}
    for pair in range(args.pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args.workload,
                                       args.seed, args.seconds, 0))
            print(f"# pair {pair} {side}: {runs[side][-1]}", flush=True)
    out = {"failed": {s: sum(r["failed"] for r in runs[s]) for s in runs},
           "attempted": {s: sum(r["attempted"] for r in runs[s])
                         for s in runs},
           "metrics": {}, "unscaled": {}}
    for m in spec["end_to_end"]:
        name = m["name"]
        base, change = ([r["metrics"][name] for r in runs[s]]
                        for s in ("base", "change"))
        out["metrics"][name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            **row(base, change, m["better"], m["bound"])}
        print(f"# verdict {name}: {out['metrics'][name]['verdict']}",
              flush=True)
        if all(name in r["unscaled"] for s in runs for r in runs[s]):
            raw = [[r["unscaled"][name] for r in runs[s]]
                   for s in ("base", "change")]
            out["unscaled"][name] = row(*raw, m["better"], m["bound"])
            if name == "ops_per_s":
                out["unscaled"][name]["winner_differs_pairs"] = sum(
                    a != b for a, b in zip(winners(base, change),
                                           winners(*raw)))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=positive(int), default=10)
    parser.add_argument("--seconds", type=positive(float), default=25.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    if args.trace:
        result = {side: run_once(getattr(args, side), args.workload,
                                 args.seed, args.seconds, 1)
                  for side in ("base", "change")}
    else:
        result = compare(args, spec)
    result["command"] = " ".join(["python3", "tools/bench_pairs.py"]
                                 + (argv if argv is not None
                                    else sys.argv[1:]))
    if args.out is not None:
        merged = json.loads(args.out.read_text()) if args.out.exists() else {}
        key = f"{args.workload} seed={args.seed}" + (" trace" if args.trace
                                                      else "")
        merged[key] = result
        args.out.write_text(json.dumps(merged, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
