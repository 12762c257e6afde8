"""Run the benchmark on several seeds and report each metric's median and spread.

    python3 bench/spread.py [--first-seed 0] [--trace]

Run from the repository root.  It makes two sets of ten runs of
``bench/run.py`` on every workload of BENCHMARK.json, for its run length; set
k uses the ten seeds from first-seed + 10*k.  For each end-to-end metric it
prints each set's median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median, and
how far the second median moved from the first against the metric's bound.
With ``--trace`` it runs the traced run twice per workload on one seed
instead and prints the per-layer figures side by side.  Raw results go to
bench/_out/spread.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
RUNS = 10
SETS = 2


def run(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"  {workload} seed {seed}: {json.dumps(result)}", file=sys.stderr, flush=True)
    return result


def summarize(results: list[dict], name: str) -> dict:
    values = [r["metrics"][name]["value"] for r in results]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    report: dict = {"run_seconds": SPEC["run_seconds"], "workloads": {}}

    if args.trace:
        names = [m["name"] for m in SPEC["per_layer"]]
        for wl in NAMES:
            pair = [run(wl, args.first_seed, 1) for _ in range(2)]
            report["workloads"][wl] = pair
            print(f"\n{wl} (seed {args.first_seed}), traced run twice")
            for name in names:
                a, b = (r["metrics"][name]["value"] for r in pair)
                print(f"  {name:32s} {a:>16.6g} {b:>16.6g}")
    else:
        for wl in NAMES:
            sets = []
            for k in range(SETS):
                first = args.first_seed + k * RUNS
                results = [run(wl, seed, 0) for seed in range(first, first + RUNS)]
                sets.append(
                    {
                        "seeds": [first, first + RUNS - 1],
                        "attempted": sum(r["attempted"] for r in results),
                        "failed": sum(r["failed"] for r in results),
                        "correct": all(r["correct"] for r in results),
                        "metrics": {m["name"]: summarize(results, m["name"]) for m in SPEC["end_to_end"]},
                    }
                )
            report["workloads"][wl] = sets
            print(f"\n{wl}: " + ", ".join(f"set {k + 1} failed {s['failed']}/{s['attempted']}" for k, s in enumerate(sets)))
            for m in SPEC["end_to_end"]:
                name, bound = m["name"], m["bound"]
                stats = [s["metrics"][name] for s in sets]
                cols = [f"{x['median']:.4g} [{x['q1']:.4g}, {x['q3']:.4g}] spread {x['spread']:.2%}" for x in stats]
                a, b = stats[0]["median"], stats[1]["median"]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                print(f"  {name:17s} bound {bound:.0%}: " + " | ".join(cols) + f" | second worse by {worse:+.2%}")
    out = BENCH / "_out"
    out.mkdir(exist_ok=True)
    (out / "spread.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
