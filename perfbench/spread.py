"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 perfbench/spread.py [--first-seed 0] [--baseline perfbench/baseline.json]

Runs run.py on each workload once for each of ten seeds from --first-seed,
with BENCHMARK.json's run_seconds, and prints for each end-to-end metric the median, the quartiles
and the spread (third minus first quartile, as a share of the median)
against the metric's bound.  With --baseline it also makes one traced run per
workload and writes the medians, the per-layer metrics, the span shares and
the layer table to that file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEEDS = 10


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    detail = json.loads(next(line for line in lines if line.startswith("detail "))[len("detail "):])
    return {"result": json.loads(lines[-1]), "detail": detail}


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    end_to_end, per_layer, shares, calls, provenance = {}, {}, {}, {}, None
    steady, any_failed = True, False
    seeds = range(args.first_seed, args.first_seed + SEEDS)
    for workload in spans.WORKLOADS:
        runs = [run(workload, seed, 0) for seed in seeds]
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        any_failed |= failed > 0
        print(f"{workload:7} fail_ratio   {failed / attempted:.4g}  ({failed} of {attempted} checks failed)")
        provenance = runs[0]["detail"]["provenance"]
        calls[workload] = sorted({r["detail"]["call"] for r in runs})
        end_to_end[workload] = {}
        for name, bound in bounds.items():
            s = summary([r["result"]["metrics"][name]["value"] for r in runs])
            end_to_end[workload][name] = s
            ok = s["spread"] < bound / 3
            steady &= ok
            print(f"{workload:7} {name:12} median {s['median']:10.4f}  q1 {s['q1']:10.4f}  "
                  f"q3 {s['q3']:10.4f}  spread {s['spread']:6.1%}  bound {bound:.0%}"
                  f"{'' if ok else '  ABOVE A THIRD OF THE BOUND'}", flush=True)
        if args.baseline:
            traced = run(workload, args.first_seed, 1)
            per_layer[workload] = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
            shares[workload] = {k: round(v["share"], 4) for k, v in traced["detail"]["spans"].items()
                                if v["calls"]}
    if args.baseline:
        args.baseline.write_text(json.dumps({
            "provenance": provenance,
            "run_seconds": BENCHMARK["run_seconds"],
            "seeds": list(seeds),
            "calls": calls,
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "span_share_of_traced_wall": shares,
            "layers": {name: {"unit": layer.unit, "nonzero_on": layer.nonzero_on,
                              "moves": layer.moves}
                       for name, layer in spans.LAYERS.items()},
        }, indent=1) + "\n", encoding="utf-8")
    return 0 if steady and not any_failed else 2


if __name__ == "__main__":
    sys.exit(main())
