"""Benchmark of hyperwreath: one workload per run, closed loop, every output checked.

    python3 perfbench/run.py --workload {growth,step,suites} --seed N --seconds S --trace {0,1}

One job runs at a time in a single process; the next starts when the last
has finished and its output has been checked.  The library is measured only
from outside, through its public API, from the checkout's ``src``.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``setup_s``: median over fresh interpreters, started one at a time between
  the jobs, of importing hyperwreath and building the workload's inputs;
* ``wall_s``: median job time;
* ``units_per_s``: the workload's units of work per median job;
* ``peak_rss_mb``: peak resident memory of the process that ran the jobs.

With ``--trace 1`` each round is an untraced job and a traced one, and the
run reports the per-layer metrics of ``spans.LAYERS``, including the
tracing overhead.  Failed checks over checks attempted (``fail_ratio``) are
printed in the report and carried by ``attempted`` and ``failed`` in the
result, the last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
TIMEOUT_S = 170


def worker_env() -> dict:
    """The caller's environment without the library's thread-pool knob."""
    env = dict(os.environ)
    env.pop("HYPERWREATH_THREADS", None)
    return env


def run_worker(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def git(*args: str):
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args: argparse.Namespace) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=spans.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    detail = {"provenance": provenance(args)}
    result = run_worker(args.workload, str(args.seed), str(args.seconds), str(args.trace))
    setups = result["setup_s"]

    walls = result["untraced_s"]
    wall_s = statistics.median(walls)
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}: {result['call']}  (reference {result['reference']})")
    print(f"fail_ratio   {failed / attempted:.4g}  ({failed} of {attempted} checks failed"
          + (f": {', '.join(result['mismatches'])}" if failed else "") + ")")
    if args.trace:
        traced_s = statistics.median(result["traced_s"])
        metrics = {
            name: metric(result["layers"][name], layer.unit)
            for name, layer in spans.LAYERS.items()
        }
        print(f"traced wall_s {traced_s:.4f} s against {wall_s:.4f} s untraced "
              f"({len(result['traced_s'])} traced jobs)")
        for name, span in sorted(result["spans"].items(), key=lambda kv: -kv[1]["total_s"]):
            if span["calls"]:
                print(f"  {name:28} calls {span['calls']:>9}  self {span['self_s']:8.3f} s"
                      f"  total {span['total_s']:8.3f} s  share {span['share']:6.1%}")
        detail.update(spans=result["spans"], traced_s=result["traced_s"],
                      traced_span_s=result["traced_span_s"], trace_differs=result["trace_differs"])
    else:
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "wall_s": metric(wall_s, "s"),
            "units_per_s": metric(result["units"] / wall_s, "1/s"),
            "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
        }
        print(f"setup_s      {metrics['setup_s']['value']:.4f} s  (median of {len(setups)} fresh processes)")
        print(f"wall_s       {wall_s:.4f} s  (median of {len(walls)} jobs, "
              f"min {min(walls):.4f}, max {max(walls):.4f})")
        print(f"units_per_s  {metrics['units_per_s']['value']:.2f} {result['unit_name']}/s  "
              f"({result['units']} per job)")
        print(f"peak_rss_mb  {result['peak_rss_mb']:.1f} MB")
    detail.update(call=result["call"], untraced_s=walls, setup_s=setups, units=result["units"])
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
