"""One measured process of the benchmark.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE
    python3 perfbench/worker.py WORKLOAD SEED --setup-only

run.py starts this in a fresh interpreter, so that set-up time and peak
memory belong to one workload alone.  The process times its own set-up
(importing hyperwreath and building the workload's inputs), runs jobs one
at a time until the next would end past SECONDS, checks every output against
the references, and prints one JSON object on stdout.  With TRACE 0 it also
starts ``SETUP_PROBES`` fresh interpreters with ``--setup-only`` after each
job, one at a time, so that the set-up times it reports are sampled across
the whole run.  With TRACE 1 each
round is an untraced job followed by a traced one, and the run makes at
least ``TRACED_ROUNDS`` rounds, whatever SECONDS, so that the tracing
overhead is the median of that many paired differences.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
import traceback

import spans

_START = time.perf_counter()

import workloads  # noqa: E402  (imports hyperwreath: part of set-up)

TRACED_ROUNDS = 3
SETUP_PROBES = 3  # fresh interpreters timed for set-up after each untraced job


def timed(job):
    """Wall time of one job and its raw result; None when it raised."""
    start = time.perf_counter()
    try:
        raw = job.run()
    except Exception:  # a crashing job is a failed check, not a broken benchmark
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - start, None
    return time.perf_counter() - start, raw


def setup_probe(name: str, seed: int) -> float:
    """Set-up time of a fresh interpreter building the same workload."""
    proc = subprocess.run([sys.executable, __file__, name, str(seed), "--setup-only"],
                          capture_output=True, text=True, check=True, timeout=60)
    return json.loads(proc.stdout)["setup_s"]


def measure(job, seconds: float, trace: bool, min_rounds: int = 1, after_round=None) -> dict:
    """Run rounds of ``job``, at least ``min_rounds``, until the next round
    would end past ``seconds``; ``after_round`` runs untimed after each."""
    reference = workloads.load_references()[job.reference_key]
    deadline = time.perf_counter() + seconds
    tracer = spans.Tracer() if trace else None
    out = {"untraced_s": [], "traced_s": [], "attempted": 0, "failed": 0,
           "units": 0, "mismatches": [], "trace_differs": 0}

    def check(raw, label):
        out["attempted"] += 1
        signature, units = (None, 0) if raw is None else job.signature(raw)
        if signature != reference:
            out["failed"] += 1
            out["mismatches"].append(label)
        out["units"] = max(out["units"], units)
        return signature

    while True:
        round_start = time.perf_counter()
        wall, raw = timed(job)
        out["untraced_s"].append(wall)
        untraced = check(raw, "untraced")
        if tracer is not None:
            tracer.install()
            try:
                wall, raw = timed(job)
            finally:
                tracer.uninstall()
            out["traced_s"].append(wall)
            out["trace_differs"] += check(raw, "traced") != untraced
        if after_round is not None:
            after_round()
        now = time.perf_counter()
        if len(out["untraced_s"]) >= min_rounds and now + (now - round_start) > deadline:
            break
    if tracer is not None:
        traced = out["traced_s"]
        overhead = statistics.median(t - u for u, t in zip(out["untraced_s"], traced))
        out["layers"] = tracer.metrics(len(traced), overhead)
        out["spans"] = tracer.shares(sum(traced))
        out["traced_span_s"] = tracer.traced_seconds()
    return out


def main(argv) -> int:
    name, seed = argv[0], int(argv[1])
    job = workloads.WORKLOADS[name](seed)
    setup_s = time.perf_counter() - _START
    if argv[2] == "--setup-only":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    seconds, trace = float(argv[2]), argv[3] == "1"
    setups = [setup_s]
    if trace:
        result = measure(job, seconds, True, TRACED_ROUNDS)
    else:
        result = measure(job, seconds, False, after_round=lambda: setups.extend(
            setup_probe(name, seed) for _ in range(SETUP_PROBES)))
    result.update(
        workload=name,
        call=job.call,
        reference=job.reference_key,
        unit_name=job.unit_name,
        setup_s=setups,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
