"""Write references.json: the exact output signature of every workload input.

    python3 perfbench/record_references.py

The committed references were recorded at the seed commit of the benchmark.
Record them again only when a change is meant to alter an exact answer; a
benchmark run counts every output that differs from them as a failed check.
"""

import json

import workloads


def main() -> None:
    references = {}
    for name, cls in workloads.WORKLOADS.items():
        for seed in workloads.SUITE_SEEDS if name == "suites" else (0,):
            job = cls(seed)
            signature, _ = job.signature(job.run())
            references[job.reference_key] = signature
            print(f"{job.reference_key}: recorded", flush=True)
    workloads.REFERENCES.write_text(json.dumps(references, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
