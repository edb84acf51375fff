"""The benchmark's three workloads: inputs from a seed, one job, its output.

Each class is built from the run's seed (that is its set-up), runs one job
through the public API with ``run()``, and reduces the job's raw result to a
``signature`` that is compared exactly against ``references.json``.
Importing this module imports ``hyperwreath`` from the checkout's ``src``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path
from typing import List, Tuple

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"  # files the jobs write; listed in .gitignore
REFERENCES = Path(__file__).resolve().parent / "references.json"

sys.path.insert(0, str(SRC))
import hyperwreath  # noqa: E402
from hyperwreath import chains, cli  # noqa: E402

if Path(hyperwreath.__file__).resolve().parent != SRC / "hyperwreath":
    raise ImportError(f"hyperwreath was imported from {hyperwreath.__file__}, not from {SRC}")

# Seeds of the verify suites, each with recorded reference lines; the run's
# seed picks one.  All four pass every property at the seed commit.
SUITE_SEEDS = (0, 1, 2, 3)


class Growth:
    """``chain --n 8 --imax 60`` to a JSON file: partition enumeration through
    61 ``enumerate_N`` rebuilds, almost no polynomial arithmetic.  Exact and
    seed-free."""

    reference_key = "growth"
    unit_name = "generators"

    def __init__(self, seed: int) -> None:
        SCRATCH.mkdir(exist_ok=True)
        self.out = SCRATCH / "growth.json"
        self.argv = ["chain", "--n", "8", "--imax", "60", "--format", "json", "--out", str(self.out)]
        self.call = f"cli.main({self.argv[:-1] + [self.out.relative_to(ROOT).as_posix()]})"

    def run(self) -> int:
        return cli.main(self.argv)

    def signature(self, raw: int) -> Tuple[dict, int]:
        """Exit code and the JSON's digest; units are the generators enumerated."""
        try:
            data = self.out.read_bytes()
        except FileNotFoundError:
            return {"exit": raw, "sha256": None}, 0
        self.out.unlink()
        rows = json.loads(data)["rows"]
        units = sum(len(row["generators"]) for row in rows)
        return {"exit": raw, "sha256": hashlib.sha256(data).hexdigest()}, units


class Step:
    """``check_chain_step(5, i)`` for i = 1..8, the work of
    ``verify --suite chain --n 5 --imax 8`` without the CLI's extra growth
    rows: normalizer verdicts over commutator constituents.  Exact and
    seed-free."""

    reference_key = "step"
    unit_name = "candidate verdicts"

    def __init__(self, seed: int) -> None:
        self.steps = [(5, i) for i in range(1, 9)]
        self.call = "[chains.check_chain_step(5, i) for i in range(1, 9)]"

    def run(self) -> List[chains.ChainStepCheck]:
        return [chains.check_chain_step(n, i) for n, i in self.steps]

    def signature(self, raw: List[chains.ChainStepCheck]) -> Tuple[list, int]:
        """Per step the closure size and discards, candidates checked, verdict
        counts, unknowns and each kind of failed verdict; units are the
        candidate verdicts."""
        rows = [
            [s.closure_size, s.closure_discards, s.members_checked, s.outsiders_checked,
             s.group_passes, s.lie_passes, len(s.unknowns), len(s.member_failures),
             len(s.outsider_passes), len(s.mirror_disagreements)]
            for s in raw
        ]
        units = sum(s.members_checked + s.outsiders_checked + len(s.unknowns) for s in raw)
        return rows, units


class Suites:
    """``verify --suite all`` at one of ``SUITE_SEEDS``: group products and
    inverses through ``Poly`` composition, Lie brackets, regular families and
    a small chain suite."""

    unit_name = "property checks"

    def __init__(self, seed: int) -> None:
        suite_seed = SUITE_SEEDS[seed % len(SUITE_SEEDS)]
        self.reference_key = f"suites.seed{suite_seed}"
        self.argv = ["verify", "--suite", "all", "--seed", str(suite_seed)]
        self.call = f"cli.main({self.argv})"

    def run(self) -> Tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv)
        return code, buf.getvalue()

    def signature(self, raw: Tuple[int, str]) -> Tuple[dict, int]:
        """Exit code and every output line; units are the property checks."""
        code, text = raw
        lines = text.splitlines()
        units = sum(line.startswith(("PASS ", "FAIL ")) for line in lines)
        return {"exit": code, "lines": lines}, units


WORKLOADS = dict(zip(spans.WORKLOADS, (Growth, Step, Suites)))


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))
