"""Layer tracing for the benchmark, installed from outside the library.

A ``Tracer`` wraps the functions at each layer boundary named in ``TARGETS``
and aggregates one span per call: its count, its self time (duration minus
the time its traced children cover) and its total time.  Spans are summed
per name as they close rather than stored one by one, because a single
``step`` job opens millions of them.

``install`` replaces every binding of a target inside the ``hyperwreath``
package: the defining module, every module that bound the name with
``from ... import``, class attributes (so ``__rmul__`` follows ``__mul__``)
and module-level dispatch tables such as ``verify.SUITES``.
``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

# The benchmark's workloads, in BENCHMARK.json's order: the one list of their
# names, which workloads.WORKLOADS and run.py's --workload choices follow.
WORKLOADS = ("growth", "step", "suites")


def _count_results(counts: Counter, result) -> None:
    counts["partitions.enumerate.results"] += len(result)


def _count_generator_sets(counts: Counter, result) -> None:
    counts["chains.enumerate_N.built"] += len(result)
    counts["chains.enumerate_N.largest"] = max(counts["chains.enumerate_N.largest"], len(result))


def _count_unknown(counts: Counter, result) -> None:
    counts["chains.normalizes.unknown"] += result is None


def _count_constituents(counts: Counter, result) -> None:
    counts["chains.comm_constituents.out"] += len(result)


def _count_closure(counts: Counter, result) -> None:
    counts["chains.closure.size"] += len(result)
    counts["chains.closure.discards"] += result.discards


# (span name, module under hyperwreath, attribute path, counter hook)
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable[[Counter, object], None]]], ...] = (
    ("cli.main", "cli", "main", None),
    ("verify.suite.group", "verify", "suite_group", None),
    ("verify.suite.formulas", "verify", "suite_formulas", None),
    ("verify.suite.phi", "verify", "suite_phi", None),
    ("verify.suite.centers", "verify", "suite_centers", None),
    ("verify.suite.chain", "verify", "suite_chain", None),
    ("verify.suite.regular", "verify", "suite_regular", None),
    ("chains.verify_growth", "chains", "verify_growth", None),
    ("chains.check_chain_step", "chains", "check_chain_step", None),
    ("chains.enumerate_N", "chains", "enumerate_N", _count_generator_sets),
    ("chains.saturated_closure", "chains", "saturated_closure", _count_closure),
    ("chains.normalizes", "chains", "normalizes", _count_unknown),
    ("chains.idealizes", "chains", "idealizes", None),
    ("chains.comm_constituents", "chains", "comm_constituents", _count_constituents),
    ("partitions.enumerate", "partitions", "enumerate_partitions", _count_results),
    ("regular.orbit_injectivity", "regular", "orbit_injectivity", None),
    ("regular.membership_solve", "regular", "membership_solve", None),
    ("liering.bracket_keys", "liering", "bracket_keys", None),
    ("wreath.comm_formula", "wreath", "comm_formula", None),
    ("wreath.decompose", "wreath", "GroupElement.decompose", None),
    ("wreath.mul", "wreath", "GroupElement.__mul__", None),
    ("wreath.inverse", "wreath", "GroupElement.inverse", None),
    ("polyring.init", "polyring", "Poly.__init__", None),
    ("polyring.difference", "polyring", "Poly.difference", None),
    ("polyring.substitute", "polyring", "Poly.substitute", None),
    ("polyring.mul", "polyring", "Poly.__mul__", None),
    ("ordinals.tdeg", "ordinals", "tdeg_of_monomial", None),
)


class Layer(NamedTuple):
    unit: str
    nonzero_on: Tuple[str, ...]  # workloads on which the metric must not read 0
    moves: str  # the end-to-end metric and workload a change here should move


_GROWTH = Layer("count", ("growth",), "growth wall_s")
_STEP = Layer("count", ("step",), "step wall_s")
_SUITES = Layer("count", ("suites",), "suites wall_s")


def _seconds(layer: Layer) -> Layer:
    return layer._replace(unit="s")


# Every per-layer metric, in the order BENCHMARK.json lists them.  The two
# counters of undecided or dropped work (unknown verdicts, closure discards)
# read 0 on every workload at the seed commit; ``ZERO_EVERYWHERE`` pins that.
LAYERS: Dict[str, Layer] = {
    "partitions.enumerate.calls": _GROWTH,
    "partitions.enumerate.self_s": _seconds(_GROWTH),
    "partitions.enumerate.results": _GROWTH,
    "chains.enumerate_N.calls": _GROWTH,
    "chains.enumerate_N.self_s": _seconds(_GROWTH),
    "chains.enumerate_N.rebuild_ratio": _GROWTH._replace(unit="ratio"),
    "chains.verify_growth.self_s": _seconds(_GROWTH),
    "cli.main.self_s": _seconds(_GROWTH._replace(moves="growth wall_s (62 KB JSON render)")),
    "chains.check_chain_step.self_s": _seconds(_STEP),
    "chains.normalizes.calls": _STEP,
    "chains.normalizes.self_s": _seconds(_STEP),
    "chains.normalizes.unknown": _STEP._replace(nonzero_on=()),
    "chains.comm_constituents.calls": _STEP,
    "chains.comm_constituents.self_s": _seconds(_STEP),
    "chains.comm_constituents.out": _STEP,
    "chains.saturated_closure.self_s": _seconds(_STEP),
    "chains.closure.size": _STEP,
    "chains.closure.discards": _STEP._replace(nonzero_on=()),
    "chains.idealizes.self_s": _seconds(_STEP),
    "wreath.comm_formula.calls": _STEP,
    "wreath.comm_formula.self_s": _seconds(_STEP),
    "wreath.decompose.calls": _STEP,
    "wreath.decompose.self_s": _seconds(_STEP),
    "polyring.difference.calls": _STEP,
    "polyring.difference.self_s": _seconds(_STEP),
    "polyring.init.calls": _STEP,
    "polyring.init.self_s": _seconds(_STEP),
    "ordinals.tdeg.calls": _STEP,
    "ordinals.tdeg.self_s": _seconds(_STEP),
    "ordinals.tdeg.per_verdict": _STEP._replace(unit="ratio"),
    "wreath.mul.calls": _SUITES,
    "wreath.mul.self_s": _seconds(_SUITES),
    "wreath.inverse.calls": _SUITES,
    "wreath.inverse.self_s": _seconds(_SUITES),
    "polyring.substitute.calls": _SUITES,
    "polyring.substitute.self_s": _seconds(_SUITES),
    "polyring.mul.calls": _SUITES,
    "polyring.mul.self_s": _seconds(_SUITES),
    "liering.bracket_keys.calls": _SUITES,
    "regular.orbit_injectivity.self_s": _seconds(_SUITES),
    "regular.membership_solve.calls": _SUITES,
    "verify.suite.group.s": _seconds(_SUITES),
    "verify.suite.formulas.s": _seconds(_SUITES),
    "verify.suite.phi.s": _seconds(_SUITES),
    "verify.suite.centers.s": _seconds(_SUITES),
    "verify.suite.chain.s": _seconds(_SUITES),
    "verify.suite.regular.s": _seconds(_SUITES),
    "trace.overhead_s": Layer("s", WORKLOADS, "none: traced wall_s minus untraced wall_s"),
}

ZERO_EVERYWHERE = ("chains.normalizes.unknown", "chains.closure.discards")


def _resolve(module: str, path: str):
    owner = importlib.import_module(f"hyperwreath.{module}")
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return vars(owner)[attr]


def bindings() -> Iterator[Tuple[Callable[[str, object], None], str, object]]:
    """Every (setter, key, value) through which hyperwreath code finds a name:
    module globals, attributes of classes defined there, and the entries of
    module-level dicts."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "hyperwreath" or mod_name.startswith("hyperwreath.")):
            continue
        namespace = vars(mod)
        for key, value in list(namespace.items()):
            yield namespace.__setitem__, key, value
            if isinstance(value, type) and value.__module__ == mod_name:
                for attr, member in list(vars(value).items()):
                    yield functools.partial(setattr, value), attr, member
            elif isinstance(value, dict):
                for entry, member in list(value.items()):
                    yield value.__setitem__, entry, member


class Tracer:
    """Aggregated spans at the layer boundaries in ``TARGETS``."""

    def __init__(self) -> None:
        self.spans: Dict[str, List[float]] = {name: [0, 0.0, 0.0] for name, *_ in TARGETS}
        self.counts: Counter = Counter()
        self._open: List[float] = [0.0]  # child time of each open span; [0] is the root
        self._patched: List[Tuple[Callable[[str, object], None], str, object]] = []

    def _wrap(self, name: str, fn: Callable, hook) -> Callable:
        record = self.spans[name]
        open_spans = self._open
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_spans.pop()
                open_spans[-1] += elapsed
                record[0] += 1
                record[1] += elapsed - children
                record[2] += elapsed
            if hook is not None:
                hook(counts, result)
            return result

        return span

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, module, path, hook in TARGETS:
            fn = _resolve(module, path)
            wrappers[id(fn)] = (fn, self._wrap(name, fn, hook))
        for setter, key, value in bindings():
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setter(key, hit[1])
                self._patched.append((setter, key, value))

    def uninstall(self) -> None:
        while self._patched:
            setter, key, value = self._patched.pop()
            setter(key, value)

    def traced_seconds(self) -> float:
        """Time covered by outermost spans: the sum of every span's self time."""
        return self._open[0]

    def metrics(self, jobs: int, overhead_s: float) -> Dict[str, float]:
        """Per-layer metrics averaged over ``jobs`` traced jobs."""
        out: Dict[str, float] = {}
        for name, (calls, self_s, total_s) in self.spans.items():
            out[f"{name}.calls"] = calls / jobs
            out[f"{name}.self_s"] = self_s / jobs
            out[f"{name}.s"] = total_s / jobs
        for name, value in self.counts.items():
            out[name] = value / jobs
        largest = self.counts["chains.enumerate_N.largest"]
        out["chains.enumerate_N.rebuild_ratio"] = (
            self.counts["chains.enumerate_N.built"] / jobs / largest if largest else 0.0
        )
        verdicts = self.spans["chains.normalizes"][0]
        out["ordinals.tdeg.per_verdict"] = (
            self.spans["ordinals.tdeg"][0] / verdicts if verdicts else 0.0
        )
        out["trace.overhead_s"] = overhead_s
        return {name: out.get(name, 0.0) for name in LAYERS}

    def shares(self, traced_wall_s: float) -> Dict[str, Dict[str, float]]:
        """Calls, self and total time per span, with total time as a share
        of the traced wall time."""
        return {
            name: {
                "calls": calls,
                "self_s": self_s,
                "total_s": total_s,
                "share": total_s / traced_wall_s if traced_wall_s else 0.0,
            }
            for name, (calls, self_s, total_s) in self.spans.items()
        }
