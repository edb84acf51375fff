"""The benchmark's own tests.

    python3 -m pytest perfbench

They run each workload once untraced and once traced (about a minute).
"""

import dataclasses
import json
from pathlib import Path

import pytest

import spans
import worker
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_what_the_benchmark_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(spans.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [
        "setup_s", "wall_s", "units_per_s", "peak_rss_mb"]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == [
        (name, layer.unit) for name, layer in spans.LAYERS.items()]


def test_install_rebinds_every_from_import_binding():
    from hyperwreath import chains, liering, polyring, regular, verify, wreath

    originals = [spans._resolve(module, path) for _, module, path, _ in spans.TARGETS]
    tracer = spans.Tracer()
    tracer.install()
    try:
        left = [key for _, key, value in spans.bindings() if any(value is fn for fn in originals)]
        assert left == []
        for fn in (chains.enumerate_partitions, verify.enumerate_partitions, chains.comm_formula,
                   wreath.tdeg_of_monomial, liering.tdeg_of_monomial, regular.enumerate_N,
                   verify.SUITES["chain"], polyring.Poly.__rmul__):
            assert hasattr(fn, "__wrapped__"), fn
    finally:
        tracer.uninstall()
    assert chains.enumerate_partitions is spans._resolve("partitions", "enumerate_partitions")
    assert not hasattr(polyring.Poly.__init__, "__wrapped__")


def test_step_signature_sees_verdicts_that_cancel_out():
    from hyperwreath import chains

    step = workloads.Step(0)
    passing = chains.ChainStepCheck(
        n=5, i=1, wt_bound=1, closure_size=15, closure_discards=0, members_checked=16,
        outsiders_checked=58, member_failures=[], outsider_passes=[], unknowns=[],
        mirror_disagreements=[], group_passes=16, lie_passes=16)
    swapped = dataclasses.replace(passing, member_failures=["m"], outsider_passes=["o"])
    disagreeing = dataclasses.replace(passing, mirror_disagreements=["d"])
    reference, _ = step.signature([passing])
    assert step.signature([swapped])[0] != reference
    assert step.signature([disagreeing])[0] != reference


@pytest.fixture(scope="module", params=spans.WORKLOADS)
def traced_round(request):
    job = workloads.WORKLOADS[request.param](0)
    return request.param, worker.measure(job, seconds=0, trace=True)


def test_traced_outputs_equal_untraced_and_reference(traced_round):
    _, result = traced_round
    assert result["attempted"] == 2
    assert result["failed"] == 0, result["mismatches"]
    assert result["trace_differs"] == 0


def test_self_times_fit_in_traced_wall(traced_round):
    _, result = traced_round
    self_sum = sum(span["self_s"] for span in result["spans"].values())
    assert self_sum == pytest.approx(result["traced_span_s"])
    assert self_sum <= sum(result["traced_s"])


def test_layers_read_nonzero_on_their_workload(traced_round):
    name, result = traced_round
    layers = result["layers"]
    zero = [m for m, layer in spans.LAYERS.items() if name in layer.nonzero_on and not layers[m]]
    assert zero == []
    assert [layers[m] for m in spans.ZERO_EVERYWHERE] == [0] * len(spans.ZERO_EVERYWHERE)


def test_predicted_dominant_layers(traced_round):
    name, result = traced_round
    share = {span: v["share"] for span, v in result["spans"].items()}
    if name == "growth":
        assert share["partitions.enumerate"] > 0.5
    elif name == "step":
        assert share["chains.normalizes"] > 0.5
    else:
        assert share["wreath.mul"] + share["wreath.inverse"] > share["chains.normalizes"]
