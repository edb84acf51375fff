"""Suite registry, determinism and the chain suite."""

import json
from pathlib import Path

import pytest

from hyperwreath import cli, verify, wreath

# The benchmark's recorded outputs of verify --suite all, read here only.
REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"


def test_chain_suite_passes():
    results = verify.suite_chain(0, ns=(3,), i_max=2)
    assert results and all(r.passed for r in results)


def test_run_suite_all_aggregates(capsys):
    reference = json.loads(REFERENCES.read_text())["suites.seed0"]
    code = cli.main(["verify", "--suite", "all", "--seed", "0"])
    assert capsys.readouterr().out.splitlines() == reference["lines"]
    assert code == reference["exit"]


def test_run_suite_all_rejects_options():
    with pytest.raises(TypeError):
        verify.run_suite("all", 0, ns=(99,))


def test_each_failing_property_keeps_its_own_first_detail(monkeypatch):
    monkeypatch.setattr(wreath.GroupElement, "__eq__", lambda self, other: False)
    results = verify.suite_group(0, triples=3, ns=(2, 3))
    assert [(r.name, r.passed, r.detail) for r in results] == [
        ("associativity", False, "associativity broke at n=2 sample 0"),
        ("two-sided inverse", False, "inverse broke at n=2 sample 0"),
        ("act(g*h, x) == act(h, act(g, x))", True, ""),
    ]


def test_run_suite_unknown_raises():
    with pytest.raises(KeyError):
        verify.run_suite("nosuch", 0)


def test_suites_are_seed_deterministic():
    a = verify.suite_formulas(7, pairs=30, ns=(2, 3))
    b = verify.suite_formulas(7, pairs=30, ns=(2, 3))
    assert [(r.name, r.passed, r.detail) for r in a] == [
        (r.name, r.passed, r.detail) for r in b
    ]
