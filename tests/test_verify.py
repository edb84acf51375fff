"""Suite registry, determinism and the chain suite."""

import json
from pathlib import Path

import pytest

from hyperwreath import cli, verify, wreath
from hyperwreath.partitions import enumerate_partitions

# The benchmark's recorded outputs of verify --suite all, read here only.
REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"


def test_chain_suite_passes():
    results = verify.suite_chain(0, ns=(3,), i_max=2)
    assert results and all(r.passed for r in results)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_run_suite_all_aggregates(capsys, seed):
    reference = json.loads(REFERENCES.read_text())[f"suites.seed{seed}"]
    code = cli.main(["verify", "--suite", "all", "--seed", str(seed)])
    assert capsys.readouterr().out.splitlines() == reference["lines"]
    assert code == reference["exit"]


def test_partition_options_are_the_enumeration_in_order():
    for max_part in range(1, 7):
        for wt in range(0, 9):
            options = verify._partition_options(wt, max_part)
            assert list(options) == enumerate_partitions(wt, num_parts=None, max_part=max_part)
            assert verify._partition_options(wt, max_part) is options  # memoised


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
