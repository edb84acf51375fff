"""Suite registry, determinism and the chain suite."""

import pytest

from hyperwreath import verify


def test_chain_suite_passes():
    results = verify.suite_chain(0, ns=(3,), i_max=2)
    assert results and all(r.passed for r in results)


def test_run_suite_all_aggregates():
    results = verify.run_suite(
        "regular", 0, ns=(2,), c_range=(-1, 1), radius=1
    )
    assert results and all(r.passed for r in results)


def test_run_suite_unknown_raises():
    with pytest.raises(KeyError):
        verify.run_suite("nosuch", 0)


def test_suites_are_seed_deterministic():
    a = verify.suite_formulas(7, pairs=30, ns=(2, 3))
    b = verify.suite_formulas(7, pairs=30, ns=(2, 3))
    assert [(r.name, r.passed, r.detail) for r in a] == [
        (r.name, r.passed, r.detail) for r in b
    ]
