"""Lie ring of partitions: bracket, laws, and the leading-term correspondence."""

import random

import pytest

from hyperwreath.liering import (
    LieElement,
    bracket,
    bracket_keys,
    parse_lie,
    phi,
)
from hyperwreath.ordinals import ZERO, OrdinalCNF
from hyperwreath.partitions import EMPTY, Partition
from hyperwreath.polyring import Poly
from hyperwreath.verify import random_monomial
from hyperwreath.wreath import GroupElement, comm


def basis(parts, k, n, coeff=1):
    return LieElement.basis(Partition.from_parts(parts), k, n, coeff=coeff)


def test_bracket_examples():
    n = 2
    a = basis([1], 2, n)  # x1 d2
    b = basis([], 1, n)  # d1
    assert bracket(a, b) == basis([], 2, n)
    assert bracket(b, a) == basis([], 2, n, coeff=-1)
    assert bracket(a, a).is_zero


def test_bracket_case_split():
    n = 4
    # lower-layer derivation hits the polynomial part: d1 acting on x1^2
    assert bracket(basis([1, 1], 4, n), basis([], 1, n)) == basis([1], 4, n, coeff=2)
    # higher-layer derivation: sign flip and the mirrored derivative
    assert bracket(basis([], 2, n), basis([2], 4, n)) == basis([], 4, n, coeff=-1)
    # equal layers vanish
    assert bracket(basis([1], 3, n), basis([2], 3, n)).is_zero


def test_bracket_keys_zero_cases():
    coeff, _ = bracket_keys((Partition.from_parts([2]).mults, 3), ((), 1))
    assert coeff == 0  # no part equal to 1 to differentiate


def test_bracket_is_bilinear_alternating_jacobi():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(2, 5)
        a = LieElement.from_monomial(random_monomial(rng, n))
        b = LieElement.from_monomial(random_monomial(rng, n))
        c = LieElement.from_monomial(random_monomial(rng, n))
        assert bracket(a, a).is_zero
        assert bracket(a + b, c) == bracket(a, c) + bracket(b, c)
        assert bracket(c, a + b) == bracket(c, a) + bracket(c, b)
        jacobi = (
            bracket(a, bracket(b, c))
            + bracket(b, bracket(c, a))
            + bracket(c, bracket(a, b))
        )
        assert jacobi.is_zero


def test_phi_examples():
    assert phi(GroupElement.identity(3)).is_zero
    g = GroupElement.monomial(1, Partition.from_parts([1, 1]), 3, 3)
    assert phi(g) == basis([1, 1], 3, 3)
    h = GroupElement(2, [Poly.constant(1), Poly.variable(1)])
    assert phi(h) == basis([], 1, 2)


def test_phi_intertwines_comm_and_bracket():
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randint(2, 5)
        a = random_monomial(rng, n)
        b = random_monomial(rng, n)
        lhs = phi(comm(a.to_group(), b.to_group()))
        rhs = bracket(LieElement.from_monomial(a), LieElement.from_monomial(b))
        assert lhs == rhs


def test_tdeg_lie_examples():
    n = 4
    assert LieElement.basis(EMPTY, n, n).tdeg() == ZERO
    assert LieElement.basis(Partition.from_parts([1]), n, n).tdeg() == OrdinalCNF.from_int(1)
    assert LieElement.basis(EMPTY, n - 1, n).tdeg() == OrdinalCNF(((n - 1, 1),))


def test_bracket_drops_tdeg_across_layers():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 5)
        a = random_monomial(rng, n, monic=True)
        b = random_monomial(rng, n, monic=True)
        if a.layer == b.layer:
            continue
        out = bracket(LieElement.from_monomial(a), LieElement.from_monomial(b))
        if out.is_zero:
            continue
        assert out.tdeg() < max(a.tdeg(), b.tdeg())


def test_lie_element_validation():
    with pytest.raises(ValueError):
        LieElement.basis(Partition.from_parts([2]), 2, 4)
    with pytest.raises(ValueError):
        LieElement.basis(EMPTY, 5, 4)
    with pytest.raises(ValueError):
        parse_lie("x99999999999999999999999 d2", 2)  # rejected before the tuple is built


def test_render_examples():
    n = 4
    e = basis([1, 1], 3, n, coeff=2) + basis([2], 4, n)
    assert e.render() == "2*x1^2 d3 + x2 d4"
    assert LieElement.zero(n).render() == "0"
    assert basis([], 3, n).render() == "d3"
    assert basis([], 3, n, coeff=-1).render() == "-d3"


def test_render_parse_round_trip():
    rng = random.Random(8)
    for _ in range(150):
        n = rng.randint(2, 5)
        e = LieElement.zero(n)
        for _ in range(rng.randint(0, 4)):
            e = e + LieElement.from_monomial(random_monomial(rng, n))
        assert parse_lie(e.render(), n) == e
