"""Group structure: action, product, inverse, commutators, grading."""

import random

import pytest

import hyperwreath
from hyperwreath.liering import LieElement, parse_lie
from hyperwreath.ordinals import ZERO, OrdinalCNF, tdeg_of_monomial
from hyperwreath.partitions import EMPTY, Partition
from hyperwreath.polyring import Poly
from hyperwreath.verify import random_group_element, random_monomial
from hyperwreath.wreath import (
    GroupElement,
    MonomialElement,
    comm,
    comm_formula,
    conjugate,
    leading_of_monomial_comm,
    parse_element,
    taylor_comm,
)

x1 = Poly.variable(1)
x2 = Poly.variable(2)


def test_act_examples():
    assert GroupElement.delta(1, 3).act((0, 0, 0)) == (-1, 0, 0)
    x = (9, 1, -4, 2)
    assert GroupElement.identity(4).act(x) == x
    assert GroupElement.from_layer_poly(x1, 2, 2).act((2, 5)) == (2, 3)


def test_act_uses_original_coordinates():
    # both layers read the untouched input point
    g = GroupElement(2, [Poly.constant(1), x1])
    assert g.act((3, 10)) == (2, 7)


def test_mul_examples_cross_checked_by_action():
    rng = random.Random(1)
    d1 = GroupElement.delta(1, 2)
    x1d2 = GroupElement.from_layer_poly(x1, 2, 2)

    two_d1 = d1 * d1
    assert two_d1 == GroupElement(2, [Poly.constant(2), Poly.zero()])

    prod = x1d2 * d1
    assert prod == GroupElement(2, [Poly.constant(1), x1])

    prod2 = d1 * x1d2
    assert prod2 == GroupElement(2, [Poly.constant(1), x1 - 1])

    # oracle: act on 20 sample points
    for g, h, gh in ((x1d2, d1, prod), (d1, x1d2, prod2)):
        for _ in range(20):
            x = tuple(rng.randint(-8, 8) for _ in range(2))
            assert gh.act(x) == h.act(g.act(x))


def test_mul_rejects_mismatched_n():
    with pytest.raises(ValueError):
        GroupElement.delta(1, 2) * GroupElement.delta(1, 3)


def test_inverse_examples():
    assert GroupElement.delta(1, 3).inverse() == GroupElement.from_layer_poly(
        Poly.constant(-1), 1, 3
    )
    assert GroupElement.identity(4).inverse() == GroupElement.identity(4)
    g = GroupElement(2, [Poly.constant(1), x1])
    assert g.inverse() == GroupElement(2, [Poly.constant(-1), -x1 - 1])


def test_group_axioms_random():
    rng = random.Random(42)
    for n in (2, 3, 4):
        ident = GroupElement.identity(n)
        for _ in range(40):
            g = random_group_element(rng, n)
            h = random_group_element(rng, n)
            k = random_group_element(rng, n)
            assert (g * h) * k == g * (h * k)
            assert g * g.inverse() == ident
            assert g.inverse() * g == ident
            gh = g * h
            for _ in range(5):
                x = tuple(rng.randint(-5, 5) for _ in range(n))
                assert gh.act(x) == h.act(g.act(x))


def test_comm_examples():
    d1 = GroupElement.delta(1, 2)
    x1d2 = GroupElement.from_layer_poly(x1, 2, 2)
    assert comm(x1d2, d1) == GroupElement.from_layer_poly(Poly.constant(1), 2, 2)
    assert comm(d1, x1d2) == GroupElement.from_layer_poly(Poly.constant(-1), 2, 2)
    g = random_group_element(random.Random(9), 3)
    assert comm(g, g).is_identity


def test_comm_formula_examples():
    got = comm_formula(x1 ** 2, 3, Poly.constant(1), 1, 3)
    assert got == GroupElement.from_layer_poly(2 * x1 + 1, 3, 3)
    assert comm_formula(x1, 2, x1, 2, 3).is_identity
    assert comm_formula(x1, 2, Poly.constant(1), 1, 3) == GroupElement.from_layer_poly(
        Poly.constant(1), 2, 3
    )


def test_comm_matches_formula_on_random_monomials():
    rng = random.Random(55)
    for _ in range(200):
        n = rng.randint(2, 5)
        a = random_monomial(rng, n)
        b = random_monomial(rng, n)
        fa = Poly.monomial(a.coeff, a.lam.mults)
        fb = Poly.monomial(b.coeff, b.lam.mults)
        assert comm(a.to_group(), b.to_group()) == comm_formula(
            fa, a.layer, fb, b.layer, n
        )


def test_taylor_comm_examples():
    assert taylor_comm(x1 ** 2, 3, Poly.constant(1), 1, 3) == GroupElement.from_layer_poly(
        2 * x1 + 1, 3, 3
    )
    assert taylor_comm(x2, 3, x1, 2, 3) == GroupElement.from_layer_poly(x1, 3, 3)
    assert taylor_comm(Poly.constant(7), 3, x1, 1, 3).is_identity


def test_taylor_equals_formula():
    rng = random.Random(77)
    for _ in range(200):
        n = rng.randint(2, 5)
        k = rng.randint(2, n)
        u = rng.randint(1, k - 1)
        a = random_monomial(rng, n, layer=k)
        b = random_monomial(rng, n, layer=u)
        fa = Poly.monomial(a.coeff, a.lam.mults)
        fb = Poly.monomial(b.coeff, b.lam.mults)
        assert taylor_comm(fa, k, fb, u, n) == comm_formula(fa, k, fb, u, n)


def scalar_mul(g, d):
    """Module action of the coefficient ring: every layer times d."""
    return GroupElement(g.n, [f * d for f in g.layers])


def test_scalar_mul_examples():
    g = GroupElement(2, [Poly.constant(1), x1])
    assert scalar_mul(g, 0).is_identity
    assert scalar_mul(GroupElement.delta(1, 3), 3) == GroupElement.from_layer_poly(
        Poly.constant(3), 1, 3
    )
    assert scalar_mul(g, 2) == GroupElement(2, [Poly.constant(2), 2 * x1])


def test_decompose_examples():
    assert GroupElement.identity(3).decompose() == []
    g = GroupElement(2, [Poly.constant(1), x1])
    mono = g.decompose()
    assert [m.render() for m in mono] == ["[1]D1", "[x1]D2"]
    assert [m.tdeg() for m in mono] == [OrdinalCNF(((1, 1),)), OrdinalCNF.from_int(1)]

    h = GroupElement.from_layer_poly(2 * x1 ** 2 + x2, 4, 4)
    assert [m.render() for m in h.decompose()] == ["[x2]D4", "[2*x1^2]D4"]


def test_decompose_reassemble_is_identity():
    rng = random.Random(101)
    for _ in range(60):
        n = rng.randint(2, 5)
        g = random_group_element(rng, n)
        parts = g.decompose()
        # strictly descending degrees
        degs = [m.tdeg() for m in parts]
        assert all(degs[i] > degs[i + 1] for i in range(len(degs) - 1))
        # descending-layer product of the constituents rebuilds g
        acc = GroupElement.identity(n)
        for m in sorted(parts, key=lambda m: m.layer, reverse=True):
            acc = acc * m.to_group()
        assert acc == g


def test_tdeg_and_leading_term_examples():
    n = 4
    assert GroupElement.delta(n, n).tdeg() == ZERO
    g = GroupElement(2, [Poly.constant(1), x1])
    assert g.tdeg() == OrdinalCNF(((1, 1),))
    assert g.leading_term() == MonomialElement(1, EMPTY, 1, 2)

    noisy = GroupElement.from_layer_poly(x1 ** 2 + x1 + 3, 4, 4)
    assert noisy.leading_term() == MonomialElement(1, Partition.from_parts([1, 1]), 4, 4)
    assert noisy.tdeg() == OrdinalCNF.from_int(2)

    with pytest.raises(ValueError):
        GroupElement.identity(3).leading_term()


def reference_tdeg(g):
    """Reference for ``GroupElement.tdeg``: the largest degree over every term
    of every layer."""
    best = ZERO
    for k, f in enumerate(g.layers, start=1):
        for e in f.terms:
            best = max(best, tdeg_of_monomial(Partition(e), k, g.n))
    return best


def test_tdeg_matches_the_all_terms_reference():
    rng = random.Random(606)
    for n in range(1, 6):
        assert GroupElement.identity(n).tdeg() == reference_tdeg(GroupElement.identity(n)) == ZERO
    lowest = set()
    for _ in range(500):
        n = rng.randint(1, 5)
        g = random_group_element(rng, n)
        c = comm(g, random_group_element(rng, n))
        for x in (g, c):
            # and its upper parts, so that every layer is the lowest nonzero one
            for j in range(n):
                y = GroupElement(n, [Poly.zero()] * j + list(x.layers[j:]))
                assert y.tdeg() == reference_tdeg(y)
                if not y.is_identity:
                    lowest.add(min(k for k in range(n) if y.layers[k].terms) + 1)
                    assert y.tdeg() == y.leading_term().tdeg()
    assert lowest == {1, 2, 3, 4, 5}


def test_pow_matches_repeated_products():
    rng = random.Random(707)
    for n in (1, 2, 3, 4):
        ident = GroupElement.identity(n)
        for _ in range(10):
            g = random_group_element(rng, n)
            assert g ** 0 == ident
            up, down = ident, ident
            for m in range(1, 6):
                up = up * g
                down = down * g.inverse()
                assert g ** m == up
                assert g ** -m == down


def test_identity():
    for n in (1, 2, 5):
        e = GroupElement.identity(n)
        assert e == GroupElement(n, [Poly.zero()] * n)
        assert e.is_identity and e.n == n
    for n in (0, -1):
        with pytest.raises(ValueError):
            GroupElement.identity(n)


def test_leading_of_monomial_comm_examples():
    got = leading_of_monomial_comm(Partition.from_parts([1, 1]), 3, EMPTY, 1, 4)
    assert got == MonomialElement(2, Partition.from_parts([1]), 3, 4)
    assert leading_of_monomial_comm(Partition.from_parts([2]), 3, EMPTY, 1, 4) is None
    with pytest.raises(ValueError):
        leading_of_monomial_comm(EMPTY, 2, EMPTY, 3, 4)


def test_leading_term_law_random():
    rng = random.Random(202)
    checked = 0
    while checked < 200:
        n = rng.randint(2, 5)
        k = rng.randint(2, n)
        u = rng.randint(1, k - 1)
        lam = random_monomial(rng, n, layer=k, monic=True).lam
        if lam.multiplicity(u) == 0:
            lam = lam.combine(Partition.from_parts([u]))
        theta = random_monomial(rng, n, layer=u, monic=True).lam
        checked += 1
        predicted = leading_of_monomial_comm(lam, k, theta, u, n)
        full = comm(
            GroupElement.monomial(1, lam, k, n), GroupElement.monomial(1, theta, u, n)
        )
        assert predicted == full.leading_term()


def test_commutator_drops_tdeg_for_distinct_layers():
    rng = random.Random(303)
    for _ in range(200):
        n = rng.randint(2, 5)
        a = random_monomial(rng, n)
        b = random_monomial(rng, n)
        if a.layer == b.layer:
            continue
        c = comm(a.to_group(), b.to_group())
        assert c.tdeg() < max(a.tdeg(), b.tdeg())


def test_conjugate():
    rng = random.Random(404)
    for _ in range(20):
        g = random_group_element(rng, 3)
        h = random_group_element(rng, 3)
        assert conjugate(g, h) == h * g * h.inverse()
    assert conjugate(GroupElement.delta(3, 3), random_group_element(rng, 3)) == GroupElement.delta(3, 3)


def test_layer_validation():
    with pytest.raises(ValueError):
        GroupElement(2, [x1, Poly.zero()])  # layer 1 must be constant
    with pytest.raises(ValueError):
        GroupElement(2, [Poly.constant(1), x2])  # layer 2 may use only x1
    with pytest.raises(ValueError):
        from fractions import Fraction

        GroupElement(2, [Poly.constant(Fraction(1, 2)), Poly.zero()])


def test_monomial_validation():
    with pytest.raises(ValueError):
        MonomialElement(0, EMPTY, 1, 2)
    with pytest.raises(ValueError):
        MonomialElement(1, Partition.from_parts([2]), 2, 3)
    with pytest.raises(ValueError):
        MonomialElement(1, EMPTY, 4, 3)


def test_render_parse_round_trip():
    rng = random.Random(505)
    for _ in range(100):
        n = rng.randint(2, 5)
        g = random_group_element(rng, n)
        assert parse_element(g.render(), n) == g
    assert parse_element("1", 3) == GroupElement.identity(3)
    assert parse_element("[x1^2+1]D4 * [x1]D2 * [3]D1", 4) == GroupElement(
        4, [Poly.constant(3), x1, Poly.zero(), x1 ** 2 + 1]
    )


def test_monomial_render_matches_the_group_and_lie_forms():
    rng = random.Random(606)
    negative = units = unit_constants = 0
    for _ in range(2000):
        n = rng.randint(2, 6)
        m = random_monomial(rng, n, max_wt=5)
        assert m.render() == m.to_group().render()
        lie = LieElement.from_monomial(m)
        assert parse_lie(lie.render(), n) == lie
        negative += m.coeff < 0
        units += abs(m.coeff) == 1
        unit_constants += abs(m.coeff) == 1 and m.lam.is_empty
    assert negative > 500 and units > 200 and unit_constants > 50


def test_every_exported_name_resolves():
    assert [name for name in hyperwreath.__all__ if not hasattr(hyperwreath, name)] == []


def test_parse_element_rejects_garbage():
    with pytest.raises(ValueError):
        parse_element("[x1]D9", 4)
    with pytest.raises(ValueError):
        parse_element("[x1]D2 [1]D1", 4)
    with pytest.raises(ValueError):
        parse_element("[x2]D2", 4)  # layer 2 cannot use x2
    with pytest.raises(ValueError):
        parse_element("[x99999999999999999999999]D2", 2)  # rejected before the tuple is built
