"""Exact sparse polynomial arithmetic, substitution and difference operators."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperwreath.polyring import Poly, parse_poly

x1 = Poly.variable(1)
x2 = Poly.variable(2)
x3 = Poly.variable(3)


def rand_poly(rng, nvars=3, max_deg=3, terms=4, coeff=6):
    acc = Poly.zero()
    for _ in range(rng.randint(0, terms)):
        exps = [rng.randint(0, max_deg) for _ in range(nvars)]
        acc = acc + Poly.monomial(rng.randint(-coeff, coeff), exps)
    return acc


def test_ring_examples():
    assert x1 + (-x1) == Poly.zero()
    assert (x1 + 1) * (x1 - 1) == x1 * x1 - 1
    assert -(2 * x1 * x2) == Poly.monomial(-2, (1, 1))


def test_canonical_form_drops_zeros():
    p = Poly({(1,): 1}) + Poly({(1,): -1})
    assert p.is_zero
    assert p.terms == {}


def test_partial_derivative_examples():
    assert (x1 ** 2).partial_derivative(1) == 2 * x1
    assert (x1 * x2).partial_derivative(2) == x1
    assert (x2 ** 3).partial_derivative(1) == Poly.zero()


@pytest.mark.parametrize("j", [1.5, 1.0, "1", None])
def test_partial_derivative_refuses_a_non_int_index(j):
    with pytest.raises(ValueError):
        x1.partial_derivative(j)


def test_substitute_examples():
    assert (x1 ** 2).substitute([x1 + 1]) == x1 ** 2 + 2 * x1 + 1
    assert x2.substitute([x1, x2 - x1]) == x2 - x1
    assert Poly.constant(5).substitute([]) == Poly.constant(5)


def test_substitute_composition_on_triangular_substitutions():
    rng = random.Random(2)
    for _ in range(50):
        p = rand_poly(rng, nvars=3, max_deg=2)
        # triangular: s_j and t_j use only variables below j
        s = [
            Poly.constant(rng.randint(-3, 3)),
            x1 + rng.randint(-2, 2),
            x2 + rng.randint(-2, 2) * x1,
        ]
        t = [
            Poly.constant(rng.randint(-3, 3)),
            x1 - rng.randint(-2, 2),
            x2 + rng.randint(-2, 2),
        ]
        st_composed = [sj.substitute(t) if sj.nvars else sj for sj in s]
        assert p.substitute(s).substitute(t) == p.substitute(st_composed)


def test_difference_examples():
    assert (x1 ** 2).difference(1, 1) == 2 * x1 + 1
    assert x2.difference(2, x1) == x1
    third = (x1 ** 2).difference(1, 1).difference(1, 1).difference(1, 1)
    assert third == Poly.zero()


def test_difference_rejects_increments_from_higher_layers():
    with pytest.raises(ValueError):
        x2.difference(2, x2)
    with pytest.raises(ValueError):
        x1.difference(1, x3)


def deg_in(p, j):
    """Degree of p in the variable x_j."""
    return max((e[j - 1] if len(e) >= j else 0 for e in p.terms), default=0)


def test_difference_is_linear_and_reduces_degree():
    rng = random.Random(7)
    for _ in range(60):
        p = rand_poly(rng, nvars=2, max_deg=6)
        q = rand_poly(rng, nvars=2, max_deg=6)
        c = rng.randint(-4, 4)
        lhs = (p + q * c).difference(1, 1)
        rhs = p.difference(1, 1) + q.difference(1, 1) * c
        assert lhs == rhs
        if deg_in(p, 1) > 0:
            assert deg_in(p.difference(1, 1), 1) <= deg_in(p, 1) - 1


def univariate_diff_oracle(coeffs):
    """Independent oracle on coefficient lists: f(x+1) - f(x) via binomials."""
    from math import comb

    n = len(coeffs)
    shifted = [0] * n
    for i, c in enumerate(coeffs):
        for j in range(i + 1):
            shifted[j] += c * comb(i, j)
    return [s - c for s, c in zip(shifted, coeffs)]


def test_difference_matches_univariate_oracle():
    rng = random.Random(13)
    for _ in range(100):
        deg = rng.randint(0, 8)
        coeffs = [rng.randint(-5, 5) for _ in range(deg + 1)]
        p = Poly({(i,): c for i, c in enumerate(coeffs) if c})
        expected = univariate_diff_oracle(coeffs)
        got = p.difference(1, 1)
        assert got == Poly({(i,): c for i, c in enumerate(expected) if c})


def test_kfold_difference_detects_degree_both_directions():
    # desk-scale sweep of the finite-difference characterization of degree
    rng = random.Random(19)
    for _ in range(150):
        deg = rng.randint(0, 8)
        coeffs = [rng.randint(-2, 2) for _ in range(deg)] + [rng.choice([-2, -1, 1, 2])]
        p = Poly({(i,): c for i, c in enumerate(coeffs) if c})
        true_deg = max(i for i, c in enumerate(coeffs) if c)
        g = p
        for k in range(1, 11):
            g = g.difference(1, 1)
            assert g.is_zero == (true_deg <= k - 1)


def test_evaluate_examples():
    assert (x1 * x2).evaluate((2, 3)) == 6
    assert Poly.zero().evaluate((4, 4)) == 0
    assert (x1 ** 2 - 1).evaluate((3,)) == 8
    assert (x1 ** 2).evaluate((Fraction(1, 2),)) == Fraction(1, 4)


@pytest.mark.parametrize("point", [(0.5,), (2.0,), ("2",), (1, 0.5)])
def test_evaluate_refuses_an_inexact_coordinate(point):
    with pytest.raises(ValueError):
        x1.evaluate(point)


def test_integrality_tracking():
    p = Poly.constant(Fraction(1, 2))
    assert not p.is_integral
    assert (p * 2).is_integral
    assert (p + p).is_integral
    rng = random.Random(23)
    for _ in range(40):
        a = rand_poly(rng)
        b = rand_poly(rng, nvars=1, max_deg=2)
        assert a.difference(2, b).is_integral
        assert a.substitute([x1 + 1, x2 - x1, Poly.constant(3)]).is_integral


def test_fraction_scratch_normalizes_back_to_int():
    p = Poly.constant(Fraction(1, 3)) * 3
    assert p.terms == {(): 1}
    assert isinstance(p.constant_term, int)


@pytest.mark.parametrize("bad", [(1.5,), (2.0,), ("2",), (Fraction(2),), (1, -1)])
def test_exponents_must_be_non_negative_ints(bad):
    with pytest.raises(ValueError, match="exponents must be non-negative integers"):
        Poly({bad: 1})
    for coeff in (1, 0):  # a zero coefficient does not skip the check
        with pytest.raises(ValueError, match="exponents must be non-negative integers"):
            Poly.monomial(coeff, bad)


@pytest.mark.parametrize("bad", [0.1, 2.0, 0.0, "3", None, complex(1, 0)])
def test_coefficients_must_be_int_or_fraction(bad):
    checks = [
        lambda: Poly({(1,): bad}),
        lambda: Poly.monomial(bad, (1,)),
        lambda: Poly.constant(bad),
        lambda: x1 * bad,
        lambda: bad * x1,
        lambda: x1 + bad,
        lambda: bad + x1,
        lambda: x1 - bad,
    ]
    for check in checks:
        with pytest.raises(ValueError, match="coefficients must be int or Fraction"):
            check()


def test_int_and_fraction_coefficients_stay_exact():
    assert (Poly.constant(Fraction(1, 10)) * 3).terms == {(): Fraction(3, 10)}
    assert Poly.monomial(Fraction(4, 2), (0, 1)).terms == {(0, 1): 2}
    assert (x1 + Fraction(1, 2) + Fraction(1, 2)).terms == {(1,): 1, (): 1}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30))
def test_ring_laws_on_constants_and_vars(a, b, c):
    p = Poly.constant(a) + x1 * b
    q = Poly.constant(b) + x2 * c
    r = Poly.constant(c) + x1 * a
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


def test_pow_matches_repeated_mul():
    p = x1 + 2 * x2 - 1
    acc = Poly.constant(1)
    for e in range(6):
        assert p ** e == acc
        acc = acc * p


def test_render_examples():
    p = 2 * x1 ** 2 * x2 - x1 + 3
    assert p.render() == "2*x1^2*x2 - x1 + 3"
    assert Poly.zero().render() == "0"
    assert (x1 ** 2 + 2 * x1 + 1).render() == "x1^2 + 2*x1 + 1"
    assert (-x1 - 1).render() == "-x1 - 1"


def test_render_parse_round_trip():
    rng = random.Random(31)
    for _ in range(200):
        p = rand_poly(rng, nvars=4, max_deg=4, terms=5, coeff=9)
        assert parse_poly(p.render()) == p


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_poly("2 +")
    with pytest.raises(ValueError):
        parse_poly("x0 + 1")  # variables are 1-indexed
    with pytest.raises(ValueError):
        parse_poly("y1")
    for text in ("x1^", "3/", "3/0", "2^", "x1^x2"):
        with pytest.raises(ValueError):
            parse_poly(text)
