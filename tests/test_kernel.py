"""The polynomial kernel under the group product, checked against a reference.

The reference below is the straightforward kernel: term products built through
the validating ``Poly`` constructor, substitution summed term by term with
``Poly`` ``+``, the group product and inverse assembled layer by layer
without shared power tables, and the action evaluating each layer with
``Poly.evaluate``.  The library's kernel must agree with it exactly.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from hyperwreath.budget import WorkBudget
from hyperwreath.polyring import Poly, PowerTable, _add_substituted
from hyperwreath.verify import random_group_element
from hyperwreath.wreath import GroupElement

x1, x2, x3 = (Poly.variable(j) for j in (1, 2, 3))


# -- reference kernel ----------------------------------------------------------------


def ref_mul(p, q):
    out = Poly.zero()
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            width = max(len(e1), len(e2))
            pad1 = e1 + (0,) * (width - len(e1))
            pad2 = e2 + (0,) * (width - len(e2))
            out = out + Poly.monomial(c1 * c2, [a + b for a, b in zip(pad1, pad2)])
    return out


def ref_power(p, e):
    out = Poly.constant(1)
    for _ in range(e):
        out = ref_mul(out, p)
    return out


def ref_substitute(p, subs):
    images = [s if isinstance(s, Poly) else Poly.constant(s) for s in subs[: p.nvars]]
    acc = Poly.zero()
    for e, c in p.terms.items():
        term = Poly.constant(c)
        for j, exp in enumerate(e):
            if exp:
                term = ref_mul(term, ref_power(images[j], exp))
        acc = acc + term
    return acc


def ref_difference(p, j, h):
    shifted = Poly.variable(j) + h
    acc = Poly.zero()
    for e, c in p.terms.items():
        ej = e[j - 1] if len(e) >= j else 0
        rest = list(e)
        if len(rest) >= j:
            rest[j - 1] = 0
        acc = acc + ref_mul(Poly.monomial(c, rest), ref_power(shifted, ej))
    return acc - p


def ref_group_mul(g, h):
    shifted, out = [], []
    for k in range(g.n):
        f = h.layers[k]
        out.append(g.layers[k] + (ref_substitute(f, shifted) if f.nvars else f))
        shifted.append(Poly.variable(k + 1) - g.layers[k])
    return GroupElement(g.n, out)


def ref_inverse(g):
    original, out = [], []
    for k in range(g.n):
        f = g.layers[k]
        moved = ref_substitute(f, original) if f.nvars else f
        out.append(-moved)
        original.append(Poly.variable(k + 1) + moved)
    return GroupElement(g.n, out)


def ref_act(g, x):
    return tuple(x[k] - g.layers[k].evaluate(x[:k]) for k in range(g.n))


# -- random inputs ---------------------------------------------------------------------

_RATIONALS = [Fraction(a, b) for a in range(-3, 4) if a for b in (1, 2, 3)]


def rand_poly(rng, nvars, rational=False, terms=4, max_deg=3):
    coeffs = _RATIONALS if rational else [c for c in range(-4, 5) if c]
    acc = Poly.zero()
    for _ in range(rng.randint(0, terms)):
        exps = [rng.randint(0, max_deg) for _ in range(nvars)]
        acc = acc + Poly.monomial(rng.choice(coeffs), exps)
    return acc


def rand_point(rng, size, rational):
    if rational:
        return [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(size)]
    return [rng.randint(-5, 5) for _ in range(size)]


def assert_normalized(p):
    """Integer values are stored as int, never as a Fraction over 1."""
    assert all(type(c) is int or c.denominator != 1 for c in p.terms.values())


def seeded_elements(n, count, seed):
    """Random elements plus products of them, which have more and larger terms."""
    rng = random.Random(seed * 100 + n)
    base = [random_group_element(rng, n) for _ in range(count)]
    return base + [a * b for a, b in zip(base, base[1:])]


def with_zero_layers(rng, g):
    """``g`` with each layer zeroed at random, and sometimes a zero prefix:
    the inputs of the product's and the inverse's zero-layer paths."""
    prefix = rng.randint(0, g.n) if rng.random() < 0.5 else 0
    layers = [Poly.zero() if k < prefix or rng.random() < 0.4 else f for k, f in enumerate(g.layers)]
    return GroupElement(g.n, layers)


# -- the group product and inverse ------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_product_and_inverse_match_the_reference_kernel(n):
    elements = seeded_elements(n, 12, seed=1)
    for g, h in zip(elements, elements[1:] + elements[:1]):
        assert g * h == ref_group_mul(g, h)
        assert g.inverse() == ref_inverse(g)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_group_results_pass_the_validating_constructor(n):
    elements = seeded_elements(n, 12, seed=2)
    for g, h in zip(elements, elements[1:]):
        for result in (g * h, g.inverse(), (g * h).inverse() * g):
            # raises when a layer is not integral or uses x_k or above in layer k
            assert GroupElement(n, result.layers) == result


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_act_matches_the_reference_action(n):
    rng = random.Random(17 + n)
    elements = seeded_elements(n, 40, seed=3)
    for g in elements * 3:
        point = rand_point(rng, n + rng.randint(0, 1), rational=False)
        got = g.act(point)
        assert got == ref_act(g, point)
        assert all(type(v) is int for v in got)
        point = rand_point(rng, n, rational=True)
        got = g.act(point)
        assert got == ref_act(g, point)
        assert [type(v) for v in got] == [type(v) for v in ref_act(g, point)]
        with pytest.raises(ValueError):
            g.act(point[:-1])


def test_act_keeps_integral_values_int_at_rational_points():
    half = Fraction(1, 2)
    g = GroupElement(3, [Poly.constant(1), x1 * 2, x1 * x2 * 4])
    got = g.act([half, 3, 5])
    assert got == ref_act(g, [half, 3, 5]) == (Fraction(-1, 2), 2, -1)
    assert [type(v) for v in got] == [Fraction, int, int]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_repeated_act_reads_one_plan(n):
    # the first call builds the plan; later ones, at int and Fraction points, reuse it
    rng = random.Random(29 + n)
    for g in seeded_elements(n, 12, seed=5):
        plain = GroupElement(n, g.layers)
        for _ in range(6):
            for rational in (False, True, False):
                point = rand_point(rng, n, rational)
                got = g.act(point)
                assert got == ref_act(g, point)
                assert [type(v) for v in got] == [type(v) for v in ref_act(g, point)]
        # the plan is not part of the value
        assert g == plain and hash(g) == hash(plain) and plain.act(point) == g.act(point)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_products_and_inverses_with_zero_layers_match_the_reference_kernel(n):
    rng = random.Random(31 + n)
    elements = [with_zero_layers(rng, g) for g in seeded_elements(n, 12, seed=6)]
    elements += [GroupElement.identity(n)]
    for g in elements:
        for h in elements:
            gh = g * h
            assert gh == ref_group_mul(g, h)
            for f, q, out in zip(g.layers, h.layers, gh.layers):
                if q.is_zero:
                    assert out is f  # passed through, not copied
        gi = g.inverse()
        assert gi == ref_inverse(g)
        assert all(out.is_zero for f, out in zip(g.layers, gi.layers) if f.is_zero)


def test_a_product_passes_other_layers_through_an_identity_prefix():
    # while self's layers so far are zero, every image is its own variable
    g = GroupElement(4, [Poly.zero(), Poly.zero(), x1 * x2, Poly.zero()])
    h = GroupElement(4, [Poly.constant(2), x1 ** 3, x1 * x2 - 1, x3 ** 2 + x1])
    gh = g * h
    assert gh == ref_group_mul(g, h)
    assert gh.layers[0] is h.layers[0] and gh.layers[1] is h.layers[1]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_products_that_cancel_match_the_reference_kernel(n):
    identity = GroupElement.identity(n)
    for g in seeded_elements(n, 12, seed=4):
        gi = g.inverse()
        assert gi == ref_inverse(g)
        assert g * gi == ref_group_mul(g, gi) == identity
        assert gi * g == ref_group_mul(gi, g) == identity
        assert gi.inverse() == ref_inverse(gi) == g
        assert (g * g) * gi == ref_group_mul(ref_group_mul(g, g), gi) == g


def test_scalar_mul_refuses_a_non_integer():
    # a non-integer multiple leaves the group: the validating constructor refuses it
    with pytest.raises(ValueError):
        GroupElement(2, [f * Fraction(1, 2) for f in GroupElement.delta(1, 2).layers])


# -- substitution, products and differences ------------------------------------------------


@pytest.mark.parametrize("rational", [False, True])
def test_substitute_matches_the_reference_kernel(rational):
    rng = random.Random(3 + rational)
    for _ in range(60):
        p = rand_poly(rng, 3, rational)
        subs = [rand_poly(rng, 4, rational, terms=3, max_deg=2) for _ in range(3)]
        got = p.substitute(subs)
        assert got == ref_substitute(p, subs)
        assert_normalized(got)


def test_one_power_table_serves_several_substitutions():
    # as in the group product: the table gains one image per layer, and each
    # layer is substituted through the images so far into an existing sum
    rng = random.Random(5)
    for _ in range(20):
        subs = [rand_poly(rng, 3, rational=True, terms=3, max_deg=2) for _ in range(3)]
        table = PowerTable()
        for k, image in enumerate(subs):
            p = rand_poly(rng, k, rational=True)
            q = rand_poly(rng, 3, rational=True)
            sign = rng.choice((1, -1))
            out = dict(q.terms)
            _add_substituted(out, p.terms, table, sign)
            assert Poly._of(out) == q + ref_substitute(p, subs[:k]) * sign
            assert_normalized(Poly._of(out))
            table.append(image.terms)


def test_a_power_table_of_bare_and_shifted_images_matches_the_reference_powers():
    rng = random.Random(9)
    for _ in range(20):
        table, images = PowerTable(), []
        for j in range(4):
            kind = rng.choice(("bare", "shifted", "appended"))
            if kind == "appended":
                image = rand_poly(rng, 4, rational=True, terms=3, max_deg=2)
                table.append(image.terms)
            else:
                f = Poly.zero() if kind == "bare" else rand_poly(rng, j, terms=3, max_deg=2)
                table.shift(f.terms)
                image = Poly.variable(j + 1) - f
            images.append(image)
        for _ in range(12):
            j, e = rng.randrange(4), rng.randint(1, 5)
            got = Poly._of(table.power(j, e))
            assert got == ref_power(images[j], e)
            assert_normalized(got)


def test_a_power_of_a_bare_image_is_one_monomial_and_free():
    table = PowerTable()
    table.shift({})
    table.shift({})
    with WorkBudget() as budget:
        assert table.power(1, 256) == {(0, 256): 1}
        assert budget.left == budget.limit


def test_fraction_sums_return_to_int():
    half = Fraction(1, 2)
    p = Poly({(1,): half, (0, 1): half})
    got = p.substitute([x3, x3])
    assert got == x3 and type(got.terms[(0, 0, 1)]) is int
    square = (Poly.constant(half) * x1 + half) * (x1 * 2 - 1)
    assert square == x1 ** 2 - Poly.constant(half) * x1 + x1 - half
    assert_normalized(square)
    assert_normalized(Poly({(1,): Fraction(3, 2)}) ** 2 * Fraction(4, 9))


@pytest.mark.parametrize("rational", [False, True])
def test_products_and_powers_match_the_reference_kernel(rational):
    rng = random.Random(7 + rational)
    for _ in range(60):
        p = rand_poly(rng, 3, rational)
        q = rand_poly(rng, 4, rational)
        assert p * q == ref_mul(p, q)
        assert p ** 3 == ref_power(p, 3)
        assert_normalized(p * q)


def test_difference_matches_the_reference_kernel():
    rng = random.Random(11)
    for _ in range(60):
        p = rand_poly(rng, 4)
        j = rng.randint(1, 4)
        h = rand_poly(rng, j - 1, terms=2, max_deg=2)
        assert p.difference(j, h) == ref_difference(p, j, h)


@pytest.mark.parametrize("rational", [False, True])
def test_evaluation_is_a_ring_homomorphism(rational):
    rng = random.Random(13 + rational)
    for _ in range(60):
        p = rand_poly(rng, 3, rational)
        q = rand_poly(rng, 3, rational)
        subs = [rand_poly(rng, 2, rational, terms=3, max_deg=2) for _ in range(3)]
        for point in (rand_point(rng, 3, False), rand_point(rng, 3, True)):
            assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
            assert (p ** 2).evaluate(point) == p.evaluate(point) ** 2
            images = [s.evaluate(point) for s in subs]
            assert p.substitute(subs).evaluate(point) == p.evaluate(images)


# -- pinned outputs ----------------------------------------------------------------------


def test_kernel_outputs_are_pinned():
    """One SHA-256 over the products, inverses and actions of the triples of
    ``suite_group(0, triples=50)``, 50 at each n = 2..5, drawn as that call
    draws them.  The suite prints only PASS lines, so an error on both sides
    of one of its equalities would show here and nowhere else."""
    rng = random.Random(0)
    digest = hashlib.sha256()
    for n in (2, 3, 4, 5):
        for _ in range(50):
            g, h, k = (random_group_element(rng, n) for _ in range(3))
            gh = g * h
            for element in (gh, gh * k, g.inverse()):
                digest.update(element.render().encode() + b"\n")
            for _ in range(20):
                x = tuple(rng.randint(-6, 6) for _ in range(n))
                digest.update(repr(g.act(x)).encode() + b"\n")
    assert digest.hexdigest() == "259c9b582fdd6efe804d632e0b2d96a3aafe989ed7400fd4bf55230056ddeda7"
