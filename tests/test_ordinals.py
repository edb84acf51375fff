"""Cantor normal form ordinals and the transfinite degree of monomials."""

import random

import pytest

from hyperwreath.ordinals import (
    ONE,
    ZERO,
    OrdinalCNF,
    parse_ordinal,
    tdeg_of_monomial,
)
from hyperwreath.partitions import EMPTY, Partition, enumerate_partitions


def omega_power(exponent):
    return OrdinalCNF(((exponent, 1),))


def test_compare_examples():
    assert OrdinalCNF.from_int(5) < omega_power(1)
    w_plus_2 = OrdinalCNF(((1, 1), (0, 2)))
    assert w_plus_2 == omega_power(1).successor().successor()
    assert not w_plus_2 < w_plus_2 and not w_plus_2 > w_plus_2
    lhs = omega_power(3)
    rhs = OrdinalCNF(((1, 7), (0, 100)))
    assert lhs > rhs


def test_successor_examples():
    assert ZERO.successor() == ONE
    assert omega_power(1).successor() == OrdinalCNF(((1, 1), (0, 1)))
    assert OrdinalCNF(((2, 1), (0, 3))).successor() == OrdinalCNF(((2, 1), (0, 4)))


def test_successor_is_strictly_larger():
    rng = random.Random(3)
    for _ in range(100):
        terms = []
        for e in range(4, -1, -1):
            c = rng.randint(0, 3)
            if c:
                terms.append((e, c))
        a = OrdinalCNF(terms)
        assert a.successor() > a


def test_successor_is_a_cover():
    rng = random.Random(29)

    def rand_ord():
        terms = []
        for e in range(3, -1, -1):
            c = rng.randint(0, 3)
            if c:
                terms.append((e, c))
        return OrdinalCNF(terms)

    for _ in range(500):
        a, z = rand_ord(), rand_ord()
        assert not (a < z < a.successor())


def test_tdeg_examples():
    assert tdeg_of_monomial(EMPTY, 4, 4) == ZERO
    lam = Partition.from_parts([1, 1, 2])
    assert tdeg_of_monomial(lam, 4, 4) == OrdinalCNF(((1, 1), (0, 2)))
    assert tdeg_of_monomial(Partition.from_parts([1]), 4, 4) == OrdinalCNF.from_int(1)
    assert tdeg_of_monomial(EMPTY, 3, 4) == omega_power(3)


def test_tdeg_of_delta_1_is_the_full_prefix():
    assert tdeg_of_monomial(EMPTY, 1, 4) == OrdinalCNF(((3, 1), (2, 1), (1, 1)))


def test_tdeg_rejects_ill_formed_monomial():
    with pytest.raises(ValueError):
        tdeg_of_monomial(Partition.from_parts([2]), 2, 4)
    with pytest.raises(ValueError):
        tdeg_of_monomial(EMPTY, 5, 4)
    with pytest.raises(ValueError):
        tdeg_of_monomial(EMPTY, 0, 4)


def test_tdeg_injective_on_monomials():
    # exhaustive at desk scale: n <= 4, weight <= 5
    for n in range(2, 5):
        seen = {}
        for k in range(1, n + 1):
            for wt in range(0, 6):
                for lam in enumerate_partitions(wt, k - 1):
                    t = tdeg_of_monomial(lam, k, n)
                    assert t not in seen, (
                        f"collision at n={n}: {(lam, k)} vs {seen[t]}"
                    )
                    seen[t] = (lam, k)


def test_total_order_on_random_triples():
    rng = random.Random(11)

    def rand_ord():
        terms = []
        for e in range(3, -1, -1):
            c = rng.randint(0, 2)
            if c:
                terms.append((e, c))
        return OrdinalCNF(terms)

    for _ in range(300):
        a, b, c = rand_ord(), rand_ord(), rand_ord()
        # antisymmetry
        assert (a <= b and b <= a) == (a == b)
        assert (a < b) == (b > a)
        # transitivity
        if a <= b <= c:
            assert a <= c
        # totality: exactly one of <, ==, >
        assert [a < b, a == b, a > b].count(True) == 1


def test_no_zero_coefficients_stored():
    assert OrdinalCNF(((3, 0), (1, 2))).terms == ((1, 2),)


@pytest.mark.parametrize("terms", [((1.5, 1),), ((2, 0.9),), ((True, "3"),), ((1, -1),),
                                   ((-1, 0),)])
def test_terms_are_ints_not_coerced(terms):
    # int() once read 1.5 as 1, kept 0.9 past the zero filter as w^2*0 and
    # read (True, '3') as w*3
    with pytest.raises(ValueError):
        OrdinalCNF(terms)


def test_render_examples():
    assert ZERO.render() == "0"
    assert OrdinalCNF(((3, 1), (1, 2), (0, 5))).render() == "w^3 + w*2 + 5"
    assert OrdinalCNF(((1, 1),)).render() == "w"
    assert OrdinalCNF(((2, 4),)).render() == "w^2*4"


def test_parse_round_trip():
    rng = random.Random(5)
    for _ in range(200):
        terms = []
        for e in range(5, -1, -1):
            c = rng.randint(0, 3)
            if c:
                terms.append((e, c))
        a = OrdinalCNF(terms)
        assert parse_ordinal(a.render()) == a


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_ordinal("w^")
    with pytest.raises(ValueError):
        parse_ordinal("omega + 1")
