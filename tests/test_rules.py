"""The rules every value class shares: the one layer check, the one check of
other integer arguments, and immutability."""

import pytest

from hyperwreath.chains import (SaturatedSet, check_key, enumerate_N, idealizes, normalizes,
                                saturated_closure)
from hyperwreath.liering import LieElement, parse_lie
from hyperwreath.ordinals import OrdinalCNF, tdeg_of_monomial
from hyperwreath.partitions import EMPTY, Partition, check_layer
from hyperwreath.polyring import Poly
from hyperwreath.regular import make_family
from hyperwreath.wreath import GroupElement, MonomialElement, parse_element

N = 3


def lam(top):
    """The partition whose largest part is ``top`` (none for 0)."""
    return Partition.from_parts([top] if top else [])


def poly(top):
    """A polynomial whose highest variable is x_top (a constant for 0)."""
    return Poly.variable(top) if top else Poly.constant(1)


def text(top):
    return f"x{top}" if top else "1"


def closure():
    """The closure of the step 0 generators at n = N, up to weight 4."""
    return saturated_closure(enumerate_N(0, N), 4, N)


# entry point -> call with layer k and highest variable index or part ``top``, at n = N
ENTRIES = {
    "MonomialElement": lambda k, top: MonomialElement(1, lam(top), k, N),
    "GroupElement": lambda k, top: GroupElement.from_layer_poly(poly(top), k, N),
    "tdeg_of_monomial": lambda k, top: tdeg_of_monomial(lam(top), k, N),
    "LieElement": lambda k, top: LieElement(N, {(lam(top), k): 1}),
    "parse_element": lambda k, top: parse_element(f"[{text(top)}]D{k}", N),
    "parse_lie": lambda k, top: parse_lie(f"{text(top)} d{k}", N),
    # the increment along x_k sits in layer k of W_k, so there is no layer n + 1
    "Poly.difference": lambda k, top: Poly.variable(1).difference(k, poly(top)),
    "SaturatedSet": lambda k, top: SaturatedSet(N, [((), 1), (lam(top).mults, k)], 4),
    "normalizes": lambda k, top: normalizes((lam(top).mults, k), closure()),
    "idealizes": lambda k, top: idealizes((lam(top).mults, k), closure()),
}

BAD = {"layer 0": (0, 0), "layer n+1": (N + 1, 0), "top = k": (2, 2)}


@pytest.mark.parametrize("entry, case", [
    (entry, case) for entry in ENTRIES for case in BAD
    if not (entry == "Poly.difference" and case == "layer n+1")])
def test_every_entry_point_applies_the_one_layer_rule(entry, case):
    k, top = BAD[case]
    with pytest.raises(ValueError) as want:
        check_layer(k, k if entry == "Poly.difference" else N, top)
    with pytest.raises(ValueError) as got:
        ENTRIES[entry](k, top)
    assert str(got.value) == str(want.value)


# entry point of the chain machinery -> call with one key, at n = N
KEY_ENTRIES = {
    "SaturatedSet": lambda key: SaturatedSet(N, [((), 1), key], 4),
    "saturated_closure": lambda key: saturated_closure([((), 1), key], 4, N),
    "normalizes": lambda key: normalizes(key, closure()),
    "idealizes": lambda key: idealizes(key, closure()),
}

# keys whose multiplicities are not the one form of a partition; a trailing
# zero would make ((1, 0), 3) a key apart from ((1,), 3)
NON_CANONICAL = {
    "trailing zero": ((1, 0), 3),
    "only a zero": ((0,), 2),
    "a partition": (Partition.from_parts([1]), 3),
    "a negative entry": ((-1, 1), 3),
    "a float entry": ((1.0,), 3),
    # refused before the key is hashed, not with an unhashable-type error
    "a list": ([1], 3),
}


@pytest.mark.parametrize("case", NON_CANONICAL)
@pytest.mark.parametrize("entry", KEY_ENTRIES)
def test_every_chain_entry_point_refuses_a_non_canonical_key(entry, case):
    with pytest.raises(ValueError, match="no trailing zero"):
        KEY_ENTRIES[entry](NON_CANONICAL[case])


def all_check_key(key, n):
    """``check_key`` with ``all`` over a generator of its entries, the oracle
    of its loop."""
    mults, k = key
    if type(mults) is not tuple or mults[-1:] == (0,) or not all(
            isinstance(v, int) and v >= 0 for v in mults):
        raise ValueError(f"key multiplicities must be non-negative ints with no trailing zero, "
                         f"in a tuple, got {mults!r}")
    check_layer(k, n, len(mults))


@pytest.mark.parametrize("case", list(NON_CANONICAL) + list(BAD))
def test_check_key_refuses_as_its_oracle_does(case):
    if case in BAD:
        k, top = BAD[case]
        bad = (lam(top).mults, k)
    else:
        bad = NON_CANONICAL[case]
    with pytest.raises(ValueError) as want:
        all_check_key(bad, N)
    with pytest.raises(ValueError) as got:
        check_key(bad, N)
    assert str(got.value) == str(want.value)


def test_check_key_accepts_every_generator_as_its_oracle_does():
    for i, n in ((12, 8), (40, 4)):
        keys = enumerate_N(i, n)
        assert len(keys) > 100
        for key in keys:
            assert check_key(key, n) is None and all_check_key(key, n) is None


def test_a_huge_variable_index_is_refused_before_parsing():
    with pytest.raises(ValueError):
        parse_element("[x99999999999999999999]D2", 2)


# entry point -> call with a value where an int index, n or exponent belongs
INDEX_ENTRIES = {
    "Poly.variable": lambda v: Poly.variable(v),
    "Poly.partial_derivative": lambda v: Poly.variable(1).partial_derivative(v),
    "Poly.__pow__": lambda v: Poly.variable(1) ** v,
    "GroupElement.identity": lambda v: GroupElement.identity(v),
    "GroupElement.delta": lambda v: GroupElement.delta(v, 2),
    "GroupElement.__pow__": lambda v: GroupElement.delta(1, 2) ** v,
    "Partition.multiplicity": lambda v: Partition.from_parts([1]).multiplicity(v),
    "OrdinalCNF exponent": lambda v: OrdinalCNF(((v, 1),)),
    "OrdinalCNF coefficient": lambda v: OrdinalCNF(((1, v),)),
}


@pytest.mark.parametrize("entry", INDEX_ENTRIES)
@pytest.mark.parametrize("value", [1.5, 1.0, "2"])
def test_every_entry_point_refuses_a_non_integer_index(entry, value):
    with pytest.raises(ValueError):
        INDEX_ENTRIES[entry](value)


VALUES = {
    "Partition": lambda: Partition.from_parts([1, 2]),
    "OrdinalCNF": lambda: OrdinalCNF.from_int(3),
    "Poly": lambda: Poly.variable(1),
    "MonomialElement": lambda: MonomialElement(2, EMPTY, 1, 2),
    "GroupElement": lambda: GroupElement.delta(1, 2),
    "LieElement": lambda: LieElement.basis(EMPTY, 1, 2),
    "RegularFamily": lambda: make_family(1, 2),
    "SaturatedSet": lambda: saturated_closure(enumerate_N(0, 2), 4, 2),
}


@pytest.mark.parametrize("name", VALUES)
def test_values_reject_assignment_and_deletion(name):
    value = VALUES[name]()
    assert type(value).__name__ == name
    before = repr(value)
    for attr in type(value).__slots__:
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(value, attr, None)
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            delattr(value, attr)
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        value.extra = 1
    assert repr(value) == before
