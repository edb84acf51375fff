"""Partition representation, enumeration and the counting sequences."""

import random
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperwreath.partitions import (
    EMPTY,
    Partition,
    count_partitions,
    enumerate_partitions,
    partition_counts,
    replace_part,
    seq_at,
    sequences_abc,
    weight_of,
)
from hyperwreath.verify import random_group_element


def remove_part(p, i):
    """Reference for ``replace_part``: take one part ``i`` out of
    ``p`` through the validating constructor; the part must be present."""
    if p.multiplicity(i) < 1:
        raise ValueError(f"no part equal to {i} to remove")
    m = list(p.mults)
    m[i - 1] -= 1
    return Partition(m)


def combine(p, q):
    """Reference for ``Partition.combine`` through the validating constructor."""
    return Partition(a + b for a, b in zip_longest(p.mults, q.mults, fillvalue=0))


def assert_well_formed(p):
    """A partition built without validation holds what the constructor would
    build: a tuple of non-negative ints with no trailing zero."""
    m = p.mults
    assert type(m) is tuple and all(type(v) is int and v >= 0 for v in m), m
    assert not m or m[-1], m
    assert p == Partition(m) and hash(p) == hash(Partition(m))


def brute_partitions(total, max_part=None):
    """Independent oracle: partitions as non-increasing part tuples."""
    if max_part is None:
        max_part = total
    out = []

    def rec(remaining, cap, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for p in range(min(cap, remaining), 0, -1):
            acc.append(p)
            rec(remaining - p, p, acc)
            acc.pop()

    rec(total, max_part, [])
    return out


def parts(p):
    """The parts of ``p`` in increasing order, e.g. [1, 1, 2] for mults (2, 1)."""
    return [i for i, v in enumerate(p.mults, 1) for _ in range(v)]


def unpruned_partitions(wt, max_part=None):
    """Reference enumerator: a search that tries every multiplicity of every
    part up to the bound, 1 included, and keeps the branches that end with no
    weight left."""
    if wt < 0:
        return []
    if max_part is None:
        max_part = wt
    if max_part < 0:
        return []
    results = []

    def rec(part, wt_left, acc):
        if part == 0:
            if wt_left == 0:
                results.append(Partition(reversed(acc)))
            return
        for mult in range(wt_left // part + 1):
            acc.append(mult)
            rec(part - 1, wt_left - mult * part, acc)
            acc.pop()

    rec(min(max_part, wt), wt, [])
    results.sort(key=lambda p: p.mults)
    return results


def test_weight_examples():
    assert EMPTY.weight == 0
    assert Partition.from_parts([1, 1, 2]).weight == 4
    assert Partition.from_parts([3, 3, 3]).weight == 9


def test_multiplicity_and_parts_round_trip():
    p = Partition([2, 1, 0, 3])
    assert parts(p) == [1, 1, 2, 4, 4, 4]
    assert p.multiplicity(1) == 2
    assert p.multiplicity(4) == 3
    assert p.multiplicity(17) == 0
    assert Partition.from_parts(parts(p)) == p


def test_degree_weight_invariants():
    p = Partition.from_parts([1, 2, 2, 5])
    assert p.weight == 10
    assert p.degree == 4
    assert p.weight >= p.degree
    assert (p.weight == 0) == p.is_empty


def test_trailing_zeros_are_trimmed():
    assert Partition([1, 0, 0]) == Partition([1])
    assert hash(Partition([1, 0])) == hash(Partition([1]))


def test_enumerate_trivial_cases():
    assert enumerate_partitions(0) == [EMPTY]
    assert enumerate_partitions(0, 5) == [EMPTY]
    assert enumerate_partitions(0, 0) == [EMPTY]
    assert enumerate_partitions(3, 0) == []
    assert enumerate_partitions(0, -1) == []
    assert enumerate_partitions(-1) == []
    assert enumerate_partitions(-1, 3) == []


def test_enumerate_examples():
    assert enumerate_partitions(3, 2) == [Partition.from_parts([1, 2]), Partition.from_parts([1, 1, 1])]
    got = enumerate_partitions(4, 2)
    assert len(got) == 3
    assert {tuple(sorted(parts(p))) for p in got} == {(2, 2), (1, 1, 2), (1, 1, 1, 1)}


def test_enumerate_matches_brute_oracle():
    for total in range(0, 10):
        for max_part in range(0, total + 2):
            expected = {
                tuple(sorted(parts)) for parts in brute_partitions(total, max_part)
            }
            got = enumerate_partitions(total, max_part)
            assert len(got) == len(set(got)), "duplicates returned"
            assert {tuple(sorted(parts(p))) for p in got} == expected
            for p in got:
                assert p.weight == total
                assert p.max_part <= max_part or p.is_empty


def test_enumerate_matches_unpruned_reference_on_grid():
    cases = 0
    for wt in range(-2, 22):
        for max_part in [None, *range(-1, 23)]:
            got = [p.mults for p in enumerate_partitions(wt, max_part)]
            want = [p.mults for p in unpruned_partitions(wt, max_part)]
            assert got == want, (wt, max_part)
            cases += 1
    assert cases == 600


def test_enumerate_order_is_lexicographic_on_multiplicities():
    got = enumerate_partitions(4, 2)
    assert [p.mults for p in got] == sorted(p.mults for p in got)


def test_sequence_examples():
    a, b, c = sequences_abc(5)
    assert a == [1, 1, 2, 3, 5, 7]
    assert b == [1, 2, 4, 7, 12, 19]
    assert c == [1, 3, 7, 14, 26, 45]


def test_counts_match_enumeration():
    a = count_partitions(12)
    for total in range(13):
        assert a[total] == len(enumerate_partitions(total, total))


def test_partition_count_rows_match_enumeration():
    # row p of the one table counts the partitions of each weight into parts
    # at most p; the rows are copied, as the table updates one list in place
    rows = [row[:] for row in partition_counts(20, 20)]
    assert len(rows) == 21
    for p, row in enumerate(rows):
        assert row == [len(enumerate_partitions(w, p)) for w in range(21)], p
    assert rows[-1] == count_partitions(20)
    with pytest.raises(ValueError, match="limit"):
        next(partition_counts(-1, 3))


def test_prefix_sum_relations():
    a, b, c = sequences_abc(20)
    assert all(b[i] >= b[i - 1] for i in range(1, 21))
    assert all(c[i] >= c[i - 1] for i in range(1, 21))
    assert all(c[i] - c[i - 1] == b[i] for i in range(1, 21))
    assert all(b[i] - b[i - 1] == a[i] for i in range(1, 21))


def test_negative_index_convention():
    _, b, c = sequences_abc(5)
    assert seq_at(b, -1) == 0
    assert seq_at(c, -3) == 0
    assert seq_at(b, 0) == 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(min_value=0, max_value=5), max_size=6))
def test_weight_recomputed_from_parts(mults):
    p = Partition(mults)
    assert p.weight == sum(parts(p))
    assert p.degree == len(parts(p))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(min_value=0, max_value=4), max_size=5),
    st.lists(st.integers(min_value=0, max_value=4), max_size=5),
)
def test_combine_adds_weights(m1, m2):
    p, q = Partition(m1), Partition(m2)
    s = p.combine(q)
    assert s.weight == p.weight + q.weight
    assert s.degree == p.degree + q.degree


def test_remove_part():
    p = Partition.from_parts([1, 2, 2])
    assert remove_part(p, 2) == Partition.from_parts([1, 2])
    with pytest.raises(ValueError):
        remove_part(p, 3)


@pytest.mark.parametrize("bad", [[1.5], [2.0], ["2"], [Fraction(1)], [1, Fraction(1, 2)], [1, -1]])
def test_multiplicities_must_be_non_negative_integers(bad):
    with pytest.raises(ValueError):
        Partition(bad)


@pytest.mark.parametrize("bad", [[1.5], [2.0], ["2"], [Fraction(1)], [1, Fraction(1, 2)], [0], [1, -1]])
def test_from_parts_refuses_non_positive_or_non_integer_parts(bad):
    with pytest.raises(ValueError, match="partition parts must be positive integers"):
        Partition.from_parts(bad)


SMALL = [p for wt in range(7) for p in enumerate_partitions(wt)]


def test_replace_part_matches_remove_then_combine():
    # the domain of every caller: ``q`` has no part >= i, as a key of layer i
    seen = {"trimmed": 0, "shorter": 0, "empty": 0, "absent": 0}
    for p in SMALL:
        for q in SMALL:
            for i in range(q.max_part + 1, p.max_part + 2):
                if p.multiplicity(i) == 0:
                    with pytest.raises(ValueError):
                        replace_part(p.mults, i, q.mults)
                    seen["absent"] += 1
                    continue
                got = replace_part(p.mults, i, q.mults)
                assert got == combine(remove_part(p, i), q).mults, (p, i, q)
                assert_well_formed(Partition._of(got))
                seen["trimmed"] += len(got) < p.max_part
                seen["shorter"] += 0 < q.max_part < p.max_part
                seen["empty"] += q.is_empty
    assert all(seen.values()), seen
    with pytest.raises(ValueError):
        replace_part((1,), 0, ())


def test_replace_part_refuses_a_part_of_other_at_or_above_i():
    for p in SMALL:
        for q in SMALL:
            for i in range(1, min(q.max_part, p.max_part) + 1):
                if p.multiplicity(i):
                    with pytest.raises(ValueError, match="below it"):
                        replace_part(p.mults, i, q.mults)


def test_weight_matches_the_generator_expression():
    for p in [p for wt in range(13) for p in enumerate_partitions(wt)]:  # holds SMALL
        assert p.weight == weight_of(p.mults) == sum((i + 1) * v for i, v in enumerate(p.mults)), p


def test_combine_matches_the_validating_route():
    for p in SMALL:
        for q in SMALL:
            got = p.combine(q)
            assert got == combine(p, q)
            assert_well_formed(got)


def test_enumerated_partitions_are_well_formed():
    for wt in range(13):
        for max_part in [None, *range(wt + 1)]:
            for p in enumerate_partitions(wt, max_part):
                assert_well_formed(p)


def test_decomposed_partitions_are_well_formed():
    rng = random.Random(5)
    for n in range(1, 6):
        for _ in range(40):
            for m in random_group_element(rng, n).decompose():
                assert_well_formed(m.lam)
