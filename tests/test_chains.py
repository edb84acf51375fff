"""Level functions, generator enumeration, closures, normalizer checks, growth."""

import hashlib
import json
import random
from dataclasses import astuple
from itertools import combinations_with_replacement

import pytest

from hyperwreath.budget import WorkBudget, charge
from hyperwreath.chains import (
    SaturatedSet,
    _growth_counts,
    _increment_shapes,
    ChainReport,
    ChainRow,
    ChainStepCheck,
    _new_keys,
    candidate_count,
    center_membership,
    check_candidates,
    check_chain_step,
    comm_constituents,
    constituent_keys,
    enumerate_N,
    growth_counts,
    growth_threshold,
    h_func,
    heaviest_generator_weight,
    idealizes,
    lev,
    normalizes,
    r_func,
    render_key,
    saturated_closure,
    verify_growth,
    wdd,
    witness_survivors,
)
from hyperwreath.liering import bracket_keys
from hyperwreath.ordinals import ONE, OrdinalCNF, tdeg_of_monomial
from hyperwreath.partitions import (EMPTY, Partition, enumerate_partitions, partition_counts,
                                    sequences_abc, weight_of)
from hyperwreath.verify import _center_keys, random_monomial
from hyperwreath.wreath import GroupElement, MonomialElement


def key(parts, k):
    """The key ``(mults, k)`` of the monic monomial x^lam D_k whose partition
    has ``parts``."""
    return Partition.from_parts(parts).mults, k


def as_key(m):
    """The key of a monomial element's monic part."""
    return m.lam.mults, m.layer


def element_of(b, n):
    """The monic monomial element with key ``b``."""
    return MonomialElement(1, Partition(b[0]), b[1], n)


def candidate_keys(n, wt_bound):
    """Keys of all monic monomials of weight up to the bound, every layer, one
    at a time, ordered by layer, weight and multiplicities: the candidates a
    chain step decides, and the oracle of ``candidate_count``.

    Their number is charged by ``candidate_count`` before the first is built.
    The partitions of each weight are enumerated once, with parts below the
    top layer, and layer k takes those whose top part is below k, in the same
    order.
    """
    candidate_count(n, wt_bound)
    by_weight = [enumerate_partitions(w, n - 1) for w in range(wt_bound + 1)]
    for k in range(1, n + 1):
        for lams in by_weight:
            for lam in lams:
                if len(lam.mults) < k:
                    yield lam.mults, k


def test_h_and_r_examples():
    assert h_func(1, 4) == 1
    assert h_func(4, 4) == 2
    assert r_func(4, 4) == 1
    assert h_func(0, 4) == 0
    assert h_func(-1, 3) == 0
    assert h_func(-1, 2) == -1
    with pytest.raises(ValueError):
        r_func(0, 4)


def test_wdd_and_lev_examples():
    n = 4
    assert wdd(key([], n), n) == 0
    assert wdd(key([1], 2), n) == 2
    assert lev(1, key([1, 1], 4), n) == 1
    assert lev(0, key([1], 2), n) == 0


def test_enumerate_N_base_cases():
    for n in (2, 3, 4):
        assert enumerate_N(-1, n) == {((), k) for k in range(1, n + 1)}


def test_enumerate_N0_is_unitriangular_frame():
    got = enumerate_N(0, 4)
    expected = {((), k) for k in range(1, 5)}
    expected |= {key([j], k) for k in range(2, 5) for j in range(1, k)}
    assert got == expected
    assert len(got) == 10


def test_first_step_adds_the_single_square():
    prev = enumerate_N(0, 4)
    new = enumerate_N(1, 4) - prev
    assert new == {key([1, 1], 4)}


def test_sets_are_nested():
    for n in (2, 3, 4, 5):
        prev = enumerate_N(-1, n)
        for i in range(0, 9):
            cur = enumerate_N(i, n)
            assert prev <= cur
            prev = cur


def partitions_into(wt, d, max_part):
    """The partitions of ``wt`` into exactly ``d`` parts, each at most
    ``max_part``, sorted on their multiplicities: the exact-degree route the
    increment tables replaced, kept as their oracle.

    The recursion chooses the multiplicity of ``part``, then of ``part - 1``,
    down to 1.  The ``deg_left`` parts still to place each lie in
    ``[1, part]``, so a call is made only when
    ``deg_left <= wt_left <= deg_left * part``: every call completes, and the
    work grows with the output, not with all partitions of ``wt``.
    """
    if wt < 0 or d < 0:
        return []
    if wt == 0:
        return [EMPTY] if d == 0 else []
    top_part = min(max_part, wt)
    if top_part < 1 or not d <= wt <= d * top_part:
        return []
    results = []

    def rec(part, wt_left, deg_left, acc):
        if part == 1:
            mults = [wt_left, *reversed(acc)]  # deg_left == wt_left by the invariant
            while not mults[-1]:
                mults.pop()
            results.append(Partition._of(tuple(mults)))
            return
        # keep deg_left - mult <= wt_left - mult * part <= (deg_left - mult) * (part - 1)
        low = max(0, wt_left - deg_left * (part - 1))
        high = min(deg_left, (wt_left - deg_left) // (part - 1))
        for mult in range(low, high + 1):
            acc.append(mult)
            rec(part - 1, wt_left - mult * part, deg_left - mult, acc)
            acc.pop()

    rec(top_part, wt, d, [])
    return sorted(results, key=lambda p: p.mults)


def test_partitions_into_matches_brute_force():
    # every multiset of d parts from 1..min(max_part, wt) whose sum is wt
    found = 0
    for wt in range(-1, 10):
        for d in range(-1, 11):
            for max_part in range(-1, 11):
                got = partitions_into(wt, d, max_part)
                parts = range(1, min(max_part, wt) + 1)
                brute = [] if d < 0 else sorted(
                    (Partition.from_parts(c) for c in combinations_with_replacement(parts, d)
                     if sum(c) == wt),
                    key=lambda p: p.mults,
                )
                assert got == brute, (wt, d, max_part)
                found += len(got)
    assert found > 500


def test_heaviest_generator_weight_matches_the_generator_sets():
    for n in range(2, 13):
        heaviest = max(weight_of(mults) for mults, _ in enumerate_N(-1, n))
        assert heaviest_generator_weight(-1, n) == heaviest == 0
        for j in range(0, 61):
            heaviest = max(heaviest, *(weight_of(mults) for mults, _ in _new_keys(j, n)))
            assert heaviest_generator_weight(j, n) == heaviest, (n, j)


def level_set(j, n):
    """Keys of the monic monomials with a nonempty partition satisfying
    lev_j = j: at j = 0 the single-variable linear monomials, and at j >= 1
    the partitions of each degree d whose defect (j - d + 1) / h_j is an
    integer.  The oracle of the increment route, which enumerates only the
    keys no earlier step reached."""
    if j == 0:
        return {(Partition.from_parts([v]).mults, k) for k in range(2, n + 1) for v in range(1, k)}
    out = set()
    h = h_func(j, n)
    for d in range(1, j + 2):
        if (j - d + 1) % h != 0:
            continue
        w = (j - d + 1) // h
        for k in range(1, n + 1):
            wt = w + d - (n - k)
            if wt >= d:
                out.update((lam.mults, k) for lam in partitions_into(wt, d, k - 1))
    return out


def oracle_steps(n):
    """Steps up to three times the growth threshold, at least 12 and at most 200."""
    return max(12, min(3 * growth_threshold(n), 200))


def test_level_sets_match_the_level_function():
    # lev_j(m) = j forces deg 1 at j = 0 and weight <= j + 1 at j >= 1, so the
    # bound j + n leaves no level member out
    for n in range(2, 7):
        for j in range(0, 10):
            oracle = {
                b
                for b in candidate_keys(n, j + n)
                if b[0] and lev(j, b, n) == j
            }
            assert level_set(j, n) == oracle, (n, j)


@pytest.mark.parametrize("n", range(2, 14))
def test_increments_are_the_level_sets_less_earlier_members(n):
    members = level_set(0, n)
    assert set(_new_keys(0, n)) == members
    for i in range(1, oracle_steps(n) + 1):
        new = _new_keys(i, n)
        assert len(new) == len(set(new))
        assert set(new) == level_set(i, n) - members, (n, i)
        members.update(new)


@pytest.mark.parametrize("n", range(2, 14))
def test_increments_match_the_direct_partition_route(n):
    # the route _new_keys replaced: the partitions of each shape's weight
    # into exactly d parts below the layer, with no shift by 1^d
    for i in range(1, oracle_steps(n) + 1):
        by_shape = {}
        for b in _new_keys(i, n):
            by_shape.setdefault((wdd(b, n), sum(b[0]), b[1]), []).append(b)
        for defect, d, k in _increment_shapes(i, n):
            direct = partitions_into(defect + d - (n - k), d, k - 1)
            shifted = by_shape.pop((defect, d, k), [])
            assert len(shifted) == len(set(shifted)), (n, i, defect, d, k)
            assert set(shifted) == {(lam.mults, k) for lam in direct}, (n, i, defect, d, k)
        assert not by_shape, (n, i)  # no key outside the step's shapes


@pytest.mark.parametrize("n", range(2, 14))
def test_growth_counts_match_the_enumerated_increments(n):
    """``growth_counts`` and ``_new_keys`` read one bijection (lam <-> lam - 1^d),
    so the first check is only that they agree; the second counts each
    shape's keys by ``partitions_into``, with no shift and no conjugation."""
    for i in range(1, oracle_steps(n) + 1):
        counts = {k: 0 for k in range(1, n + 1)}
        for _, k in _new_keys(i, n):
            counts[k] += 1
        assert growth_counts(n, i) == counts, (n, i)
        direct = {k: 0 for k in range(1, n + 1)}
        for defect, d, k in _increment_shapes(i, n):
            direct[k] += len(partitions_into(defect + d - (n - k), d, k - 1))
        assert direct == counts, (n, i)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 32])
def test_growth_counts_read_from_one_table_per_run(n):
    """``verify_growth`` charges every step from one table up to n - 2, a
    table whose corner up to r_i - 1 is the one ``growth_counts`` builds."""
    rows = [row[:] for row in partition_counts(n - 2, n - 2)]
    for i in range(1, 4 * n):
        assert _growth_counts(n, i, rows) == growth_counts(n, i), (n, i)


def tdeg_order(key):
    """A sort key ordering monic monomials as ``tdeg_of_monomial`` does: the
    lower layer first (it has more leading omega powers), then the higher top
    part, then the multiplicities from the top part down."""
    mults, k = key
    return -k, len(mults), mults[::-1]


def test_sort_key_orders_as_tdeg():
    for n in range(2, 9):
        keys = list(candidate_keys(n, 8))
        by_tdeg = sorted(keys, key=lambda b: tdeg_of_monomial(Partition(b[0]), b[1], n))
        assert sorted(keys, key=tdeg_order) == by_tdeg, n
        # no two keys share a transfinite degree, so the orders are total
        assert len({tdeg_order(b) for b in keys}) == len(keys)


@pytest.mark.parametrize("n", range(2, 14))
def test_generators_match_the_sorted_key_route(n):
    # the route verify_growth replaced: a step's keys from _new_keys, sorted
    # by the tuple key above and rendered one by one
    report = verify_growth(n, oracle_steps(n))
    for row in report.rows:
        ordered = sorted(_new_keys(row.i, n), key=tdeg_order, reverse=True)
        assert row.generators == [render_key(b) for b in ordered], (n, row.i)


def test_increments_partition_the_union():
    # verify_growth enumerates each increment alone; the oracle rebuilds
    # N_i and N_(i-1) from step 0 and takes their difference
    for n in range(2, 7):
        report = verify_growth(n, 12)
        for row in report.rows:
            new = [element_of(b, n) for b in enumerate_N(row.i, n) - enumerate_N(row.i - 1, n)]
            ordered = sorted(new, key=lambda m: m.tdeg(), reverse=True)
            assert row.generators == [m.render() for m in ordered], (n, row.i)
            counts = {k: sum(m.layer == k for m in new) for k in range(1, n + 1)}
            assert (row.counts, row.total) == (counts, len(new)), (n, row.i)
        union = [render_key(b) for b in enumerate_N(0, n)]
        for row in report.rows[:8]:
            union += row.generators
        assert len(union) == len(set(union))
        assert set(union) == {render_key(b) for b in enumerate_N(8, n)}


def test_render_key_matches_the_monomial_element():
    for n in range(2, 9):
        for b in candidate_keys(n, 8):
            assert render_key(b) == element_of(b, n).render(), b


def test_layer_counts_examples():
    row = verify_growth(4, 1).rows[0]
    assert row.total == 1 and row.counts[4] == 1

    row = verify_growth(4, 5).rows[4]
    assert row.total == 3
    assert row.counts == {1: 0, 2: 0, 3: 1, 4: 2}

    row = verify_growth(5, 5).rows[4]
    assert row.counts[5] == 1
    assert all(row.counts[k] == 0 for k in range(1, 5))


def test_growth_law_against_sequences():
    for n in (4, 5):
        report = verify_growth(n, 12)
        assert report.all_match
        _, b, c = sequences_abc(20)
        for row in report.rows:
            if row.match is None:
                continue
            assert row.total == c[row.r - 1]
            for k in range(1, n + 1):
                idx = row.r + k - n - 1
                assert row.counts[k] == (b[idx] if idx >= 0 else 0)


def test_growth_below_threshold_rows_unflagged():
    report = verify_growth(5, 6)
    flags = {row.i: row.match for row in report.rows}
    assert flags[1] is None and flags[4] is None
    assert flags[5] is not None and flags[6] is not None
    # the stable law genuinely fails below the threshold at n=5
    row4 = next(r for r in report.rows if r.i == 4)
    assert row4.total != row4.predicted_total


@pytest.mark.parametrize("n", range(5, 11))
def test_growth_threshold_is_attained(n):
    # An observed fact, not a claim of the paper: out to three times the
    # threshold, the law holds above it and fails at the threshold step itself.
    threshold = growth_threshold(n)
    report = verify_growth(n, 3 * threshold)
    assert report.all_match
    mismatches = [
        row.i
        for row in report.rows
        if row.counts != row.predicted or row.total != row.predicted_total
    ]
    assert mismatches[-1] == threshold == (n - 4) * (n - 1)


def exact_part_counts(max_part, max_parts, max_wt):
    """``ways[d][wt]``: partitions of wt into exactly d parts, each part at
    most ``max_part``, by a coin-style DP over part sizes."""
    ways = [[0] * (max_wt + 1) for _ in range(max_parts + 1)]
    ways[0][0] = 1
    for part in range(1, max_part + 1):
        for d in range(1, max_parts + 1):
            for wt in range(part, max_wt + 1):
                ways[d][wt] += ways[d - 1][wt - part]
    return ways


@pytest.mark.parametrize("n, i_max", [(6, 40), (8, 60)])
def test_increment_counts_match_a_counting_route(n, i_max):
    # A monomial's level function sees only (wdd, deg), so the layer-k
    # increment at step i counts the partitions of every (deg, wt) whose first
    # hit min{j : lev_j = j} is i; nothing is enumerated.
    def first_hit(defect, deg):
        return next((j for j in range(i_max + 1) if h_func(j, n) * defect + deg - 1 == j), None)

    expected = {i: {k: 0 for k in range(1, n + 1)} for i in range(1, i_max + 1)}
    # lev_j = j <= i_max with h_j >= 1 gives deg <= i_max + 1 and wdd <= i_max
    max_wt = 2 * i_max + 1
    for k in range(1, n + 1):
        ways = exact_part_counts(k - 1, i_max + 1, max_wt)
        for deg in range(1, i_max + 2):
            for wt in range(deg, max_wt + 1):
                i = first_hit(wt - deg + n - k, deg)
                if i is not None and i >= 1:
                    expected[i][k] += ways[deg][wt]
    report = verify_growth(n, i_max)
    assert {row.i: row.counts for row in report.rows} == expected


def test_growth_degenerate_two_layer_chain():
    report = verify_growth(2, 6)
    assert report.all_match
    for row in report.rows:
        assert row.total == 1  # one new power each step


def dumps_oracle(report):
    """The JSON ``ChainReport.to_json`` wrote before it wrote the layout itself."""
    return json.dumps(
        {
            "n": report.n,
            "i_max": report.i_max,
            "threshold": report.threshold,
            "all_match": report.all_match,
            "rows": [vars(r) for r in report.rows],
        },
        indent=2,
    )


@pytest.mark.parametrize("n", range(2, 13))
def test_to_json_matches_json_dumps(n):
    report = verify_growth(n, oracle_steps(n))
    assert report.to_json() == dumps_oracle(report)


def test_to_json_matches_json_dumps_on_hand_built_reports():
    def row(i, generators, match, discards=0):
        counts = {1: 0, 2: len(generators)}
        return ChainRow(n=2, i=i, r=1, h=i, generators=generators, counts=counts,
                        predicted=dict(counts), total=len(generators),
                        predicted_total=len(generators), match=match, discards=discards)

    escapes = ['[x1"]D2', "[x1\\]D2", "[x1\u00e9\u2211\U0001d400]D2", "tab\tnewline\n"]
    rows = [row(1, [], None), row(2, ["[x1]D2"], True), row(3, escapes, False, discards=7)]
    full = ChainReport(n=2, i_max=3, threshold=-2, rows=rows)
    for report in (full,
                   ChainReport(n=2, i_max=1, threshold=0),
                   ChainReport(n=2, i_max=1, threshold=0, rows=[row(1, [], None)])):
        assert report.to_json() == dumps_oracle(report)
    # ensure_ascii: non-ASCII text leaves as \u escapes, astral characters as pairs
    assert '"[x1\\u00e9\\u2211\\ud835\\udc00]D2"' in full.to_json()


def test_report_serialization_shapes():
    report = verify_growth(3, 4)
    data = json.loads(report.to_json())
    assert data["n"] == 3 and data["i_max"] == 4
    for row in data["rows"]:
        for field in (
            "n",
            "i",
            "r",
            "h",
            "generators",
            "counts",
            "predicted",
            "total",
            "predicted_total",
            "match",
            "discards",
        ):
            assert field in row
        assert set(row["counts"]) == {"1", "2", "3"}
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == "n,i,r,h,k,count,predicted,match"
    assert len(lines) == 1 + 3 * len(data["rows"])


def test_closure_of_commuting_generators_is_itself():
    t = enumerate_N(-1, 3)
    closed = saturated_closure(t, 6, n=3)
    assert closed.keys == t
    assert closed.discards == 0


def test_closure_of_step0_set_is_fixed():
    n0 = enumerate_N(0, 3)
    closed = saturated_closure(n0, 6, n=3)
    assert closed.keys == n0
    assert closed.discards == 0


def test_closure_gains_commutator():
    n = 2
    gens = [key([1], 2), key([], 1)]
    closed = saturated_closure(gens, 6, n=n)
    assert closed.keys == {key([1], 2), key([], 1), key([], 2)}
    assert closed.discards == 0


def test_generator_sets_are_commutator_closed():
    # each step's generator set is already a full saturated basis, which is
    # why a chain step checks against it without closing it
    for n in range(2, 9):
        for i in range(-1, 13):
            base = enumerate_N(i, n)
            bound = max(2 * (i + 3), *(weight_of(mults) for mults, _ in base))
            closed = saturated_closure(base, bound, n=n)
            assert closed.keys == base
            assert closed.discards == 0


def test_closure_rejects_bound_below_generators():
    with pytest.raises(ValueError):
        saturated_closure([key([1, 1], 3)], 1, n=3)


def test_closure_counts_discards():
    # a heavy pair whose higher expansion terms overflow the bound
    n = 3
    gens = [key([2, 2], 3), key([1, 1, 1], 2)]
    closed = saturated_closure(gens, 4, n=n)
    assert closed.discards > 0


def test_normalizes_examples():
    n = 4
    closure = saturated_closure(enumerate_N(0, n), 6, n=n)
    assert normalizes(key([], n), closure) is True
    assert normalizes(key([1, 1], n), closure) is True
    assert normalizes(key([1, 1, 1], n), closure) is False


def test_saturated_set_requires_a_closure_bound():
    with pytest.raises(TypeError):
        SaturatedSet(n=4, keys=enumerate_N(0, 4))


def test_normalizes_refuses_a_key_of_a_larger_group():
    closure = saturated_closure(enumerate_N(0, 4), 6, n=4)
    for b in (key([], 5), key([4], 5), key([4], 4)):
        with pytest.raises(ValueError, match="below the layer"):
            normalizes(b, closure)


def test_normalizes_unknown_when_bound_hides_the_answer():
    n = 2
    tiny = saturated_closure(enumerate_N(-1, n), 0, n=n)
    probe = key([1] * 5, 2)  # all escaping constituents are over-bound
    assert normalizes(probe, tiny) is None
    roomy = saturated_closure(enumerate_N(-1, n), 6, n=n)
    assert normalizes(probe, roomy) is False


def test_normalizes_unknown_when_closure_was_lossy():
    n = 3
    base = enumerate_N(0, n)
    lossy = SaturatedSet(n=n, keys=base, closure_bound=6, discards=1)
    probe = key([1, 1, 1], 3)
    # an in-bound escape cannot be conclusive against an incomplete basis
    assert normalizes(probe, lossy) is None
    complete = SaturatedSet(n=n, keys=base, closure_bound=6, discards=0)
    assert normalizes(probe, complete) is False


def test_idealizes_examples():
    n = 4
    closure = saturated_closure(enumerate_N(0, n), 6, n=n)
    assert idealizes(key([], n), closure) is True
    assert idealizes(key([1, 1], n), closure) is True
    assert idealizes(key([1, 1, 1], n), closure) is False


def idealizes_full_walk(key, h_keys):
    """``idealizes`` over every member of ``h_keys``, not only the partners of
    ``key``; it charges the brackets it took."""
    verdict, calls = True, 0
    for calls, other in enumerate(h_keys, 1):
        coeff, out = bracket_keys(key, other)
        if coeff != 0 and out not in h_keys:
            verdict = False
            break
    charge(calls)
    return verdict


def step_closure(n, i):
    """The closure and weight bound ``check_chain_step(n, i)`` checks against."""
    bound = max(2 * (i + 2), heaviest_generator_weight(i - 1, n))
    return saturated_closure(enumerate_N(i - 1, n), bound, n=n), bound


def assert_mirror_matches_full_walk(closure, bound):
    verdicts = set()
    for b in candidate_keys(closure.n, bound):
        with WorkBudget() as budget:
            verdict = idealizes(b, closure)
        assert verdict == idealizes_full_walk(b, closure.keys), b
        if verdict:  # a passing key took the bracket with each partner
            assert budget.limit - budget.left == sum(1 for _ in closure.partners(b))
        verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("n, i", [(4, 12), (5, 8), (7, 5)])
def test_idealizes_matches_the_full_walk_on_step_closures(n, i):
    assert_mirror_matches_full_walk(*step_closure(n, i))


def bounded_closure():
    """A closure with discards, checked against candidates up to weight 6."""
    return saturated_closure([key([2, 2], 3), key([1, 1, 1], 2)], 4, n=3)


def test_idealizes_matches_the_full_walk_on_lossy_and_bounded_closures():
    bounded = bounded_closure()
    assert bounded.discards > 0
    assert_mirror_matches_full_walk(bounded, 6)
    lossy = SaturatedSet(n=3, keys=enumerate_N(0, 3), closure_bound=6, discards=1)
    assert_mirror_matches_full_walk(lossy, 6)


def histories(keys):
    """The keys ``keys`` sorted, reversed, and as a set grown one key at a time."""
    keys = sorted(keys, key=repr)
    grown = set()
    for b in keys[1::2] + keys[::2]:
        grown.add(b)
    return [keys, keys[::-1], grown]


def assert_units_do_not_depend_on_insertion_order(H, bound):
    """``H``'s keys, as a ``SaturatedSet`` built from each of their
    ``histories``, give the same partners and charge the same units for
    ``normalizes`` and ``idealizes`` over the candidates."""
    sets = [SaturatedSet(H.n, h, H.closure_bound, H.discards) for h in histories(H.keys)]
    candidates = list(candidate_keys(H.n, bound))
    for b in candidates:
        assert len({tuple(s.partners(b)) for s in sets}) == 1, b
    units = set()
    for s in sets:
        with WorkBudget() as budget:
            for b in candidates:
                normalizes(b, s)
                idealizes(b, s)
        units.add(budget.limit - budget.left)
    assert len(units) == 1


@pytest.mark.parametrize("n, i", [(4, 12), (5, 8), (7, 5)])
def test_verdict_units_do_not_depend_on_insertion_order(n, i):
    closure, bound = step_closure(n, i)
    # the histories iterate in three orders, so a walk in set order would differ
    assert len({tuple(frozenset(h)) for h in histories(closure.keys)}) == 3
    assert_units_do_not_depend_on_insertion_order(closure, bound)


def test_verdict_units_do_not_depend_on_insertion_order_on_a_bounded_closure():
    assert_units_do_not_depend_on_insertion_order(bounded_closure(), 6)


def test_center_membership_examples():
    n = 4
    dn = GroupElement.delta(n, n)
    assert center_membership(dn, ONE)
    x1dn = GroupElement.monomial(1, Partition.from_parts([1]), n, n)
    assert not center_membership(x1dn, ONE)
    assert center_membership(x1dn, OrdinalCNF.from_int(2))
    dprev = GroupElement.delta(n - 1, n)
    omega_pow = OrdinalCNF(((n - 1, 1),))
    assert not center_membership(dprev, omega_pow)
    assert center_membership(dprev, omega_pow.successor())


def contains_element(H, g):
    """Saturated membership: every constituent's monic part is in the basis."""
    return g.n == H.n and all(as_key(m) in H.keys for m in g.decompose())


def test_membership_of_group_elements_in_saturated_set():
    n = 3
    closure = saturated_closure(enumerate_N(0, n), 6, n=n)
    g = GroupElement.delta(1, n) * GroupElement.monomial(2, Partition.from_parts([1]), 3, n)
    assert contains_element(closure, g)
    bad = GroupElement.monomial(1, Partition.from_parts([1, 1]), 3, n)
    assert not contains_element(closure, bad)


def test_chain_step_small():
    step = check_chain_step(3, 1)
    assert step.ok
    assert step.members_checked == len(enumerate_N(1, 3))
    assert step.group_passes == step.lie_passes == step.members_checked
    assert step.closure_discards == 0


def test_chain_step_rejects_a_bound_below_the_previous_generators():
    floor = heaviest_generator_weight(2, 4)
    assert check_chain_step(4, 3, wt_bound=floor).ok
    with pytest.raises(ValueError, match="below the heaviest generator"):
        check_chain_step(4, 3, wt_bound=floor - 1)


def test_chain_steps_are_pinned():
    # SHA-256 of the repr of every ChainStepCheck field for n = 2..7, i = 1..6,
    # recorded before partitions were built through Partition._of and replace_part
    rows = "\n".join(
        repr(astuple(check_chain_step(n, i))) for n in range(2, 8) for i in range(1, 7)
    )
    assert hashlib.sha256(rows.encode()).hexdigest() == (
        "bb713d79f79d11bb0f85173088525e5faa50565d9fc78d6c85b02dab764ab91c"
    )


def test_chain_steps_and_their_units_are_pinned_through_n8():
    # SHA-256 of the repr of every ChainStepCheck field and the units the step
    # charges, for n = 2..8, i = 1..8, recorded before chain keys became
    # multiplicity tuples
    rows = []
    for n in range(2, 9):
        for i in range(1, 9):
            with WorkBudget() as budget:
                step = check_chain_step(n, i)
            rows.append(repr((astuple(step), budget.limit - budget.left)))
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == (
        "cb9b88cbf8cf6413e27c2fe5b365b0a4406b69463239d8a201f56953e0f5366e"
    )


# -- the witness-pruned sweep against the full sweep --------------------------------


def full_sweep(i, closure, target):
    """``check_candidates`` with both verdicts for every candidate of
    ``candidate_keys``, as the chain step was checked before the translation
    witness decided most candidates."""
    step = ChainStepCheck(
        n=closure.n,
        i=i,
        wt_bound=closure.closure_bound,
        closure_size=len(closure),
        closure_discards=closure.discards,
        members_checked=0,
        outsiders_checked=0,
        member_failures=[],
        outsider_passes=[],
        unknowns=[],
        mirror_disagreements=[],
    )
    for b in candidate_keys(closure.n, closure.closure_bound):
        verdict = normalizes(b, closure)
        if verdict is None:
            step.unknowns.append(render_key(b))
            continue
        if verdict:
            step.group_passes += 1
        lie_verdict = idealizes(b, closure)
        if lie_verdict:
            step.lie_passes += 1
        if lie_verdict != verdict:
            step.mirror_disagreements.append(render_key(b))
        if b in target:
            step.members_checked += 1
            if not verdict:
                step.member_failures.append(render_key(b))
        else:
            step.outsiders_checked += 1
            if verdict:
                step.outsider_passes.append(render_key(b))
    return step


def test_chain_steps_match_the_full_sweep():
    for n in range(2, 9):
        for i in range(1, 9):
            closure, _ = step_closure(n, i)
            assert closure.discards == 0  # so check_chain_step takes the pruned route
            target = enumerate_N(i - 1, n).union(_new_keys(i, n))
            assert check_chain_step(n, i) == full_sweep(i, closure, target), (n, i)


def removals_held(b, closure):
    """Whether every one-part removal of the key ``b`` is in ``closure``."""
    m, k = b
    return all(
        (Partition(m[:v - 1] + (c - 1,) + m[v:]).mults, k) in closure.keys
        for v, c in enumerate(m, 1)
        if c
    )


def test_candidates_the_witness_rejects_fail_both_verdicts():
    rejected = 0
    for n in range(2, 7):
        for i in range(1, 7):
            closure, bound = step_closure(n, i)
            survivors = witness_survivors(closure, ())
            candidates = list(candidate_keys(n, bound))
            # the survivors are the candidates whose removals are all held, in order
            assert survivors == [b for b in candidates if removals_held(b, closure)], (n, i)
            kept = set(survivors)
            for b in candidates:
                if b not in kept:
                    assert normalizes(b, closure) is False, (n, i, b)
                    assert idealizes(b, closure) is False, (n, i, b)
                    rejected += 1
    assert rejected > 1000


def test_witness_survivors_keep_every_target_key_within_the_bound():
    closure, bound = step_closure(4, 3)
    outsider, heavy = key([1] * 5, 4), key([3] * 5, 4)
    assert not removals_held(outsider, closure)
    survivors = witness_survivors(closure, {outsider, heavy})
    assert outsider in survivors and heavy not in survivors and weight_of(heavy[0]) > bound
    assert survivors == [b for b in candidate_keys(4, bound) if b in set(survivors)]


def test_check_candidates_refuses_a_lossy_basis():
    gens = enumerate_N(-1, 3).union([key([1, 1, 1], 2), key([2, 2], 3)])
    closure = saturated_closure(gens, 4, n=3)
    assert (len(closure), closure.discards) == (14, 3)
    # on a lossy basis an escape is unknown: the witness would call this one refuted
    lossy = SaturatedSet(n=3, keys=enumerate_N(0, 3), closure_bound=6, discards=1)
    refuted = key([1, 1, 1], 3)
    assert refuted not in witness_survivors(lossy, ()) and normalizes(refuted, lossy) is None
    for basis in (closure, lossy):
        with pytest.raises(ValueError, match="discards"):
            check_candidates(1, basis, basis.keys)


def test_a_basis_that_is_not_closed_fails_the_step():
    # the commutator of x2 D3 and x1^2 D2 has the constituent x1^2 D3, which
    # the basis lacks, so the verdicts of both members find the escape
    basis = enumerate_N(0, 3) | {key([1, 1], 2)}
    assert saturated_closure(basis, 6, n=3).keys - basis == {key([1, 1], 3)}
    step = check_candidates(1, SaturatedSet(3, basis, 6), basis.union(_new_keys(1, 3)))
    assert step.member_failures == ["[x1^2]D2", "[x2]D3"]
    assert not step.ok


def test_a_basis_member_above_the_bound_is_refused():
    # the verdicts are exact only against a basis within its bound: x1 D2
    # above bound 0 would get no verdict, and at bound -1 every translation
    # generator lies above it and would pass as an outsider
    t3 = enumerate_N(-1, 3)
    basis = t3 | {key([1], 2)}
    for keys, bound in ((basis, 0), (t3, -1)):
        with pytest.raises(ValueError, match="below the heaviest generator"):
            SaturatedSet(3, keys, bound)
        with pytest.raises(ValueError, match="below the heaviest generator"):
            saturated_closure(keys, bound, n=3)
    # at the floor every member gets a verdict
    assert check_candidates(1, SaturatedSet(3, basis, 1), basis).members_checked == len(basis) == 4


def test_the_pruned_sweep_needs_every_translation_generator():
    closure = SaturatedSet(3, enumerate_N(0, 3) - {key([], 2)}, 6)
    with pytest.raises(ValueError, match="translation generator"):
        check_candidates(1, closure, enumerate_N(1, 3))


def test_closure_of_no_generators_is_empty():
    closed = saturated_closure([], 3, n=3)
    assert (len(closed), closed.discards) == (0, 0)

def test_comm_constituents_match_group_commutator():
    from hyperwreath.wreath import comm

    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(2, 4)
        a = random_monomial(rng, n)
        b = random_monomial(rng, n)
        direct = comm(a.to_group(), b.to_group()).decompose()
        assert comm_constituents(a, b) == direct


def candidate_keys_per_layer(n, wt_bound):
    """``candidate_keys`` with one enumeration per layer and weight, each with
    parts below the layer, after the same two charges."""
    least = (n - 1) * (wt_bound + 1) + 1
    charge(least)
    ways = [1] + [0] * wt_bound
    count = 1
    for part in range(1, n):
        for w in range(part, wt_bound + 1):
            ways[w] += ways[w - part]
        count += sum(ways)
    charge(count - least)
    for k in range(1, n + 1):
        for w in range(0, wt_bound + 1):
            for lam in enumerate_partitions(w, k - 1):
                yield lam.mults, k


def charged(keys):
    """The list of ``keys`` and the units taking them charged."""
    with WorkBudget() as budget:
        out = list(keys)
    return out, budget.limit - budget.left


def test_candidate_keys_match_the_per_layer_route():
    for n in range(1, 9):
        for bound in range(15):
            got, units = charged(candidate_keys(n, bound))
            assert (got, units) == charged(candidate_keys_per_layer(n, bound)), (n, bound)
            assert units == len(got) == candidate_count(n, bound)


def test_center_suite_samples_the_candidates_up_to_weight_4():
    # suite_centers reads its keys straight from enumerate_partitions, in the
    # candidates' order, so its random stream is the one it drew before
    for n in range(1, 9):
        got = [(lam.mults, k) for lam, k in _center_keys(n)]
        assert got == list(candidate_keys(n, 4)), n


def test_candidate_count_refuses_a_negative_bound():
    # a bound of -2 or lower would make the first charge negative
    for bound in (-1, -2, -5):
        with WorkBudget() as budget:
            with pytest.raises(ValueError, match="wt_bound must be an int >= 0"):
                candidate_count(3, bound)
            with pytest.raises(ValueError, match="wt_bound must be an int >= 0"):
                list(candidate_keys(3, bound))
        assert budget.left == budget.limit


def test_candidate_monomials_cover_all_layers():
    cands = list(candidate_keys(3, 4))
    assert key([], 1) in cands
    assert key([2, 2], 3) in cands
    assert len(cands) == len(set(cands))
    assert all(weight_of(mults) <= 4 for mults, _ in cands)


def test_saturated_set_validation():
    # a key is monic by definition; it must obey the layer rule of the set's n
    assert len(SaturatedSet(n=3, keys=frozenset({key([2], 3), key([], 1)}), closure_bound=2)) == 2
    for bad in (key([], 4), key([], 0), key([3], 3), key([1], 1)):
        with pytest.raises(ValueError, match="below the layer"):
            SaturatedSet(n=3, keys=frozenset({key([], 1), bad}), closure_bound=3)


# -- the closed-form key route against the polynomial route ------------------------


def test_constituent_keys_match_the_poly_route():
    rng = random.Random(29)
    multiple = 0
    for _ in range(400):
        n = rng.randint(2, 6)
        a = random_monomial(rng, n, max_wt=6)
        b = random_monomial(rng, n, max_wt=6)
        same = random_monomial(rng, n, max_wt=6, layer=a.layer)
        assert list(constituent_keys(as_key(a), as_key(same))) == []
        assert comm_constituents(a, same) == []
        for x, y in ((a, b), (b, a)):
            keys = constituent_keys(as_key(x), as_key(y))
            oracle = [as_key(m) for m in comm_constituents(x, y)]
            assert sorted(keys, key=repr) == sorted(oracle, key=repr)
        low, high = sorted((a, b), key=lambda m: m.layer)
        multiple += low.layer < high.layer and high.lam.multiplicity(low.layer) >= 2
    assert multiple >= 20  # the s >= 2 terms of the difference expansion


def reference_closure(gens, wt_bound, n):
    """``saturated_closure`` by monomials and ``comm_constituents``; the keys
    ``gens`` go in and the keys of the closure come out."""
    members = {element_of(b, n) for b in gens}
    discarded = set()
    frontier = set(members)
    while frontier:
        new = set()
        for a in frontier:
            for b in members:
                for part in comm_constituents(a, b):
                    monic = MonomialElement(1, part.lam, part.layer, n)
                    if monic not in members and monic not in new:
                        (discarded if monic.lam.weight > wt_bound else new).add(monic)
        members |= new
        frontier = new
    return {as_key(m) for m in members}, len(discarded)


def reference_normalizes(b, H):
    """``normalizes`` of the key ``b`` by monomials and ``comm_constituents``."""
    verdict = True
    b = element_of(b, H.n)
    for other in H.keys:
        for part in comm_constituents(b, element_of(other, H.n)):
            if as_key(part) in H.keys:
                continue
            if part.lam.weight > H.closure_bound or H.discards > 0:
                verdict = None
            else:
                return False
    return verdict


@pytest.mark.parametrize("n", [3, 4])
def test_verdicts_match_the_poly_route(n):
    for i in range(1, 5):
        bound = 2 * (i + 2)  # check_chain_step's default
        gens = enumerate_N(i - 1, n)
        closure = saturated_closure(gens, bound, n=n)
        assert (closure.keys, closure.discards) == reference_closure(gens, bound, n)
        for b in candidate_keys(n, bound):
            assert normalizes(b, closure) == reference_normalizes(b, closure), b


def test_lossy_and_bounded_closures_match_the_poly_route():
    cases = [
        ([key([2, 2], 3), key([1, 1, 1], 2)], 4, 3),
        (enumerate_N(-1, 2), 0, 2),
        (enumerate_N(-1, 2), 6, 2),
        (enumerate_N(0, 3), 6, 3),
    ]
    for gens, bound, n in cases:
        closure = saturated_closure(gens, bound, n=n)
        assert (closure.keys, closure.discards) == reference_closure(gens, bound, n)
        for b in candidate_keys(n, 6):
            assert normalizes(b, closure) == reference_normalizes(b, closure), b
    lossy = SaturatedSet(n=3, keys=enumerate_N(0, 3), closure_bound=6, discards=1)
    for b in candidate_keys(3, 6):
        assert normalizes(b, lossy) == reference_normalizes(b, lossy), b
