"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance here is exact (integer or symbolic equality).
"""

import json
import random
import time
from contextlib import contextmanager
from math import comb

import numpy as np

from hyperwreath import chains, liering, regular, wreath
from hyperwreath.chains import (
    center_membership,
    check_chain_step,
    enumerate_N,
    verify_growth,
)
from hyperwreath.cli import main
from hyperwreath.ordinals import ONE
from hyperwreath.partitions import Partition, enumerate_partitions, sequences_abc
from hyperwreath.polyring import Poly
from hyperwreath.verify import random_group_element, random_monomial
from hyperwreath.wreath import (GroupElement, MonomialElement, comm, comm_formula, parse_element,
                                taylor_comm)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {desc}")
        raise
    print(f"PASS criterion {num}: {desc}")


def test_criterion_1_group_axioms():
    with criterion(1, "group axioms and right action, 200 triples per n in 2..5"):
        start = time.monotonic()
        rng = random.Random(1)
        for n in (2, 3, 4, 5):
            ident = GroupElement.identity(n)
            for _ in range(200):
                g = random_group_element(rng, n)
                h = random_group_element(rng, n)
                k = random_group_element(rng, n)
                assert (g * h) * k == g * (h * k)
                gi = g.inverse()
                assert g * gi == ident and gi * g == ident
                gh = g * h
                for _ in range(20):
                    x = tuple(rng.randint(-6, 6) for _ in range(n))
                    assert gh.act(x) == h.act(g.act(x))
        elapsed = time.monotonic() - start
        assert elapsed < 30, f"budget exceeded: {elapsed:.1f}s"


def test_criterion_2_commutator_formulas():
    with criterion(2, "comm == case-split formula == taylor sum, 200 pairs each"):
        start = time.monotonic()
        rng = random.Random(2)
        for _ in range(200):
            n = rng.randint(2, 5)
            a = random_monomial(rng, n)
            b = random_monomial(rng, n)
            fa = Poly.monomial(a.coeff, a.lam.mults)
            fb = Poly.monomial(b.coeff, b.lam.mults)
            assert comm(a.to_group(), b.to_group()) == comm_formula(
                fa, a.layer, fb, b.layer, n
            )
        for _ in range(200):
            n = rng.randint(2, 5)
            k = rng.randint(2, n)
            u = rng.randint(1, k - 1)
            a = random_monomial(rng, n, layer=k)
            b = random_monomial(rng, n, layer=u)
            fa = Poly.monomial(a.coeff, a.lam.mults)
            fb = Poly.monomial(b.coeff, b.lam.mults)
            assert taylor_comm(fa, k, fb, u, n) == comm_formula(fa, k, fb, u, n)
        elapsed = time.monotonic() - start
        assert elapsed < 10, f"budget exceeded: {elapsed:.1f}s"


def test_criterion_3_leading_term_law():
    with criterion(3, "leading term of monomial commutators, 200 pairs"):
        rng = random.Random(3)
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
            predicted = wreath.leading_of_monomial_comm(lam, k, theta, u, n)
            actual = comm(
                GroupElement.monomial(1, lam, k, n),
                GroupElement.monomial(1, theta, u, n),
            ).leading_term()
            assert predicted == actual


def _difference_power_matrices(dim, k_max):
    """Exact matrices of the k-fold unit difference on coefficient vectors."""
    shift = [[comb(i, j) for i in range(dim)] for j in range(dim)]
    delta = [
        [shift[j][i] - (1 if i == j else 0) for i in range(dim)] for j in range(dim)
    ]

    def matmul(a, b):
        return [
            [sum(a[r][m] * b[m][c] for m in range(dim)) for c in range(dim)]
            for r in range(dim)
        ]

    powers = [[[1 if i == j else 0 for i in range(dim)] for j in range(dim)]]
    for _ in range(k_max):
        powers.append(matmul(powers[-1], delta))
    return powers


def test_criterion_4_finite_differences_exhaustive():
    with criterion(4, "k-fold differences detect degree on the full {-2..2} grid"):
        start = time.monotonic()
        dim, k_max = 9, 10
        powers = _difference_power_matrices(dim, k_max)
        # every product below stays under 2**53, so float64 arithmetic is exact
        peak = max(abs(v) for mat in powers for row in mat for v in row)
        assert peak * 2 * dim < 2**53

        # tie the matrix route to the polynomial difference operator
        rng = random.Random(4)
        for _ in range(60):
            coeffs = [rng.randint(-2, 2) for _ in range(dim)]
            p = Poly({(i,): c for i, c in enumerate(coeffs) if c})
            k = rng.randint(0, k_max)
            for _ in range(k):
                p = p.difference(1, 1)
            mat = powers[k]
            expected = [
                sum(mat[j][i] * coeffs[i] for i in range(dim)) for j in range(dim)
            ]
            assert p == Poly({(j,): c for j, c in enumerate(expected) if c})

        # Exhaustive grid check, k by k.  The k-th matrix has zero columns
        # below index k (checked exactly below), so the image of any grid
        # vector depends only on its tail coefficients a_k..a_8; exhausting
        # the tail sub-grid therefore covers the full 5^9 grid exactly.
        axes = [np.arange(-2, 3, dtype=np.int8)] * dim
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
        nz_any = (grid != 0).any(axis=1)
        for k in range(0, k_max + 1):
            mat = powers[k]
            assert all(
                mat[r][c] == 0 for r in range(dim) for c in range(min(k, dim))
            ), f"low columns of the {k}-th difference matrix must vanish"
            width = dim - k
            if width <= 0:
                continue  # the zero matrix vanishes on everything, as required
            if k == 0:
                vanishes = ~nz_any
                tail_zero = ~nz_any
            else:
                tail_axes = [np.arange(-2, 3, dtype=np.int8)] * width
                tails = np.stack(
                    np.meshgrid(*tail_axes, indexing="ij"), axis=-1
                ).reshape(-1, width)
                sub = np.array(
                    [[mat[r][c] for c in range(k, dim)] for r in range(dim)],
                    dtype=np.float64,
                )
                image = tails.astype(np.float64) @ sub.T
                vanishes = ~image.any(axis=1)
                tail_zero = ~(tails != 0).any(axis=1)
            # deg f <= k-1 is exactly "the tail coefficients all vanish"
            assert np.array_equal(vanishes, tail_zero)

        # tie the tail decomposition to direct full-vector evaluation
        rng_np = np.random.default_rng(404)
        sample = grid[rng_np.choice(grid.shape[0], size=50_000, replace=False)]
        deg = np.where(
            (sample != 0).any(axis=1),
            dim - 1 - np.argmax((sample != 0)[:, ::-1], axis=1),
            -1,
        )
        samplef = sample.astype(np.float64)
        for k in range(0, k_max + 1):
            mat = np.array(powers[k], dtype=np.float64)
            image = samplef @ mat.T
            assert np.array_equal(~image.any(axis=1), deg <= k - 1)
        elapsed = time.monotonic() - start
        assert elapsed < 10, f"budget exceeded: {elapsed:.1f}s"


def test_criterion_5_phi_correspondence():
    with criterion(5, "phi intertwines commutators and brackets, 200 pairs"):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(2, 5)
            a = random_monomial(rng, n)
            b = random_monomial(rng, n)
            lhs = liering.phi(comm(a.to_group(), b.to_group()))
            rhs = liering.bracket(
                liering.LieElement.from_monomial(a), liering.LieElement.from_monomial(b)
            )
            assert lhs == rhs


def test_criterion_6_central_series():
    with criterion(6, "central series: degree drop and the alpha=1 classification"):
        rng = random.Random(6)
        for n in (3, 4):
            # every monic monomial of weight up to 4, by layer, weight and multiplicities
            keys = [(lam, k) for k in range(1, n + 1) for wt in range(5)
                    for lam in enumerate_partitions(wt, k - 1)]
            for lam, k in keys:
                b = MonomialElement(1, lam, k, n)
                bg = b.to_group()
                alpha = b.tdeg()
                assert center_membership(bg, ONE) == (b.lam.is_empty and b.layer == n)
                for _ in range(50):
                    g = random_group_element(rng, n)
                    c = comm(bg, g)
                    assert c.tdeg() < alpha.successor()
                    if not c.is_identity:
                        assert center_membership(c, alpha)
            # scalar multiples of the top-layer unit stay central
            for scalar in (-3, -1, 2):
                assert center_membership(
                    GroupElement.from_layer_poly(Poly.constant(scalar), n, n), ONE
                )


def test_criterion_7_and_9_chain_steps_with_mirror():
    with criterion(7, "normalizer chain steps for n in {3,4}, i <= 6, zero unknowns"):
        start = time.monotonic()
        steps = {}
        for n in (3, 4):
            for i in range(1, 7):
                step = check_chain_step(n, i, wt_bound=2 * (i + 2))
                steps[(n, i)] = step
                assert step.closure_discards == 0, (n, i)
                assert step.unknowns == [], (n, i, step.unknowns[:5])
                assert step.member_failures == [], (n, i, step.member_failures[:5])
                assert step.outsider_passes == [], (n, i, step.outsider_passes[:5])
        elapsed = time.monotonic() - start
        assert elapsed < 300, f"budget exceeded: {elapsed:.1f}s"
    with criterion(9, "idealizer mirrors every normalizer verdict and rank counts agree"):
        for (n, i), step in steps.items():
            assert step.mirror_disagreements == [], (n, i)
            assert step.group_passes == step.lie_passes == len(enumerate_N(i, n))
            added = step.group_passes - len(enumerate_N(i - 1, n))
            assert added == verify_growth(n, i).rows[-1].total


def test_criterion_8_growth_law():
    with criterion(8, "growth law counts match the partition sums for n in {4,5}"):
        start = time.monotonic()
        _, b, c = sequences_abc(20)
        assert c[:6] == [1, 3, 7, 14, 26, 45]
        for n in (4, 5):
            report = verify_growth(n, 12)
            assert report.all_match
            for row in report.rows:
                if row.i > chains.growth_threshold(n):
                    assert row.total == c[row.r - 1]
                    for k in range(1, n + 1):
                        idx = row.r + k - n - 1
                        assert row.counts[k] == (b[idx] if idx >= 0 else 0)
        assert verify_growth(4, 1).rows[0].total == 1  # the single new square at step 1
        elapsed = time.monotonic() - start
        assert elapsed < 60, f"budget exceeded: {elapsed:.1f}s"


def test_criterion_10_regular_families():
    with criterion(10, "regular families: abelian, normal, injective, conjugacy shift"):
        start = time.monotonic()
        for n in (2, 3, 4):
            for c in range(-3, 4):
                fam = regular.make_family(c, n)
                assert regular.is_abelian(fam)
                assert regular.is_normal_in_N0(fam)
                assert regular.orbit_injectivity(fam, 2)
                top = GroupElement.delta(n, n)
                assert regular.membership_solve(top, fam) is not None
                assert center_membership(top, ONE)
            for d in range(-3, 4):
                assert regular.conjugate_family(regular.make_family(0, n), d).c == 2 * d
                assert (
                    regular.conjugate_family(regular.make_family(1, n), d).c == 2 * d + 1
                )
        elapsed = time.monotonic() - start
        assert elapsed < 60, f"budget exceeded: {elapsed:.1f}s"


def test_criterion_11_cli_contract(capsys):
    with criterion(11, "CLI chain table, JSON schema and grammar round-trip"):
        code = main(["chain", "--n", "4", "--imax", "12", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        data = json.loads(out)
        assert data["all_match"] is True
        assert len(data["rows"]) == 12
        for row in data["rows"]:
            assert set(row) == {
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
            }
            assert row["match"] is True
            assert set(row["counts"]) == {"1", "2", "3", "4"}

        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(2, 5)
            g = random_group_element(rng, n)
            assert parse_element(g.render(), n) == g
