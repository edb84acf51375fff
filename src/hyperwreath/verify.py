"""Randomized and exhaustive invariant suites behind the ``verify`` command.

Every suite is deterministic given a seed and returns a list of named
pass/fail results; the CLI renders them and turns failures into exit codes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from . import chains, liering, regular, wreath
from .ordinals import OrdinalCNF
from .partitions import EMPTY, Partition, enumerate_partitions
from .polyring import Poly, Terms


@dataclass
class PropertyResult:
    name: str
    passed: bool = True
    detail: str = ""

    def fail(self, detail: str) -> None:
        """Mark the property failed, keeping the first failing sample's detail."""
        if self.passed:
            self.passed = False
            self.detail = detail


# -- random generators ---------------------------------------------------------


@lru_cache(maxsize=1024)
def _partition_options(wt: int, max_part: int) -> Tuple[Partition, ...]:
    """The partitions of ``wt`` with parts at most ``max_part``, in enumeration order."""
    return tuple(enumerate_partitions(wt, max_part))


def random_partition(rng: random.Random, max_part: int, max_wt: int) -> Partition:
    if max_part < 1 or max_wt < 1:
        return EMPTY
    wt = rng.randint(0, max_wt)
    return rng.choice(_partition_options(wt, max_part))


# Nonzero coefficients of sampled monomials and group elements.
_COEFFS = [c for c in range(-5, 6) if c]


def random_monomial(
    rng: random.Random,
    n: int,
    max_wt: int = 4,
    monic: bool = False,
    layer: Optional[int] = None,
) -> wreath.MonomialElement:
    k = layer if layer is not None else rng.randint(1, n)
    lam = random_partition(rng, k - 1, max_wt)
    coeff = 1 if monic else rng.choice(_COEFFS)
    return wreath.MonomialElement(coeff, lam, k, n)


def random_group_element(rng: random.Random, n: int) -> wreath.GroupElement:
    """Up to three terms of weight at most 4 in each layer.

    Each layer is summed as a term dict: a partition with parts below ``k`` is
    a valid layer-``k`` exponent and the coefficients are ints, so the result
    is valid by construction.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    layers: List[Poly] = []
    for k in range(1, n + 1):
        terms: Terms = {}
        for _ in range(rng.randint(0, 3)):
            e = random_partition(rng, k - 1, 4).mults
            c = terms.get(e, 0) + rng.choice(_COEFFS)
            if c:
                terms[e] = c
            else:
                del terms[e]
        layers.append(Poly._of(terms))
    return wreath.GroupElement._of(n, tuple(layers))


# -- suites -------------------------------------------------------------------


def suite_group(seed: int, triples: int = 200, ns: Sequence[int] = (2, 3, 4, 5)) -> List[PropertyResult]:
    """Group axioms and the right-action contract on random elements."""
    rng = random.Random(seed)
    assoc = PropertyResult("associativity")
    inverse = PropertyResult("two-sided inverse")
    action = PropertyResult("act(g*h, x) == act(h, act(g, x))")
    for n in ns:
        ident = wreath.GroupElement.identity(n)
        for idx in range(triples):
            g = random_group_element(rng, n)
            h = random_group_element(rng, n)
            k = random_group_element(rng, n)
            gh = g * h
            if gh * k != g * (h * k):
                assoc.fail(f"associativity broke at n={n} sample {idx}")
            gi = g.inverse()
            if g * gi != ident or gi * g != ident:
                inverse.fail(f"inverse broke at n={n} sample {idx}")
            for _ in range(20):
                x = tuple(rng.randint(-6, 6) for _ in range(n))
                if gh.act(x) != h.act(g.act(x)):
                    action.fail(f"action contract broke at n={n} sample {idx}")
                    break
    return [assoc, inverse, action]


def suite_formulas(seed: int, pairs: int = 200, ns: Sequence[int] = (2, 3, 4, 5)) -> List[PropertyResult]:
    """Commutator case split, Taylor expansion and the leading-term law."""
    rng = random.Random(seed)
    split = PropertyResult("comm equals case-split formula")
    taylor = PropertyResult("case-split formula equals taylor sum")
    leading = PropertyResult("leading term of monomial commutators")
    degree = PropertyResult("k-fold differences detect degree")

    for idx in range(pairs):
        n = rng.choice(list(ns))
        a = random_monomial(rng, n)
        b = random_monomial(rng, n)
        fa = Poly.monomial(a.coeff, a.lam.mults)
        fb = Poly.monomial(b.coeff, b.lam.mults)
        formula = wreath.comm_formula(fa, a.layer, fb, b.layer, n)
        if wreath.comm(a.to_group(), b.to_group()) != formula:
            split.fail(f"case split broke on {a.render()} , {b.render()}")
        if a.layer > b.layer and wreath.taylor_comm(fa, a.layer, fb, b.layer, n) != formula:
            taylor.fail(f"taylor broke on {a.render()} , {b.render()}")

    for _ in range(pairs):
        n = rng.choice([v for v in ns if v >= 2])
        k = rng.randint(2, n)
        u = rng.randint(1, k - 1)
        lam = random_partition(rng, k - 1, 5)
        if lam.multiplicity(u) == 0:
            lam = lam.combine(Partition.from_parts([u]))
        theta = random_partition(rng, u - 1, 4)
        predicted = wreath.leading_of_monomial_comm(lam, k, theta, u, n)
        actual = wreath.comm(
            wreath.GroupElement.monomial(1, lam, k, n),
            wreath.GroupElement.monomial(1, theta, u, n),
        ).leading_term()
        if predicted != actual:
            leading.fail(f"leading term broke at lam={lam}, k={k}, theta={theta}, u={u}")

    # finite differences on a sampled coefficient grid
    for d in range(0, 9):
        coeffs = [0] * d + [1]
        f = Poly({(i,): c for i, c in enumerate(coeffs) if c})
        steps = 0
        while not f.is_zero and steps <= 10:
            f = f.difference(1, 1)
            steps += 1
        if steps != d + 1:
            degree.fail(f"monomial of degree {d} vanished after {steps} differences")
    for _ in range(300):
        deg = rng.randint(0, 8)
        coeffs = [rng.randint(-2, 2) for _ in range(deg + 1)]
        f = Poly({(i,): c for i, c in enumerate(coeffs) if c})
        true_deg = max((i for i, c in enumerate(coeffs) if c), default=-1)
        g = f
        for k in range(1, 11):
            g = g.difference(1, 1)
            if g.is_zero != (true_deg <= k - 1):
                degree.fail(f"difference order broke for coeffs {coeffs} at k={k}")
                break
    return [split, taylor, leading, degree]


def suite_phi(seed: int, pairs: int = 200, ns: Sequence[int] = (2, 3, 4, 5)) -> List[PropertyResult]:
    """Bracket laws and the leading-term correspondence on commutators."""
    rng = random.Random(seed)
    intertwines = PropertyResult("phi intertwines commutator and bracket")
    laws = PropertyResult("bracket is alternating, bilinear, jacobi")

    for _ in range(pairs):
        n = rng.choice(list(ns))
        a = random_monomial(rng, n)
        b = random_monomial(rng, n)
        lhs = liering.phi(wreath.comm(a.to_group(), b.to_group()))
        rhs = liering.bracket(liering.LieElement.from_monomial(a), liering.LieElement.from_monomial(b))
        if lhs != rhs:
            intertwines.fail(f"correspondence broke on {a.render()} , {b.render()}")

    for _ in range(100):
        n = rng.choice(list(ns))
        a = liering.LieElement.from_monomial(random_monomial(rng, n))
        b = liering.LieElement.from_monomial(random_monomial(rng, n))
        c = liering.LieElement.from_monomial(random_monomial(rng, n))
        if not liering.bracket(a, a).is_zero:
            laws.fail("alternating law broke")
        lin = liering.bracket(a + b, c) - (liering.bracket(a, c) + liering.bracket(b, c))
        if not lin.is_zero:
            laws.fail("bilinearity broke")
        jac = (
            liering.bracket(a, liering.bracket(b, c))
            + liering.bracket(b, liering.bracket(c, a))
            + liering.bracket(c, liering.bracket(a, b))
        )
        if not jac.is_zero:
            laws.fail("jacobi identity broke")
    return [intertwines, laws]


def _center_keys(n: int) -> Iterator[Tuple[Partition, int]]:
    """The keys ``(partition, layer)`` of the monic monomials of ``W_n`` of
    weight up to 4, ordered by layer, weight and multiplicities."""
    return ((lam, k) for k in range(1, n + 1)
            for wt in range(5) for lam in enumerate_partitions(wt, k - 1))


def suite_centers(seed: int, ns: Sequence[int] = (3, 4)) -> List[PropertyResult]:
    """Central-series drop of commutators and the description of the center."""
    rng = random.Random(seed)
    drop = PropertyResult("commutator drops transfinite degree")
    center = PropertyResult("degree-zero monomials are exactly the top-layer constants")
    one = OrdinalCNF.from_int(1)
    for n in ns:
        for lam, k in _center_keys(n):
            b = wreath.MonomialElement(1, lam, k, n)
            bg = b.to_group()
            alpha = b.tdeg()
            above = alpha.successor()
            if chains.center_membership(bg, one) != (b.lam.is_empty and b.layer == n):
                center.fail(f"center classification broke at {b.render()}, n={n}")
            for _ in range(50):
                c = wreath.comm(bg, random_group_element(rng, n))
                t = c.tdeg()
                if not t < above:
                    drop.fail(f"degree did not drop for {b.render()} at n={n}")
                if not c.is_identity and not t < alpha:
                    drop.fail(f"strict drop failed for {b.render()} at n={n}")
    return [drop, center]


def suite_chain(
    seed: int,
    ns: Sequence[int] = (3, 4),
    i_max: int = 6,
    wt_bound: Optional[int] = None,
) -> List[PropertyResult]:
    """Normalizer chain steps plus the growth law and the idealizer mirror."""
    results: List[PropertyResult] = []
    for n in ns:
        for i in range(1, i_max + 1):
            step = chains.check_chain_step(n, i, wt_bound=wt_bound)
            res = PropertyResult(f"normalizer step n={n} i={i} (bound {step.wt_bound})")
            if not step.ok:
                res.fail(
                    f"member_failures={step.member_failures[:3]} "
                    f"outsider_passes={step.outsider_passes[:3]} "
                    f"unknowns={step.unknowns[:3]} "
                    f"mirror={step.mirror_disagreements[:3]}"
                )
            results.append(res)
    for n in (4, 5):
        res = PropertyResult(f"growth law n={n} i<=12")
        if not chains.verify_growth(n, 12).all_match:
            res.fail("see chain report")
        results.append(res)
    return results


def suite_regular(
    seed: int, ns: Sequence[int] = (2, 3, 4), c_range: Tuple[int, int] = (-3, 3), radius: int = 2
) -> List[PropertyResult]:
    """Family axioms: abelian, normal, orbit-injective, and the conjugacy shift."""
    abelian = PropertyResult("families are abelian")
    normal = PropertyResult("families are normal under step-0 generators")
    orbit = PropertyResult("orbit map is injective on the exponent grid")
    center = PropertyResult("families contain the central generator")
    conj = PropertyResult("conjugation shifts the parameter by 2d")
    lo, hi = c_range
    for n in ns:
        for c in range(lo, hi + 1):
            fam = regular.make_family(c, n)
            if not regular.is_abelian(fam):
                abelian.fail(f"family c={c} n={n} not abelian")
            if not regular.is_normal_in_N0(fam):
                normal.fail(f"family c={c} n={n} not normal")
            if not regular.orbit_injectivity(fam, radius):
                orbit.fail(f"family c={c} n={n} not orbit-injective")
            if regular.membership_solve(wreath.GroupElement.delta(n, n), fam) is None:
                center.fail(f"top-layer unit missing from family c={c} n={n}")
        for d in range(lo, hi + 1):
            if regular.conjugate_family(regular.make_family(0, n), d).c != 2 * d:
                conj.fail(f"even-class conjugation broke at d={d}, n={n}")
            if regular.conjugate_family(regular.make_family(1, n), d).c != 2 * d + 1:
                conj.fail(f"odd-class conjugation broke at d={d}, n={n}")
    return [abelian, normal, orbit, center, conj]


SUITES: Dict[str, Callable[..., List[PropertyResult]]] = {
    "group": suite_group,
    "formulas": suite_formulas,
    "phi": suite_phi,
    "centers": suite_centers,
    "chain": suite_chain,
    "regular": suite_regular,
}


def run_suite(name: str, seed: int, **kwargs) -> List[PropertyResult]:
    if name == "all":
        if kwargs:
            raise TypeError(f"suite all runs every suite at its defaults and takes no {', '.join(kwargs)}")
        out: List[PropertyResult] = []
        for key in SUITES:
            out.extend(SUITES[key](seed))
        return out
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](seed, **kwargs)
