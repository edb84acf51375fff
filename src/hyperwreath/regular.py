"""Parametric regular abelian families inside the first normalizer.

The family with parameter c is generated by the translation generators with
the first one twisted by ``c * x1`` in the top layer.  Conjugating by ``d *
x1^2`` in the top layer shifts the parameter by ``2d``, which splits the
families into the even and odd classes over the integers.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Tuple

from .budget import charge
from .chains import enumerate_N
from .partitions import Frozen, Partition
from .wreath import GroupElement, comm, conjugate


class RegularFamily(Frozen):
    """Generators of the twisted translation family with parameter c."""

    __slots__ = ("n", "c", "generators")

    def __init__(self, n: int, c: int, generators: Tuple[GroupElement, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "generators", tuple(generators))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RegularFamily)
            and self.n == other.n
            and self.generators == other.generators
        )

    def __hash__(self) -> int:
        return hash((self.n, self.generators))

    def __repr__(self) -> str:
        gens = ", ".join(g.render() for g in self.generators)
        return f"RegularFamily(n={self.n}, c={self.c}, <{gens}>)"


def make_family(c: int, n: int) -> RegularFamily:
    """The family with parameter c: first generator carries ``c*x1`` in the top
    layer alongside the layer-1 unit, the rest are plain unit constants.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    t1 = GroupElement.delta(1, n)
    if c:
        t1 = GroupElement.monomial(c, Partition.from_parts([1]), n, n) * t1
    gens: List[GroupElement] = [t1]
    gens.extend(GroupElement.delta(k, n) for k in range(2, n + 1))
    return RegularFamily(n=n, c=c, generators=tuple(gens))


def is_abelian(family: RegularFamily) -> bool:
    """All pairwise commutators of the generators vanish."""
    gens = family.generators
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if not comm(gens[i], gens[j]).is_identity:
                return False
    return True


def membership_solve(
    g: GroupElement, family: RegularFamily
) -> Optional[Tuple[int, ...]]:
    """Exponents expressing ``g`` as a product of family generator powers.

    Works layer by layer: the candidate exponent for generator i is the
    constant term of layer i of the residual, which is then divided out.
    Returns None when the residual does not reach the identity.
    """
    if g.n != family.n:
        return None
    exps: List[int] = []
    residual = g
    for i, gen in enumerate(family.generators):
        m = residual.layers[i].constant_term
        if not isinstance(m, int):
            return None
        exps.append(m)
        residual = (gen ** (-m)) * residual
    if residual.is_identity:
        return tuple(exps)
    return None


def is_normal_in_N0(family: RegularFamily) -> bool:
    """Conjugation by every first-normalizer generator keeps every family
    generator inside the family (checked on both conjugation sides).
    """
    n = family.n
    for mults, k in enumerate_N(0, n):
        s = GroupElement.monomial(1, Partition._of(mults), k, n)
        s_inv = s.inverse()
        for t in family.generators:
            for image in (conjugate(t, s), conjugate(t, s_inv)):
                if membership_solve(image, family) is None:
                    return False
    return True


def orbit_injectivity(family: RegularFamily, radius: int) -> bool:
    """The exponent grid maps injectively onto orbit points of the origin.

    Exhausts all exponent vectors with entries in [-radius, radius] and
    compares the images of zero under the corresponding products.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    n = family.n
    span = range(-radius, radius + 1)
    charge(n * len(span) ** n)  # each grid point takes n act calls
    gen_powers = [{m: gen ** m for m in span} for gen in family.generators]
    seen = set()
    for exps in itertools.product(span, repeat=n):
        # act(g * h, x) == act(h, act(g, x)): apply the powers in product order
        point = (0,) * n
        for powers, m in zip(gen_powers, exps):
            point = powers[m].act(point)
        if point in seen:
            return False
        seen.add(point)
    return True


def conjugate_family(family: RegularFamily, d: int) -> RegularFamily:
    """Conjugate every generator by ``d * x1^2`` in the top layer.

    The image is again a parametric family; the new parameter is read off the
    top layer of the conjugated first generator after normalizing away the
    central generator, and the image generators are verified to be members of
    the resulting family.
    """
    n = family.n
    if d == 0:
        return family
    s = GroupElement.monomial(d, Partition.from_parts([1, 1]), n, n)
    images = [conjugate(t, s) for t in family.generators]
    top = images[0].layers[n - 1]
    slope = top.terms.get((1,), 0)
    if not isinstance(slope, int):
        raise ValueError("conjugated generator has a non-integral twist")
    result = make_family(slope, n)
    for image in images:
        if membership_solve(image, result) is None:
            raise ValueError("conjugated generators do not land in a parametric family")
    return result
