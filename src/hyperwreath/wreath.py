"""The iterated wreath product of n copies of the integers, polynomial base.

Elements are layer tuples ``(f_0, ..., f_{n-1})`` where ``f_{k-1}`` is an
integral polynomial in x_1..x_{k-1} (``f_0`` a constant).  The group acts on
integer n-tuples on the right:

    x . g = (x_1 - f_0, x_2 - f_1(x_1), ..., x_n - f_{n-1}(x_1, ..., x_{n-1}))

with every layer evaluated at the original coordinates.  The product is fixed
by the right-action contract ``act(g * h, x) == act(h, act(g, x))`` (g applied
first); the layer formula below is derived from it, not assumed.

Commutators follow [a, b] = a^-1 b^-1 a b throughout.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial
from typing import List, Optional, Sequence, Tuple

from .budget import charge
from .ordinals import ZERO, OrdinalCNF, tdeg_of_monomial
from .partitions import Frozen, Partition, check_index, check_layer, replace_part
from .polyring import (Poly, PowerTable, Terms, _add_substituted, _norm_coeff, monomial_text,
                       parse_poly, signed_sum)


class MonomialElement(Frozen):
    """A single-term base-layer element ``coeff * x^lam Delta_layer``."""

    __slots__ = ("coeff", "lam", "layer", "n")

    def __init__(self, coeff: int, lam: Partition, layer: int, n: int):
        if coeff == 0:
            raise ValueError("monomial elements have nonzero coefficient")
        if not isinstance(coeff, int):
            raise ValueError("monomial coefficients are integers")
        check_layer(layer, n, lam.max_part)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "layer", layer)
        object.__setattr__(self, "n", n)

    def tdeg(self) -> OrdinalCNF:
        return tdeg_of_monomial(self.lam, self.layer, self.n)

    def to_group(self) -> "GroupElement":
        return GroupElement.from_layer_poly(
            Poly.monomial(self.coeff, self.lam.mults), self.layer, self.n
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialElement)
            and self.coeff == other.coeff
            and self.lam == other.lam
            and self.layer == other.layer
            and self.n == other.n
        )

    def __hash__(self) -> int:
        return hash((self.coeff, self.lam, self.layer, self.n))

    def render(self) -> str:
        body = monomial_text(abs(self.coeff), self.lam.mults)
        return f"[{signed_sum([(self.coeff, body)])}]D{self.layer}"

    def __repr__(self) -> str:
        return f"MonomialElement({self.render()!r}, n={self.n})"


class GroupElement(Frozen):
    """An element of the wreath product, stored as its layer tuple.

    ``_plan`` holds the evaluation plan ``act`` builds on its first call; it
    is not part of the value, so equality and hashing ignore it.
    """

    __slots__ = ("n", "layers", "_plan")

    def __init__(self, n: int, layers: Sequence[Poly]):
        check_index(n, 1, "n")
        layers = tuple(layers)
        if len(layers) != n:
            raise ValueError(f"expected {n} layers, got {len(layers)}")
        for k, f in enumerate(layers, start=1):
            if not f.is_integral:
                raise ValueError(f"layer {k} is not integral: {f}")
            check_layer(k, n, f.nvars)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "_plan", None)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, n: int, layers: Tuple[Poly, ...]) -> "GroupElement":
        """Wrap layers that are valid by construction, such as the result of
        a group operation on valid elements."""
        out = cls.__new__(cls)
        object.__setattr__(out, "n", n)
        object.__setattr__(out, "layers", layers)
        object.__setattr__(out, "_plan", None)
        return out

    @classmethod
    def identity(cls, n: int) -> "GroupElement":
        check_index(n, 1, "n")
        return cls._of(n, (Poly.zero(),) * n)

    @classmethod
    def from_layer_poly(cls, f: Poly, k: int, n: int) -> "GroupElement":
        check_layer(k, n, f.nvars)
        layers = [Poly.zero()] * n
        layers[k - 1] = f
        return cls(n, layers)

    @classmethod
    def delta(cls, k: int, n: int) -> "GroupElement":
        """The unit constant element in layer k."""
        return cls.from_layer_poly(Poly.constant(1), k, n)

    @classmethod
    def monomial(cls, coeff: int, lam: Partition, k: int, n: int) -> "GroupElement":
        return MonomialElement(coeff, lam, k, n).to_group()

    @property
    def is_identity(self) -> bool:
        return all(f.is_zero for f in self.layers)

    # -- the permutation action --------------------------------------------

    def act(self, x: Sequence[int]) -> Tuple[int, ...]:
        """Image of the point ``x`` under this element."""
        if len(x) < self.n:
            raise ValueError(f"need {self.n} coordinates")
        plan = self._plan
        if plan is None:
            # each layer's (coeff, ((j, p), ...)) pairs, zero exponents dropped
            plan = tuple(
                tuple((c, tuple((j, p) for j, p in enumerate(e) if p)) for e, c in f.terms.items())
                for f in self.layers
            )
            object.__setattr__(self, "_plan", plan)
        # layer k uses only x_1..x_{k-1}
        out = []
        for xk, layer in zip(x, plan):
            total = 0
            for c, factors in layer:
                for j, p in factors:
                    c *= x[j] ** p
                total += c
            out.append(xk - (total if type(total) is int else _norm_coeff(total)))
        return tuple(out)

    # -- group operations ----------------------------------------------------

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        """Product with ``self`` acting first: act(self*other, x) = act(other, act(self, x))."""
        if not isinstance(other, GroupElement):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("elements live in different groups")
        charge(self.n)  # one unit per layer, besides the products of its terms
        # x_i - f_{i-1}, the action of self on coordinates, with its powers
        shifted = PowerTable()
        moved = False  # whether some image so far is not its own variable
        out: List[Poly] = []
        for f, g in zip(self.layers, other.layers):
            if not g.terms:
                out.append(f)
            elif not (moved or f.terms):
                out.append(g)
            else:
                terms = dict(f.terms)
                _add_substituted(terms, g.terms, shifted, 1)
                out.append(Poly._of(terms))
            shifted.shift(f.terms)
            moved = moved or bool(f.terms)
        return GroupElement._of(self.n, tuple(out))

    def inverse(self) -> "GroupElement":
        """Triangular back-substitution: recover original coordinates layer by layer."""
        charge(self.n)  # one unit per layer, besides the products of its terms
        original = PowerTable()  # x_i expressed in the moved coordinates
        out: List[Poly] = []
        for f in self.layers:
            if f.terms:
                layer: Terms = {}  # minus f in the moved coordinates
                _add_substituted(layer, f.terms, original, -1)
                f = Poly._of(layer)
            out.append(f)
            original.shift(f.terms)
        return GroupElement._of(self.n, tuple(out))

    def __pow__(self, power: int) -> "GroupElement":
        if isinstance(power, int) and power < 0:
            return self.inverse() ** (-power)
        check_index(power, 0, "the exponent of a group element")
        result: Optional[GroupElement] = None  # the identity, until the first factor
        base = self
        while power:
            if power & 1:
                result = base if result is None else result * base
            power >>= 1
            if power:
                base = base * base
        return GroupElement.identity(self.n) if result is None else result

    # -- monomial decomposition and grading ----------------------------------

    def decompose(self) -> List[MonomialElement]:
        """All monomial constituents, sorted by strictly descending transfinite degree.

        Reassembling the constituents layer by layer (descending-layer
        product) reproduces the element exactly.
        """
        out: List[MonomialElement] = []
        for k in range(1, self.n + 1):
            for e, c in self.layers[k - 1].terms.items():
                out.append(MonomialElement(c, Partition._of(e), k, self.n))
        out.sort(key=lambda m: m.tdeg(), reverse=True)
        return out

    def tdeg(self) -> OrdinalCNF:
        """Transfinite degree: zero for the identity, else the leading constituent's.

        A layer-k constituent carries omega^k (when k < n), which no constituent
        of a higher layer reaches, so the lowest nonzero layer holds the leading
        one.  Within a layer the degrees order as the exponent tuples do, read
        from the highest variable down: by length, then by reversed entries.
        """
        for k, f in enumerate(self.layers, start=1):
            if f.terms:
                top = max(f.terms, key=lambda e: (len(e), e[::-1]))
                return tdeg_of_monomial(Partition._of(top), k, self.n)
        return ZERO

    def leading_term(self) -> MonomialElement:
        """The unique constituent of maximal transfinite degree."""
        if self.is_identity:
            raise ValueError("the identity has no leading term")
        return self.decompose()[0]

    # -- equality, rendering ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupElement)
            and self.n == other.n
            and self.layers == other.layers
        )

    def __hash__(self) -> int:
        return hash((self.n, self.layers))

    def render(self) -> str:
        """Canonical text: descending layers, e.g. ``[x1]D2 * [3]D1``; identity is ``1``."""
        chunks = [
            f"[{self.layers[k - 1].render()}]D{k}"
            for k in range(self.n, 0, -1)
            if not self.layers[k - 1].is_zero
        ]
        return " * ".join(chunks) if chunks else "1"

    def __repr__(self) -> str:
        return f"GroupElement({self.render()!r}, n={self.n})"

    def __str__(self) -> str:
        return self.render()


def comm(g: GroupElement, h: GroupElement) -> GroupElement:
    """Commutator g^-1 h^-1 g h."""
    return g.inverse() * h.inverse() * g * h


def conjugate(g: GroupElement, by: GroupElement) -> GroupElement:
    """Conjugate ``by * g * by^-1``."""
    return by * g * by.inverse()


def comm_formula(f: Poly, k: int, g: Poly, u: int, n: int) -> GroupElement:
    """Closed form of the commutator of two base-layer elements.

    For k > u the result is the difference of ``f`` along x_u with increment
    ``g``, placed back in layer k; for u > k the mirrored expression with a
    sign flip; equal layers commute.
    """
    if k == u:
        return GroupElement.identity(n)
    if k > u:
        return GroupElement.from_layer_poly(f.difference(u, g), k, n)
    return GroupElement.from_layer_poly(-(g.difference(k, f)), u, n)


def taylor_comm(f: Poly, k: int, g: Poly, u: int, n: int) -> GroupElement:
    """Commutator via the exact Taylor expansion, for u < k.

    Sums ``(1/s!) d^s f / dx_u^s * g^s`` over s >= 1 with rational scratch
    arithmetic; the result must come out integral and is validated by the
    element constructor.
    """
    if not u < k:
        raise ValueError("taylor_comm requires u < k")
    acc = Poly.zero()
    deriv = f
    g_pow = Poly.constant(1)
    s = 0
    while True:
        deriv = deriv.partial_derivative(u)
        if deriv.is_zero:
            break
        s += 1
        g_pow = g_pow * g
        acc = acc + deriv * g_pow * Fraction(1, factorial(s))
    return GroupElement.from_layer_poly(acc, k, n)


def leading_of_monomial_comm(
    lam: Partition, k: int, theta: Partition, u: int, n: int
) -> Optional[MonomialElement]:
    """Leading term of the commutator of two monic monomials with k > u.

    Equals ``lam_u * x^(lam - e_u) x^theta Delta_k``; when the partition has
    no part equal to u the commutator is the identity and None is returned.
    """
    if not k > u:
        raise ValueError("requires k > u")
    mult = lam.multiplicity(u)
    if mult == 0:
        return None
    return MonomialElement(mult, Partition._of(replace_part(lam.mults, u, theta.mults)), k, n)


_FACTOR_RE = re.compile(r"\s*\[([^\]]*)\]D(\d+)\s*")


def parse_layer_poly(text: str, k: int, n: int) -> Poly:
    """Parse the polynomial of a layer-``k`` term, which may use x1..x(k-1).

    The layer and the variable indices are checked before ``parse_poly``
    builds an exponent tuple as long as the largest index.
    """
    check_layer(k, n, max(map(int, re.findall(r"x(\d+)", text)), default=0))
    return parse_poly(text)


def parse_element(text: str, n: int) -> GroupElement:
    """Parse the canonical element text as a product of base-layer factors.

    Factors multiply left to right with the group product, so the canonical
    descending-layer rendering round-trips exactly.
    """
    text = text.strip()
    if text in ("1", ""):
        return GroupElement.identity(n)
    acc: Optional[GroupElement] = None
    pos = 0
    while pos < len(text):
        if acc is not None:
            m = re.match(r"\s*\*\s*", text[pos:])
            if not m:
                raise ValueError(f"expected '*' at position {pos} in element {text!r}")
            pos += m.end()
        m = _FACTOR_RE.match(text, pos)
        if not m:
            raise ValueError(f"expected '[poly]Dk' at position {pos} in element {text!r}")
        k = int(m.group(2))
        factor = GroupElement.from_layer_poly(parse_layer_poly(m.group(1), k, n), k, n)
        acc = factor if acc is None else acc * factor
        pos = m.end()
    return acc
