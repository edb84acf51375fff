"""The Lie ring of partitions: basis x^lam d_k, derivation-style bracket,
and the leading-term correspondence from the wreath product.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from .ordinals import OrdinalCNF, tdeg_of_monomial
from .partitions import Frozen, Partition, check_layer, replace_part
from .polyring import monomial_text, signed_sum
from .wreath import GroupElement, MonomialElement, parse_layer_poly

LieKey = Tuple[Partition, int]  # a LieElement term: (exponent partition, layer of the derivation)
Key = Tuple[Tuple[int, ...], int]  # (its multiplicities, layer), as bracket_keys and chains take it


class LieElement(Frozen):
    """Finite integer combination of basis elements x^lam d_k."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Dict[LieKey, int] = None):
        data: Dict[LieKey, int] = {}
        for (lam, k), c in (terms or {}).items():
            if c == 0:
                continue
            check_layer(k, n, lam.max_part)
            data[(lam, k)] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", data)

    @classmethod
    def zero(cls, n: int) -> "LieElement":
        return cls(n)

    @classmethod
    def basis(cls, lam: Partition, k: int, n: int, coeff: int = 1) -> "LieElement":
        return cls(n, {(lam, k): coeff})

    @classmethod
    def from_monomial(cls, m: MonomialElement) -> "LieElement":
        return cls(m.n, {(m.lam, m.layer): m.coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "LieElement") -> "LieElement":
        if self.n != other.n:
            raise ValueError("mismatched n")
        data = dict(self.terms)
        for key, c in other.terms.items():
            s = data.get(key, 0) + c
            if s == 0:
                data.pop(key, None)
            else:
                data[key] = s
        return LieElement(self.n, data)

    def __neg__(self) -> "LieElement":
        return LieElement(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "LieElement") -> "LieElement":
        return self + (-other)

    def tdeg(self) -> OrdinalCNF:
        best = OrdinalCNF()
        for lam, k in self.terms:
            t = tdeg_of_monomial(lam, k, self.n)
            if t > best:
                best = t
        return best

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LieElement)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

    def sorted_terms(self) -> List[Tuple[LieKey, int]]:
        return sorted(
            self.terms.items(),
            key=lambda t: tdeg_of_monomial(t[0][0], t[0][1], self.n),
            reverse=True,
        )

    def render(self) -> str:
        """Canonical text, e.g. ``2*x1^2 d3 + x2 d4``; zero renders as ``0``."""
        pieces: List[Tuple[int, str]] = []
        for (lam, k), c in self.sorted_terms():
            head = monomial_text(abs(c), lam.mults)
            pieces.append((c, f"d{k}" if head == "1" else f"{head} d{k}"))
        return signed_sum(pieces)

    def __repr__(self) -> str:
        return f"LieElement({self.render()!r}, n={self.n})"

    def __str__(self) -> str:
        return self.render()


def bracket_keys(a: Key, b: Key) -> Tuple[int, Key]:
    """Bracket of two basis elements; returns (coefficient, key), coefficient 0 for zero.

    [x^lam d_k, x^theta d_j] is the derivative of one side applied to the
    other: d_j(x^lam) x^theta d_k when j < k, the mirrored expression with a
    minus sign when j > k, and zero on equal layers.  The keys are taken as
    valid, as ``LieElement`` terms and checked chain keys are.
    """
    (lam, k), (theta, j) = a, b
    if j == k:
        return 0, a
    if j < k:
        mult = lam[j - 1] if j <= len(lam) else 0
        if mult == 0:
            return 0, a
        return mult, (replace_part(lam, j, theta), k)
    mult = theta[k - 1] if k <= len(theta) else 0
    if mult == 0:
        return 0, a
    return -mult, (replace_part(theta, k, lam), j)


def bracket(a: LieElement, b: LieElement) -> LieElement:
    """Bilinear extension of the basis bracket."""
    if a.n != b.n:
        raise ValueError("mismatched n")
    data: Dict[LieKey, int] = {}
    for (lam, k), ca in a.terms.items():
        for (theta, j), cb in b.terms.items():
            coeff, (mults, layer) = bracket_keys((lam.mults, k), (theta.mults, j))
            if coeff == 0:
                continue
            key = (Partition._of(mults), layer)
            s = data.get(key, 0) + ca * cb * coeff
            if s == 0:
                data.pop(key, None)
            else:
                data[key] = s
    return LieElement(a.n, data)


def phi(g: GroupElement) -> LieElement:
    """Leading-term correspondence into the Lie ring; the identity maps to zero.

    Defined through the leading constituent only: no additivity beyond that
    is claimed, just compatibility with commutators.
    """
    if g.is_identity:
        return LieElement.zero(g.n)
    return LieElement.from_monomial(g.leading_term())


_LIE_TERM_RE = re.compile(r"^\s*(.*?)\s*d(\d+)\s*$")


def parse_lie(text: str, n: int) -> LieElement:
    """Parse the canonical Lie element text form."""
    text = text.strip()
    if text == "0":
        return LieElement.zero(n)
    sign = 1
    if text.startswith("-"):
        sign = -1
        text = text[1:].strip()
    pieces = re.split(r"\s+([+-])\s+", text)
    chunks: List[Tuple[int, str]] = [(sign, pieces[0])]
    for op, term in zip(pieces[1::2], pieces[2::2]):
        chunks.append((-1 if op == "-" else 1, term))
    acc = LieElement.zero(n)
    for sgn, chunk in chunks:
        m = _LIE_TERM_RE.match(chunk)
        if not m:
            raise ValueError(f"bad Lie term: {chunk!r}")
        k = int(m.group(2))
        poly = parse_layer_poly(m.group(1).strip() or "1", k, n)
        if len(poly.terms) != 1:
            raise ValueError(f"Lie term must be a single monomial: {chunk!r}")
        (exps, coeff), = poly.terms.items()
        if not isinstance(coeff, int):
            raise ValueError(f"Lie coefficients are integers: {chunk!r}")
        acc = acc + LieElement.basis(Partition(exps), k, n, coeff=sgn * coeff)
    return acc
