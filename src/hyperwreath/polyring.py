"""Sparse multivariate polynomials with exact coefficients.

Terms map trimmed exponent tuples to nonzero coefficients.  Coefficients are
Python ints whenever the value is an integer and ``Fraction`` otherwise, so
group-level data stays in fast integer arithmetic while scratch values (the
factorial divisions of the Taylor expansion) remain exact.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import add
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .budget import charge
from .partitions import Frozen, check_index, check_layer

Coeff = Union[int, Fraction]
Expo = Tuple[int, ...]
Terms = Dict[Expo, Coeff]


def _norm_coeff(c: Coeff) -> Coeff:
    if type(c) is int:
        return c
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def _check_coeff(c: Coeff) -> Coeff:
    """The one check of a coefficient from outside: an int or a Fraction, normalized."""
    if not isinstance(c, (int, Fraction)):
        raise ValueError(f"polynomial coefficients must be int or Fraction, got {c!r}")
    return _norm_coeff(c)


def _trim(e: Sequence[int]) -> Expo:
    """The one check of an exponent tuple: non-negative ints, trailing zeros dropped."""
    e = tuple(e)
    if not all(isinstance(v, int) and v >= 0 for v in e):
        raise ValueError(f"exponents must be non-negative integers, got {list(e)}")
    while e and e[-1] == 0:
        e = e[:-1]
    return e


def _mul_terms(a: Terms, b: Terms) -> Terms:
    """Product of two term dicts that are trimmed, nonzero and normalized.

    Exponent sums stay trimmed: the longer tuple ends in a nonzero entry.
    """
    charge(len(a) * len(b))
    out: Terms = {}
    get = out.get
    for e1, c1 in a.items():
        n1 = len(e1)
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            if n1 != len(e2):
                e += e1[len(e2):] if n1 > len(e2) else e2[n1:]
            s = get(e, 0) + c1 * c2
            if s:
                out[e] = s if type(s) is int else _norm_coeff(s)
            else:
                del out[e]
    return out


class Poly(Frozen):
    """Immutable sparse polynomial in variables x1, x2, ..."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[Expo, Coeff]] = None):
        data: Dict[Expo, Coeff] = {}
        for e, c in (terms or {}).items():
            e = _trim(e)
            c = data.get(e, 0) + _check_coeff(c)
            if c == 0:
                data.pop(e, None)
            else:
                data[e] = _norm_coeff(c)
        object.__setattr__(self, "terms", data)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, terms: Dict[Expo, Coeff]) -> "Poly":
        """Wrap terms that are already trimmed, nonzero and normalized."""
        out = cls.__new__(cls)
        object.__setattr__(out, "terms", terms)
        return out

    @classmethod
    def zero(cls) -> "Poly":
        return cls._of({})

    @classmethod
    def constant(cls, c: Coeff) -> "Poly":
        c = _check_coeff(c)
        return cls._of({(): c} if c else {})

    @classmethod
    def variable(cls, j: int) -> "Poly":
        """The variable x_j (1-indexed)."""
        check_index(j, 1, "variable index")
        return cls._of({(0,) * (j - 1) + (1,): 1})

    @classmethod
    def monomial(cls, coeff: Coeff, exponents: Sequence[int]) -> "Poly":
        return cls({tuple(exponents): coeff})

    # -- inspection ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def nvars(self) -> int:
        return max(map(len, self.terms), default=0)

    @property
    def constant_term(self) -> Coeff:
        return self.terms.get((), 0)

    @property
    def is_integral(self) -> bool:
        """True when every coefficient is an integer."""
        return all(isinstance(c, int) for c in self.terms.values())

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: Union["Poly", Coeff]) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.constant(other)
        data = dict(self.terms)
        for e, c in other.terms.items():
            s = data.get(e, 0) + c
            if s == 0:
                data.pop(e, None)
            else:
                data[e] = _norm_coeff(s)
        return Poly._of(data)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._of({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: Union["Poly", Coeff]) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.constant(other)
        return self + (-other)

    def __mul__(self, other: Union["Poly", Coeff]) -> "Poly":
        if not isinstance(other, Poly):
            other = _check_coeff(other)
            if other == 0:
                return Poly.zero()
            return Poly._of({e: _norm_coeff(c * other) for e, c in self.terms.items()})
        return Poly._of(_mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "Poly":
        check_index(power, 0, "the exponent of a polynomial")
        result: Terms = {(): 1}
        base = self.terms
        while power:
            if power & 1:
                result = _mul_terms(result, base)
            power >>= 1
            if power:
                base = _mul_terms(base, base)
        return Poly._of(result)

    # -- calculus and composition -------------------------------------------

    def partial_derivative(self, j: int) -> "Poly":
        """Formal partial derivative with respect to x_j."""
        check_index(j, 1, "variable index")
        data: Dict[Expo, Coeff] = {}
        for e, c in self.terms.items():
            if len(e) < j or e[j - 1] == 0:
                continue
            ne = list(e)
            ne[j - 1] -= 1
            data[_trim(ne)] = _norm_coeff(c * e[j - 1])
        return Poly._of(data)

    def substitute(self, subs: Sequence[Union["Poly", Coeff]]) -> "Poly":
        """Exact composition: replace x_j by subs[j-1] for every variable of self."""
        nv = self.nvars
        if len(subs) < nv:
            raise ValueError(f"need {nv} substitutions, got {len(subs)}")
        table = PowerTable()
        for image in subs[:nv]:
            table.append((image if isinstance(image, Poly) else Poly.constant(image)).terms)
        out: Terms = {}
        _add_substituted(out, self.terms, table, 1)
        return Poly._of(out)

    def difference(self, j: int, h: Union["Poly", Coeff]) -> "Poly":
        """Finite difference along x_j with increment ``h``: p(x + h e_j) - p(x).

        As in layer ``j``, the increment may use only x_1..x_{j-1}.
        """
        hp = h if isinstance(h, Poly) else Poly.constant(h)
        check_layer(j, j, hp.nvars)
        images = [Poly.variable(i) for i in range(1, max(self.nvars, j) + 1)]
        images[j - 1] = images[j - 1] + hp
        return self.substitute(images) - self

    def evaluate(self, point: Sequence[Coeff]) -> Coeff:
        """Exact value at an integer or rational point."""
        for v in point:
            if not isinstance(v, (int, Fraction)):
                raise ValueError(f"coordinates must be int or Fraction, got {v!r}")
        if len(point) < self.nvars:
            raise ValueError(f"need {self.nvars} coordinates, got {len(point)}")
        total: Coeff = 0
        for e, c in self.terms.items():
            v = c
            for j, exp in enumerate(e):
                if exp:
                    v *= point[j] ** exp
            total += v
        return _norm_coeff(total)

    # -- hashing, equality, rendering ----------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def sorted_terms(self) -> List[Tuple[Expo, Coeff]]:
        """Terms in graded-lex descending order (the canonical print order)."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def render(self) -> str:
        return signed_sum((c, monomial_text(abs(c), e)) for e, c in self.sorted_terms())

    def __repr__(self) -> str:
        return f"Poly({self.render()!r})"

    def __str__(self) -> str:
        return self.render()


class PowerTable:
    """Powers of substitution images, each computed on first use.

    ``_add_substituted`` substitutes through a table into a given term dict.
    Handing one table to several substitutions, such as the layers of one
    group product, computes each power of each image once.  An image is given
    by its terms (``append``) or, as in a group product or inverse, as the
    shifted variable ``x_{j+1} - f`` by the terms of ``f`` (``shift``).  A
    shifted image is built only when a power of it is first used, and a power
    of a bare variable (``f = 0``) is its one monomial, built with no term
    product.
    """

    __slots__ = ("_powers", "_moves")

    def __init__(self):
        # per image: None for a bare variable, else its powers so far
        self._powers: List[Optional[List[Terms]]] = []
        self._moves: Dict[int, Terms] = {}  # f of each shifted image not yet built

    def append(self, terms: Terms) -> None:
        """Append an image given by terms that are trimmed, nonzero and normalized."""
        self._powers.append([{(): 1}, terms])

    def shift(self, terms: Terms) -> None:
        """Append the image ``x_{j+1} - f``, where ``j`` images precede it and
        ``terms``, trimmed and normalized, give ``f`` in x_1..x_j."""
        if terms:
            self._moves[len(self._powers)] = terms
            self._powers.append([{(): 1}])
        else:
            self._powers.append(None)

    def power(self, j: int, e: int) -> Terms:
        """Terms of image ``j`` (from 0) to the power ``e >= 1``; callers must not mutate them."""
        powers = self._powers[j]
        if powers is None:
            return {(0,) * j + (e,): 1}
        if len(powers) <= e:
            if len(powers) == 1:
                # x_{j+1} - f: the variable's exponent is longer than f's, so it never collides
                image = {e2: -c for e2, c in self._moves.pop(j).items()}
                image[(0,) * j + (1,)] = 1
                powers.append(image)
            while len(powers) <= e:
                powers.append(_mul_terms(powers[-1], powers[1]))
        return powers[e]


def _add_substituted(out: Terms, terms: Terms, table: PowerTable, sign: int) -> None:
    """Add ``sign`` times the polynomial ``terms``, with x_j replaced by image
    ``j - 1`` of ``table``, into ``out`` in place.

    ``terms`` must use no variable beyond the table's images; ``out`` stays
    trimmed, nonzero and normalized.
    """
    get = out.get
    one: Terms = {(): 1}
    for e, c in terms.items():
        c *= sign
        prod: Optional[Terms] = None
        for j, k in enumerate(e):
            if k:
                pw = table.power(j, k)
                prod = pw if prod is None else _mul_terms(prod, pw)
        for e2, c2 in (one if prod is None else prod).items():
            s = get(e2, 0) + c * c2
            if s:
                out[e2] = s if type(s) is int else _norm_coeff(s)
            else:
                del out[e2]


def monomial_text(mag: Coeff, e: Sequence[int]) -> str:
    """Text of ``mag * x^e`` for a positive ``mag``, e.g. ``3*x1^2*x2``, ``x1`` or ``1``."""
    factors = [f"x{j + 1}" if v == 1 else f"x{j + 1}^{v}" for j, v in enumerate(e) if v]
    if mag != 1 or not factors:
        factors.insert(0, str(mag))
    return "*".join(factors)


def signed_sum(terms: Iterable[Tuple[Coeff, str]]) -> str:
    """Join ``(coeff, text of |coeff| * term)`` pairs as ``a + b - c``; ``0`` when empty."""
    pieces: List[str] = []
    for c, body in terms:
        if pieces:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        else:
            pieces.append(body if c > 0 else f"-{body}")
    return " ".join(pieces) or "0"


_POLY_TOKEN = re.compile(r"\s*(x\d+|\d+|[+\-*/^])")

# Python's default limit on the digits str() converts: a constant power with
# more digits could not be printed, so it is refused before it is computed.
_MAX_POWER_DIGITS = 4300


def parse_poly(text: str) -> Poly:
    """Parse the canonical polynomial text form; inverse of ``Poly.render``."""
    tokens: List[Tuple[str, int]] = []
    pos = 0
    while pos < len(text):
        m = _POLY_TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"bad character in polynomial at position {pos}: {text[pos:]!r}")
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()

    idx = 0

    def peek() -> str:
        return tokens[idx][0] if idx < len(tokens) else ""

    def take() -> str:
        nonlocal idx
        tok = tokens[idx][0]
        idx += 1
        return tok

    def take_int(after: str) -> int:
        tok = peek()
        if not tok.isdigit():
            raise ValueError(f"expected an integer after {after!r} in polynomial {text!r}")
        take()
        return int(tok)

    def parse_factor() -> Poly:
        tok = peek()
        if tok.startswith("x"):
            take()
            j = int(tok[1:])
            exp = 1
            if peek() == "^":
                take()
                exp = take_int("^")
            return Poly.variable(j) ** exp
        if tok.isdigit():
            take()
            num = int(tok)
            if peek() == "/":
                take()
                den = take_int("/")
                if den == 0:
                    raise ValueError(f"zero denominator in polynomial {text!r}")
                return Poly.constant(Fraction(num, den))
            if peek() == "^":
                take()
                exp = take_int("^")
                if num > 1 and exp >= _MAX_POWER_DIGITS / math.log10(num):
                    raise ValueError(f"constant {num}^{exp} has more than {_MAX_POWER_DIGITS} digits")
                return Poly.constant(num ** exp)
            return Poly.constant(num)
        raise ValueError(f"unexpected token {tok!r} in polynomial {text!r}")

    def parse_term() -> Poly:
        acc = parse_factor()
        while peek() == "*":
            take()
            acc = acc * parse_factor()
        return acc

    if not tokens:
        raise ValueError("empty polynomial text")
    sign = 1
    if peek() in ("+", "-"):
        sign = -1 if take() == "-" else 1
    acc = parse_term() * sign
    while idx < len(tokens):
        op = take()
        if op not in ("+", "-"):
            raise ValueError(f"expected + or - in polynomial, got {op!r}")
        term = parse_term()
        acc = acc + (term if op == "+" else -term)
    return acc
