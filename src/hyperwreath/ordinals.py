"""Ordinals below omega^n in Cantor normal form.

Only what the transfinite degree grading needs: construction from a monomial,
comparison and successor.  General ordinal arithmetic is deliberately not
exposed.
"""

from __future__ import annotations

import re
from typing import Iterable, Tuple

from .partitions import Frozen, Partition, check_index, check_layer


class OrdinalCNF(Frozen):
    """Cantor normal form: a tuple of (exponent, coefficient) pairs.

    Exponents are strictly descending and coefficients positive, so plain
    lexicographic comparison of the tuples realizes the ordinal order.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[Tuple[int, int]] = ()):
        terms = tuple(terms)
        for e, c in terms:
            check_index(e, 0, "an ordinal exponent")
            check_index(c, 0, "an ordinal coefficient")
        terms = tuple((e, c) for e, c in terms if c)
        if any(terms[i][0] <= terms[i + 1][0] for i in range(len(terms) - 1)):
            raise ValueError("exponents must be strictly descending")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def from_int(cls, value: int) -> "OrdinalCNF":
        if value < 0:
            raise ValueError("ordinals are non-negative")
        return cls(((0, value),) if value else ())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def successor(self) -> "OrdinalCNF":
        """The ordinal plus one."""
        if self.terms and self.terms[-1][0] == 0:
            return OrdinalCNF(self.terms[:-1] + ((0, self.terms[-1][1] + 1),))
        return OrdinalCNF(self.terms + ((0, 1),))

    # Comparison: valid because the representation is canonical.

    def __eq__(self, other) -> bool:
        return isinstance(other, OrdinalCNF) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __lt__(self, other: "OrdinalCNF") -> bool:
        return self.terms < other.terms

    def __le__(self, other: "OrdinalCNF") -> bool:
        return self.terms <= other.terms

    def __gt__(self, other: "OrdinalCNF") -> bool:
        return self.terms > other.terms

    def __ge__(self, other: "OrdinalCNF") -> bool:
        return self.terms >= other.terms

    def render(self) -> str:
        """Canonical text, e.g. ``w^3 + w*2 + 5``."""
        if not self.terms:
            return "0"
        chunks = []
        for e, c in self.terms:
            if e == 0:
                chunks.append(str(c))
            else:
                base = "w" if e == 1 else f"w^{e}"
                chunks.append(base if c == 1 else f"{base}*{c}")
        return " + ".join(chunks)

    def __repr__(self) -> str:
        return f"OrdinalCNF({self.render()!r})"

    def __str__(self) -> str:
        return self.render()


ZERO = OrdinalCNF()
ONE = OrdinalCNF.from_int(1)


def tdeg_of_monomial(lam: Partition, k: int, n: int) -> OrdinalCNF:
    """Transfinite degree of the monomial with exponent partition ``lam`` in layer ``k``.

    The value is the descending sum omega^(n-1) + ... + omega^k (empty when
    ``k == n``) plus the partition's own graded value, which never uses
    omega^(k-1) because the layer rule keeps every part below ``k``.
    """
    check_layer(k, n, lam.max_part)
    terms = [(n - i, 1) for i in range(1, n - k + 1)]
    for j in range(len(lam.mults), 0, -1):
        c = lam.mults[j - 1]
        if c:
            terms.append((j - 1, c))
    return OrdinalCNF(terms)


_TERM_RE = re.compile(r"^(?:w(?:\^(\d+))?(?:\*(\d+))?|(\d+))$")


def parse_ordinal(text: str) -> OrdinalCNF:
    """Parse the canonical ordinal rendering back into a value."""
    text = text.strip()
    if text == "0":
        return ZERO
    terms = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        m = _TERM_RE.match(chunk)
        if not m:
            raise ValueError(f"bad ordinal term: {chunk!r}")
        if m.group(3) is not None:
            terms.append((0, int(m.group(3))))
        else:
            e = int(m.group(1)) if m.group(1) is not None else 1
            c = int(m.group(2)) if m.group(2) is not None else 1
            terms.append((e, c))
    return OrdinalCNF(terms)
