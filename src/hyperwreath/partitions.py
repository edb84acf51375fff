"""Integer partitions as multiplicity sequences, and the growth counting sequences.

A partition is stored by multiplicities: entry ``i-1`` of the tuple is the
number of parts equal to ``i``.  This makes the weight ``sum(i * mult_i)``,
the number of parts and the exponent vector of the associated power monomial
all read off directly.
It imports nothing from the package, so it also holds the rules every value
class shares: the immutability base ``Frozen``, the layer check ``check_layer``
and the check of other integer arguments ``check_index``.
"""

from __future__ import annotations

from itertools import count
from operator import add, mul
from typing import Iterable, Iterator, List, Optional, Tuple


class Frozen:
    """Base of the immutable value classes: their slots are set once through
    ``object.__setattr__`` or the slot's member descriptor, and assignment and
    deletion then raise."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__  # called with the name only


def check_layer(k: int, n: int, top: int) -> None:
    """The triangular rule of ``W_n``: layer ``k`` lies in ``1..n`` and uses only
    variables (partition parts) below ``k``; ``top`` is the highest in use, or 0."""
    if not (isinstance(k, int) and isinstance(n, int)) or not 1 <= k <= n or top >= k:
        raise ValueError(f"need 1 <= layer <= n and every variable index below the layer, "
                         f"got layer {k}, n={n}, highest index {top}")


def check_index(i: int, least: int, what: str) -> None:
    """The check of an integer argument that is not a layer, such as a
    variable or part index, a group's ``n`` or an exponent: an int, at least
    ``least``."""
    if not isinstance(i, int) or i < least:
        raise ValueError(f"{what} must be an int >= {least}, got {i!r}")


class Partition(Frozen):
    """Multiplicity-vector partition; immutable and hashable."""

    __slots__ = ("mults",)

    def __init__(self, mults: Iterable[int] = ()):
        m = tuple(mults)
        if not all(isinstance(v, int) and v >= 0 for v in m):
            raise ValueError(f"partition multiplicities must be non-negative integers, got {list(m)}")
        while m and m[-1] == 0:
            m = m[:-1]
        object.__setattr__(self, "mults", m)

    @classmethod
    def _of(cls, mults: Tuple[int, ...]) -> "Partition":
        """Wrap a tuple of non-negative ints that has no trailing zero; the slot
        is set through its member descriptor, past ``Frozen.__setattr__``."""
        out = object.__new__(cls)
        _set_mults(out, mults)
        return out

    @classmethod
    def from_parts(cls, parts: Iterable[int]) -> "Partition":
        """Build from an explicit list of parts, e.g. [1, 1, 2]."""
        parts = list(parts)
        if not all(isinstance(p, int) and p >= 1 for p in parts):
            raise ValueError(f"partition parts must be positive integers, got {parts}")
        mults = [0] * (max(parts) if parts else 0)
        for p in parts:
            mults[p - 1] += 1
        return cls(mults)

    # -- basic statistics -------------------------------------------------

    @property
    def weight(self) -> int:
        return weight_of(self.mults)

    @property
    def degree(self) -> int:
        """Number of parts, i.e. total degree of the power monomial."""
        return sum(self.mults)

    @property
    def max_part(self) -> int:
        return len(self.mults)

    @property
    def is_empty(self) -> bool:
        return not self.mults

    def multiplicity(self, i: int) -> int:
        """Multiplicity of the part ``i`` (1-indexed)."""
        check_index(i, 1, "part index")
        m = self.mults
        return m[i - 1] if i <= len(m) else 0

    # -- multiset arithmetic ---------------------------------------------

    def combine(self, other: "Partition") -> "Partition":
        """Multiset union: adds multiplicities (product of power monomials)."""
        a, b = self.mults, other.mults
        if len(a) < len(b):
            a, b = b, a
        return Partition._of(tuple(map(add, a, b)) + a[len(b):])  # ends as ``a`` does, nonzero

    # -- dunder plumbing ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.mults == other.mults

    def __hash__(self) -> int:
        return hash(self.mults)

    def __repr__(self) -> str:
        return f"Partition({list(self.mults)})"


_set_mults = Partition.mults.__set__
EMPTY = Partition()


def weight_of(mults: Tuple[int, ...]) -> int:
    """The weight ``sum(i * mult_i)`` of the partition with multiplicities ``mults``."""
    return sum(map(mul, mults, count(1)))


def replace_part(m: Tuple[int, ...], i: int, b: Tuple[int, ...]) -> Tuple[int, ...]:
    """Swap one part ``i`` of the multiplicities ``m`` for the parts of ``b``
    in one pass: the part must be present and every part of ``b`` below ``i``,
    as in a commutator of keys (``b`` in layer ``i``).  No trailing zeros."""
    lb = len(b)
    if not lb < i <= len(m) or not m[i - 1]:
        raise ValueError(f"need a part {i} of {m} to remove and every part of {b} below it")
    v = m[i - 1] - 1
    if v or i < len(m):
        if lb:
            return (*map(add, m, b), *m[lb:i - 1], v, *m[i:])
        return (*m[:i - 1], v, *m[i:])
    out = (*map(add, m, b), *m[lb:i - 1])
    while out and not out[-1]:  # the top part went, and the zeros under it
        out = out[:-1]
    return out


def enumerate_partitions(wt: int, max_part: Optional[int] = None) -> List[Partition]:
    """All partitions of ``wt`` with parts at most ``max_part`` (default ``wt``).

    The result is duplicate-free and sorted lexicographically on the
    multiplicity vector, which fixes a deterministic order.  The recursion
    chooses the multiplicity of ``part``, then of ``part - 1``, down to 1,
    where the rest of the weight is all 1's; every call completes, so the
    work grows with the output and not with the search.
    """
    if wt < 0:
        return []
    if max_part is None:
        max_part = wt
    if max_part < 0:
        return []
    if wt == 0:
        return [EMPTY]
    effective_max = min(max_part, wt)
    if effective_max == 0:
        return []

    results: List[Partition] = []

    def rec(part: int, wt_left: int, acc: List[int]):
        if part == 1:
            acc.append(wt_left)
            mults = acc[::-1]
            while not mults[-1]:  # the top multiplicity may be 0; wt > 0 keeps a part
                mults.pop()
            results.append(Partition._of(tuple(mults)))
            acc.pop()
            return
        for mult in range(wt_left // part + 1):
            acc.append(mult)
            rec(part - 1, wt_left - mult * part, acc)
            acc.pop()

    rec(effective_max, wt, [])
    results.sort(key=lambda p: p.mults)
    return results


def partition_counts(limit: int, max_part: int) -> Iterator[List[int]]:
    """For p = 0..max_part, the numbers of partitions of 0..limit into parts
    at most p, by the coin-style DP: the package's one partition count.  It
    yields one list, updated in place by the pass for each part, so a caller
    that keeps a row copies it."""
    check_index(limit, 0, "limit")
    ways = [1] + [0] * limit
    yield ways
    for part in range(1, max_part + 1):
        for w in range(part, limit + 1):
            ways[w] += ways[w - part]
        yield ways


def count_partitions(limit: int) -> List[int]:
    """Partition numbers p(0..limit): the last row of ``partition_counts``."""
    if limit < 0:
        return []
    *_, ways = partition_counts(limit, limit)
    return ways


def sequences_abc(limit: int) -> Tuple[List[int], List[int], List[int]]:
    """The growth sequences: partition counts, prefix sums and double prefix sums.

    ``a[i]`` counts unrestricted partitions of ``i``; ``b`` and ``c`` are the
    first and second partial-sum sequences.  Consumers treat negative indices
    as 0.
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    a = count_partitions(limit)
    b: List[int] = []
    c: List[int] = []
    run = 0
    for v in a:
        run += v
        b.append(run)
    run = 0
    for v in b:
        run += v
        c.append(run)
    return a, b, c


def seq_at(seq: List[int], idx: int) -> int:
    """Sequence access with the negative-index-is-zero convention."""
    if idx < 0:
        return 0
    return seq[idx]
