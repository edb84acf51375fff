"""Normalizer chain machinery: level functions, generator enumeration,
saturated closures, bounded normalizer/idealizer checks of each step against
the previous generator set itself, the central series oracle, the growth law.

The chain starts from the translation subgroup generated by the unit
constants of every layer.  Generator sets are enumerated from the level
functions; all verification against the infinite group is weight-bounded and
reports "unknown" instead of guessing whenever a bound is hit.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from operator import add
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from .budget import charge
from .liering import Key
from .ordinals import OrdinalCNF
from .partitions import (Frozen, check_index, check_layer, enumerate_partitions, partition_counts,
                         replace_part, seq_at, sequences_abc, weight_of)
from .polyring import Poly, monomial_text
from .wreath import GroupElement, MonomialElement, comm_formula


# -- level data ------------------------------------------------------------


def h_func(i: int, n: int) -> int:
    """Step height floor((i-1)/(n-1)) + 1, with floor toward minus infinity."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return (i - 1) // (n - 1) + 1


def r_func(i: int, n: int) -> int:
    """The residue of i in 1..n-1 modulo n-1; defined for i >= 1 only."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if i < 1:
        raise ValueError("r is defined for i >= 1")
    return (i - 1) % (n - 1) + 1


def wdd(key: Key, n: int) -> int:
    """Weight-degree defect of the monic monomial ``key``: wt - deg + n - layer."""
    mults, k = key
    return weight_of(mults) - sum(mults) + n - k


def lev(i: int, key: Key, n: int) -> int:
    """Level function at step i: h_i * wdd + deg - 1."""
    return h_func(i, n) * wdd(key, n) + sum(key[0]) - 1


def render_key(key: Key) -> str:
    """The element text of the monic monomial ``key``, e.g. ``[x1^2]D3``."""
    mults, k = key
    return f"[{monomial_text(1, mults)}]D{k}"


def check_key(key: Key, n: int) -> None:
    """The check of a key at a public entry point: its multiplicities in the one
    form of a partition, and the layer rule of ``W_n``."""
    mults, k = key
    if type(mults) is tuple and mults[-1:] != (0,):
        for v in mults:  # a loop, not all() over a generator: this runs once per verdict
            if not isinstance(v, int) or v < 0:
                break
        else:
            check_layer(k, n, len(mults))
            return
    raise ValueError(f"key multiplicities must be non-negative ints with no trailing zero, "
                     f"in a tuple, got {mults!r}")


# -- saturated sets ----------------------------------------------------------


Cell = Tuple[int, int, int]  # (weight, degree, layer)


class SaturatedSet(Frozen):
    """A weight-bounded saturated basis, such as a chain step's generator set
    or a closure: monic monomials ``x^lam Delta_k`` of ``W_n``, given by their
    keys ``(mults, k)``, the multiplicities of ``lam`` and the layer, indexed
    by layer and by part so that a key visits only the members it has a
    nontrivial commutator with.

    ``closure_bound`` is the admitted weight, and a heavier key is refused:
    this is the one place the bound rule is checked.  ``discards`` counts the
    constituents a closure dropped against it.  The index lists its members in
    the order of ``(k, mults)``, so ``partners`` depends only on the keys.

    A key lies in the cell ``(wt lam, deg lam, k)``, which holds every
    partition of that weight into that many parts below ``k``.  Each step of
    the chain adds whole cells, so a generator set is a union of cells, and
    ``cell_union`` records whether these keys are: each cell holds as many of
    them as it has partitions, counted by ``_is_cell_union`` from one table.
    The verdicts read three more indexes, each sorted, so the units they
    charge depend only on the keys: ``cells``, the cells of the keys;
    ``lower``, the classes ``(wt theta, deg theta)`` of the members in each
    layer; and ``upper``, the classes ``(u, wt theta, deg theta, mult_p
    theta)`` of the members with each part ``p``.
    """

    __slots__ = ("n", "keys", "closure_bound", "discards", "by_layer", "by_part",
                 "cells", "cell_union", "lower", "upper")

    def __init__(self, n: int, keys: Iterable[Key], closure_bound: int, discards: int = 0):
        keys = list(keys)
        for key in keys:  # before hashing, so a key that is a list gets the one error
            check_key(key, n)
        keys = frozenset(keys)
        by_layer: Dict[int, List[Key]] = {}
        by_part: Dict[int, List[Key]] = {}
        cells: Dict[Cell, int] = {}
        lower: Dict[int, Set[Tuple[int, int]]] = {}
        upper: Dict[int, Set[Tuple[int, int, int, int]]] = {}
        for key in sorted(keys, key=lambda b: (b[1], b[0])):
            mults, k = key
            w, d = weight_of(mults), sum(mults)
            if w > closure_bound:
                raise ValueError("wt_bound is below the heaviest generator")
            cells[w, d, k] = cells.get((w, d, k), 0) + 1
            by_layer.setdefault(k, []).append(key)
            lower.setdefault(k, set()).add((w, d))
            for part, mult in enumerate(mults, 1):
                if mult:
                    by_part.setdefault(part, []).append(key)
                    upper.setdefault(part, set()).add((k, w, d, mult))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "closure_bound", closure_bound)
        object.__setattr__(self, "discards", discards)
        object.__setattr__(self, "by_layer", by_layer)
        object.__setattr__(self, "by_part", by_part)
        object.__setattr__(self, "cells", frozenset(cells))
        object.__setattr__(self, "cell_union", _is_cell_union(cells))
        object.__setattr__(self, "lower", {u: sorted(c) for u, c in lower.items()})
        object.__setattr__(self, "upper", {p: sorted(c) for p, c in upper.items()})

    def __len__(self) -> int:
        return len(self.keys)

    def partners(self, key: Key) -> Iterator[Key]:
        """Members ``(theta, u)`` meeting ``(lam, k)``: the lower layers ``u``
        that are parts of ``lam``, and the higher members with a part ``k``
        (a partition in layer ``u`` has parts below ``u`` only)."""
        lam, k = key
        for u, mult in enumerate(lam, 1):
            if mult:
                yield from self.by_layer.get(u, ())
        yield from self.by_part.get(k, ())


def _is_cell_union(cells: Dict[Cell, int]) -> bool:
    """Whether each cell ``(w, d, k)`` holds as many keys as there are
    partitions of w into exactly d parts below k.

    One table ``ways[d][w]`` counts them: the pass for part p adds to row d
    the partitions of w - p into d - 1 parts up to p, so after parts
    1..k - 1 it holds the counts of layer k, read before the next pass.
    """
    if not cells:
        return True
    top_w = max(w for w, _, _ in cells)
    top_d = max(d for _, d, _ in cells)
    ways = [[1] + [0] * top_w] + [[0] * (top_w + 1) for _ in range(top_d)]
    part = 0
    for (w, d, k), size in sorted(cells.items(), key=lambda item: item[0][2]):
        while part < k - 1:
            part += 1
            for row in range(1, top_d + 1):
                counts = ways[row]
                ways[row] = counts[:part] + list(map(add, counts[part:], ways[row - 1]))
        if ways[d][w] != size:
            return False
    return True


# -- generator enumeration -----------------------------------------------------


def _increment_shapes(j: int, n: int) -> Iterator[Tuple[int, int, int]]:
    """The triples (D, d, k) of the keys that join the chain at step j >= 1:
    defect D = wdd, degree d and layer k.

    A key has lev_j = j exactly when D = (j + 1 - d) / h_j.  Its level is j
    at every step of the same height, and j - tD at every step t heights
    lower, so it hit the earlier step j - tD exactly when that step lies t
    heights lower.  For t = 1 that is D >= r_j; for t >= 2 it needs
    tD >= r_j + (t - 1)(n - 1), which fails when D < r_j <= n - 1.  So the
    new keys are those with d >= 2 (step 0 took degree 1) and D < r_j; for
    h_j = 1 the second bound is the first again.  The layers are those with
    weight D + d - (n - k) >= d.
    """
    h = h_func(j, n)
    for defect in range(r_func(j, n)):
        d = j + 1 - h * defect
        if d < 2:
            return
        for k in range(n - defect, n + 1):
            yield defect, d, k


def _remainder_table(m: int) -> List[Tuple[int, Tuple[int, ...], Tuple[int, ...], str]]:
    """The partitions mu of m >= 0, each as its part count l, its
    multiplicities, those reversed, and the text of the factors ``x2...`` it
    contributes to a key ``(d - l,) + mu.mults``: part p of mu is variable
    p + 1 of the key."""
    table = []
    for mu in enumerate_partitions(m):
        mults = mu.mults
        tail = "*".join(
            f"x{p}" if v == 1 else f"x{p}^{v}" for p, v in enumerate(mults, 2) if v
        )
        table.append((mu.degree, mults, mults[::-1], tail))
    return table


def _increment(j: int, n: int, tables: Dict[int, list]) -> Iterator[Tuple[int, int, list]]:
    """``(d, k, table)`` for each ``_increment_shapes`` triple of step j >= 1,
    with the ``_remainder_table`` of its m = D - n + k, built once per
    ``tables`` dict the caller owns.

    A partition mu of m with l <= d parts gives, by adding one to each of d
    parts, the key with multiplicities ``(d - l,) + mu.mults``, as
    ``growth_counts`` counts them.  As m <= k - 2, every part stays below k.
    """
    for defect, d, k in _increment_shapes(j, n):
        m = defect - n + k
        table = tables.get(m)
        if table is None:
            table = tables[m] = _remainder_table(m)
        yield d, k, table


def _new_keys(j: int, n: int, tables: Optional[Dict[int, list]] = None) -> List[Key]:
    """Keys of the monic monomials that join the chain at step j: at step 0
    the single-variable linear monomials, later the partitions of each
    ``_increment_shapes`` triple into d parts below k, read off ``_increment``
    with the remainder tables of ``tables``, a fresh dict when not given.
    """
    if j == 0:
        return [((0,) * (v - 1) + (1,), k) for k in range(2, n + 1) for v in range(1, k)]
    return [
        ((d - parts,) + mults, k)
        for d, k, table in _increment(j, n, {} if tables is None else tables)
        for parts, mults, _, _ in table
        if parts <= d
    ]


def enumerate_N(i: int, n: int) -> FrozenSet[Key]:
    """The keys of the generator set at step i: the translation generators
    plus the new keys of every step 0..i, i.e. every monomial whose level
    function hits its own index at some step <= i.

    The step -1 set is the translation subgroup's generators by convention,
    which keeps the chain anchored uniformly (at n = 2 the level rule alone
    would miss the base layer).
    """
    if i < -1:
        raise ValueError("i must be >= -1")
    members: Set[Key] = {((), k) for k in range(1, n + 1)}
    tables: Dict[int, list] = {}  # one remainder table per m, shared by every step
    for j in range(0, i + 1):
        members.update(_new_keys(j, n, tables))
    return frozenset(members)


def heaviest_generator_weight(j: int, n: int) -> int:
    """The weight of the heaviest key of ``enumerate_N(j, n)``, j >= -1.

    The translation generators weigh 0, step 0 adds keys up to ``x_(n-1) D_n``
    of weight n - 1, and a step j >= 1 adds keys up to ``x1^(j + 1) D_n`` (the
    shape with defect 0 and degree j + 1 in the top layer) of weight j + 1.
    """
    return 0 if j == -1 else max(j + 1, n - 1)


def growth_counts(n: int, i: int) -> Dict[int, int]:
    """The number of keys step i >= 1 adds in each layer, counted without
    enumerating them.

    Taking one from each of the d parts of a new key in layer k leaves a
    partition of m = D - n + k into at most d parts, each at most k - 2; the
    count sums these over the ``_increment_shapes`` of step i.  As
    D < r_i <= n - 1, m <= r_i - 1 <= k - 2, so the part bound never binds,
    and by conjugation the count is entry m of row ``min(d, m)`` of the
    ``partition_counts`` table up to r_i - 1.
    """
    top = r_func(i, n) - 1
    return _growth_counts(n, i, [row[:] for row in partition_counts(top, top)])


def _growth_counts(n: int, i: int, rows: List[List[int]]) -> Dict[int, int]:
    """``growth_counts(n, i)`` read from ``rows``, copied rows of a
    ``partition_counts`` table up to at least r_i - 1."""
    counts = {k: 0 for k in range(1, n + 1)}
    for defect, d, k in _increment_shapes(i, n):
        m = defect - n + k
        counts[k] += rows[min(d, m)][m]
    return counts


# -- growth report ---------------------------------------------------------------


def _json_indented(value, newline: str) -> str:
    """``json.dumps(value, indent=2)`` of dicts, lists, strings, ints, bools
    and None, for a value on the line that ``newline`` (a newline and that
    line's indent) starts; dict keys that are not strings are written as
    ``json.dumps`` writes them, e.g. ``1`` as ``"1"``.

    ``json.dumps`` falls back to its pure-Python encoder whenever it indents;
    this writes the same layout with joins and escapes strings with the C
    ``encode_basestring_ascii``, the one ``json.dumps`` uses by default.
    """
    if type(value) is int:
        return repr(value)
    if isinstance(value, (dict, list)):
        if not value:
            return "{}" if isinstance(value, dict) else "[]"
        inner = newline + "  "
        if isinstance(value, dict):
            # string and int keys and int values, most of a report, are written inline
            items = [
                f"{encode_basestring_ascii(k if type(k) is str else _json_indented(k, inner))}: "
                f"{repr(v) if type(v) is int else _json_indented(v, inner)}"
                for k, v in value.items()
            ]
            opening, closing = "{", "}"
        else:
            items = [
                encode_basestring_ascii(v) if type(v) is str else _json_indented(v, inner)
                for v in value
            ]
            opening, closing = "[", "]"
        return opening + inner + ("," + inner).join(items) + newline + closing
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"cannot write {type(value).__name__} as JSON")


@dataclass
class ChainRow:
    n: int
    i: int
    r: int
    h: int
    generators: List[str]
    counts: Dict[int, int]
    predicted: Dict[int, int]
    total: int
    predicted_total: int
    match: Optional[bool]  # None below the stability threshold
    discards: int = 0


@dataclass
class ChainReport:
    n: int
    i_max: int
    threshold: int
    rows: List[ChainRow] = field(default_factory=list)

    @property
    def all_match(self) -> bool:
        return all(row.match for row in self.rows if row.match is not None)

    def to_json(self) -> str:
        """The report as ``json.dumps(..., indent=2)`` writes it, byte for byte."""
        return _json_indented(
            {
                "n": self.n,
                "i_max": self.i_max,
                "threshold": self.threshold,
                "all_match": self.all_match,
                "rows": [vars(r) for r in self.rows],
            },
            "\n",
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "i", "r", "h", "k", "count", "predicted", "match"])
        for row in self.rows:
            for k in range(1, self.n + 1):
                writer.writerow(
                    [
                        row.n,
                        row.i,
                        row.r,
                        row.h,
                        k,
                        row.counts[k],
                        row.predicted[k],
                        "" if row.match is None else str(row.match).lower(),
                    ]
                )
        return buf.getvalue()

    def to_text(self) -> str:
        lines = [
            f"normalizer chain growth for n={self.n}, i <= {self.i_max} "
            f"(stability threshold i > {self.threshold})"
        ]
        header = ["i", "r", "h"] + [f"|L_i^B{k}|" for k in range(1, self.n + 1)] + [
            "total",
            "predicted",
            "match",
        ]
        lines.append("  ".join(f"{h:>10}" for h in header))
        for row in self.rows:
            cells = [row.i, row.r, row.h] + [row.counts[k] for k in range(1, self.n + 1)]
            cells += [
                row.total,
                row.predicted_total,
                "-" if row.match is None else ("ok" if row.match else "MISMATCH"),
            ]
            lines.append("  ".join(f"{str(c):>10}" for c in cells))
        lines.append(f"all above-threshold rows match: {self.all_match}")
        return "\n".join(lines)


def growth_threshold(n: int) -> int:
    """Steps beyond (n-4)(n-1) follow the stable counting law."""
    return (n - 4) * (n - 1)


def verify_growth(n: int, i_max: int) -> ChainReport:
    """Compare enumerated increment counts against the partition-sum law.

    Every step from 1 to i_max gets a row; rows at or below the stability
    threshold are reported but left unflagged.  The generators of every step
    are counted and charged, one unit each, before any step is enumerated.

    Each generator ``(d - l,) + mu.mults`` in layer k is written straight from
    its remainder table entry: its text is the ``x1^(d - l)`` head joined to
    the entry's factors, and its sort key orders monic monomials as
    ``tdeg_of_monomial`` does, the lower layer first (more leading omega
    powers), then the higher top part, then the multiplicities from the top
    part down.  No two keys of a step share a sort key.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if i_max < 1:
        raise ValueError("i_max must be >= 1")
    rows = [row[:] for row in partition_counts(n - 2, n - 2)]  # r_i - 1 <= n - 2
    for i in range(1, i_max + 1):
        charge(sum(_growth_counts(n, i, rows).values()))
    _, b, c = sequences_abc(n)  # read at indices up to r - 1 <= n - 2
    threshold = growth_threshold(n)
    report = ChainReport(n=n, i_max=i_max, threshold=threshold)
    tables: Dict[int, list] = {}
    for i in range(1, i_max + 1):
        new: List[Tuple[tuple, str]] = []
        counts = {k: 0 for k in range(1, n + 1)}
        for d, k, table in _increment(i, n, tables):
            for parts, _, rev, tail in table:
                if parts > d:
                    continue
                ones = d - parts
                head = "" if ones == 0 else "x1" if ones == 1 else f"x1^{ones}"
                text = f"{head}*{tail}" if head and tail else head or tail
                new.append(((-k, 1 + len(rev), rev + (ones,)), f"[{text}]D{k}"))
                counts[k] += 1
        new.sort(reverse=True)
        r = r_func(i, n)
        predicted = {k: seq_at(b, r + k - n - 1) for k in range(1, n + 1)}
        predicted_total = seq_at(c, r - 1)
        flagged = i > threshold
        match = (
            (counts == predicted and len(new) == predicted_total) if flagged else None
        )
        report.rows.append(
            ChainRow(
                n=n,
                i=i,
                r=r,
                h=h_func(i, n),
                generators=[text for _, text in new],
                counts=counts,
                predicted=predicted,
                total=len(new),
                predicted_total=predicted_total,
                match=match,
            )
        )
    return report


# -- commutator constituents and closure -------------------------------------------


def comm_constituents(a: MonomialElement, b: MonomialElement) -> List[MonomialElement]:
    """Monomial constituents of the commutator of two monomial elements."""
    if a.n != b.n:
        raise ValueError("mismatched n")
    g = comm_formula(
        Poly.monomial(a.coeff, a.lam.mults),
        a.layer,
        Poly.monomial(b.coeff, b.lam.mults),
        b.layer,
        a.n,
    )
    return g.decompose()


def constituent_keys(a: Key, b: Key) -> Iterator[Key]:
    """Lie keys of the monic constituents of the commutator of two monomial
    elements with keys ``a`` and ``b``, whatever their coefficients.

    For layers k > u, ``[x^lam D_k, x^theta D_u]`` is the difference of
    ``x^lam`` along x_u with increment ``x^theta``: its s-th term is
    ``c_a c_b^s C(m, s) x^(lam - s e_u + s theta) D_k`` for s = 1..m, with
    m = mult_u(lam).  No coefficient is 0 over the integers, and theta has no
    part u, so the s give distinct keys and nothing cancels.  For k < u the
    roles swap; equal layers commute.  ``comm_constituents`` is the
    polynomial route to the same keys.

    The keys come one at a time, so a caller that has its answer stops; all m
    are charged when the first is taken.  Both keys are taken as checked.
    """
    (lam, k), (theta, u) = a, b
    if k == u:
        return
    if k < u:
        (lam, k), (theta, u) = b, a
    m = lam[u - 1] if u <= len(lam) else 0
    charge(m)
    for _ in range(m):
        lam = replace_part(lam, u, theta)
        yield lam, k


def saturated_closure(gens: Iterable[Key], wt_bound: int, n: int) -> SaturatedSet:
    """Least monic-monomial set containing the keys ``gens`` and closed under
    taking the monic parts of commutator constituents, up to the weight bound.

    Constituents heavier than the bound are discarded and counted; a nonzero
    discard count marks the closure as potentially incomplete.  A generator
    that is heavier than the bound, or not a valid key, is refused by
    ``SaturatedSet``.  Members grow only between rounds, so each round walks
    the partners of its frontier in one ``SaturatedSet`` of the members so
    far, and the round that adds none has walked the keys that are returned.
    The loop ends: each round adds keys of weight up to the bound, of which
    there are finitely many, or is the last.
    """
    closure = SaturatedSet(n, gens, wt_bound)
    members = closure.keys
    discarded: Set[Key] = set()
    frontier = members
    while frontier:
        new: Set[Key] = set()
        for a in frontier:
            # the reversed commutator is the inverse and has the same
            # monic constituents, so one order suffices
            for b in closure.partners(a):
                for key in constituent_keys(a, b):
                    if key in members or key in new:
                        continue
                    if weight_of(key[0]) > wt_bound:
                        discarded.add(key)
                    else:
                        new.add(key)
        if new:
            members = members.union(new)
            closure = SaturatedSet(n, members, wt_bound)
        frontier = new
    return SaturatedSet(n, members, wt_bound, len(discarded))


# -- normalizer / idealizer verification ----------------------------------------


_NOT_CELL_UNION = ("the basis is not a union of (weight, degree, layer) cells, "
                   "so a cell does not decide its constituents")


def normalizes(key: Key, H: SaturatedSet) -> Optional[bool]:
    """Bounded check that the monic monomial ``key`` normalizes the saturated
    subgroup with basis ``H``.

    True when every constituent of every commutator with a basis member lands
    back in the basis.  A constituent that escapes the basis within the bound
    of a complete closure is conclusive evidence against; anything past the
    bound (or any escape when the closure itself discarded constituents) is
    not decidable at this bound and yields None ("unknown").

    The constituents of ``constituent_keys`` are not built.  ``H`` is a union
    of cells, so a constituent is in it exactly when its cell is, and all
    partners of one class give the same cells.  For a part u of ``lam``, the
    members ``(theta, u)`` of layer u give ``lam - s e_u + s theta`` in layer
    k, for s = 1..m with m = mult_u(lam), so their class is ``(wt theta, deg
    theta)`` in ``H.lower[u]``; for a member ``(theta, u)`` with a part k the
    roles swap, and its class ``(u, wt theta, deg theta, mult_k theta)`` in
    ``H.upper[k]`` fixes m as well.  Either way the s-th constituent lies in
    the cell ``(w + s dw, d + s dd, layer)`` from a start ``(w, d)``, so the
    walk steps each class's m cells, three ints each, in place, charged when
    the class is taken, in the order of ``H``'s sorted indexes.  A class is
    four ints at most, so the classes grow polynomially with the bound, where
    the partners grow like a partition count.  A basis that is not a union of
    cells is refused with a ``ValueError``, as ``check_candidates`` refuses a
    lossy one.
    """
    check_key(key, H.n)
    if not H.cell_union:
        raise ValueError(_NOT_CELL_UNION)
    cells, bound, lossy = H.cells, H.closure_bound, H.discards > 0
    lam, k = key
    w0, d0 = weight_of(lam), sum(lam)
    any_unknown = False
    for u, m in enumerate(lam, 1):
        if m:
            for tw, td in H.lower.get(u, ()):
                charge(m)
                dw, dd = tw - u, td - 1
                w, d = w0, d0
                for _ in range(m):
                    w += dw
                    d += dd
                    if (w, d, k) in cells:
                        continue
                    if lossy:
                        return None  # no escape can be conclusive against a lossy basis
                    if w > bound:
                        any_unknown = True
                    else:
                        return False
    dw, dd = w0 - k, d0 - 1
    for u, w, d, m in H.upper.get(k, ()):
        charge(m)
        for _ in range(m):
            w += dw
            d += dd
            if (w, d, u) in cells:
                continue
            if lossy:
                return None
            if w > bound:
                any_unknown = True
            else:
                return False
    return None if any_unknown else True


def idealizes(key: Key, H: SaturatedSet) -> bool:
    """Check that a Lie basis element idealizes the homogeneous subring
    spanned by the basis ``H``: each bracket with a member is again in the
    span.

    Only the partners of ``key`` in ``H`` meet it: by the layer rule the
    bracket with any other member is zero, as ``bracket_keys`` takes a
    derivative along the lower layer.  The bracket with a partner is the
    s = 1 constituent of the commutator, with the coefficient
    ``mult_u(lam)`` or ``-mult_k(theta)``, never 0, so the walk looks up the
    first cell of each partner class, in the order ``normalizes`` takes them,
    and charges the classes it took.  Like ``normalizes``, it refuses a basis
    that is not a union of cells, where a cell would not decide a bracket,
    and a bad key, such as one outside ``W_n``, for which the walk would not
    be exact.
    """
    check_key(key, H.n)
    if not H.cell_union:
        raise ValueError(_NOT_CELL_UNION)
    cells = H.cells
    lam, k = key
    w, d1 = weight_of(lam), sum(lam) - 1
    calls = 0
    for u, m in enumerate(lam, 1):
        if m:
            wu = w - u
            for tw, td in H.lower.get(u, ()):
                calls += 1
                if (wu + tw, d1 + td, k) not in cells:
                    charge(calls)  # after the fact: at most one call per partner class of ``key``
                    return False
    wk = w - k
    for u, tw, td, _ in H.upper.get(k, ()):
        calls += 1
        if (tw + wk, td + d1, u) not in cells:
            charge(calls)
            return False
    charge(calls)
    return True


def center_membership(g: GroupElement, alpha: OrdinalCNF) -> bool:
    """Upper-central-series test in the polynomial case: tdeg(g) < alpha."""
    return g.tdeg() < alpha


# -- normalizer step verification --------------------------------------------------


def candidate_count(n: int, wt_bound: int) -> int:
    """The number of keys of all monic monomials of weight up to the bound,
    every layer, charged before the count is taken.

    Every layer above the first has the candidate ``1^w`` of each weight;
    that many are charged first, and they also pay for counting the rest, one
    pass per layer over a table of ``wt_bound + 1`` entries: row p of
    ``partition_counts`` holds the partitions of each weight into parts up to
    p, the candidates of layer p + 1, and row 0 is layer 1's ``((), 1)``.
    """
    check_index(wt_bound, 0, "wt_bound")
    least = (n - 1) * (wt_bound + 1) + 1
    charge(least)
    count = sum(sum(ways) for ways in partition_counts(wt_bound, n - 1))
    charge(count - least)
    return count


def witness_survivors(closure: SaturatedSet, target: Iterable[Key]) -> List[Key]:
    """The candidates, ordered by layer, weight and multiplicities, that the
    translation witness does not refute against a closure holding every
    ``((), u)``: each ``((), k)``, each key whose one-part removals are all in
    the closure, and each key of ``target`` within the bound.

    A part u of ``lam`` gives ``[x^lam D_k, D_u]`` the constituent
    ``(lam - e_u, k)``, the s = 1 term of ``constituent_keys``, and
    ``bracket_keys`` gives the same key with coefficient ``mult_u(lam)``.  It
    is lighter than ``(lam, k)``, so when it is not in a closure without
    discards, both verdicts are ``False``.  A surviving ``lam`` is
    ``mu + e_u`` for its top part u and a member ``(mu, k)``, so it is built
    once, from that member, and its other removals are looked up by
    multiplicities; the members and the bound limit that to at most one build
    per candidate, which ``candidate_count`` has charged.  Each survivor is
    weighed once, a target key when it is read and ``mu + e_u`` as wt mu + u,
    and the sort by layer, weight and multiplicities reads those weights.
    """
    bound = closure.closure_bound
    found: Dict[Key, int] = {}  # each survivor and its weight
    for b in target:
        w = weight_of(b[0])
        if w <= bound:
            found[b] = w
    for k, members in closure.by_layer.items():
        held = {m for m, _ in members}
        found[(), k] = 0
        for m in held:
            top, w = len(m), weight_of(m)
            for u in range(max(top, 1), min(k - 1, bound - w) + 1):
                lam = m[:-1] + (m[-1] + 1,) if u == top else m + (0,) * (u - top - 1) + (1,)
                for v, c in enumerate(lam[:u - 1], 1):
                    if c and lam[:v - 1] + (c - 1,) + lam[v:] not in held:
                        break
                else:
                    found[lam, k] = w + u
    return sorted(found, key=lambda b: (b[1], found[b], b[0]))


@dataclass
class ChainStepCheck:
    n: int
    i: int
    wt_bound: int
    closure_size: int
    closure_discards: int
    members_checked: int
    outsiders_checked: int
    member_failures: List[str]
    outsider_passes: List[str]
    unknowns: List[str]
    mirror_disagreements: List[str]
    group_passes: int = 0
    lie_passes: int = 0

    @property
    def ok(self) -> bool:
        return not (
            self.member_failures
            or self.outsider_passes
            or self.unknowns
            or self.mirror_disagreements
        )


def check_chain_step(n: int, i: int, wt_bound: Optional[int] = None) -> ChainStepCheck:
    """Verify one normalizer step: the step-i generators are exactly the
    bounded monomials normalizing the span of the step i - 1 generators, and
    the Lie-side idealizer test mirrors every verdict.

    The basis is that set, not its closure: each member gets a verdict that
    walks the pairs a closure round would, so a set not closed fails the step.
    """
    prev = enumerate_N(i - 1, n)
    if wt_bound is None:
        # from n = 8 on, the first generators are heavier than 2 * (i + 2)
        wt_bound = max(2 * (i + 2), heaviest_generator_weight(i - 1, n))
    return check_candidates(i, SaturatedSet(n, prev, wt_bound), prev.union(_new_keys(i, n)))


def check_candidates(i: int, closure: SaturatedSet, target: FrozenSet[Key]) -> ChainStepCheck:
    """The step-i check of every candidate up to the bound of the basis
    ``closure``: ``target`` should be exactly the candidates that normalize
    it, and the idealizer verdict should equal the normalizer verdict.

    Only the ``witness_survivors`` get the two verdicts, ordered by layer,
    weight and multiplicities; every other candidate is refuted on both sides
    by a translation generator and counts as a checked outsider.  Every candidate is charged
    before the first verdict.  The basis must hold every ``((), u)``, as a
    chain step's does, and have no discards: against a lossy basis an escape
    is ``None``, not ``False``, so the witness would not be conclusive.  Its
    members lie within its bound, which ``SaturatedSet`` checks.
    """
    n = closure.n
    step = ChainStepCheck(
        n=n,
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
    if closure.discards:
        raise ValueError("the basis has discards, so no escape from it is conclusive")
    if not all(((), u) in closure.keys for u in range(1, n + 1)):
        raise ValueError("the basis lacks a translation generator ((), u)")
    count = candidate_count(n, closure.closure_bound)
    keys = witness_survivors(closure, target)
    for key in keys:
        verdict = normalizes(key, closure)
        if verdict is None:
            step.unknowns.append(render_key(key))
            continue
        if verdict:
            step.group_passes += 1
        lie_verdict = idealizes(key, closure)
        if lie_verdict:
            step.lie_passes += 1
        if lie_verdict != verdict:
            step.mirror_disagreements.append(render_key(key))
        if key in target:
            step.members_checked += 1
            if not verdict:
                step.member_failures.append(render_key(key))
        else:
            step.outsiders_checked += 1
            if verdict:
                step.outsider_passes.append(render_key(key))
    step.outsiders_checked += count - len(keys)
    return step
