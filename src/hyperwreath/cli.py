"""Command-line surface: chain tables, verification suites and an element calculator.

Exit codes are a stable contract: 0 success, 1 verification failure, 2 usage
or configuration error.
"""

from __future__ import annotations

import argparse
import inspect
import re
import sys
from typing import Dict, List, Optional, Tuple, Union

from . import chains, liering, verify, wreath
from .budget import BudgetExceeded, WorkBudget
from .ordinals import OrdinalCNF


# -- calculator -----------------------------------------------------------------

CalcValue = Union[wreath.GroupElement, liering.LieElement, OrdinalCNF]

_CALC_TOKEN = re.compile(r"\s*(\[[^\]]*\]D\d+|[A-Za-z_][A-Za-z_0-9]*|\*|\(|\)|,|1)")

# Deepest nesting of parentheses and function calls; each level takes two
# Python frames of the recursive-descent parser.
_MAX_CALC_DEPTH = 100

# Largest variable exponent in a bracketed factor.  A product expands powers
# of shifted variables, so its cost grows with the exponents it meets.
_MAX_CALC_EXPONENT = 256

# Largest --n of every command: far above the largest chain studied (n = 16),
# and small enough that a layer tuple and the tables built from it stay cheap.
_MAX_N = 64

# Largest --imax of every command: the growth table's increments grow with the
# step, and chain --n 8 at this cap takes about 0.23 s (2-vCPU VM, Python 3.11).
_MAX_IMAX = 1000


class CalcError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _tokenize_calc(text: str) -> List[Tuple[str, int]]:
    tokens: List[Tuple[str, int]] = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _CALC_TOKEN.match(text, pos)
        if not m:
            raise CalcError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


def eval_expression(text: str, n: int) -> CalcValue:
    """Evaluate a calculator expression over the element grammar.

    Factors are bracketed base-layer elements combined with ``*`` (the group
    product, left factor acting first) and the functions ``inv``, ``comm``,
    ``phi`` and ``tdeg``.
    """
    tokens = _tokenize_calc(text)
    idx = 0

    def peek() -> Optional[Tuple[str, int]]:
        return tokens[idx] if idx < len(tokens) else None

    def take(expected: Optional[str] = None) -> Tuple[str, int]:
        nonlocal idx
        if idx >= len(tokens):
            raise CalcError(
                f"unexpected end of expression (expected {expected or 'more input'})",
                len(text),
            )
        tok = tokens[idx]
        if expected is not None and tok[0] != expected:
            raise CalcError(f"expected {expected!r}, got {tok[0]!r}", tok[1])
        idx += 1
        return tok

    def require_group(value: CalcValue, position: int, what: str) -> wreath.GroupElement:
        if not isinstance(value, wreath.GroupElement):
            raise CalcError(f"{what} needs a group element", position)
        return value

    def parse_factor(depth: int) -> CalcValue:
        tok = peek()
        if tok is None:
            raise CalcError("unexpected end of expression", len(text))
        word, position = tok
        if word == "(":
            take()
            value = parse_expr(depth + 1)
            take(")")
            return value
        if word == "1":
            take()
            return wreath.GroupElement.identity(n)
        if word.startswith("["):
            take()
            try:
                value = wreath.parse_element(word, n)
            except ValueError as exc:
                raise CalcError(str(exc), position) from exc
            if any(v > _MAX_CALC_EXPONENT for f in value.layers for e in f.terms for v in e):
                raise CalcError(f"variable exponent above {_MAX_CALC_EXPONENT}", position)
            return value
        if word in ("inv", "comm", "phi", "tdeg"):
            take()
            take("(")
            first = parse_expr(depth + 1)
            if word == "comm":
                take(",")
                second = parse_expr(depth + 1)
                take(")")
                return wreath.comm(require_group(first, position, "comm"),
                                   require_group(second, position, "comm"))
            take(")")
            if word == "inv":
                return require_group(first, position, "inv").inverse()
            if word == "phi":
                return liering.phi(require_group(first, position, "phi"))
            if isinstance(first, liering.LieElement):
                return first.tdeg()
            return require_group(first, position, "tdeg").tdeg()
        raise CalcError(f"unexpected token {word!r}", position)

    def parse_expr(depth: int) -> CalcValue:
        tok = peek()
        start = tok[1] if tok else len(text)
        if depth > _MAX_CALC_DEPTH:
            raise CalcError(f"expression nested deeper than {_MAX_CALC_DEPTH} levels", start)
        value = parse_factor(depth)
        while True:
            tok = peek()
            if tok is None or tok[0] != "*":
                return value
            take()
            factor = parse_factor(depth)
            value = (require_group(value, start, "product")
                     * require_group(factor, start, "product"))

    result = parse_expr(0)
    if idx < len(tokens):
        raise CalcError(f"trailing input {tokens[idx][0]!r}", tokens[idx][1])
    return result


# -- commands --------------------------------------------------------------------

# argparse dest -> suite keyword.  A suite takes the options whose keyword its
# function has, and its keyword defaults are the only defaults: an option is
# passed on only when set.
_SUITE_KEYWORDS = {"n": "ns", "imax": "i_max", "wt_bound": "wt_bound", "radius": "radius",
                   "c_range": "c_range"}


def suite_options(suite: str) -> List[str]:
    """The argparse dests of the options ``suite`` takes, besides --seed and --out."""
    params = inspect.signature(verify.SUITES[suite]).parameters
    return [dest for dest, keyword in _SUITE_KEYWORDS.items() if keyword in params]


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _emit(text: str, out: Optional[str]) -> bool:
    """Write ``text`` to the file ``out`` or to stdout; False after reporting
    an error when the file cannot be written."""
    if not text.endswith("\n"):
        text += "\n"
    if not out:
        sys.stdout.write(text)
        return True
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def cmd_chain(args: argparse.Namespace) -> int:
    if args.n < 2:
        return _usage_error("chain requires --n >= 2")
    if args.imax < 1:
        return _usage_error("chain requires --imax >= 1")
    report = chains.verify_growth(args.n, args.imax)
    if args.format == "json":
        text = report.to_json()
    elif args.format == "csv":
        text = report.to_csv()
    else:
        text = report.to_text()
    if not _emit(text, args.out):
        return 2
    return 0 if report.all_match else 1


def _verify_config_error(suite: str, options: Dict[str, object]) -> Optional[str]:
    """Why ``options`` (the set suite options) cannot run ``suite``, or None."""
    if suite == "all":
        if options:
            return (f"--suite all runs every suite at its defaults and takes no "
                    f"{', '.join(_flag(d) for d in options)}")
        return None
    takes = suite_options(suite)
    rejected = [d for d in options if d not in takes]
    if rejected:
        return (f"suite {suite} does not take {', '.join(_flag(d) for d in rejected)} "
                f"(it takes {', '.join(_flag(d) for d in takes)})")
    for dest, least in (("n", 2), ("imax", 1), ("radius", 1)):
        if dest in options and options[dest] < least:
            return f"{_flag(dest)} must be >= {least}"
    params = inspect.signature(verify.SUITES[suite]).parameters
    if "i_max" not in params:
        return None
    if "wt_bound" in options:
        # the floor SaturatedSet enforces at step --imax, the heaviest generator
        # of step --imax - 1, checked here so that exit 2 comes before any work
        ns = (options["n"],) if "n" in options else params["ns"].default
        imax = options.get("imax", params["i_max"].default)
        floor = chains.heaviest_generator_weight(imax - 1, max(ns))
        if options["wt_bound"] < floor:
            return f"--wt-bound must be >= {floor}, the heaviest generator before step --imax"
    return None


def cmd_verify(args: argparse.Namespace) -> int:
    suite = args.suite
    if suite != "all" and suite not in verify.SUITES:
        return _usage_error(f"unknown suite {suite!r}; choose from "
                            f"{', '.join(sorted(verify.SUITES))} or all")
    options = {d: getattr(args, d) for d in _SUITE_KEYWORDS if getattr(args, d) is not None}
    problem = _verify_config_error(suite, options)
    if problem:
        return _usage_error(problem)
    kwargs = {_SUITE_KEYWORDS[d]: (v,) if d == "n" else v for d, v in options.items()}
    results = verify.run_suite(suite, args.seed, **kwargs)
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        suffix = f": {res.detail}" if res.detail and not res.passed else ""
        lines.append(f"{status} {res.name}{suffix}")
    ok = all(r.passed for r in results)
    lines.append(f"{'all properties hold' if ok else 'FAILURES present'} "
                 f"({sum(r.passed for r in results)}/{len(results)})")
    if not _emit("\n".join(lines), args.out):
        return 2
    return 0 if ok else 1


def cmd_calc(args: argparse.Namespace) -> int:
    if args.n < 2:
        return _usage_error("calc requires --n >= 2")
    try:
        value = eval_expression(args.expr, args.n)
    except CalcError as exc:
        return _usage_error(str(exc))
    try:
        text = value.render()
    except ValueError:  # a number with more digits than str() converts
        return _usage_error("the result has a number too long to print")
    return 0 if _emit(text, args.out) else 2


# -- argument parsing ---------------------------------------------------------------


def _parse_c_range(raw: str) -> Tuple[int, int]:
    m = re.fullmatch(r"\s*(-?\d+)\.\.(-?\d+)\s*", raw)
    if not m:
        raise argparse.ArgumentTypeError("c-range must look like -3..3")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise argparse.ArgumentTypeError("c-range lower bound exceeds upper bound")
    return lo, hi


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperwreath",
        description="Exact computations in iterated wreath products of the integers: "
        "normalizer chain tables, invariant verification and an element calculator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_chain = sub.add_parser("chain", help="normalizer chain growth table")
    p_chain.add_argument("--n", type=int, required=True)
    p_chain.add_argument("--imax", type=int, default=12)
    p_chain.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p_chain.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", help="run an invariant suite")
    p_verify.add_argument("--suite", required=True)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--imax", type=int, default=None)
    p_verify.add_argument("--wt-bound", type=int, default=None)
    p_verify.add_argument("--radius", type=int, default=None)
    p_verify.add_argument("--c-range", type=_parse_c_range, default=None)
    p_verify.add_argument("--out", default=None)

    p_calc = sub.add_parser("calc", help="evaluate an element expression")
    p_calc.add_argument("expr")
    p_calc.add_argument("--n", type=int, required=True)
    p_calc.add_argument("--out", default=None)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # join "--c-range -3..3" so argparse does not read the value as a flag
    merged: List[str] = []
    skip = False
    for idx, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok == "--c-range" and idx + 1 < len(argv) and argv[idx + 1].startswith("-"):
            merged.append(f"--c-range={argv[idx + 1]}")
            skip = True
        else:
            merged.append(tok)
    parser = build_parser()
    try:
        args = parser.parse_args(merged)
    except SystemExit as exc:
        return 2 if exc.code else 0
    if args.n is not None and args.n > _MAX_N:
        return _usage_error(f"--n must be <= {_MAX_N}")
    if getattr(args, "imax", None) is not None and args.imax > _MAX_IMAX:
        return _usage_error(f"--imax must be <= {_MAX_IMAX}")
    command = {"chain": cmd_chain, "verify": cmd_verify, "calc": cmd_calc}[args.command]
    try:
        with WorkBudget():
            return command(args)
    except BudgetExceeded as exc:
        return _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
