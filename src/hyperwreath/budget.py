"""One work budget for the command line.

The heavy loops charge deterministic units before they run: a growth table
the generators of all its steps, counted before any is enumerated, a term-dict
product its pair count, a group product or inverse one unit per layer, a
commutator the keys it yields, a normalizer verdict the constituent cells of
each partner class it takes, a candidate sweep its candidates and an orbit
grid its act calls.  An idealizer test charges the partner classes it took
right after, since it stops at the first escape.  A verdict walks the partner
classes of its basis in sorted order, so its units depend only on the basis's
keys.  The units do not depend on the machine, so neither does a refusal.
Powers of an unmoved variable are free: each is one monomial, not a product.
Charges count only inside a ``WorkBudget`` block, which ``cli.main`` opens
around each command; library callers run without a limit.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import Optional

# Units one command may charge.  It admits the heaviest product the README
# shows, [x1 + 1]D2 * [x2^140]D3 (1,401,551 units).  On a 2-vCPU VM under
# Python 3.11, calc spends about 0.8 million units a second and verify
# --suite chain 5-8 million past interpreter start (--n 4 --imax 40: 394,523
# units in 0.17 s, --n 8 --imax 20: 984,318 units in 0.21 s, each with about
# 0.09 s of interpreter start; CLI medians of 7 runs), so either refuses a
# runaway run within about two seconds (verify --suite chain --n 4 --imax
# 120, which needs 17,415,598 units, in 0.27 s).
LIMIT = 1_500_000


class BudgetExceeded(RuntimeError):
    def __init__(self, limit: int):
        super().__init__(f"the command needs more than the work budget of {limit:,} units")
        self.limit = limit


class WorkBudget:
    """Units left to charge; active for charges while its ``with`` block runs."""

    __slots__ = ("limit", "left", "_token")

    def __init__(self):
        self.limit = self.left = LIMIT

    def __enter__(self) -> "WorkBudget":
        self._token = _ACTIVE.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE.reset(self._token)


_ACTIVE: ContextVar[Optional[WorkBudget]] = ContextVar("hyperwreath_budget", default=None)


def charge(units: int) -> None:
    """Spend ``units`` of the active budget; raise ``BudgetExceeded`` when it
    does not have them.  Without an active budget this does nothing."""
    budget = _ACTIVE.get()
    if budget is not None:
        budget.left -= units
        if budget.left < 0:
            raise BudgetExceeded(budget.limit)
