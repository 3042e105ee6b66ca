"""Backtracking solver for Zeiger grids, used as the solvability oracle.

Search strategy: pick the unassigned cell with the fewest feasible values
(ties broken row-major), try values in ascending order.  A cell's feasible
range is [d, d+u] where d is the number of distinct values already assigned
in its sightline and u the number of still-unassigned sightline cells; the
same interval test prunes every cell watching an assigned cell.  Each cell
keeps its d and u (and a count per value in its sightline), updated over the
cell's watchers as a value is set and unset, so every test is O(1).
"""

from __future__ import annotations

from itertools import compress
from operator import not_
from typing import Iterator, Optional

from .grid import Coord, Filling, Grid, sightline, verify

DEFAULT_BUDGET = 10**7


class BudgetExhausted(Exception):
    """Search hit the node budget before finding an answer either way."""


class SolverError(RuntimeError):
    """The search returned a filling that does not verify (a solver bug)."""


class _Search:
    def __init__(self, g: Grid, budget: int):
        self.g = g
        self.budget = budget
        self.nodes = 0
        k, l = g.rows, g.cols
        self.n = k * l
        # flat index = (row-1)*cols + (col-1)
        self.sight = []
        self.watchers = [[] for _ in range(self.n)]
        self.values = []  # 0 = unassigned
        for c in g.coords():
            i = (c.row - 1) * l + (c.col - 1)
            line = [(s.row - 1) * l + (s.col - 1) for s in sightline(g, c)]
            self.sight.append(line)
            for j in line:
                self.watchers[j].append(i)
            self.values.append(g.cell(c).given or 0)
        # per cell w, over w's sightline: count[w][v] cells hold v, they hold
        # distinct[w] different values, and unassigned[w] of them are unset;
        # kept up to date by _set and _unset
        self.top = [len(line) for line in self.sight]  # no value exceeds it
        self.count = [[0] * (g.max_value + 1) for _ in range(self.n)]
        self.distinct = [0] * self.n
        self.unassigned = self.top[:]
        for i, v in enumerate(self.values):
            if v:
                self._set(i, v)

    def _set(self, i: int, v: int) -> None:
        self.values[i] = v
        distinct, unassigned = self.distinct, self.unassigned
        for w in self.watchers[i]:
            count = self.count[w]
            if not count[v]:
                distinct[w] += 1
            count[v] += 1
            unassigned[w] -= 1

    def _unset(self, i: int) -> None:
        v = self.values[i]
        self.values[i] = 0
        distinct, unassigned = self.distinct, self.unassigned
        for w in self.watchers[i]:
            count = self.count[w]
            count[v] -= 1
            if not count[v]:
                distinct[w] -= 1
            unassigned[w] += 1

    def _interval(self, i: int) -> tuple[int, int]:
        """(distinct assigned, unassigned count) over cell i's sightline."""
        return self.distinct[i], self.unassigned[i]

    def _consistent(self, i: int) -> bool:
        """Cell i's value (if set) can still equal its sightline distinct count."""
        v = self.values[i]
        if v == 0:
            return True
        d, u = self._interval(i)
        return d <= v <= d + u

    def _branch(self) -> tuple[int, range]:
        """The unassigned cell with the fewest feasible values (row-major on
        ties) and those values; cell -1 once every cell is assigned."""
        best_i, best_lo, best_hi = -1, 1, self.n  # wider than any domain
        distinct, unassigned, top = self.distinct, self.unassigned, self.top
        for i in compress(range(self.n), map(not_, self.values)):
            # the feasible values: at least the distinct values seen (and 1),
            # at most that plus the unset cells (and the sightline's length)
            d = distinct[i]
            lo = d or 1
            hi = d + unassigned[i]
            if hi > top[i]:
                hi = top[i]
            if hi - lo < best_hi - best_lo:
                best_i, best_lo, best_hi = i, lo, hi
                if hi < lo:
                    break
        return best_i, range(best_lo, best_hi + 1)

    def run(self, cap: int) -> list[Filling]:
        # Givens alone can already be contradictory.
        if any(not self._consistent(i) for i in range(self.n)):
            return []
        found: list[Filling] = []
        # One (cell, untried values) frame per branching cell, deepest last:
        # a loop, not recursion, so no grid outgrows Python's call stack.
        stack: list[tuple[int, Iterator[int]]] = []
        descend = True
        while True:
            if descend:
                i, dom = self._branch()
                if i < 0:
                    found.append(self._to_filling())
                    if len(found) >= cap:
                        return found
                else:
                    stack.append((i, iter(dom)))
            if not stack:
                return found
            i, untried = stack[-1]
            if self.values[i]:
                self._unset(i)
            v = next(untried, 0)   # 0 once exhausted
            if v:
                self.nodes += 1
                if self.nodes > self.budget:
                    raise BudgetExhausted(f"exceeded {self.budget} nodes")
                self._set(i, v)
                # the value lies in the cell's own interval; only its
                # watchers can be broken by it
                descend = all(self._consistent(w) for w in self.watchers[i])
            else:
                stack.pop()
                descend = False

    def _to_filling(self) -> Filling:
        l = self.g.cols
        return Filling(
            [self.values[r * l : (r + 1) * l] for r in range(self.g.rows)]
        )


def enumerate_solutions(g: Grid, cap: int, budget: int = DEFAULT_BUDGET) -> list[Filling]:
    """Collect up to ``cap`` solutions in deterministic order.

    Raises BudgetExhausted if the node budget runs out before the search
    either collects ``cap`` solutions or exhausts the space.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    search = _Search(g, budget)
    found = search.run(cap)
    for f in found:
        bad = verify(g, f)
        if bad:
            raise SolverError(f"solver produced an invalid filling: {bad[:3]}")
    return found


def solve(g: Grid, budget: int = DEFAULT_BUDGET) -> Optional[Filling]:
    """First solution in deterministic order, or None if provably unsatisfiable."""
    found = enumerate_solutions(g, cap=1, budget=budget)
    return found[0] if found else None
