"""Backtracking solver for Zeiger grids, used as the solvability oracle.

Search strategy: pick the unassigned cell with the fewest feasible values
(ties broken row-major), try values in ascending order.  A cell's feasible
range is [d, d+u] where d is the number of distinct values already assigned
in its sightline and u the number of still-unassigned sightline cells; the
same interval test prunes every cell watching an assigned cell.
"""

from __future__ import annotations

from typing import Optional

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
        for c in g.coords():
            i = (c.row - 1) * l + (c.col - 1)
            line = [(s.row - 1) * l + (s.col - 1) for s in sightline(g, c)]
            self.sight.append(line)
            for j in line:
                self.watchers[j].append(i)
        self.values = [0] * self.n  # 0 = unassigned
        self.fixed = [False] * self.n
        for c in g.coords():
            given = g.cell(c).given
            if given is not None:
                i = (c.row - 1) * l + (c.col - 1)
                self.values[i] = given
                self.fixed[i] = True

    def _interval(self, i: int) -> tuple[int, int]:
        """(distinct assigned, unassigned count) over cell i's sightline."""
        seen = 0
        unassigned = 0
        for j in self.sight[i]:
            v = self.values[j]
            if v == 0:
                unassigned += 1
            else:
                seen |= 1 << v
        return seen.bit_count(), unassigned

    def _consistent(self, i: int) -> bool:
        """Cell i's value (if set) can still equal its sightline distinct count."""
        v = self.values[i]
        if v == 0:
            return True
        d, u = self._interval(i)
        return d <= v <= d + u

    def _feasible_values(self, i: int) -> list[int]:
        d, u = self._interval(i)
        lo = max(1, d)
        hi = min(len(self.sight[i]), d + u)
        return list(range(lo, hi + 1))

    def run(self, cap: int) -> list[Filling]:
        # Givens alone can already be contradictory.
        if any(not self._consistent(i) for i in range(self.n)):
            return []
        found: list[Filling] = []
        self._backtrack(found, cap)
        return found

    def _backtrack(self, found: list[Filling], cap: int) -> bool:
        """Returns True when enough solutions were collected."""
        best_i = -1
        best_domain: list[int] = []
        for i in range(self.n):
            if self.values[i] != 0:
                continue
            dom = self._feasible_values(i)
            if best_i < 0 or len(dom) < len(best_domain):
                best_i, best_domain = i, dom
                if not dom:
                    return False
        if best_i < 0:
            found.append(self._to_filling())
            return len(found) >= cap
        for v in best_domain:
            self.nodes += 1
            if self.nodes > self.budget:
                raise BudgetExhausted(f"exceeded {self.budget} nodes")
            self.values[best_i] = v
            if self._consistent(best_i) and all(
                self._consistent(w) for w in self.watchers[best_i]
            ):
                if self._backtrack(found, cap):
                    self.values[best_i] = 0
                    return True
            self.values[best_i] = 0
        return False

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
