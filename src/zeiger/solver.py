"""Backtracking solver for Zeiger grids, used as the solvability oracle.

Search strategy: forward checking (Haralick & Elliott, 1980).  Every unset
cell has a domain of feasible values, held as an int bitmask (bit v for
value v).  It starts as the interval [max(d, 1), d+u], where d is the
number of distinct values set in the cell's sightline (its seen mask's
popcount) and u the number of its sightline cells still unset; d+u never
exceeds the sightline's length, as d counts only set cells.  Each set
watcher w (a cell whose sightline holds the cell) with value v, seeing d
distinct values and u unset cells, then narrows it when w is tight:

- if d == v, every unset cell w sees must repeat a value w already sees, so
  the domain is ANDed with w's seen-values mask;
- if d + u == v, every one must add a value w does not yet see, so it is
  ANDed with that mask's complement.

A value from its cell's domain therefore never pushes a set cell's distinct
count out of reach, and a full assignment reached this way is a solution.
The search picks the unset cell with the fewest values (ties broken
row-major) and tries them in ascending order.  Each cell keeps its
sightline's counts, seen mask and, once set, the mask its tight case leaves
(``cut``); setting or unsetting a value updates them over the cell's
watchers and recounts only the domains they bear on, so choosing a cell is
a minimum over one list.
"""

from __future__ import annotations

from functools import reduce
from operator import and_
from typing import Iterator, Optional

from .grid import Filling, Grid, verify

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
        self.n = g.rows * g.cols
        # cells are flat indices, as in g.sightlines: (row-1)*cols + (col-1);
        # watchers[j] lists the cells whose sightlines hold j
        self.sight = g.sightlines
        self.watchers = [[] for _ in range(self.n)]
        for w, line in enumerate(self.sight):
            for j in line:
                self.watchers[j].append(w)
        # per cell w, over w's sightline: count[w][v] cells hold v, bit v of
        # seen[w] is set for each v held (its popcount is d, the distinct
        # count), and unassigned[w] of them are unset; cut[w] is the mask an
        # assigned, tight w leaves each unset cell it sees (-1 when it leaves all);
        # size[i] is how many values unset cell i's domain holds (more than
        # any domain once i is set); kept up to date by _set and _unset
        self.full = g.max_value + 1  # more values than any domain holds
        self.values = [0] * self.n  # 0 = unassigned
        self.count = [[0] * self.full for _ in range(self.n)]
        self.seen = [0] * self.n
        self.unassigned = [len(line) for line in self.sight]
        self.cut = [-1] * self.n
        self.size = [0] * self.n
        for i, c in enumerate(g.coords()):
            v = g.cell(c).given
            if v:
                self.values[i] = v
                self._count(i, v, 1)
        self._resize(range(self.n))

    def _domain(self, i: int) -> int:
        """Unset cell i's feasible values as a bitmask: at least the distinct
        values it sees (and 1), at most that plus its unset cells, and only
        what every tight watcher leaves."""
        d = self.seen[i].bit_count()
        span = (2 << (d + self.unassigned[i])) - (1 << (d or 1))  # bits max(d, 1) to d+u
        return reduce(and_, map(self.cut.__getitem__, self.watchers[i]), span)

    def _tighten(self, w: int) -> bool:
        """Recompute cut[w] from w's value and its sightline's counts;
        whether it changed."""
        v, d, old = self.values[w], self.seen[w].bit_count(), self.cut[w]
        if v and d == v:  # each unset cell w sees must repeat a value it sees
            self.cut[w] = self.seen[w]
        elif v and d + self.unassigned[w] == v:  # ... must add a new one
            self.cut[w] = ~self.seen[w]
        else:
            self.cut[w] = -1
        return self.cut[w] != old

    def _count(self, i: int, v: int, step: int) -> list[int]:
        """Count cell i's value v into (step 1) or out of (step -1) its
        watchers' sightlines; the cells whose domains this can change."""
        seen, unassigned = self.seen, self.unassigned
        moved = self.watchers[i] + [i]
        for w in self.watchers[i]:
            count = self.count[w]
            count[v] += step
            if count[v] == (step > 0):  # went from 0 to 1 or from 1 to 0
                seen[w] ^= 1 << v
            unassigned[w] -= step
            if self._tighten(w):
                moved += self.sight[w]
        if self._tighten(i):
            moved += self.sight[i]
        return moved

    def _resize(self, cells) -> None:
        values, size, domain = self.values, self.size, self._domain
        for j in cells:
            size[j] = self.full if values[j] else domain(j).bit_count()

    def _set(self, i: int, v: int) -> None:
        self.values[i] = v
        self._resize(self._count(i, v, 1))

    def _unset(self, i: int) -> None:
        v = self.values[i]
        self.values[i] = 0
        self._resize(self._count(i, v, -1))

    def _branch(self) -> tuple[int, int]:
        """The unassigned cell with the fewest feasible values (row-major on
        ties) and those values as a bitmask; cell -1 once every cell is
        assigned."""
        fewest = min(self.size)
        if fewest == self.full:
            return -1, 0
        i = self.size.index(fewest)
        return i, self._domain(i)

    def run(self, cap: int) -> list[Filling]:
        # Givens alone can already be contradictory; after them, every value
        # tried lies in its cell's domain, so no assigned cell's count breaks.
        for i, v in enumerate(self.values):
            if v and not (d := self.seen[i].bit_count()) <= v <= d + self.unassigned[i]:
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
                    stack.append((i, iter([v for v in range(dom.bit_length()) if dom >> v & 1])))
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
                descend = True
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
