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
(``cut``).  The givens are counted into them once, in one pass over the
sightlines; after that, the search's state covers only the free (unnumbered)
cells, the only ones it sets: their watcher lists, their domain sizes, and
the free cells each sightline holds.  Setting or unsetting a value updates
the counts over the cell's watchers and recounts only the free cells' domains
they bear on, so choosing a cell is a minimum over one list of the free
cells.
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
        # cells are flat indices, as in g.sightlines: (row-1)*cols + (col-1);
        # free[k] is the k-th unnumbered cell in row-major order, the only
        # cells the search sets, and k is its slot
        self.full = g.max_value + 1  # more values than any domain holds
        self.values = values = [cell.given or 0 for row in g.cells for cell in row]  # 0 = unset
        self.free = free = [i for i, v in enumerate(values) if not v]
        slot = dict(zip(free, range(len(free))))
        # per cell w, over w's sightline: count[w][v] cells hold v, bit v of
        # seen[w] is set for each v held (its popcount is d, the distinct
        # count), and unassigned[w] of them are unset; cut[w] is the mask an
        # assigned, tight w leaves each unset cell it sees (-1 when it leaves
        # all); sees[w] lists the slots of the free cells in w's sightline.
        # Per slot k: watchers[k] lists the cells whose sightlines hold
        # free[k], free_watchers[k] the slots among them, and size[k] is how
        # many values free[k]'s domain holds (full once it is set).  The
        # givens are counted here, once; _set and _unset keep the rest.
        self.count, self.seen, self.unassigned, self.sees = [], [], [], []
        self.watchers = [[] for _ in free]
        self.free_watchers = [[] for _ in free]
        for w, line in enumerate(g.sightlines):
            count, mask, sees = [0] * self.full, 0, []
            for j in line:  # value 0 counts the unset cells, for unassigned[w]
                v = values[j]
                count[v] += 1
                mask |= 1 << v
                if not v:
                    k = slot[j]
                    sees.append(k)
                    self.watchers[k].append(w)
                    if not values[w]:
                        self.free_watchers[k].append(slot[w])
            self.unassigned.append(count[0])
            count[0] = 0
            self.count.append(count)
            self.seen.append(mask & ~1)
            self.sees.append(sees)
        self.cut = [-1] * len(values)
        for w in range(len(values)):
            self._tighten(w)
        self.size = [0] * len(free)
        self._resize(range(len(free)))

    def _domain(self, k: int) -> int:
        """Free cell k's feasible values as a bitmask: at least the distinct
        values it sees (and 1), at most that plus its unset cells, and only
        what every tight watcher leaves."""
        i = self.free[k]
        d = self.seen[i].bit_count()
        span = (2 << (d + self.unassigned[i])) - (1 << (d or 1))  # bits max(d, 1) to d+u
        return reduce(and_, map(self.cut.__getitem__, self.watchers[k]), span)

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

    def _count(self, k: int, v: int, step: int) -> set[int]:
        """Count free cell k's value v into (step 1) or out of (step -1) its
        watchers' sightlines; the slots whose domains this can change."""
        values, seen, unassigned = self.values, self.seen, self.unassigned
        moved = {k, *self.free_watchers[k]}
        for w in self.watchers[k]:
            count = self.count[w]
            count[v] += step
            if count[v] == (step > 0):  # went from 0 to 1 or from 1 to 0
                seen[w] ^= 1 << v
            unassigned[w] -= step
            if values[w] and self._tighten(w):  # an unset w's cut stays -1
                moved.update(self.sees[w])
        i = self.free[k]
        if self._tighten(i):
            moved.update(self.sees[i])
        return moved

    def _resize(self, slots) -> None:
        values, free, size, domain = self.values, self.free, self.size, self._domain
        for k in slots:
            size[k] = self.full if values[free[k]] else domain(k).bit_count()

    def _set(self, k: int, v: int) -> None:
        self.values[self.free[k]] = v
        self._resize(self._count(k, v, 1))

    def _unset(self, k: int) -> None:
        i = self.free[k]
        v = self.values[i]
        self.values[i] = 0
        self._resize(self._count(k, v, -1))

    def _branch(self) -> tuple[int, int]:
        """The slot of the unset cell with the fewest feasible values
        (row-major on ties) and those values as a bitmask; slot -1 once
        every cell is set."""
        fewest = min(self.size, default=self.full)
        if fewest == self.full:
            return -1, 0
        k = self.size.index(fewest)
        return k, self._domain(k)

    def run(self, cap: int) -> list[Filling]:
        # Givens alone can already be contradictory; after them, every value
        # tried lies in its cell's domain, so no assigned cell's count breaks.
        for i, v in enumerate(self.values):
            if v and not (d := self.seen[i].bit_count()) <= v <= d + self.unassigned[i]:
                return []
        found: list[Filling] = []
        # One (slot, untried values) frame per branching cell, deepest last:
        # a loop, not recursion, so no grid outgrows Python's call stack.
        stack: list[tuple[int, Iterator[int]]] = []
        descend = True
        while True:
            if descend:
                k, dom = self._branch()
                if k < 0:
                    found.append(self._to_filling())
                    if len(found) >= cap:
                        return found
                else:
                    stack.append((k, iter([v for v in range(dom.bit_length()) if dom >> v & 1])))
            if not stack:
                return found
            k, untried = stack[-1]
            if self.values[self.free[k]]:
                self._unset(k)
            v = next(untried, 0)   # 0 once exhausted
            if v:
                self.nodes += 1
                if self.nodes > self.budget:
                    raise BudgetExhausted(f"exceeded {self.budget} nodes")
                self._set(k, v)
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
