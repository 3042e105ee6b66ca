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
sightline's seen mask and unset-cell count and, once set, the mask its
tight case leaves (``cut``).  The givens are counted into them once, in one
pass over the sightlines; after that, the search's state covers only the
free (unnumbered) cells, the only ones it sets: their slots (``slot``, -1
for a given), watcher lists, domains (``dom``, computed once from scratch)
and domain sizes, and the free cells each sightline holds.  Choosing a cell
is a minimum over one list of the sizes.

Setting free cell i to v pushes a trail frame with the old seen mask and
cut of i and of each of its watchers, adds v to each watcher's seen mask
and takes one off its unset count.  It then narrows the kept domains with
the new bounds only: each unset cell seen by a set cell whose cut changed
is ANDed with the new cut, and each unset watcher with its new span; the
old (dom, size) entries go into the same frame.  Unsetting i pops the
frame, writes the seen masks and cuts back, gives each watcher its unset
cell back and restores the domains newest first.  So nothing is recounted
during the search, and no cell keeps a tally per value: the frame holds
each seen mask as it was.

A narrowed domain equals a full recount because setting a cell can only
narrow a domain: v lies in every watcher's cut, so for a set watcher w

- a cut of w's seen mask stays that mask (v repeats a value, d stays v);
- a cut of its complement becomes the complement of a seen mask that has
  gained v, a subset of it;
- a cut of -1 (no bound) may become anything, a subset of it;
- a cut of the complement whose u drops to 0 becomes the seen mask itself,
  no subset of it, but w then sees no unset cell for it to bound;

and the span [max(d, 1), d+u] of a free cell whose sightline holds i only
narrows, as d grows by at most 1 and u falls by 1.
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
        # cells the search sets, k is its slot and slot[free[k]] == k
        self.full = g.max_value + 1  # more values than any domain holds
        self.values = values = [cell.given or 0 for row in g.cells for cell in row]  # 0 = unset
        self.free = free = [i for i, v in enumerate(values) if not v]
        self.slot = slot = [-1] * len(values)  # -1 for a given
        for k, i in enumerate(free):
            slot[i] = k
        # per cell w, over w's sightline: bit v of seen[w] is set for each
        # value v held (its popcount is d, the distinct count), and
        # unassigned[w] cells are unset; cut[w] is the mask an assigned,
        # tight w leaves each unset cell it sees (-1 when it leaves all);
        # sees[w] lists the slots of the free cells in w's sightline.  Per
        # slot k: watchers[k] lists the cells whose sightlines hold free[k],
        # dom[k] is free[k]'s domain (kept as it was when free[k] was set,
        # until it is unset) and size[k] how many values it holds (full once
        # free[k] is set).  The givens are counted here, once; _set and
        # _unset keep the rest, and trail holds one frame per set cell: the
        # old seen masks and cuts of the cell and its watchers, and the old
        # domains.
        self.seen, self.unassigned, self.sees = [], [], []
        self.watchers = [[] for _ in free]
        for w, line in enumerate(g.sightlines):
            mask, sees = 0, []
            for j in line:
                mask |= 1 << values[j]
                if (k := slot[j]) >= 0:
                    sees.append(k)
                    self.watchers[k].append(w)
            self.seen.append(mask & ~1)  # bit 0 marks an unset cell
            self.unassigned.append(len(sees))
            self.sees.append(sees)
        self.cut = [self._cut(w) for w in range(len(values))]
        self.dom = [self._domain(k) for k in range(len(free))]
        self.size = [d.bit_count() for d in self.dom]
        self.trail = []

    def _domain(self, k: int) -> int:
        """Free cell k's feasible values as a bitmask: at least the distinct
        values it sees (and 1), at most that plus its unset cells, and only
        what every tight watcher leaves."""
        return reduce(and_, map(self.cut.__getitem__, self.watchers[k]), self._span(self.free[k]))

    def _span(self, i: int) -> int:
        """Bits max(d, 1) to d+u: the values cell i's sightline leaves it."""
        d = self.seen[i].bit_count()
        return (2 << (d + self.unassigned[i])) - (1 << (d or 1))

    def _cut(self, w: int) -> int:
        """The mask cell w leaves each unset cell it sees, from w's value and
        its sightline's counts: -1 unless w is set and tight."""
        v, seen = self.values[w], self.seen[w]
        d = seen.bit_count()
        if v and d == v:  # each unset cell w sees must repeat a value it sees
            return seen
        if v and d + self.unassigned[w] == v:  # ... must add a new one
            return ~seen
        return -1

    def _set(self, k: int, v: int) -> None:
        """Set free cell k to v, a value from its domain; narrow the domains
        this bears on and push one trail frame that ``_unset`` pops."""
        values, seen, unassigned, cut, free = self.values, self.seen, self.unassigned, self.cut, self.free
        i = free[k]
        cells = (i, *self.watchers[k])  # i, whose own cut can leave -1, and its watchers
        olds = [(w, seen[w], cut[w]) for w in cells]
        doms = [(k, self.dom[k], self.size[k])]  # (slot, old dom, old size), oldest first
        self.trail.append((olds, doms))
        values[i] = v
        self.size[k] = self.full
        bit = 1 << v
        for w in cells[1:]:
            seen[w] |= bit
            unassigned[w] -= 1
        for w in cells:
            if not values[w]:  # an unset watcher: its span narrowed
                self._narrow(self.slot[w], self._span(w), doms)
            elif (c := self._cut(w)) != cut[w]:
                cut[w] = c
                for s in self.sees[w]:
                    if not values[free[s]]:
                        self._narrow(s, c, doms)

    def _narrow(self, s: int, mask: int, doms: list) -> None:
        """AND slot s's domain with mask, first pushing its old entry onto
        doms if that changes it."""
        if (new := self.dom[s] & mask) != self.dom[s]:
            doms.append((s, self.dom[s], self.size[s]))
            self.dom[s] = new
            self.size[s] = new.bit_count()

    def _unset(self, k: int) -> None:
        """Undo the latest ``_set``, of free cell k, from the trail's top
        frame: write back the seen masks and cuts, give each watcher its
        unset cell back and restore the domains."""
        seen, cut, unassigned, dom, size = self.seen, self.cut, self.unassigned, self.dom, self.size
        self.values[self.free[k]] = 0
        olds, doms = self.trail.pop()
        for w, m, c in olds:
            seen[w] = m
            cut[w] = c
        for w in self.watchers[k]:
            unassigned[w] += 1
        for s, d, n in reversed(doms):  # a slot narrowed twice gets its oldest entry last
            dom[s] = d
            size[s] = n

    def _branch(self) -> tuple[int, int]:
        """The slot of the unset cell with the fewest feasible values
        (row-major on ties) and those values as a bitmask; slot -1 once
        every cell is set."""
        fewest = min(self.size, default=self.full)
        if fewest == self.full:
            return -1, 0
        k = self.size.index(fewest)
        return k, self.dom[k]

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
