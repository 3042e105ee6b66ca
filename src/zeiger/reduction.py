"""NAE3SAT+ -> Zeiger transformation and solution lifting in both directions.

An instance with m clauses and n variables maps to an (m+3) x (n+5) grid
whose first m rows encode clauses and first n columns encode variables;
values 2 and 3 stand for TRUE and FALSE.  The grid has two kinds of row,
written in ``.puzzle`` tokens (variable columns 1..n, then five fixed ones):

    clause p       D. if q is in clause p, else R4    R4 L3 R2 R1 L4
    rows m+1..m+3  R4, then U2, then U.               R4 R3 R2 R1 L4
"""

from __future__ import annotations

import itertools
import math

from .grid import Cell, Coord, Direction, Filling, Grid, verify
from .nae import Assignment, NaeInstance, nae_check


class ReductionError(ValueError):
    """Precondition violation in lift/extract, or a lift/extract result
    that fails its own check."""


# the templates' cells, shared by every reduced grid, as a Cell is frozen
_R4, _DOWN = Cell(Direction.RIGHT, 4), Cell(Direction.DOWN)
_CLAUSE_TAIL = [_R4, Cell(Direction.LEFT, 3), Cell(Direction.RIGHT, 2), Cell(Direction.RIGHT, 1),
                Cell(Direction.LEFT, 4)]
_LOWER_TAIL = [_R4, Cell(Direction.RIGHT, 3)] + _CLAUSE_TAIL[2:]
_LOWER = (_R4, Cell(Direction.UP, 2), Cell(Direction.UP))


def reduce_instance(inst: NaeInstance) -> Grid:
    """The (m+3) x (n+5) grid encoding ``inst``, built from two row templates:
    a clause row is ``D.`` or ``R4`` per variable, then ``R4 L3 R2 R1 L4``; the
    three rows below are ``R4``, ``U2``, ``U.`` each, then ``R4 R3 R2 R1 L4``."""
    rows = [[_DOWN if q in cl else _R4 for q in range(1, inst.n + 1)] + _CLAUSE_TAIL
            for cl in inst.clauses]
    rows += [[cell] * inst.n + _LOWER_TAIL for cell in _LOWER]
    return Grid(rows)


def lift_assignment(inst: NaeInstance, a: Assignment) -> Filling:
    """Turn a satisfying assignment into a filling of the reduced grid."""
    if not nae_check(inst, a):
        raise ReductionError("assignment does not satisfy the instance")
    g = reduce_instance(inst)
    # Unnumbered cells only occur in the first n columns.
    f = Filling([[c.given or (2 if a[j] else 3) for j, c in enumerate(row)] for row in g.cells])
    bad = verify(g, f)
    if bad:
        raise ReductionError(f"lifted filling failed verification: {bad[:3]}")
    return f


def extract_assignment(inst: NaeInstance, f: Filling) -> Assignment:
    """Read the assignment off the bottom row of a solved reduced grid."""
    g = reduce_instance(inst)
    if verify(g, f):
        raise ReductionError("filling does not solve the reduced grid")
    a = tuple(f.value(Coord(g.rows, q)) == 2 for q in range(1, inst.n + 1))
    if not nae_check(inst, a):
        raise ReductionError("extracted assignment violates the instance")
    return a


def column_fillings(inst: NaeInstance) -> list[list[tuple[int, ...]]]:
    """For each variable column, column 1 first: all value tuples for its
    unnumbered cells satisfying that column's up/down arrow constraints
    (right-arrow constraints ignored, numbered cells fixed).  Enumerated
    exhaustively on one grid; tuples are ordered top to bottom.
    """
    g = reduce_instance(inst)
    cells = [cell for row in g.cells for cell in row]
    values = [cell.given or 0 for cell in cells]
    fillings = []
    for q in range(inst.n):
        column = range(q, len(cells), g.cols)  # the column's flat indices, top to bottom
        unknown = [i for i in column if cells[i].given is None]
        # a cell counts the distinct values it sees, so it holds 1..(its sightline length)
        choices = [range(1, len(g.sightlines[i]) + 1) for i in unknown]
        n_cand = math.prod(len(c) for c in choices)
        if n_cand > 5_000_000:
            raise ReductionError(f"too many candidates to enumerate: {n_cand}")
        # (cell, the cells it sees) for each up or down arrow; they see only their column
        arrows = [
            (i, g.sightlines[i])
            for i in column
            if cells[i].direction in (Direction.UP, Direction.DOWN)
        ]
        found = []
        for combo in itertools.product(*choices):
            for i, v in zip(unknown, combo):
                values[i] = v
            if all(len({values[j] for j in seen}) == values[i] for i, seen in arrows):
                found.append(combo)
        fillings.append(found)
    return fillings
