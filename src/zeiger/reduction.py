"""NAE3SAT+ -> Zeiger transformation and solution lifting in both directions.

An instance with m clauses and n variables maps to an (m+3) x (n+5) grid
whose first m rows encode clauses and first n columns encode variables;
values 2 and 3 stand for TRUE and FALSE.
"""

from __future__ import annotations

import numpy as np

from .grid import Cell, Coord, Direction, Filling, Grid, verify
from .nae import Assignment, NaeInstance, nae_check


class ReductionError(ValueError):
    """Precondition violation in lift/extract, or a lift/extract result
    that fails its own check."""


def reduce_instance(inst: NaeInstance) -> Grid:
    """Build the (m+3) x (n+5) Zeiger grid encoding ``inst``."""
    m, n = inst.m, inst.n
    members = [set(cl) for cl in inst.clauses]
    cells = []
    for p in range(1, m + 4):
        row = []
        for q in range(1, n + 6):
            if q <= n:
                if p <= m:
                    if q in members[p - 1]:
                        cell = Cell(Direction.DOWN)
                    else:
                        cell = Cell(Direction.RIGHT, 4)
                elif p == m + 1:
                    cell = Cell(Direction.RIGHT, 4)
                elif p == m + 2:
                    cell = Cell(Direction.UP, 2)
                else:  # p == m + 3
                    cell = Cell(Direction.UP)
            elif q == n + 1:
                cell = Cell(Direction.RIGHT, 4)
            elif q == n + 2:
                if p <= m:
                    cell = Cell(Direction.LEFT, 3)
                else:
                    cell = Cell(Direction.RIGHT, 3)
            elif q == n + 3:
                cell = Cell(Direction.RIGHT, 2)
            elif q == n + 4:
                cell = Cell(Direction.RIGHT, 1)
            else:  # q == n + 5
                cell = Cell(Direction.LEFT, 4)
            row.append(cell)
        cells.append(row)
    return Grid(cells)


def lift_assignment(inst: NaeInstance, a: Assignment) -> Filling:
    """Turn a satisfying assignment into a filling of the reduced grid."""
    if not nae_check(inst, a):
        raise ReductionError("assignment does not satisfy the instance")
    g = reduce_instance(inst)
    values = []
    for p in range(1, g.rows + 1):
        row = []
        for q in range(1, g.cols + 1):
            given = g.cell(Coord(p, q)).given
            if given is not None:
                row.append(given)
            else:
                # Unnumbered cells only occur in the first n columns.
                row.append(2 if a[q - 1] else 3)
        values.append(row)
    f = Filling(values)
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


def _popcount_table(max_mask: int) -> np.ndarray:
    return np.array([bin(i).count("1") for i in range(max_mask + 1)], dtype=np.int16)


def column_fillings(inst: NaeInstance, q: int) -> list[tuple[int, ...]]:
    """All value tuples for column q's unnumbered cells satisfying that column's
    up/down arrow constraints (right-arrow constraints ignored, numbered cells
    fixed).  Enumerated exhaustively; tuples are ordered top to bottom.
    """
    if not 1 <= q <= inst.n:
        raise ReductionError(f"column {q} out of range [1,{inst.n}]")
    g = reduce_instance(inst)
    m = inst.m
    b = g.max_value + 1

    # Column q top to bottom: fixed values (0 marks an unknown).
    fixed = np.zeros(m + 3, dtype=np.int16)
    unknown_rows = []
    arrows = []  # (row index 0-based, direction)
    for p in range(1, m + 4):
        cell = g.cell(Coord(p, q))
        if cell.given is None:
            unknown_rows.append(p - 1)
        else:
            fixed[p - 1] = cell.given
        if cell.direction in (Direction.UP, Direction.DOWN):
            arrows.append((p - 1, cell.direction))

    u = len(unknown_rows)
    n_cand = (b - 1) ** u
    if n_cand > 5_000_000:
        raise ReductionError(f"too many candidates to enumerate: {n_cand}")

    # Candidate matrix: every combination of values 1..b-1 for the unknowns.
    idx = np.arange(n_cand, dtype=np.int64)
    cols = np.tile(fixed, (n_cand, 1))
    for pos, row in enumerate(unknown_rows):
        cols[:, row] = (idx // (b - 1) ** (u - 1 - pos)) % (b - 1) + 1

    pop = _popcount_table((1 << b) - 1)
    bits = (np.int32(1) << cols.astype(np.int32)).astype(np.int32)
    ok = np.ones(n_cand, dtype=bool)
    for row, direction in arrows:
        if direction == Direction.DOWN:
            seg = bits[:, row + 1 :]
        else:
            seg = bits[:, :row]
        mask = np.bitwise_or.reduce(seg, axis=1)
        ok &= pop[mask] == cols[:, row]

    survivors = cols[ok][:, unknown_rows]
    return [tuple(int(v) for v in row) for row in survivors]
