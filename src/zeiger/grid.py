"""Zeiger puzzle data model: grids of arrow cells, fillings, and the rule checker.

A puzzle is a k x l grid where every cell carries an arrow (up, down, left or
right) and optionally a given number.  A filling assigns a positive integer to
every cell; it solves the puzzle when each cell's number equals the count of
distinct numbers among the cells its arrow points at.

A grid computes each cell's sightline once, on construction, as a ``range``
of flat indices (cell (r, c) is ``(r-1)*cols + (c-1)``, row-major), nearest
cell first; the checker, the solver, the protocol and the reduction read
``Grid.sightlines`` and none of them walks the board.  The protocol's board
is a list of the cells' card rows in the same flat order, and a check copies
cell i and then the cells of ``Grid.sightlines[i]``.  ``Grid.cell``,
``Grid.index``, ``Filling.value`` and ``sightline`` raise ``GridError`` off
the board, and ``Grid.check_size`` on a filling of another size; no other
module checks either.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import IntEnum
from typing import Optional


class GridError(ValueError):
    """Malformed grid/filling text or an invalid grid."""


class Direction(IntEnum):
    UP = 0
    DOWN = 1
    LEFT = 2
    RIGHT = 3

    @property
    def letter(self) -> str:
        return "UDLR"[self.value]


@dataclass(frozen=True)
class Coord:
    """1-based cell coordinate; row 1 is the top row."""

    row: int
    col: int

    def __str__(self) -> str:
        return f"({self.row},{self.col})"


@dataclass(frozen=True)
class Cell:
    direction: Direction
    given: Optional[int] = None

    def __post_init__(self):
        if not isinstance(self.direction, Direction):
            raise GridError(f"direction must be a Direction, got {self.direction!r}")
        if self.given is not None:
            if type(self.given) is not int:  # bool is an int subclass
                raise GridError(f"given must be an int, got {self.given!r}")
            if self.given < 1:
                raise GridError(f"given must be positive, got {self.given}")


def _at(table: tuple, rows: int, cols: int, c: Coord):
    if not (1 <= c.row <= rows and 1 <= c.col <= cols):
        raise GridError(f"{c} is off the {rows}x{cols} board")
    return table[c.row - 1][c.col - 1]


_TOKEN_RE = re.compile(r"^([UDLR])(\.|[1-9][0-9]*)$")


class Grid:
    """Immutable k x l Zeiger grid, validated on construction."""

    def __init__(self, cells: list[list[Cell]]):
        k = len(cells)
        if k < 2 or any(len(row) != len(cells[0]) for row in cells):
            raise GridError("grid must be rectangular with k >= 2 rows")
        l = len(cells[0])
        if l < 2:
            raise GridError("grid must have at least 2 columns")
        self.rows, self.cols = k, l
        self.cells = tuple(tuple(row) for row in cells)
        # only the range the arrow picks; Coord tuples would raise peak memory by megabytes
        up, down, left, _ = Direction  # bound once: Direction.UP costs ~0.1 us a read
        self.sightlines = tuple(
            range(i - l, i % l - l, -l) if d is up else range(i + l, k * l, l) if d is down
            else range(i - 1, i - i % l - 1, -1) if d is left else range(i + 1, i - i % l + l)
            for i, d in enumerate(cell.direction for row in self.cells for cell in row)
        )
        self._validate()

    @property
    def max_value(self) -> int:
        """Largest value any cell can hold: max(k, l) - 1."""
        return max(self.rows, self.cols) - 1

    def cell(self, c: Coord) -> Cell:
        return _at(self.cells, self.rows, self.cols, c)

    def index(self, c: Coord) -> int:
        """``c``'s flat index, ``(row-1)*cols + (col-1)``; raises off the board."""
        self.cell(c)
        return (c.row - 1) * self.cols + c.col - 1

    def coord(self, i: int) -> Coord:
        """Flat index ``i``'s coordinate, the inverse of ``index``."""
        return Coord(i // self.cols + 1, i % self.cols + 1)

    def check_size(self, f: Filling):
        """Raise GridError unless ``f`` has this grid's size."""
        if (f.rows, f.cols) != (self.rows, self.cols):
            raise GridError(f"dimension mismatch: grid is {self.rows}x{self.cols}, "
                            f"filling is {f.rows}x{f.cols}")

    def coords(self):
        """All coordinates in row-major order."""
        for r in range(1, self.rows + 1):
            for c in range(1, self.cols + 1):
                yield Coord(r, c)

    def _validate(self):
        top = self.max_value
        cells = (cell for row in self.cells for cell in row)
        for i, (cell, line) in enumerate(zip(cells, self.sightlines)):
            if cell.given is not None and cell.given > top:
                raise GridError(
                    f"given out of range at {self.coord(i)}: {cell.given} > {top}"
                )
            if not line:
                raise GridError(
                    f"empty sightline at {self.coord(i)}: {cell.direction.letter} arrow "
                    "points off the board"
                )

    def __eq__(self, other) -> bool:
        return isinstance(other, Grid) and self.cells == other.cells

    def __hash__(self) -> int:
        return hash(self.cells)

    def __repr__(self) -> str:
        return f"Grid({self.rows}x{self.cols})"


class Filling:
    """Full assignment of positive integers to a grid's cells."""

    def __init__(self, values: list[list[int]]):
        if not values or any(len(row) != len(values[0]) for row in values):
            raise GridError("filling must be rectangular")
        if not values[0]:
            raise GridError("filling must have at least one column")
        self.rows = len(values)
        self.cols = len(values[0])
        self.values = tuple(tuple(row) for row in values)
        for row in self.values:
            for v in row:
                if type(v) is not int or v < 1:  # bool is an int subclass
                    raise GridError(f"filling values must be positive integers, got {v!r}")

    def value(self, c: Coord) -> int:
        return _at(self.values, self.rows, self.cols, c)

    def __eq__(self, other) -> bool:
        return isinstance(other, Filling) and self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        return f"Filling({self.rows}x{self.cols})"


def parse_grid(text: str) -> Grid:
    """Parse the .puzzle format: one line per row, tokens like ``D.`` or ``R4``."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GridError("empty grid file")
    cells = []
    for r, line in enumerate(lines, start=1):
        row = []
        for c, tok in enumerate(line.split(), start=1):
            m = _TOKEN_RE.match(tok)
            if m is None:
                raise GridError(f"malformed token {tok!r} at ({r},{c})")
            direction = Direction("UDLR".index(m.group(1)))
            given = None if m.group(2) == "." else int(m.group(2))
            row.append(Cell(direction, given))
        cells.append(row)
    return Grid(cells)


def serialize_grid(g: Grid) -> str:
    lines = []
    for row in g.cells:
        toks = [
            cell.direction.letter + ("." if cell.given is None else str(cell.given))
            for cell in row
        ]
        lines.append(" ".join(toks))
    return "\n".join(lines) + "\n"


def parse_filling(text: str) -> Filling:
    """Parse the .solution format: one line per row of decimal integers."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GridError("empty filling file")
    values = []
    for r, line in enumerate(lines, start=1):
        row = []
        for c, tok in enumerate(line.split(), start=1):
            if not (tok.isascii() and tok.isdigit()) or int(tok) < 1:
                raise GridError(f"malformed value {tok!r} at ({r},{c})")
            row.append(int(tok))
        values.append(row)
    return Filling(values)


def serialize_filling(f: Filling) -> str:
    return "\n".join(" ".join(str(v) for v in row) for row in f.values) + "\n"


def sightline(g: Grid, c: Coord) -> list[Coord]:
    """Cells strictly beyond ``c`` in its arrow's direction, nearest first."""
    return [g.coord(j) for j in g.sightlines[g.index(c)]]


@dataclass(frozen=True)
class Violation:
    coord: Coord
    expected: int
    actual: int
    kind: str = "arrow"  # "arrow" or "given"

    def __str__(self) -> str:
        if self.kind == "given":
            return f"given mismatch at {self.coord}: expected {self.expected}, got {self.actual}"
        return f"arrow constraint at {self.coord}: expected {self.expected}, got {self.actual}"


def verify(g: Grid, f: Filling) -> list[Violation]:
    """Check a filling against the grid; empty list means it is a solution.
    Given mismatches come first, then arrow violations, each row-major."""
    g.check_size(f)
    values = [v for row in f.values for v in row]
    cells = (cell for row in g.cells for cell in row)
    violations = [
        Violation(g.coord(i), cell.given, v, kind="given")
        for i, (cell, v) in enumerate(zip(cells, values))
        if cell.given is not None and v != cell.given
    ]
    at = values.__getitem__
    for i, (v, line) in enumerate(zip(values, g.sightlines)):
        expected = len(set(map(at, line)))
        if v != expected:
            violations.append(Violation(g.coord(i), expected, v))
    return violations
