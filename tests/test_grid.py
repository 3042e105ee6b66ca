import random

import pytest

from zeiger.grid import (
    Cell,
    Coord,
    Direction,
    Filling,
    Grid,
    GridError,
    parse_filling,
    parse_grid,
    serialize_filling,
    serialize_grid,
    sightline,
    verify,
)

from .conftest import FIXTURES


def test_parse_basic_tokens():
    g = parse_grid("D. L.\nR. U.")
    assert g.rows == 2 and g.cols == 2
    assert g.cell(Coord(1, 1)).direction == Direction.DOWN
    assert g.cell(Coord(1, 1)).given is None


def test_given_out_of_range_on_2x2():
    # b - 1 = 1 on a 2x2 board, so a given 4 is rejected
    with pytest.raises(GridError, match="given out of range"):
        parse_grid("D. R4\nU2 L.")


def test_empty_sightline_rejected_with_coordinates():
    with pytest.raises(GridError, match=r"empty sightline at \(1,1\)"):
        parse_grid("U. U.\nD. D.")


def test_horizontal_2x2_ok():
    g = parse_grid("R. L.\nR. L.")
    assert all(len(sightline(g, c)) == 1 for c in g.coords())


def test_ragged_rows_rejected():
    with pytest.raises(GridError):
        parse_grid("D. D. D.\nU. U.")


def test_unknown_letter_and_malformed_number():
    with pytest.raises(GridError, match="malformed token"):
        parse_grid("X. D.\nU. U.")
    with pytest.raises(GridError, match="malformed token"):
        parse_grid("D01 D.\nU. U.")


def test_fig1_givens(fig1_grid):
    givens = {
        c: fig1_grid.cell(c).given
        for c in fig1_grid.coords()
        if fig1_grid.cell(c).given is not None
    }
    assert givens == {
        Coord(5, 3): 2,
        Coord(3, 4): 1,
        Coord(2, 5): 3,
        Coord(1, 4): 2,
    }


def test_grid_roundtrip_byte_identical():
    text = (FIXTURES / "fig1.puzzle").read_text()
    g = parse_grid(text)
    assert serialize_grid(g) == text
    assert parse_grid(serialize_grid(g)) == g


def test_filling_roundtrip_and_canon(fig1_solution):
    text = serialize_filling(fig1_solution)
    assert text.splitlines()[0] == "3 3 2 2 3"
    assert parse_filling(text) == fig1_solution


def test_all_right_grid_canonical_format():
    g = parse_grid("R. L.\nR. L.")
    assert serialize_grid(g) == "R. L.\nR. L.\n"


def test_sightline_lengths_by_direction():
    rng = random.Random(7)
    for _ in range(50):
        k, l = rng.randint(2, 8), rng.randint(2, 8)
        rows = []
        for r in range(1, k + 1):
            row = []
            for c in range(1, l + 1):
                choices = []
                if r > 1:
                    choices.append("U")
                if r < k:
                    choices.append("D")
                if c > 1:
                    choices.append("L")
                if c < l:
                    choices.append("R")
                row.append(rng.choice(choices) + ".")
            rows.append(" ".join(row))
        g = parse_grid("\n".join(rows))
        assert len(g.sightlines) == k * l
        for i, c in enumerate(g.coords()):
            line = sightline(g, c)
            assert c not in line
            r, col = c.row, c.col
            d = g.cell(c).direction
            expected = {
                Direction.RIGHT: [Coord(r, j) for j in range(col + 1, l + 1)],
                Direction.LEFT: [Coord(r, j) for j in range(col - 1, 0, -1)],
                Direction.UP: [Coord(j, col) for j in range(r - 1, 0, -1)],
                Direction.DOWN: [Coord(j, col) for j in range(r + 1, k + 1)],
            }[d]
            assert line == expected
            assert list(g.sightlines[i]) == [(s.row - 1) * l + (s.col - 1) for s in expected]


@pytest.mark.parametrize("c", [Coord(0, 1), Coord(6, 1), Coord(1, 0), Coord(1, 6), Coord(-1, 3)])
def test_sightline_off_the_board_raises(fig1_grid, fig1_solution, c):
    # every lookup by coordinate checks the coordinate's place, so a 0 or a
    # negative index cannot wrap round to the far side of the board
    for lookup in (lambda c: sightline(fig1_grid, c), fig1_grid.cell, fig1_solution.value):
        with pytest.raises(GridError, match=rf"^\({c.row},{c.col}\) is off the 5x5 board$"):
            lookup(c)


def test_verify_dimension_mismatch(fig1_grid):
    with pytest.raises(GridError, match="dimension mismatch"):
        verify(fig1_grid, parse_filling("1 1\n1 1"))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Cell(Direction.UP, 0), "given must be positive, got 0"),
        # a field of another type: Grid would raise TypeError or IndexError
        # on it, or serialize_grid write a token (RTrue) parse_grid refuses
        (lambda: Cell("U"), "direction must be a Direction, got 'U'"),
        (lambda: Cell(4), "direction must be a Direction, got 4"),
        (lambda: Cell(Direction.RIGHT, True), "given must be an int, got True"),
        (lambda: Cell(Direction.LEFT, 1.0), "given must be an int, got 1.0"),
        (lambda: Grid([[Cell(Direction.DOWN)], [Cell(Direction.UP)]]),
         "grid must have at least 2 columns"),
        (lambda: Filling([[1, 1], [1]]), "filling must be rectangular"),
        (lambda: Filling([[1, 0]]), "filling values must be positive integers, got 0"),
        (lambda: Filling([[]]), "filling must have at least one column"),
        (lambda: Filling([[1, True]]), "filling values must be positive integers, got True"),
        (lambda: parse_grid("\n  \n"), "empty grid file"),
        (lambda: parse_filling(""), "empty filling file"),
    ],
    ids=["given-zero", "letter-direction", "int-direction", "bool-given", "float-given",
         "one-column", "ragged-filling", "zero-value", "no-columns", "bool-value",
         "empty-grid", "empty-filling"],
)
def test_malformed_input_raises(build, message):
    with pytest.raises(GridError, match=f"^{message}$"):
        build()
