"""Property tests: the card format over every size and face pair, the
protocol's completeness and soundness over drawn seeds, fillings and grids,
the public shape of real and simulated runs and the verifier's rules on
their reveals, and the solver's kept sightline counts over drawn grids."""

import random
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeiger.cards import (
    CLUB,
    HEART,
    MARKER,
    ODD_STACK,
    REST,
    MalformedReveal,
    Transcript,
    encode,
    locate,
)
from zeiger.grid import (
    Cell,
    Direction,
    Filling,
    Grid,
    distinct_count,
    parse_filling,
    parse_grid,
    sightline,
    verify,
)
from zeiger.nae import gen_nae, nae_brute_force
from zeiger.protocol import ProverBehavior, ResourceStats, run_protocol, verify_cell
from zeiger.reduction import lift_assignment, reduce_instance
from zeiger.simulator import _skeleton, simulate_transcript, structure
from zeiger.solver import BudgetExhausted, _Search, solve

from .conftest import FIXTURES

# the marker stacks of the club, heart and pair encodings
MARKS = [CLUB, HEART, ODD_STACK]
FOREIGN = ["CC", "HH", "C", "H", "HC", "CH"]

seeds = st.integers(0, 2**63 - 1)


@st.composite
def encoded(draw):
    mark = draw(st.sampled_from(MARKS))
    q = draw(st.integers(1, 40))
    x = draw(st.integers(0, q - 1))
    return q, x, mark


@settings(max_examples=200)
@given(encoded())
def test_locate_inverts_encode(case):
    q, x, mark = case
    assert locate(encode(q, x, mark), mark) == x


@settings(max_examples=100)
@given(st.sampled_from(MARKS), st.integers(1, 40))
def test_row_without_marker_is_malformed(mark, q):
    with pytest.raises(MalformedReveal, match="found 0"):
        locate([REST[mark]] * q, mark)


@settings(max_examples=100)
@given(encoded(), st.data())
def test_row_with_several_markers_is_malformed(case, data):
    q, x, mark = case
    row = encode(q, x, mark)
    others = [i for i in range(q) if i != x]
    if not others:
        row.append(mark)
    else:
        for i in data.draw(st.lists(st.sampled_from(others), min_size=1, unique=True)):
            row[i] = mark
    with pytest.raises(MalformedReveal, match="expected exactly one"):
        locate(row, mark)


@settings(max_examples=100)
@given(encoded(), st.data())
def test_row_with_foreign_pattern_is_malformed(case, data):
    q, x, mark = case
    foreign = data.draw(st.sampled_from([p for p in FOREIGN if p not in (mark, REST[mark])]))
    row = encode(q, x, mark)
    row.insert(data.draw(st.integers(0, q)), foreign)
    with pytest.raises(MalformedReveal, match="unexpected pattern"):
        locate(row, mark)


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_honest_fig1_accepts(fig1_grid, fig1_solution, seed):
    accept, t, _ = run_protocol(fig1_grid, ProverBehavior.honest(fig1_solution), seed)
    assert accept
    assert t.events[-1] == {"ev": "verdict", "accept": True}


@settings(max_examples=4, deadline=None)
@given(seeds)
def test_every_changed_value_on_unnumbered_fig1_cell_rejects(fig1_grid, fig1_solution, seed):
    for cell in fig1_grid.coords():
        if fig1_grid.cell(cell).given is not None:
            continue
        for wrong in range(1, fig1_grid.max_value + 1):
            if wrong == fig1_solution.value(cell):
                continue
            values = [list(r) for r in fig1_solution.values]
            values[cell.row - 1][cell.col - 1] = wrong
            bad = Filling(values)
            assert verify(fig1_grid, bad)  # a changed cell breaks its own constraint
            accept, t, _ = run_protocol(fig1_grid, ProverBehavior.honest(bad), seed)
            assert not accept, (cell, wrong)
            assert t.events[-1]["accept"] is False


def first_failing_cell(g: Grid, f: Filling):
    """The soundness oracle: the first cell, in row-major order, where a value
    in the cell or its sightline exceeds max_value (it has no pair encoding,
    so a copy finds no marker), or the cell's value differs from its
    sightline's distinct count; None if no cell qualifies."""
    for c in g.coords():
        seen = [f.value(s) for s in sightline(g, c)]
        if max(f.value(c), *seen) > g.max_value or f.value(c) != distinct_count(seen):
            return c
    return None


@cache
def solved_grid(name: str) -> tuple[Grid, Filling]:
    if name == "fig1":
        return (parse_grid((FIXTURES / "fig1.puzzle").read_text()),
                parse_filling((FIXTURES / "fig1.solution").read_text()))
    if name == "R. L./R. L.":
        return parse_grid("R. L.\nR. L."), Filling([[1, 1], [1, 1]])
    n, m = {"gen_nae(3, 4, 0)": (3, 4), "gen_nae(4, 6, 0)": (4, 6)}[name]
    inst = gen_nae(n, m, 0)
    return reduce_instance(inst), lift_assignment(inst, nae_brute_force(inst))


@st.composite
def random_grids(draw):
    """2..5 x 2..5 grids of random arrows, none pointing off the board, and
    random givens on about a quarter of the cells (more make most grids
    unsolvable)."""
    rows, cols = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    top = max(rows, cols) - 1
    cells = []
    for r in range(rows):
        row = []
        for c in range(cols):
            # the Direction order: UP, DOWN, LEFT, RIGHT
            on_board = (r > 0, r < rows - 1, c > 0, c < cols - 1)
            arrow = draw(st.sampled_from([d for d, ok in zip(Direction, on_board) if ok]))
            given = draw(st.integers(1, top)) if draw(st.integers(0, 3)) == 0 else None
            row.append(Cell(arrow, given))
        cells.append(row)
    return Grid(cells)


def draw_filling(data, g: Grid, base) -> Filling:
    """A filling that keeps the givens, with values in 1..max_value+1: either
    ``base`` with up to three unnumbered cells redrawn, or drawn afresh."""
    free = [c for c in g.coords() if g.cell(c).given is None]
    if base is not None and data.draw(st.booleans()):
        values = [list(row) for row in base.values]
        redrawn = data.draw(st.lists(st.sampled_from(free), max_size=3, unique=True)) if free else []
    else:
        values = [[cell.given or 0 for cell in row] for row in g.cells]
        redrawn = free
    for c in redrawn:
        values[c.row - 1][c.col - 1] = data.draw(st.integers(1, g.max_value + 1))
    return Filling(values)


def assert_rejects_exactly_at_first_failing_cell(g, f, seed):
    accept, t, _ = run_protocol(g, ProverBehavior.honest(f), seed)
    bad = first_failing_cell(g, f)
    assert accept == (bad is None)
    if bad is not None:
        assert t.events[-1]["cell"] == [bad.row, bad.col]


@pytest.mark.parametrize("name", ["fig1", "R. L./R. L.", "gen_nae(3, 4, 0)", "gen_nae(4, 6, 0)"])
@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=seeds)
def test_run_rejects_exactly_at_the_first_failing_cell(name, data, seed):
    g, solution = solved_grid(name)
    assert_rejects_exactly_at_first_failing_cell(g, draw_filling(data, g, solution), seed)


def solve_or_none(g: Grid):
    try:
        return solve(g, budget=2_000)
    except BudgetExhausted:
        return None


@settings(max_examples=100, deadline=None)
@given(g=random_grids(), data=st.data(), seed=seeds)
def test_run_rejects_exactly_at_the_first_failing_cell_on_random_grids(g, data, seed):
    assert_rejects_exactly_at_first_failing_cell(g, draw_filling(data, g, solve_or_none(g)), seed)


@settings(max_examples=100, deadline=None)
@given(g=random_grids(), data=st.data(), seed=seeds)
def test_a_checks_events_do_not_depend_on_the_boards_values(g, data, seed):
    b = g.max_value + 1
    board = {c: encode(b, data.draw(st.integers(0, b - 1)), ODD_STACK) for c in g.coords()}
    t, pool, rng = Transcript(), ResourceStats(), random.Random(seed)
    for c in g.coords():
        verify_cell(board, g, c, pool, rng, t)
    assert structure(t) == list(_skeleton(g))


def assert_keeps_the_verifiers_rules(t: Transcript):
    """``locate`` accepts every reveal, each normalize shifts by the position
    revealed just before it, and each cell's two compare rows agree."""
    last = None  # (site, position) of the event just before, if a reveal
    for ev in t.events:
        if ev["ev"] == "reveal":
            pos = locate(ev["faces"], MARKER[ev["site"]])
            if ev["site"] == "compare" and ev["row"] == 1:
                assert last == ("compare", pos)
            last = ev["site"], pos
            continue
        if ev["ev"] == "normalize":
            assert last is not None and last[1] == ev["shift"]
        last = None


def assert_runs_have_the_skeleton_and_keep_the_rules(g: Grid, solution, seed):
    """An honest run (if there is a solution) and a simulated run both
    accept, with the skeleton's structure, and keep the verifier's rules."""
    runs = [simulate_transcript(g, seed)]
    if solution is not None:
        runs.append(run_protocol(g, ProverBehavior.honest(solution), seed)[1])
    for t in runs:
        assert t.events[-1] == {"ev": "verdict", "accept": True}
        assert structure(t)[:-1] == list(_skeleton(g))
        assert_keeps_the_verifiers_rules(t)


@pytest.mark.parametrize("name", ["fig1", "gen_nae(4, 6, 0)"])
@settings(max_examples=20, deadline=None)
@given(seed=seeds)
def test_runs_keep_the_skeleton_and_the_verifiers_rules(name, seed):
    assert_runs_have_the_skeleton_and_keep_the_rules(*solved_grid(name), seed)


@settings(max_examples=100, deadline=None)
@given(g=random_grids(), seed=seeds)
def test_runs_on_random_grids_keep_the_skeleton_and_the_verifiers_rules(g, seed):
    assert_runs_have_the_skeleton_and_keep_the_rules(g, solve_or_none(g), seed)


class CheckedSearch(_Search):
    """A search that checks every cell's kept sightline interval against a
    count from scratch before each branch (a raise, which ``-O`` keeps)."""

    def _branch(self):
        for i, line in enumerate(self.sight):
            seen = [self.values[j] for j in line]
            counted = (len(set(seen) - {0}), seen.count(0))
            if self._interval(i) != counted:
                raise AssertionError(f"cell {i}: kept {self._interval(i)}, counted {counted}")
        return super()._branch()


def kept_counts(search: _Search):
    return search.values, search.count, search.distinct, search.unassigned


@settings(max_examples=200, deadline=None)
@given(g=random_grids())
def test_solver_keeps_exact_sightline_counts(g):
    search = CheckedSearch(g, budget=20_000)
    found = search.run(cap=1000)
    assert len(found) < 1000  # so the search ran to exhaustion
    # every value it set is unset again: the tables are back to the givens'
    assert kept_counts(search) == kept_counts(_Search(g, budget=0))
