"""Property tests: the card format over every size and face pair, the
protocol's completeness and soundness over drawn seeds, fillings and grids,
the public shape of real and simulated runs and the verifier's rules on
their reveals, and the solver's kept state and lossless pruning over drawn
grids.

Some checks live only here: the card format's round trip at every width up
to 40 (``test_locate_inverts_encode``), the expected and actual values
``verify`` reports for each violation
(``test_verify_reports_every_violation_in_order``), and the whole reject
verdict of a run with a cell at b, a malformed cell, or a malformed cell at
b, on every grid of the small sweeps (``BREAKS``)."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeiger.audit import check_transcript
from zeiger.cards import (
    CLUB,
    HEART,
    ODD_STACK,
    REST,
    MalformedReveal,
    Transcript,
    encode,
    locate,
)
from zeiger.grid import (
    Cell,
    Coord,
    Direction,
    Filling,
    Grid,
    Violation,
    sightline,
    verify,
)
from zeiger.nae import gen_nae, nae_brute_force
from zeiger.protocol import ProverBehavior, ResourceStats, run_protocol, verify_cell
from zeiger.reduction import reduce_instance
from zeiger.simulator import _schedule, simulate_transcript, simulate_view, structure
from zeiger.solver import BudgetExhausted, _Search, enumerate_solutions, solve

from .conftest import solved

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


def test_locate_inverts_encode():
    # every position of every width up to 40, in each encoding
    for mark in MARKS:
        for q in range(1, 41):
            for x in range(q):
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


def first_failing_cell(g: Grid, f: Filling):
    """The soundness oracle: the first cell, in row-major order, where a value
    in the cell or its sightline exceeds max_value (it has no pair encoding,
    so a copy finds no marker), or the cell's value differs from its
    sightline's distinct count; None if no cell qualifies."""
    for c in g.coords():
        seen = [f.value(s) for s in sightline(g, c)]
        if max(f.value(c), *seen) > g.max_value or f.value(c) != len(set(seen)):
            return c
    return None


def on_board_arrows(rows: int, cols: int, r: int, c: int) -> list[Direction]:
    """The arrows of the cell in row r, column c (from 0) that point at
    another cell of a rows x cols board."""
    # the Direction order: UP, DOWN, LEFT, RIGHT
    on_board = (r > 0, r < rows - 1, c > 0, c < cols - 1)
    return [d for d, ok in zip(Direction, on_board) if ok]


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
            arrow = draw(st.sampled_from(on_board_arrows(rows, cols, r, c)))
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


def verify_spec(g: Grid, f: Filling) -> list[Violation]:
    """``verify``'s report, walking coordinates: every given mismatch, then
    every arrow violation, each in row-major order."""
    return [Violation(c, g.cell(c).given, f.value(c), "given") for c in g.coords()
            if g.cell(c).given not in (None, f.value(c))] + [
        Violation(c, n, f.value(c)) for c in g.coords()
        if (n := len({f.value(s) for s in sightline(g, c)})) != f.value(c)]


@settings(max_examples=100, deadline=None)
@given(g=random_grids(), data=st.data())
def test_verify_reports_every_violation_in_order(g, data):
    # a filling that keeps the givens (from a solution, if one is found),
    # then some given cells redrawn, which may break them
    f = draw_filling(data, g, solve_or_none(g))
    givens = [c for c in g.coords() if g.cell(c).given is not None]
    values = [list(row) for row in f.values]
    for c in data.draw(st.lists(st.sampled_from(givens), unique=True)) if givens else []:
        values[c.row - 1][c.col - 1] = data.draw(st.integers(1, g.max_value + 1))
    f = Filling(values)
    assert verify(g, f) == verify_spec(g, f)


def assert_rejects_exactly_at_first_failing_cell(g, f, seed):
    accept, t, _ = run_protocol(g, ProverBehavior.honest(f), seed)
    bad = first_failing_cell(g, f)
    assert accept == (bad is None) == (not verify(g, f))
    if bad is not None:
        assert t.events[-1]["cell"] == [bad.row, bad.col]


@pytest.mark.parametrize("name", ["fig1", "R. L./R. L.", "gen_nae(3, 4, 0)", "gen_nae(4, 6, 0)"])
@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=seeds)
def test_run_rejects_exactly_at_the_first_failing_cell(name, data, seed):
    g, solution = solved(name)
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


def assert_checks_follow_the_schedule(g: Grid, data, seed):
    """Each cell's check, on a board of drawn values, records its block of the schedule."""
    b = g.max_value + 1
    board = [encode(b, data.draw(st.integers(0, b - 1)), ODD_STACK) for c in g.coords()]
    t, pool, rng = Transcript(), ResourceStats(), random.Random(seed)
    for c in g.coords():
        verify_cell(board, g, c, pool, rng, t)
    assert structure(t) == [s for steps, _ in _schedule(g) for s in steps]


@settings(max_examples=100, deadline=None)
@given(g=random_grids(), data=st.data(), seed=seeds)
def test_a_checks_events_do_not_depend_on_the_boards_values(g, data, seed):
    assert_checks_follow_the_schedule(g, data, seed)


@pytest.mark.parametrize("name", ["fig1", "gen_nae(4, 6, 0)"])
@settings(max_examples=10, deadline=None)
@given(data=st.data(), seed=seeds)
def test_a_checks_events_do_not_depend_on_the_boards_values_on_fixed_grids(name, data, seed):
    assert_checks_follow_the_schedule(solved(name)[0], data, seed)


def assert_blocks_follow_the_closed_form(g: Grid):
    """Each cell's block of the schedule has t + b shifts and t + 1
    scrambles, t its sightline's length: ``count_resources``' 2t + b + 1."""
    b = g.max_value + 1
    for (steps, _), line in zip(_schedule(g), g.sightlines):
        kinds = [step[4] for step in steps if step[0] == "shuffle"]
        assert (kinds.count("shift"), kinds.count("scramble"), len(kinds)) == (
            len(line) + b, len(line) + 1, 2 * len(line) + b + 1)


@pytest.mark.parametrize("name", ["fig1", "gen_nae(4, 6, 0)"])
def test_each_block_follows_the_closed_form(name):
    assert_blocks_follow_the_closed_form(solved(name)[0])


@settings(max_examples=100, deadline=None)
@given(g=random_grids())
def test_each_block_follows_the_closed_form_on_random_grids(g):
    assert_blocks_follow_the_closed_form(g)


def first_sat_grid(n: int, m: int) -> Grid:
    """The grid reduced from the first sat gen_nae(n, m, s), s >= 0, that uses all n variables."""
    s = 0
    while (inst := gen_nae(n, m, s)).n != n or nae_brute_force(inst) is None:
        s += 1
    return reduce_instance(inst)


@pytest.mark.parametrize("name, size, lengths", [
    ("fig1", (5, 5), 4), ("gen_nae(4, 6, 0)", (9, 9), 8), ("23x17", (23, 17), 22)])
def test_cells_of_one_sightline_length_share_one_block(name, size, lengths):
    g = first_sat_grid(12, 20) if name == "23x17" else solved(name)[0]
    blocks = _schedule(g)
    assert (g.rows, g.cols) == size
    assert len(blocks) == g.rows * g.cols
    # one block object per length, and each cell holds its own length's
    assert len({id(block) for block in blocks}) == len({len(line) for line in g.sightlines}) == lengths
    assert len({(len(line), id(block)) for line, block in zip(g.sightlines, blocks)}) == lengths


def assert_runs_have_the_schedule_and_keep_the_rules(g: Grid, solution, seed):
    """An honest run (if there is a solution) and a simulated run both pass
    ``check_transcript``, and the simulated run's view is ``simulate_view``."""
    assert check_transcript(g, simulate_transcript(g, seed)) == list(simulate_view(g, seed))
    if solution is not None:
        check_transcript(g, run_protocol(g, ProverBehavior.honest(solution), seed)[1])


@pytest.mark.parametrize("name", ["fig1", "gen_nae(4, 6, 0)"])
@settings(max_examples=20, deadline=None)
@given(seed=seeds)
def test_runs_keep_the_skeleton_and_the_verifiers_rules(name, seed):
    assert_runs_have_the_schedule_and_keep_the_rules(*solved(name), seed)


@settings(max_examples=100, deadline=None)
@given(g=random_grids(), seed=seeds)
def test_runs_on_random_grids_keep_the_skeleton_and_the_verifiers_rules(g, seed):
    assert_runs_have_the_schedule_and_keep_the_rules(g, solve_or_none(g), seed)


class CheckedSearch(_Search):
    """A search that checks its cell tables against a recount from the grid
    once, and before each branch every cell's kept state against a recount
    over Python sets: its sightline's unset cells and seen mask (whose
    popcount is the distinct count), the mask its tight case leaves, each
    unset cell's kept domain and every free cell's domain size, and the cell
    and values chosen (raises, which ``-O`` keeps)."""

    def __init__(self, g, budget):
        super().__init__(g, budget)
        lines = g.sightlines
        free = [i for i, cell in enumerate(cell for row in g.cells for cell in row) if cell.given is None]
        watchers = [[w for w, line in enumerate(lines) if i in line] for i in free]
        slot = [free.index(i) if i in free else -1 for i in range(len(lines))]
        sees = [[free.index(j) for j in line if j in free] for line in lines]
        if (self.free, self.slot, self.watchers, self.sees) != (free, slot, watchers, sees):
            raise AssertionError("kept free cells, slots, watchers or sightlines differ from the grid's")

    def _branch(self):
        values, lines = self.values, self.g.sightlines
        seen = [{values[j] for j in line} - {0} for line in lines]
        unset = [sum(not values[j] for j in line) for line in lines]
        for i in range(len(lines)):
            mask = sum(1 << v for v in seen[i])
            kept = (self.unassigned[i], self.seen[i])
            if kept != (unset[i], mask):
                raise AssertionError(f"cell {i}: kept {kept}, counted {(unset[i], mask)}")
            cut = -1
            if values[i] and values[i] == len(seen[i]):
                cut = mask
            elif values[i] and values[i] == len(seen[i]) + unset[i]:
                cut = ~mask
            if self.cut[i] != cut:
                raise AssertionError(f"cell {i}: kept cut {self.cut[i]}, counted {cut}")
        domains = {}  # unset cell -> its feasible values
        for k, i in enumerate(self.free):
            dom = set(range(max(len(seen[i]), 1), min(len(seen[i]) + unset[i], len(lines[i])) + 1))
            for w in self.watchers[k]:  # checked against the grid on construction
                if values[w] and values[w] == len(seen[w]):
                    dom &= seen[w]
                elif values[w] and values[w] == len(seen[w]) + unset[w]:
                    dom -= seen[w]
            if not values[i]:
                domains[i] = dom
                if self.dom[k] != sum(1 << v for v in dom):
                    raise AssertionError(f"cell {i}: kept domain {self.dom[k]:b}, counted {dom}")
            if self.size[k] != (len(dom) if i in domains else self.full):
                raise AssertionError(f"cell {i}: kept size {self.size[k]}, counted {dom}")
        want = min(domains, key=lambda i: (len(domains[i]), i), default=-1)
        k, mask = super()._branch()
        i = self.free[k] if k >= 0 else -1
        if i != want or (i >= 0 and mask != sum(1 << v for v in domains[i])):
            raise AssertionError(f"branched on cell {i} ({mask:b}), expected {want}")
        return k, mask


def kept_counts(search: _Search):
    return (search.values, search.unassigned, search.seen, search.cut,
            search.dom, search.size)


@settings(max_examples=200, deadline=None)
@given(g=random_grids())
def test_solver_keeps_exact_sightline_counts(g):
    search = CheckedSearch(g, budget=20_000)
    found = search.run(cap=1000)
    assert len(found) < 1000  # so the search ran to exhaustion
    # every value it set is unset again: the tables are back to the givens',
    # and every trail frame is popped
    assert search.trail == []
    assert kept_counts(search) == kept_counts(_Search(g, budget=0))


@st.composite
def sparse_grids(draw):
    """A grid of random_grids' arrows with at most 8 unnumbered cells.  The
    others are numbered from a solution of the arrows alone, if one is found
    and the draw asks for it (so some grids are solvable), else at random."""
    arrows = Grid([[Cell(cell.direction) for cell in row] for row in draw(random_grids()).cells])
    solution = solve_or_none(arrows) if draw(st.booleans()) else None
    free = draw(st.lists(st.sampled_from(list(arrows.coords())), min_size=1, max_size=8, unique=True))
    cells = []
    for r, row in enumerate(arrows.cells, start=1):
        cells.append([])
        for c, cell in enumerate(row, start=1):
            if Coord(r, c) in free:
                given = None
            elif solution is not None:
                given = solution.value(Coord(r, c))
            else:
                given = draw(st.integers(1, arrows.max_value))
            cells[-1].append(Cell(cell.direction, given))
    return Grid(cells)


def brute_force_solutions(g: Grid) -> set[Filling]:
    """Every filling that verifies, found by trying each value from 1 to its
    sightline's length in every unnumbered cell."""
    free = [c for c in g.coords() if g.cell(c).given is None]
    values = [[cell.given for cell in row] for row in g.cells]
    found = set()
    for tried in product(*(range(1, len(sightline(g, c)) + 1) for c in free)):
        for c, v in zip(free, tried):
            values[c.row - 1][c.col - 1] = v
        f = Filling(values)
        if not verify(g, f):
            found.add(f)
    return found


@settings(max_examples=100, deadline=None)
@given(g=sparse_grids())
def test_solver_pruning_loses_no_solution(g):
    found = enumerate_solutions(g, cap=10_000)
    assert len(set(found)) == len(found)
    assert set(found) == brute_force_solutions(g)


def small_grids(rows: int, cols: int) -> list[Grid]:
    """Every grid of the shape with no givens and no arrow off the board."""
    choices = [on_board_arrows(rows, cols, r, c) for r in range(rows) for c in range(cols)]
    grids = [Grid([[Cell(arrows[r * cols + c]) for c in range(cols)] for r in range(rows)])
             for arrows in product(*choices)]
    assert len(grids) == 144
    return grids


def fillings(g: Grid):
    """Every filling of ``g`` with values in 1..max_value, as flat tuples."""
    return product(range(1, g.max_value + 1), repeat=g.rows * g.cols)


def unflat(g: Grid, values) -> Filling:
    return Filling([list(values[r * g.cols:(r + 1) * g.cols]) for r in range(g.rows)])


@pytest.mark.parametrize("rows, cols", [(2, 3), (3, 2)])
def test_every_small_grid_is_complete_and_sound_under_every_filling(rows, cols):
    """Every grid of the shape (144 of them), under every filling with values
    in 1..max_value, at one seed; and the solver finds exactly the
    brute-force solutions."""
    for g in small_grids(rows, cols):
        assert set(enumerate_solutions(g, cap=100)) == brute_force_solutions(g)
        for values in fillings(g):
            assert_rejects_exactly_at_first_failing_cell(g, unflat(g, values), seed=0)


def numbered(g: Grid, i: int, v: int) -> Grid:
    """``g`` with flat cell ``i`` given the number ``v``."""
    cells = [list(row) for row in g.cells]
    r, c = divmod(i, g.cols)
    cells[r][c] = Cell(cells[r][c].direction, v)
    return Grid(cells)


@pytest.mark.parametrize("rows, cols", [(2, 3), (3, 2)])
def test_every_small_grid_with_a_given_is_complete_and_sound(rows, cols):
    """Every grid of the sweep above with one cell numbered: the cell and its
    given (1..max_value) go round in turn, so each of the 12 pairs meets 12
    grids.  The solver finds exactly the brute-force solutions, and every
    filling that keeps the given is rejected exactly at its first failing cell."""
    for turn, g in enumerate(small_grids(rows, cols)):
        i, v = turn % (rows * cols), turn // (rows * cols) % g.max_value + 1
        g = numbered(g, i, v)
        assert set(enumerate_solutions(g, cap=100)) == brute_force_solutions(g)
        for values in fillings(g):
            if values[i] == v:
                assert_rejects_exactly_at_first_failing_cell(g, unflat(g, values), seed=0)


def test_sampled_2x4_grids_are_complete_and_sound():
    """2,000 (grid, filling) pairs of 2x4 grids (values 1-3: 3^8 fillings per
    grid, too many to sweep), 20 fillings on each of 100 grids drawn from a
    fixed seed.  A filling is a solution with up to two cells redrawn when
    the grid has one, half the time, else drawn afresh, so that runs reject
    late as well as early.  On the first few grids the solver finds exactly
    the brute-force solutions."""
    rng = random.Random(2808)
    choices = [on_board_arrows(2, 4, r, c) for r in range(2) for c in range(4)]
    for k in range(100):
        g = Grid([[Cell(rng.choice(choices[r * 4 + c])) for c in range(4)] for r in range(2)])
        solutions = enumerate_solutions(g, cap=10_000)
        if k < 5:
            assert set(solutions) == brute_force_solutions(g)
        for _ in range(20):
            if solutions and rng.random() < 0.5:
                values = [v for row in rng.choice(solutions).values for v in row]
                redrawn = rng.sample(range(8), rng.randint(0, 2))
            else:
                values, redrawn = [0] * 8, range(8)
            for i in redrawn:
                values[i] = rng.randint(1, g.max_value)
            assert_rejects_exactly_at_first_failing_cell(g, unflat(g, values), rng.getrandbits(32))


# a broken cell holds b (no odd stack), or is malformed at its own value or at b
BREAKS = ["b", "malformed", "malformed b"]


@pytest.mark.parametrize("rows, cols", [(2, 3), (3, 2)])
def test_every_small_grid_rejects_a_broken_cell_at_its_first_copy(rows, cols):
    """Every grid and filling of the sweep above, each with one cell broken:
    the cell and the way of breaking it go round in turn, so each of the 18
    pairs meets 512 (grid, filling) pairs.  The run rejects at the first
    check to copy the broken cell, with the copy's format reason, unless an
    earlier cell fails on its value."""
    turn = 0
    for g in small_grids(rows, cols):
        b = g.max_value + 1
        for values in fillings(g):
            i, how = turn % len(values), BREAKS[turn // len(values) % len(BREAKS)]
            turn += 1
            broken = Coord(i // cols + 1, i % cols + 1)
            at_b = values[:i] + (b,) + values[i + 1:]
            f = unflat(g, values if how == "malformed" else at_b)
            behavior = (ProverBehavior.honest(f) if how == "b"
                        else ProverBehavior.malformed(f, broken))
            accept, t, _ = run_protocol(g, behavior, seed=0)
            # to the oracle a broken cell is one holding b: every check that
            # copies it fails, and no other check reads it
            cell = first_failing_cell(g, unflat(g, at_b))
            # a row laid for b has no odd stack; a malformed row below b has two
            reason = (f"expected exactly one 'HC' column, found {0 if f.value(broken) == b else 2}"
                      if cell == broken or broken in sightline(g, cell)
                      else "cell value differs from its sightline's distinct count")
            assert (accept, t.events[-1]) == (False, {"ev": "verdict", "accept": False,
                                                      "cell": [cell.row, cell.col],
                                                      "reason": reason})
