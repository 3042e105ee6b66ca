import itertools
import random

import pytest

from zeiger.cards import (
    CLUB,
    EVEN_STACK,
    ODD_STACK,
    MalformedReveal,
    Stream,
    Transcript,
    encode,
    locate,
)
from zeiger.grid import (
    Coord,
    Filling,
    GridError,
    parse_grid,
    sightline,
)
from zeiger.protocol import (
    ProverBehavior,
    ResourceStats,
    comparing_protocol,
    copy_protocol,
    count_resources,
    run_protocol,
    set_size_protocol,
    setup_board,
    summation_protocol,
    verify_cell,
)

from .conftest import solved, with_value


@pytest.fixture
def env():
    return ResourceStats(), random.Random(1729), Transcript()


def bit_stack(b: int) -> str:
    """Two-card stack holding the bit b (the stack form of the 2-card club
    encoding)."""
    return "HC" if b else "CH"


def stack_bit(stack) -> int:
    return 1 if (stack[0], stack[1]) == ("H", "C") else 0


class TestCopy:
    def test_reversal_negates_value(self):
        a = encode(4, 1, ODD_STACK)
        reversed_a = [a[0]] + a[1:][::-1]
        assert locate(reversed_a, ODD_STACK) == 3  # -1 mod 4

    def test_two_markers_rejected(self, env):
        pool, rng, t = env
        bad = encode(5, 2, ODD_STACK)
        bad[4] = "HC"
        with pytest.raises(MalformedReveal):
            copy_protocol(bad, pool, rng, t)

    def test_random_larger_q(self, env):
        pool, rng, t = env
        r = random.Random(4)
        for _ in range(30):
            q = r.randint(7, 12)
            x = r.randrange(q)
            o1, o2 = copy_protocol(encode(q, x, ODD_STACK), pool, rng, t)
            assert locate(o1, ODD_STACK) == locate(o2, ODD_STACK) == x


class TestSetSize:
    def test_spec_examples(self, env):
        pool, rng, t = env
        out = set_size_protocol([encode(4, x, ODD_STACK) for x in (2, 2, 3)], pool, rng, t)
        assert sum(stack_bit(st) for st in out) == 2
        out = set_size_protocol([encode(6, 5, ODD_STACK)], pool, rng, t)
        assert sum(stack_bit(st) for st in out) == 1
        out = set_size_protocol([encode(4, x, ODD_STACK) for x in range(4)], pool, rng, t)
        assert sum(stack_bit(st) for st in out) == 4
        out = set_size_protocol([encode(5, 2, ODD_STACK)] * 1 * 5, pool, rng, t)
        assert sum(stack_bit(st) for st in out) == 1

    def test_random_larger(self, env):
        pool, rng, t = env
        r = random.Random(6)
        for _ in range(20):
            q = r.randint(7, 12)
            xs = [r.randrange(q) for _ in range(r.randint(1, 6))]
            out = set_size_protocol([encode(q, x, ODD_STACK) for x in xs], pool, rng, t)
            assert sum(stack_bit(st) for st in out) == len(set(xs))


class TestSummation:
    def test_all_zero_and_all_one(self, env):
        pool, rng, t = env
        assert locate(summation_protocol([bit_stack(0)] * 4, pool, rng, t), CLUB) == 0
        out = summation_protocol([bit_stack(1)] * 4, pool, rng, t)
        assert locate(out, CLUB) == 4  # club at the rightmost position
        assert out[-1] == "C"

    def test_example_1011(self, env):
        pool, rng, t = env
        out = summation_protocol([bit_stack(b) for b in (1, 0, 1, 1)], pool, rng, t)
        assert locate(out, CLUB) == 3


class TestComparing:
    def test_spec_examples(self, env):
        pool, rng, t = env
        assert comparing_protocol(encode(5, 2, CLUB), encode(5, 2, CLUB), pool, rng, t)
        assert not comparing_protocol(encode(5, 2, CLUB), encode(5, 3, CLUB), pool, rng, t)


@pytest.mark.parametrize("seed", range(4))
def test_subprotocols_leave_their_arguments_unchanged(seed):
    pool, rng, t = ResourceStats(), random.Random(seed), Transcript()
    a = encode(5, 3, ODD_STACK)
    shared = encode(5, 1, ODD_STACK)
    stacks = [bit_stack(b) for b in (1, 0, 1, 1)]
    s1, s2 = encode(5, 2, CLUB), encode(5, 4, CLUB)
    inputs = [a, shared, stacks, s1, s2]
    before = [list(x) for x in inputs]
    copy_protocol(a, pool, rng, t)
    set_size_protocol([shared] * 3, pool, rng, t)
    summation_protocol(stacks, pool, rng, t)
    comparing_protocol(s1, s2, pool, rng, t)
    assert inputs == before


class TestBoard:
    def test_setup_board_values(self, fig1_grid, fig1_solution):
        pool = ResourceStats()
        board = setup_board(fig1_grid, ProverBehavior.honest(fig1_solution), pool)
        assert locate(board[fig1_grid.index(Coord(3, 4))], ODD_STACK) == 1  # the given cell
        assert locate(board[fig1_grid.index(Coord(1, 1))], ODD_STACK) == 3
        # 2b cards per cell
        assert pool.in_play == 2 * 5 * 25

    def test_honest_filling_must_match_givens(self, fig1_grid, fig1_solution):
        bad = with_value(fig1_solution, Coord(3, 4), 2)  # given is 1
        for behavior in (ProverBehavior.honest(bad), ProverBehavior.malformed(bad, Coord(1, 1))):
            with pytest.raises(ValueError, match=r"^filling disagrees with given at \(3,4\)$"):
                setup_board(fig1_grid, behavior, ResourceStats())


# Every board a prover can lay for one check of the 2x3 grid R. R. D. / U. L. L.
# (b = 3): each face-down two-card stack is CC, CH, HC or HH.
SMALL = parse_grid("R. R. D.\nU. L. L.")
ROWS = [list(row) for row in itertools.product(["CC", EVEN_STACK, ODD_STACK, "HH"], repeat=3)]
WELL_FORMED = [encode(3, v, ODD_STACK) for v in range(3)]


def sound_verdict(rows) -> bool:
    """The verdict the check owes a board: every row one ``HC`` among
    ``CH``s, and the cell's marker index (rows[0]) the number of distinct
    marker indices in its sightline (the rest)."""
    if any(row.count(ODD_STACK) != 1 or row.count(EVEN_STACK) != 2 for row in rows):
        return False
    return rows[0].index(ODD_STACK) == len({row.index(ODD_STACK) for row in rows[1:]})


def check_verdict(c: Coord, rows, rng) -> bool:
    """``verify_cell``'s verdict on cell c with ``rows`` laid on it and its sightline."""
    i = SMALL.index(c)
    board = [None] * (SMALL.rows * SMALL.cols)  # no other cell's row is read
    for j, row in zip((i, *SMALL.sightlines[i]), rows):
        board[j] = list(row)
    try:
        return verify_cell(board, SMALL, c, ResourceStats(), rng, Transcript())
    except MalformedReveal:
        return False


@pytest.mark.parametrize("seed", [0, 1])
def test_a_one_cell_check_is_sound_on_every_board(seed):
    # (1,2) sees (1,3) only: all 4**6 boards of its check
    rng = Stream(f"run:{seed}")
    boards = list(itertools.product(ROWS, repeat=2))
    verdicts = [check_verdict(Coord(1, 2), rows, rng) for rows in boards]
    assert verdicts == [sound_verdict(rows) for rows in boards]
    assert sum(verdicts) == 3  # the cell's value 1, its sightline's any well-formed value


@pytest.mark.parametrize("seed", [0, 1])
def test_a_two_cell_check_is_sound_on_sampled_boards(seed):
    # (1,1) sees (1,2) and (1,3): 4**9 boards, sampled with each row well
    # formed half the time, so that some boards are accepted
    rng, draw = Stream(f"run:{seed}"), random.Random(seed)
    boards = [[draw.choice(draw.choice((ROWS, WELL_FORMED))) for _ in range(3)]
              for _ in range(2000)]
    verdicts = [check_verdict(Coord(1, 1), rows, rng) for rows in boards]
    assert verdicts == [sound_verdict(rows) for rows in boards]
    assert 0 < sum(verdicts) < len(boards)


class TestVerifyCell:
    def test_board_value_survives_verification(self, fig1_grid, fig1_solution):
        pool, rng, t = ResourceStats(), random.Random(2), Transcript()
        board = setup_board(fig1_grid, ProverBehavior.honest(fig1_solution), pool)
        verify_cell(board, fig1_grid, Coord(1, 1), pool, rng, t)
        for i, c in enumerate(fig1_grid.coords()):
            assert locate(board[i], ODD_STACK) == fig1_solution.value(c)

    def test_corrupted_sightline_detected_somewhere(self, fig1_grid, fig1_solution):
        bad = with_value(fig1_solution, Coord(2, 3), 2)  # 1 -> 2, unnumbered
        pool, rng, t = ResourceStats(), random.Random(4), Transcript()
        board = setup_board(fig1_grid, ProverBehavior.honest(bad), pool)
        # (3,4)'s sightline is row 3 to the left; unaffected by the corruption
        assert verify_cell(board, fig1_grid, Coord(3, 4), pool, rng, t)
        # (2,3) itself now claims 2 but its sightline has 1 distinct value
        assert not verify_cell(board, fig1_grid, Coord(2, 3), pool, rng, t)

    @pytest.mark.parametrize("c", [Coord(1, 6), Coord(0, 1), Coord(6, 1)])
    def test_a_cell_off_the_board_raises(self, fig1_grid, fig1_solution, c):
        # unchecked, (1,6) and (0,1) would wrap round to the flat indices of
        # (2,1) and (5,1); nothing is copied or recorded before the error
        pool, t = ResourceStats(), Transcript()
        board = setup_board(fig1_grid, ProverBehavior.honest(fig1_solution), pool)
        before = list(board)
        off = rf"^\({c.row},{c.col}\) is off the 5x5 board$"
        with pytest.raises(GridError, match=off):
            verify_cell(board, fig1_grid, c, pool, random.Random(0), t)
        assert board == before and t.events == []
        with pytest.raises(GridError, match=off):
            fig1_grid.index(c)
        with pytest.raises(GridError, match=off):
            setup_board(fig1_grid, ProverBehavior.malformed(fig1_solution, c), ResourceStats())


class TestRunProtocol:
    def test_seeds_minus_one_and_one_differ(self, fig1_grid, fig1_solution):
        # random.Random(-1) and random.Random(1) are the same stream
        b = ProverBehavior.honest(fig1_solution)
        _, t1, _ = run_protocol(fig1_grid, b, seed=-1)
        _, t2, _ = run_protocol(fig1_grid, b, seed=1)
        assert t1.events != t2.events

    def test_cheat_the_board_cannot_hold_raises(self, fig1_grid, fig1_solution):
        # (3,4) is given as 1: the verifier lays it out from the grid, so a
        # cheat there, off the board or on a board of another size is no
        # run of the protocol at all
        cases = [
            (ProverBehavior.malformed(fig1_solution, Coord(3, 4)),
             r"^malformed cell \(3,4\) is a given cell"),
            (ProverBehavior.malformed(fig1_solution, Coord(6, 1)),
             r"^\(6,1\) is off the 5x5 board$"),
            (ProverBehavior.honest(Filling([[1, 1], [1, 1]])),
             r"^dimension mismatch: grid is 5x5, filling is 2x2$"),
        ]
        for behavior, match in cases:
            with pytest.raises(GridError, match=match):
                run_protocol(fig1_grid, behavior, seed=9)

    def test_transcript_has_no_hidden_information(self, fig1_grid, fig1_solution):
        _, transcript, _ = run_protocol(
            fig1_grid, ProverBehavior.honest(fig1_solution), seed=5
        )
        allowed = {
            "shuffle": {"ev", "kind", "rows", "cols"},
            "reveal": {"ev", "site", "row", "faces"},
            "normalize": {"ev", "shift"},
            "verdict": {"ev", "accept", "reason", "cell"},
        }
        for ev in transcript.events:
            assert set(ev) <= allowed[ev["ev"]]

    def test_cards_balance_after_run(self):
        # every card taken is returned, except the 2b*k*l cards of the board
        for name, board_cards in (("fig1", 250), ("gen_nae(4, 6, 0)", 1458)):
            g, f = solved(name)
            accept, _, stats = run_protocol(g, ProverBehavior.honest(f), seed=5)
            assert accept
            assert stats.clubs_drawn > 0 and stats.hearts_drawn > 0
            assert stats.in_play == 2 * (g.max_value + 1) * g.rows * g.cols == board_cards


class TestResources:
    def test_measured_equals_closed_form(self):
        # the closed form is the whole ledger: every shuffle, card and cell
        for name in ("fig1", "R. L./R. L.", "gen_nae(3, 4, 0)", "gen_nae(4, 6, 0)"):
            g, f = solved(name)
            _, _, measured = run_protocol(g, ProverBehavior.honest(f), seed=1)
            closed = count_resources(g)
            assert measured.total_shuffles == closed.total_shuffles
            assert measured.to_dict() == closed.to_dict()

    def test_per_cell_formula(self, fig1_grid):
        b = fig1_grid.max_value + 1
        closed = count_resources(fig1_grid)
        for entry, c in zip(closed.per_cell, fig1_grid.coords()):
            t = len(sightline(fig1_grid, c))
            assert entry["shuffles"] == 2 * t + b + 1
