import itertools
import random

import pytest

from zeiger.cards import (
    CardPool,
    SeededRng,
    Transcript,
    decode,
    decode_pair,
    encode_club,
    encode_pair,
)
from zeiger.grid import Coord, distinct_count, parse_filling, sightline
from zeiger.protocol import (
    ProverBehavior,
    Reject,
    comparing_protocol,
    copy_protocol,
    count_resources,
    run_protocol,
    set_size_protocol,
    setup_board,
    summation_protocol,
    verify_cell,
)


@pytest.fixture
def env():
    return CardPool(), SeededRng(1729), Transcript()


def bit_stack(b: int) -> list[str]:
    """Two-card stack holding the bit b (the stack form of the 2-card club
    encoding)."""
    return ["H", "C"] if b else ["C", "H"]


def stack_bit(stack) -> int:
    return 1 if (stack[0], stack[1]) == ("H", "C") else 0


class TestCopy:
    def test_identity_exhaustive(self, env):
        pool, rng, t = env
        for q in range(2, 7):
            for x in range(q):
                o1, o2 = copy_protocol(encode_pair(q, x), pool, rng, t)
                assert decode_pair(o1) == x
                assert decode_pair(o2) == x

    def test_reversal_negates_value(self):
        a = encode_pair(4, 1)
        reversed_a = [a[0]] + a[1:][::-1]
        assert decode_pair(reversed_a) == 3  # -1 mod 4

    def test_two_markers_rejected(self, env):
        pool, rng, t = env
        bad = encode_pair(5, 2)
        bad[4] = ["H", "C"]
        from zeiger.cards import MalformedReveal

        with pytest.raises(MalformedReveal):
            copy_protocol(bad, pool, rng, t)

    def test_random_larger_q(self, env):
        pool, rng, t = env
        r = random.Random(4)
        for _ in range(30):
            q = r.randint(7, 12)
            x = r.randrange(q)
            o1, o2 = copy_protocol(encode_pair(q, x), pool, rng, t)
            assert decode_pair(o1) == decode_pair(o2) == x


class TestSetSize:
    def test_matches_distinct_count_exhaustive(self, env):
        pool, rng, t = env
        for q in (3, 4):
            for p in (1, 2, 3):
                for xs in itertools.product(range(q), repeat=p):
                    out = set_size_protocol(
                        [encode_pair(q, x) for x in xs], pool, rng, t
                    )
                    assert len(out) == q
                    assert sum(stack_bit(st) for st in out) == distinct_count(xs)

    def test_spec_examples(self, env):
        pool, rng, t = env
        out = set_size_protocol([encode_pair(4, x) for x in (2, 2, 3)], pool, rng, t)
        assert sum(stack_bit(st) for st in out) == 2
        out = set_size_protocol([encode_pair(6, 5)], pool, rng, t)
        assert sum(stack_bit(st) for st in out) == 1
        out = set_size_protocol([encode_pair(4, x) for x in range(4)], pool, rng, t)
        assert sum(stack_bit(st) for st in out) == 4
        out = set_size_protocol([encode_pair(5, 2)] * 1 * 5, pool, rng, t)
        assert sum(stack_bit(st) for st in out) == 1

    def test_random_larger(self, env):
        pool, rng, t = env
        r = random.Random(6)
        for _ in range(20):
            q = r.randint(7, 12)
            xs = [r.randrange(q) for _ in range(r.randint(1, 6))]
            out = set_size_protocol([encode_pair(q, x) for x in xs], pool, rng, t)
            assert sum(stack_bit(st) for st in out) == distinct_count(xs)


class TestSummation:
    def test_matches_integer_sum_exhaustive(self, env):
        pool, rng, t = env
        for q in range(1, 6):
            for bits in itertools.product((0, 1), repeat=q):
                out = summation_protocol([bit_stack(b) for b in bits], pool, rng, t)
                assert len(out) == q + 1
                assert decode(out) == sum(bits)

    def test_all_zero_and_all_one(self, env):
        pool, rng, t = env
        assert decode(summation_protocol([bit_stack(0)] * 4, pool, rng, t)) == 0
        out = summation_protocol([bit_stack(1)] * 4, pool, rng, t)
        assert decode(out) == 4  # club at the rightmost position
        assert out[-1] == "C"

    def test_example_1011(self, env):
        pool, rng, t = env
        out = summation_protocol([bit_stack(b) for b in (1, 0, 1, 1)], pool, rng, t)
        assert decode(out) == 3


class TestComparing:
    def test_equality_exhaustive(self, env):
        pool, rng, t = env
        for q in range(2, 7):
            for x1 in range(q):
                for x2 in range(q):
                    got = comparing_protocol(
                        encode_club(q, x1), encode_club(q, x2), pool, rng, t
                    )
                    assert got == (x1 == x2)

    def test_spec_examples(self, env):
        pool, rng, t = env
        assert comparing_protocol(encode_club(5, 2), encode_club(5, 2), pool, rng, t)
        assert not comparing_protocol(encode_club(5, 2), encode_club(5, 3), pool, rng, t)


class TestBoard:
    def test_setup_board_values(self, fig1_grid, fig1_solution):
        pool = CardPool()
        board = setup_board(fig1_grid, ProverBehavior.honest(fig1_solution), pool)
        assert decode_pair(board[Coord(3, 4)]) == 1  # the given cell
        assert decode_pair(board[Coord(1, 1)]) == 3
        # 2b cards per cell
        assert pool.in_play == 2 * 5 * 25

    def test_honest_filling_must_match_givens(self, fig1_grid, fig1_solution):
        values = [list(r) for r in fig1_solution.values]
        values[2][3] = 2  # given is 1
        bad = parse_filling("\n".join(" ".join(map(str, r)) for r in values))
        with pytest.raises(ValueError, match="disagrees with given"):
            setup_board(fig1_grid, ProverBehavior.honest(bad), CardPool())

    def test_cheat_wrong_value_board(self, fig1_grid, fig1_solution):
        behavior = ProverBehavior.wrong_value(fig1_solution, Coord(1, 1), 2)
        board = setup_board(fig1_grid, behavior, CardPool())
        assert decode_pair(board[Coord(1, 1)]) == 2


class TestVerifyCell:
    def test_fig1_cell_1_1_accepts(self, fig1_grid, fig1_solution):
        pool, rng, t = CardPool(), SeededRng(2), Transcript()
        board = setup_board(fig1_grid, ProverBehavior.honest(fig1_solution), pool)
        verify_cell(board, fig1_grid, Coord(1, 1), pool, rng, t)  # no Reject

    def test_board_value_survives_verification(self, fig1_grid, fig1_solution):
        pool, rng, t = CardPool(), SeededRng(2), Transcript()
        board = setup_board(fig1_grid, ProverBehavior.honest(fig1_solution), pool)
        verify_cell(board, fig1_grid, Coord(1, 1), pool, rng, t)
        for c in fig1_grid.coords():
            assert decode_pair(board[c]) == fig1_solution.value(c)

    def test_forced_cell_accepts_iff_one(self, fig1_grid, fig1_solution):
        # (2,3) has sightline length 1
        assert len(sightline(fig1_grid, Coord(2, 3))) == 1
        pool, rng, t = CardPool(), SeededRng(3), Transcript()
        board = setup_board(fig1_grid, ProverBehavior.honest(fig1_solution), pool)
        verify_cell(board, fig1_grid, Coord(2, 3), pool, rng, t)

    def test_corrupted_sightline_detected_somewhere(self, fig1_grid, fig1_solution):
        values = [list(r) for r in fig1_solution.values]
        values[1][2] = 2  # (2,3): 1 -> 2, unnumbered
        bad = parse_filling("\n".join(" ".join(map(str, r)) for r in values))
        pool, rng, t = CardPool(), SeededRng(4), Transcript()
        board = setup_board(fig1_grid, ProverBehavior.honest(bad), pool)
        # (3,4)'s sightline is row 3 to the left; unaffected by the corruption
        verify_cell(board, fig1_grid, Coord(3, 4), pool, rng, t)
        # (2,3) itself now claims 2 but its sightline has 1 distinct value
        with pytest.raises(Reject):
            verify_cell(board, fig1_grid, Coord(2, 3), pool, rng, t)


class TestRunProtocol:
    def test_honest_accepts(self, fig1_grid, fig1_solution):
        accept, transcript, stats = run_protocol(
            fig1_grid, ProverBehavior.honest(fig1_solution), seed=0
        )
        assert accept
        assert transcript.events[-1] == {"ev": "verdict", "accept": True}

    def test_deterministic_per_seed(self, fig1_grid, fig1_solution):
        b = ProverBehavior.honest(fig1_solution)
        _, t1, _ = run_protocol(fig1_grid, b, seed=33)
        _, t2, _ = run_protocol(fig1_grid, b, seed=33)
        _, t3, _ = run_protocol(fig1_grid, b, seed=34)
        assert t1.events == t2.events
        assert t1.events != t3.events

    def test_wrong_value_rejected(self, fig1_grid, fig1_solution):
        behavior = ProverBehavior.wrong_value(fig1_solution, Coord(1, 1), 2)
        accept, transcript, _ = run_protocol(fig1_grid, behavior, seed=9)
        assert not accept
        assert transcript.events[-1]["accept"] is False

    def test_cheat_at_given_cell_has_no_effect(self, fig1_grid, fig1_solution):
        # (3,4) is given as 1: the verifier lays it out from the grid
        _, honest, honest_stats = run_protocol(
            fig1_grid, ProverBehavior.honest(fig1_solution), seed=9
        )
        for behavior in (
            ProverBehavior.wrong_value(fig1_solution, Coord(3, 4), 2),
            ProverBehavior.malformed(fig1_solution, Coord(3, 4)),
        ):
            accept, transcript, stats = run_protocol(fig1_grid, behavior, seed=9)
            assert accept
            assert transcript.to_json_lines() == honest.to_json_lines()
            assert stats == honest_stats

    def test_malformed_rejected_at_first_touch(self, fig1_grid, fig1_solution):
        behavior = ProverBehavior.malformed(fig1_solution, Coord(2, 2))
        accept, transcript, _ = run_protocol(fig1_grid, behavior, seed=9)
        assert not accept
        # first copy touching (2,2) happens while verifying (1,2)
        assert transcript.events[-1]["cell"] == [1, 2]

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

    def test_cards_balance_after_run(self, fig1_grid, fig1_solution):
        _, _, stats = run_protocol(
            fig1_grid, ProverBehavior.honest(fig1_solution), seed=5
        )
        assert stats.clubs_drawn > 0 and stats.hearts_drawn > 0


class TestResources:
    def test_measured_equals_closed_form(self, fig1_grid, fig1_solution):
        _, _, measured = run_protocol(
            fig1_grid, ProverBehavior.honest(fig1_solution), seed=1
        )
        closed = count_resources(fig1_grid)
        assert measured.shifts == closed.shifts
        assert measured.scrambles == closed.scrambles
        assert measured.total_shuffles == closed.total_shuffles
        assert measured.peak_cards == closed.peak_cards
        assert measured.per_cell == closed.per_cell

    def test_per_cell_formula(self, fig1_grid):
        b = fig1_grid.max_value + 1
        closed = count_resources(fig1_grid)
        for entry, c in zip(closed.per_cell, fig1_grid.coords()):
            t = len(sightline(fig1_grid, c))
            assert entry["shuffles"] == 2 * t + b + 1
