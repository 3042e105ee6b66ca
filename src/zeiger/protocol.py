"""Card-based zero-knowledge verification of a Zeiger solution.

Four subprotocols (copy, set size, summation, comparing) compose into the
main protocol: for every cell, copy its sequence and its sightline's
sequences, count the distinct sightline values obliviously, and compare the
result with the cell's own value.  The prover's cards are never revealed in
any position that depends on the solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .cards import (
    CLUB,
    HEART,
    CardPool,
    MalformedReveal,
    PairSequence,
    PileMatrix,
    SeededRng,
    Sequence,
    Stack,
    Transcript,
    encode_pair,
    pile_scramble,
    pile_shift,
    reveal_row,
    rotate_to_normalize,
)
from .grid import Coord, Filling, Grid, sightline

ODD_STACK = "HC"   # heart over club: the position-marking two-card stack
EVEN_STACK = "CH"


def turn_down_all(m: PileMatrix):
    """Does nothing, and no protocol step calls it: cards carry no
    orientation.  The name stays only because the benchmark's traced run
    (``perfbench/run.py``) and its tests still look it up here."""


def _fresh_zero_pair(q: int, pool: CardPool) -> PairSequence:
    """Publicly built pair encoding of 0: odd stack at position 1."""
    pool.take(q, q)
    return [[HEART, CLUB]] + [[CLUB, HEART] for _ in range(q - 1)]


def copy_protocol(a: PairSequence, pool: CardPool, rng: SeededRng,
                  transcript: Transcript) -> tuple[PairSequence, PairSequence]:
    """Duplicate a pair encoding without revealing its value.

    Also checks the input's format: a malformed input sequence surfaces as a
    MalformedReveal when row 1 is turned over.
    """
    q = len(a)
    # Reversing the q-1 rightmost stacks negates the encoded value mod q.
    reversed_a = [a[0]] + a[1:][::-1]
    m = PileMatrix([reversed_a, _fresh_zero_pair(q, pool), _fresh_zero_pair(q, pool)])
    pile_shift(m, rng, transcript)
    patterns = reveal_row(m, 0, transcript, "copy")
    rotate_to_normalize(m, patterns, ODD_STACK, transcript, rest=EVEN_STACK)
    pool.discard(m.row(0))
    return m.row(1), m.row(2)


def set_size_protocol(seqs: list[PairSequence], pool: CardPool, rng: SeededRng,
                      transcript: Transcript) -> list[Stack]:
    """Count distinct encoded values: returns q two-card stacks whose odd-stack
    count equals the number of different inputs."""
    p = len(seqs)
    q = len(seqs[0])
    m = PileMatrix([list(s) for s in seqs])
    for i in range(1, p):
        pile_scramble(m, rng, transcript)
        patterns = reveal_row(m, i, transcript, "setsize")
        if patterns.count(ODD_STACK) != 1 or any(
            pat not in (ODD_STACK, EVEN_STACK) for pat in patterns
        ):
            raise MalformedReveal(f"row {i + 1} is not a valid pair encoding")
        for j, pat in enumerate(patterns):
            if pat == ODD_STACK:
                col = m.columns[j]
                col[0], col[i] = col[i], col[0]
    pile_scramble(m, rng, transcript)
    out = m.row(0)
    for i in range(1, p):
        pool.discard(m.row(i))
    return out


def summation_protocol(stacks: list[Stack], pool: CardPool, rng: SeededRng,
                       transcript: Transcript) -> Sequence:
    """Sum q bits held as two-card stacks into a single club encoding of
    length q+1."""
    q = len(stacks)
    a_seq = list(stacks[0])  # sequence form, topmost card leftmost
    for i in range(2, q + 1):
        pool.take(i - 1, 1)
        a_seq.append(HEART)
        top, bottom = stacks[i - 1]
        b_seq = [bottom] + [CLUB] * (i - 1) + [top]
        m = PileMatrix([[[c] for c in a_seq], [[c] for c in b_seq]])
        pile_shift(m, rng, transcript)
        patterns = reveal_row(m, 1, transcript, "sum")
        rotate_to_normalize(m, patterns, HEART, transcript, rest=CLUB)
        a_seq = [stack[0] for stack in m.row(0)]
        pool.discard(m.row(1))
    return a_seq


def comparing_protocol(s1: Sequence, s2: Sequence, pool: CardPool, rng: SeededRng,
                       transcript: Transcript) -> bool:
    """True iff both club encodings hold the same value; reveals everything
    after a scramble, then discards all cards."""
    m = PileMatrix([[[c] for c in s1], [[c] for c in s2]])
    pile_scramble(m, rng, transcript)
    p1 = reveal_row(m, 0, transcript, "compare")
    p2 = reveal_row(m, 1, transcript, "compare")
    pool.discard(m.row(0))
    pool.discard(m.row(1))
    if p1.count(CLUB) != 1 or p2.count(CLUB) != 1:
        raise MalformedReveal("comparison rows are not club encodings")
    return p1.index(CLUB) == p2.index(CLUB)


@dataclass(frozen=True)
class ProverBehavior:
    """Honest prover, or one of the test harness's cheating variants."""

    filling: Filling
    kind: str = "honest"  # honest | wrong-value | malformed
    cell: Optional[Coord] = None
    value: Optional[int] = None

    @classmethod
    def honest(cls, f: Filling) -> "ProverBehavior":
        return cls(filling=f)

    @classmethod
    def wrong_value(cls, f: Filling, cell: Coord, value: int) -> "ProverBehavior":
        return cls(filling=f, kind="wrong-value", cell=cell, value=value)

    @classmethod
    def malformed(cls, f: Filling, cell: Coord) -> "ProverBehavior":
        return cls(filling=f, kind="malformed", cell=cell)


Board = dict[Coord, PairSequence]


def setup_board(g: Grid, behavior: ProverBehavior, pool: CardPool) -> Board:
    """Place a pair encoding of the (claimed) value on every cell.

    Given cells are laid out publicly from the grid, so no cheat reaches
    them; on an unnumbered cell the cheating variants inject a wrong value
    or a structurally broken sequence.
    """
    f = behavior.filling
    if (f.rows, f.cols) != (g.rows, g.cols):
        raise ValueError("filling does not match grid dimensions")
    b = g.max_value + 1
    board: Board = {}
    for c in g.coords():
        v = f.value(c)
        given = g.cell(c).given
        cheat = behavior.kind if c == behavior.cell and given is None else "honest"
        if given is not None:
            if behavior.kind == "honest" and v != given:
                raise ValueError(f"honest filling disagrees with given at {c}")
            v = given
        elif cheat == "wrong-value":
            v = behavior.value
        pool.take(b, b)
        ps = [[HEART, CLUB] if i == v else [CLUB, HEART] for i in range(b)]
        if cheat == "malformed":
            # a second marker stack: caught by the copy protocol's format check
            ps[(v + 1) % b] = [HEART, CLUB]
        board[c] = ps
    return board


@dataclass
class ResourceStats:
    shifts: int = 0
    scrambles: int = 0
    peak_cards: int = 0
    clubs_drawn: int = 0
    hearts_drawn: int = 0
    per_cell: list = field(default_factory=list)

    @property
    def total_shuffles(self) -> int:
        return self.shifts + self.scrambles

    def to_dict(self) -> dict:
        return {
            "shifts": self.shifts,
            "scrambles": self.scrambles,
            "total_shuffles": self.total_shuffles,
            "peak_cards": self.peak_cards,
            "clubs_drawn": self.clubs_drawn,
            "hearts_drawn": self.hearts_drawn,
            "per_cell": self.per_cell,
        }


class Reject(Exception):
    def __init__(self, reason: str, cell: Coord):
        super().__init__(f"reject at {cell}: {reason}")
        self.reason = reason
        self.cell = cell


def verify_cell(board: Board, g: Grid, c: Coord, pool: CardPool, rng: SeededRng,
                transcript: Transcript):
    """Check one cell's arrow constraint; raises Reject on failure."""
    b = g.max_value + 1
    line = sightline(g, c)
    try:
        copies = []
        for cc in [c] + line:
            kept, out = copy_protocol(board[cc], pool, rng, transcript)
            board[cc] = kept
            copies.append(out)
        cell_copy, sight_copies = copies[0], copies[1:]
        y_stacks = set_size_protocol(sight_copies, pool, rng, transcript)
        z_seq = summation_protocol(y_stacks, pool, rng, transcript)
        # the bottom cards of the retained copy form the club encoding of d
        d_seq = [stack[1] for stack in cell_copy]
        pool.discard([stack[0] for stack in cell_copy])
        pool.take(0, 1)
        d_seq.append(HEART)
        equal = comparing_protocol(d_seq, z_seq, pool, rng, transcript)
    except MalformedReveal as e:
        raise Reject(str(e), c) from None
    if not equal:
        raise Reject("cell value differs from its sightline's distinct count", c)


def run_protocol(g: Grid, behavior: ProverBehavior, seed: int
                 ) -> tuple[bool, Transcript, ResourceStats]:
    """Full run over every cell in row-major order.  Deterministic per seed."""
    rng = SeededRng(seed)
    transcript = Transcript()
    pool = CardPool()
    stats = ResourceStats()
    board = setup_board(g, behavior, pool)
    accept = True
    for c in g.coords():
        before = transcript.shifts + transcript.scrambles
        try:
            verify_cell(board, g, c, pool, rng, transcript)
        except Reject as e:
            transcript.verdict(False, reason=e.reason, cell=e.cell)
            accept = False
            break
        stats.per_cell.append(
            {"cell": [c.row, c.col],
             "shuffles": transcript.shifts + transcript.scrambles - before}
        )
    if accept:
        transcript.verdict(True)
    stats.shifts = transcript.shifts
    stats.scrambles = transcript.scrambles
    stats.peak_cards = pool.peak_in_play
    stats.clubs_drawn = pool.clubs_drawn
    stats.hearts_drawn = pool.hearts_drawn
    return accept, transcript, stats


def count_resources(g: Grid) -> ResourceStats:
    """Closed-form shuffle and card counts for a full run (no execution).

    Per cell with sightline length t: t+1 copy shifts, b-1 summation shifts,
    t set-size scrambles, 1 comparing scramble.  Peak cards: the 2b*k*l board
    plus the held copies (2b each, t_max+1 of them) plus the 4b freshly drawn
    cards inside the last copy.
    """
    b = g.max_value + 1
    t_vals = [len(sightline(g, c)) for c in g.coords()]
    stats = ResourceStats()
    for c, t in zip(g.coords(), t_vals):
        stats.shifts += (t + 1) + (b - 1)
        stats.scrambles += t + 1
        stats.per_cell.append({"cell": [c.row, c.col], "shuffles": 2 * t + b + 1})
    t_max = max(t_vals)
    stats.peak_cards = 2 * b * g.rows * g.cols + 2 * b * t_max + 4 * b
    return stats
