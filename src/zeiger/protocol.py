"""Card-based zero-knowledge verification of a Zeiger solution.

Four subprotocols (copy, set size, summation, comparing) compose into the
main protocol: for every cell, copy its sequence and its sightline's
sequences, count the distinct sightline values obliviously, and compare the
result with the cell's own value.  The prover's cards are never revealed in
any position that depends on the solution.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .cards import (
    CLUB,
    EVEN_STACK,
    HEART,
    ODD_STACK,
    MalformedReveal,
    Pile,
    Stream,
    Transcript,
    encode,
    pile_scramble,
    pile_shift,
    reveal_row,
    rotate_to_normalize,
)
from .grid import Coord, Filling, Grid, GridError


def turn_down_all(m):
    """Does nothing, and no protocol step calls it: cards carry no
    orientation.  The name stays only because the benchmark's traced run
    (``perfbench/run.py``) and its tests still look it up here."""


def copy_protocol(a: list[str], pool: ResourceStats, rng: random.Random,
                  transcript: Transcript) -> tuple[list[str], list[str]]:
    """Duplicate a pair encoding without revealing its value.

    Also checks the input's format: a malformed input sequence surfaces as a
    MalformedReveal when row 1 is turned over.
    """
    q = len(a)
    # Reversing the q-1 rightmost stacks negates the encoded value mod q.
    reversed_a = a[:1] + a[:0:-1]
    # two publicly built encodings of 0 (odd stack at position 1), drawn
    # together; they lie alike, so one laid row serves as both
    pool.take(2 * q, 2 * q)
    zero = encode(q, 0, ODD_STACK)
    m = Pile([reversed_a, zero, zero])
    pile_shift(m, rng, transcript)
    rotate_to_normalize(m, reveal_row(m, 0, transcript, "copy"), transcript)
    pool.discard(reversed_a)
    kept = m.row(1)   # every shuffle moved rows 2 and 3 alike
    return kept, kept[:]


def set_size_protocol(seqs: list[list[str]], pool: ResourceStats, rng: random.Random,
                      transcript: Transcript) -> list[str]:
    """Count distinct encoded values: returns q two-card stacks whose odd-stack
    count equals the number of different inputs.  A swap finds the two
    stacks at the revealed position through the column order the scramble
    just left (with no turn since), so no row but the revealed one is laid
    out until the end."""
    m = Pile([list(row) for row in seqs])   # copies: the swaps move stacks in place
    top = m.rows[0]
    for i in range(1, len(m.rows)):
        pile_scramble(m, rng, transcript)
        k = m.order[reveal_row(m, i, transcript, "setsize")]
        row = m.rows[i]
        top[k], row[k] = row[k], top[k]
    pile_scramble(m, rng, transcript)
    for row in m.rows[1:]:
        pool.discard(row)
    return m.row(0)


def summation_protocol(stacks: list[str], pool: ResourceStats, rng: random.Random,
                       transcript: Transcript) -> list[str]:
    """Sum q bits held as two-card stacks into a single club encoding of
    length q+1."""
    q = len(stacks)
    a_seq = list(stacks[0])  # the first stack as a row of cards, top card leftmost
    for i in range(2, q + 1):
        pool.take(i - 1, 1)
        a_seq.append(HEART)
        top, bottom = stacks[i - 1]
        b_seq = [bottom] + [CLUB] * (i - 1) + [top]
        m = Pile([a_seq, b_seq])
        pile_shift(m, rng, transcript)
        rotate_to_normalize(m, reveal_row(m, 1, transcript, "sum"), transcript)
        a_seq = m.row(0)
        pool.discard(b_seq)
    return a_seq


def comparing_protocol(s1: list[str], s2: list[str], pool: ResourceStats, rng: random.Random,
                       transcript: Transcript) -> bool:
    """True iff both club encodings hold the same value; reveals everything
    after a scramble, then discards all cards."""
    m = Pile([s1, s2])
    pile_scramble(m, rng, transcript)
    same = reveal_row(m, 0, transcript, "compare") == reveal_row(m, 1, transcript, "compare")
    pool.discard(s1)
    pool.discard(s2)
    return same


@dataclass(frozen=True)
class ProverBehavior:
    """The prover's filling, with at most one cell's sequence broken.  A wrong
    value is an honest run of a filling that holds it."""

    filling: Filling
    malformed_cell: Optional[Coord] = None

    @classmethod
    def honest(cls, f: Filling) -> "ProverBehavior":
        return cls(filling=f)

    @classmethod
    def malformed(cls, f: Filling, cell: Coord) -> "ProverBehavior":
        return cls(filling=f, malformed_cell=cell)


# each cell's row of stacks, at its flat index (row-1)*cols + (col-1)
Board = list[list[str]]


def setup_board(g: Grid, behavior: ProverBehavior, pool: ResourceStats) -> Board:
    """Place a pair encoding of the (claimed) value on every cell.

    The one check of the prover's values: raises GridError unless the filling
    agrees with every given, which the verifier lays out publicly, and the
    malformed cell, if any, is on the board and unnumbered.  A value above
    b-1 lays out a row with no odd stack, which the cell's first copy rejects;
    the malformed cell's row has two odd stacks, or none if its value is above
    b-1, so it is never well formed.
    """
    f = behavior.filling
    g.check_size(f)
    bad = -1
    if behavior.malformed_cell is not None:
        c = behavior.malformed_cell
        if g.cell(c).given is not None:
            raise GridError(f"malformed cell {c} is a given cell, "
                            "laid out publicly by the verifier")
        bad = g.index(c)
    b = g.max_value + 1
    board: Board = []
    for cells, values in zip(g.cells, f.values):
        for cell, v in zip(cells, values):
            if cell.given is not None and v != cell.given:
                r, col = divmod(len(board), g.cols)
                raise GridError(f"filling disagrees with given at {Coord(r + 1, col + 1)}")
            ps = [EVEN_STACK] * b
            if v < b:
                ps[v] = ODD_STACK
                if len(board) == bad:
                    # a second marker stack: caught by the copy protocol's format check
                    ps[(v + 1) % b] = ODD_STACK
            board.append(ps)
    pool.take(b * len(board), b * len(board))
    return board


@dataclass
class ResourceStats:
    """A run's only ledger of shuffles and cards.  The subprotocols take it as
    ``pool``; it hands out no cards, callers lay out the faces they took."""

    shifts: int = 0
    scrambles: int = 0
    peak_cards: int = 0
    clubs_drawn: int = 0
    hearts_drawn: int = 0
    per_cell: list = field(default_factory=list)
    in_play: int = 0   # cards out of the pool now; to_dict leaves it out

    def take(self, clubs: int, hearts: int):
        """Put ``clubs`` clubs and ``hearts`` hearts into play.  Cards only
        come into play here, so the peak is checked once per take."""
        self.clubs_drawn += clubs
        self.hearts_drawn += hearts
        self.in_play += clubs + hearts
        if self.in_play > self.peak_cards:
            self.peak_cards = self.in_play

    def discard(self, stacks):
        """Return cards to the pool: each item is a stack, one character
        per card."""
        self.in_play -= sum(map(len, stacks))

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


def verify_cell(board: Board, g: Grid, c: Coord, pool: ResourceStats, rng: random.Random,
                transcript: Transcript) -> bool:
    """True iff cell c's value equals its sightline's distinct count: copy
    the cell and each sightline cell (on flat indices), count the
    sightline's distinct values and compare the count with the cell's.  A
    malformed sequence raises MalformedReveal when its row is turned over."""
    i = g.index(c)
    copies = []
    for j in (i, *g.sightlines[i]):
        board[j], out = copy_protocol(board[j], pool, rng, transcript)
        copies.append(out)
    cell_copy = copies[0]
    y_stacks = set_size_protocol(copies[1:], pool, rng, transcript)
    z_seq = summation_protocol(y_stacks, pool, rng, transcript)
    # the bottom cards of the retained copy form the club encoding of d
    d_seq = [stack[1] for stack in cell_copy]
    pool.discard([stack[0] for stack in cell_copy])
    pool.take(0, 1)
    d_seq.append(HEART)
    return comparing_protocol(d_seq, z_seq, pool, rng, transcript)


def run_protocol(g: Grid, behavior: ProverBehavior, seed: int
                 ) -> tuple[bool, Transcript, ResourceStats]:
    """Full run over every cell in row-major order.  One ``Stream``, seeded
    from the string ``run:<seed>`` (an int seed would make -1 and 1 alike),
    draws every shuffle secret, so a run is deterministic per seed."""
    rng = Stream(f"run:{seed}")
    transcript = Transcript()
    events = transcript.events
    stats = ResourceStats()
    board = setup_board(g, behavior, stats)
    for c in g.coords():
        start = len(events)
        try:
            ok = verify_cell(board, g, c, stats, rng, transcript)
            reason = "cell value differs from its sightline's distinct count"
        except MalformedReveal as e:
            ok, reason = False, str(e)
        # the cell's shuffles, counted once; a rejected cell's count too (only
        # a shuffle event has a kind)
        kinds = [ev.get("kind") for ev in events[start:]]
        shifts, scrambles = kinds.count("shift"), kinds.count("scramble")
        stats.shifts += shifts
        stats.scrambles += scrambles
        if not ok:
            transcript.verdict(False, reason, c)
            break
        stats.per_cell.append({"cell": [c.row, c.col], "shuffles": shifts + scrambles})
    else:
        transcript.verdict(True)
    return events[-1]["accept"], transcript, stats


def count_resources(g: Grid) -> ResourceStats:
    """Closed-form shuffle and card counts for a full run (no execution).

    Per cell with sightline length t: t+1 copy shifts, b-1 summation shifts,
    t set-size scrambles, 1 comparing scramble.  Cards drawn: b+b on the board,
    2b+2b per copy, b(b-1)/2 clubs and b-1 hearts to sum, 1 heart to compare.
    Peak cards: the 2b*k*l board plus the held copies (2b each, t_max+1 of
    them) plus the 4b freshly drawn cards inside the last copy.
    """
    b = g.max_value + 1
    t_vals = [len(line) for line in g.sightlines]
    stats = ResourceStats()
    for c, t in zip(g.coords(), t_vals):
        stats.shifts += (t + 1) + (b - 1)
        stats.scrambles += t + 1
        stats.clubs_drawn += b + 2 * b * (t + 1) + b * (b - 1) // 2
        stats.hearts_drawn += b + 2 * b * (t + 1) + b
        stats.per_cell.append({"cell": [c.row, c.col], "shuffles": 2 * t + b + 1})
    t_max = max(t_vals)
    stats.peak_cards = 2 * b * g.rows * g.cols + 2 * b * t_max + 4 * b
    return stats
