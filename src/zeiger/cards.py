"""Physical card primitives: encodings, pile matrices, shuffles, transcripts.

A card is its face character, ``CLUB`` or ``HEART``; a stack is a list of
faces, topmost first.  Cards carry no orientation: every card is face-down
except while ``reveal_row`` copies a row's faces into the transcript.  A
value x in [0, q) is encoded positionally: a lone club (or heart) at
position x+1 in a row of q cards, or as q two-card stacks with the odd stack
at position x+1.  The pool only counts cards taken and returned.  The
verifier's view of a run is a transcript of shuffle/reveal/normalize/verdict
events; hidden faces and shuffle secrets never appear in it.
"""

from __future__ import annotations

import json
import random

CLUB = "C"
HEART = "H"


class CardError(ValueError):
    """Bad encoding parameters or malformed card patterns."""


class MalformedReveal(Exception):
    """A revealed row does not match the expected pattern; the verifier rejects."""


# A stack is a list of faces, topmost first.  A pair sequence is a list of
# two-card stacks; a plain sequence is a list of single faces.
Stack = list[str]
Sequence = list[str]
PairSequence = list[Stack]


def encode_club(q: int, x: int) -> Sequence:
    """E^club: q face-down cards, all hearts except a club at position x+1."""
    if not 0 <= x < q:
        raise CardError(f"x = {x} out of range [0,{q})")
    return [CLUB if i == x else HEART for i in range(q)]


def encode_heart(q: int, x: int) -> Sequence:
    """E^heart: q face-down cards, all clubs except a heart at position x+1."""
    if not 0 <= x < q:
        raise CardError(f"x = {x} out of range [0,{q})")
    return [HEART if i == x else CLUB for i in range(q)]


def encode_pair(q: int, x: int) -> PairSequence:
    """q two-card stacks: club-over-heart everywhere except heart-over-club at x+1.

    Top cards form the heart encoding of x, bottom cards the club encoding.
    """
    if not 0 <= x < q:
        raise CardError(f"x = {x} out of range [0,{q})")
    return [[HEART, CLUB] if i == x else [CLUB, HEART] for i in range(q)]


def decode(seq: Sequence) -> int:
    """Test-only inverse of encode_club: position of the lone club (peeks faces)."""
    clubs = [i for i, face in enumerate(seq) if face == CLUB]
    if len(clubs) != 1:
        raise CardError(f"no lone club: found {len(clubs)} clubs in {len(seq)} cards")
    return clubs[0]


def decode_heart(seq: Sequence) -> int:
    hearts = [i for i, face in enumerate(seq) if face == HEART]
    if len(hearts) != 1:
        raise CardError(f"no lone heart: found {len(hearts)} hearts in {len(seq)} cards")
    return hearts[0]


def decode_pair(ps: PairSequence) -> int:
    """Test-only inverse of encode_pair."""
    odd = [i for i, st in enumerate(ps) if st == [HEART, CLUB]]
    rest_ok = all(st in ([HEART, CLUB], [CLUB, HEART]) for st in ps)
    if len(odd) != 1 or not rest_ok:
        raise CardError("not a valid pair encoding")
    return odd[0]


class SeededRng:
    """Deterministic shuffle randomness: one 64-bit master seed per run,
    a fresh sub-stream per shuffle in call order."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._counter = 0

    def _stream(self) -> random.Random:
        r = random.Random(f"{self.seed}:{self._counter}")
        self._counter += 1
        return r

    def shift_offset(self, c: int) -> int:
        return self._stream().randrange(c)

    def permutation(self, c: int) -> list[int]:
        perm = list(range(c))
        self._stream().shuffle(perm)
        return perm


class Transcript:
    """Ordered verifier-visible events.  Never records hidden faces or the
    secret offset/permutation of a shuffle."""

    def __init__(self):
        self.events: list[dict] = []
        # running counts of the shuffles recorded through shuffle(), so a
        # run reads its totals without rescanning the events
        self.shifts = 0
        self.scrambles = 0

    def record(self, ev: dict):
        self.events.append(ev)

    def shuffle(self, kind: str, rows: int, cols: int):
        if kind == "shift":
            self.shifts += 1
        else:
            self.scrambles += 1
        self.record({"ev": "shuffle", "kind": kind, "rows": rows, "cols": cols})

    def reveal(self, site: str, row: int, faces: list[str]):
        self.record({"ev": "reveal", "site": site, "row": row, "faces": faces})

    def normalize(self, shift: int):
        # The verifier watches the cyclic shift happen, so its magnitude is
        # public; it must be (and is audited to be) uniform.
        self.record({"ev": "normalize", "shift": shift})

    def verdict(self, accept: bool, reason: str = "", cell=None):
        ev = {"ev": "verdict", "accept": accept}
        if reason:
            ev["reason"] = reason
        if cell is not None:
            ev["cell"] = [cell.row, cell.col]
        self.record(ev)

    def to_json_lines(self) -> str:
        return "\n".join(json.dumps(ev) for ev in self.events) + "\n"

    @classmethod
    def from_json_lines(cls, text: str) -> "Transcript":
        t = cls()
        for line in text.splitlines():
            if line.strip():
                t.record(json.loads(line))
        return t


class PileMatrix:
    """Rectangular matrix of card stacks; columns move atomically."""

    def __init__(self, rows: list[list[Stack]]):
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise CardError("matrix rows must have equal length")
        self.n_rows = len(rows)
        self.n_cols = len(rows[0])
        # stored column-major: columns[j][i] is the stack at row i, column j
        self.columns = [list(col) for col in zip(*rows)]

    def row(self, i: int) -> list[Stack]:
        return [col[i] for col in self.columns]


def pile_shift(m: PileMatrix, rng: SeededRng, transcript: Transcript | None = None) -> int:
    """Cyclic shift of the columns by a uniform secret offset; returns it
    (for tests only -- it is never recorded)."""
    r = rng.shift_offset(m.n_cols)
    k = m.n_cols - r   # column j moves to column (j + r) mod n_cols
    m.columns = m.columns[k:] + m.columns[:k]
    if transcript is not None:
        transcript.shuffle("shift", m.n_rows, m.n_cols)
    return r


def pile_scramble(m: PileMatrix, rng: SeededRng, transcript: Transcript | None = None) -> list[int]:
    """Uniform secret permutation of the columns; returns it (tests only)."""
    perm = rng.permutation(m.n_cols)
    m.columns = [m.columns[p] for p in perm]
    if transcript is not None:
        transcript.shuffle("scramble", m.n_rows, m.n_cols)
    return perm


def reveal_row(m: PileMatrix, i: int, transcript: Transcript, site: str) -> list[str]:
    """Turn row i face-up and record the observed per-column face patterns."""
    patterns = ["".join(col[i]) for col in m.columns]
    transcript.reveal(site, i, patterns)
    return patterns


def rotate_to_normalize(m: PileMatrix, patterns: list[str], target: str,
                        transcript: Transcript, rest: str | None = None) -> int:
    """Cyclically shift columns so the unique column matching ``target`` lands
    in column 1.  The shift magnitude is public and recorded.

    Raises MalformedReveal unless exactly one column matches ``target`` and,
    when ``rest`` is given, all other columns match ``rest``.
    """
    hits = [j for j, p in enumerate(patterns) if p == target]
    if len(hits) != 1:
        raise MalformedReveal(
            f"expected exactly one {target!r} column, found {len(hits)}"
        )
    if rest is not None:
        bad = [p for j, p in enumerate(patterns) if j != hits[0] and p != rest]
        if bad:
            raise MalformedReveal(f"unexpected pattern(s) {bad} beside {target!r}")
    shift = hits[0]
    m.columns = m.columns[shift:] + m.columns[:shift]
    transcript.normalize(shift)
    return shift


class CardPool:
    """Supply of cards with exact in-play accounting.  It hands out no card
    objects: callers lay out the faces they took."""

    def __init__(self):
        self.clubs_drawn = 0
        self.hearts_drawn = 0
        self.in_play = 0
        self.peak_in_play = 0

    def take(self, clubs: int, hearts: int):
        """Put ``clubs`` clubs and ``hearts`` hearts into play.  Cards only
        come into play here, so the peak is checked once per take."""
        self.clubs_drawn += clubs
        self.hearts_drawn += hearts
        self.in_play += clubs + hearts
        if self.in_play > self.peak_in_play:
            self.peak_in_play = self.in_play

    def discard(self, stacks):
        """Return cards to the pool: each item is a stack, or a single face
        (a one-character string, so one card)."""
        self.in_play -= sum(map(len, stacks))
