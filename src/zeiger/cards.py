"""Physical card primitives: encodings, pile matrices, shuffles, transcripts.

A card is its face character, ``CLUB`` or ``HEART``, and a stack is its face
string, topmost first: ``"HC"``, ``"CH"``, or a single card ``"C"`` or ``"H"``.
Cards carry no orientation: every card is face-down except while
``reveal_row`` copies a row's stacks into the transcript.  A value x in
[0, q) is a row of q stacks, all alike except one marker stack at position
x+1: a lone club among hearts, a lone heart among clubs, or a heart-over-club
pair among club-over-heart pairs.  ``encode`` lays such a row out and
``locate`` finds its marker, raising unless the row has that format.  A
shuffle draws its secret from the ``random.Random`` it is given.  The
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


def encode(q: int, x: int, mark: str, rest: str) -> list[str]:
    """q stacks, all ``rest`` except ``mark`` at position x+1."""
    if not 0 <= x < q:
        raise CardError(f"x = {x} out of range [0,{q})")
    row = [rest] * q
    row[x] = mark
    return row


def locate(row: list[str], mark: str, rest: str) -> int:
    """Position of the lone ``mark`` stack in ``row``: the verifier's format
    check.  Raises MalformedReveal unless exactly one stack is ``mark`` and
    every other stack is ``rest``."""
    hits = row.count(mark)
    if hits != 1:
        raise MalformedReveal(f"expected exactly one {mark!r} column, found {hits}")
    if row.count(rest) != len(row) - 1:
        bad = [p for p in row if p != mark and p != rest]
        raise MalformedReveal(f"unexpected pattern(s) {bad} beside {mark!r}")
    return row.index(mark)


class Transcript:
    """Ordered verifier-visible events.  Never records hidden faces or the
    secret offset/permutation of a shuffle."""

    def __init__(self):
        self.events: list[dict] = []
        # running counts of the shuffles recorded, so a run reads its totals
        # without rescanning the events
        self.shifts = 0
        self.scrambles = 0

    def record(self, ev: dict):
        if ev["ev"] == "shuffle":
            self.shifts += ev["kind"] == "shift"
            self.scrambles += ev["kind"] != "shift"
        self.events.append(ev)

    def shuffle(self, kind: str, rows: int, cols: int):
        self.record({"ev": "shuffle", "kind": kind, "rows": rows, "cols": cols})

    def reveal(self, site: str, row: int, faces: list[str]):
        self.record({"ev": "reveal", "site": site, "row": row, "faces": faces})

    def normalize(self, shift: int):
        # The verifier watches the cyclic shift happen, so its magnitude is
        # public; it must be (and is audited to be) uniform.
        self.record({"ev": "normalize", "shift": shift})

    def verdict(self, accept: bool, reason: str = "", cell=None):
        """A reject names its reason and the cell being verified."""
        ev = {"ev": "verdict", "accept": accept}
        if not accept:
            ev["reason"] = reason
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

    def __init__(self, rows: list[list[str]]):
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise CardError("matrix rows must have equal length")
        self.n_rows = len(rows)
        self.n_cols = len(rows[0])
        # stored column-major: columns[j][i] is the stack at row i, column j
        self.columns = [list(col) for col in zip(*rows)]

    def row(self, i: int) -> list[str]:
        return [col[i] for col in self.columns]


def pile_shift(m: PileMatrix, rng: random.Random, transcript: Transcript) -> int:
    """Cyclic shift of the columns by a uniform secret offset; returns it
    (for tests only -- it is never recorded)."""
    r = rng.randrange(m.n_cols)
    k = m.n_cols - r   # column j moves to column (j + r) mod n_cols
    m.columns = m.columns[k:] + m.columns[:k]
    transcript.shuffle("shift", m.n_rows, m.n_cols)
    return r


def pile_scramble(m: PileMatrix, rng: random.Random, transcript: Transcript):
    """Uniform secret permutation of the columns, never recorded."""
    rng.shuffle(m.columns)
    transcript.shuffle("scramble", m.n_rows, m.n_cols)


def reveal_row(m: PileMatrix, i: int, transcript: Transcript, site: str) -> list[str]:
    """Turn row i face-up and record the observed per-column face patterns."""
    patterns = [col[i] for col in m.columns]
    transcript.reveal(site, i, patterns)
    return patterns


def rotate_to_normalize(m: PileMatrix, patterns: list[str], mark: str,
                        transcript: Transcript, rest: str) -> int:
    """Cyclically shift columns so the revealed ``mark`` column lands in
    column 1.  The shift magnitude is public and recorded.  Raises
    MalformedReveal unless ``locate`` finds the row well-formed."""
    shift = locate(patterns, mark, rest)
    m.columns = m.columns[shift:] + m.columns[:shift]
    transcript.normalize(shift)
    return shift

