"""Physical card primitives: encodings, piles, shuffles, transcripts.

A card is its face character, ``CLUB`` or ``HEART``, and a stack is its face
string, topmost first: ``"HC"``, ``"CH"``, or a single card ``"C"`` or ``"H"``.
A ``Pile`` is equal-length rows of stacks, laid once, and where its columns
now lie: the order the last scramble left them in, then how far every row
has rotated since.  A pile-shifting shuffle or a normalize only turns the
pile, so no row is re-laid until it is read.  Cards carry no orientation:
every card is face-down except while ``reveal_row`` lays a row's stacks out
into the transcript.  A value x in [0, q) is a row of q stacks, all
``REST[mark]`` except one ``mark`` stack at position x+1: a lone club among
hearts, a lone heart among clubs, or an ``ODD_STACK`` among ``EVEN_STACK``
pairs.  ``encode`` lays such a row out and ``locate`` finds its marker,
raising unless the row has that format; ``MARKER`` names the marker each
reveal site locates.  A shuffle draws its secret from the ``random.Random``
it is given; a run gives a ``Stream``, whose ``shuffle`` draws what the
standard library's does.  The verifier's view of a run is a transcript of
shuffle/reveal/normalize/verdict events; hidden faces and shuffle secrets
never appear in it.
"""

from __future__ import annotations

import json
import random

CLUB = "C"
HEART = "H"
ODD_STACK = "HC"   # heart over club: the position-marking two-card stack
EVEN_STACK = "CH"
# each marker's other stack, which fills the rest of its row
REST = {CLUB: HEART, HEART: CLUB, ODD_STACK: EVEN_STACK}
# the marker each reveal site locates (one per honest row)
MARKER = {"copy": ODD_STACK, "setsize": ODD_STACK, "sum": HEART, "compare": CLUB}


class CardError(ValueError):
    """Bad encoding parameters or malformed card patterns."""


class MalformedReveal(Exception):
    """A revealed row does not match the expected pattern; the verifier rejects."""


def encode(q: int, x: int, mark: str) -> list[str]:
    """q stacks, all ``REST[mark]`` except ``mark`` at position x+1."""
    if not 0 <= x < q:
        raise CardError(f"x = {x} out of range [0,{q})")
    row = [REST[mark]] * q
    row[x] = mark
    return row


def locate(row: list[str], mark: str) -> int:
    """Position of the lone ``mark`` stack in ``row``: the verifier's format
    check.  Raises MalformedReveal unless ``row`` is a list, exactly one
    stack is ``mark`` and every other stack is ``REST[mark]``."""
    if type(row) is not list:  # a string of one-card stacks would pass the count
        raise MalformedReveal(f"expected a list of stacks, got a {type(row).__name__}")
    rest = REST[mark]
    if row.count(rest) == len(row) - 1:  # all stacks but one are the rest ...
        try:
            return row.index(mark)  # ... and that one is the marker
        except ValueError:
            pass
    hits = row.count(mark)
    if hits != 1:
        raise MalformedReveal(f"expected exactly one {mark!r} column, found {hits}")
    bad = [p for p in row if p != mark and p != rest]
    raise MalformedReveal(f"unexpected pattern(s) {bad} beside {mark!r}")


class Transcript:
    """Ordered verifier-visible events, and nothing else: a run's counts are
    kept in its ``ResourceStats``.  Never records hidden faces or the secret
    offset/permutation of a shuffle."""

    def __init__(self):
        self.events: list[dict] = []

    def record(self, ev: dict):
        self.events.append(ev)

    def shuffle(self, kind: str, rows: int, cols: int):
        self.events.append({"ev": "shuffle", "kind": kind, "rows": rows, "cols": cols})

    def reveal(self, site: str, row: int, faces: list[str]):
        self.events.append({"ev": "reveal", "site": site, "row": row, "faces": faces})

    def normalize(self, shift: int):
        # The verifier watches the cyclic shift happen, so its magnitude is
        # public; it must be (and is audited to be) uniform, and equal to
        # the marker position revealed just before it.
        self.events.append({"ev": "normalize", "shift": shift})

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
        """Read ``to_json_lines`` back; blank lines are skipped, and a line
        that is not a JSON object, or is nested too deep or holds a number
        too long for the parser to read, raises CardError naming its number."""
        t = cls()
        for n, line in enumerate(text.splitlines(), 1):
            if line.strip():
                try:
                    ev = json.loads(line)
                except json.JSONDecodeError as e:
                    raise CardError(f"line {n}: not JSON: {e.msg} at column {e.colno}") from None
                except RecursionError:
                    raise CardError(f"line {n}: nested too deep to read") from None
                except ValueError as e:  # an integer past int()'s digit limit
                    raise CardError(f"line {n}: {e}") from None
                if not isinstance(ev, dict):
                    raise CardError(f"line {n}: not a JSON object: {line.strip()[:40]!r}")
                t.record(ev)
        return t


class Stream(random.Random):
    """A ``random.Random`` whose ``shuffle`` is the standard library's loop
    (Durstenfeld's) with its ``getrandbits`` rejection sampling written out
    in place of a ``_randbelow`` call per swap: the same list, and the same
    stream after it, at about half the cost."""

    def shuffle(self, x):
        getrandbits = self.getrandbits
        for i in range(len(x) - 1, 0, -1):
            k = (i + 1).bit_length()
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]


class Pile:
    """Rows of stacks, laid once and never re-laid; ``order``, the column at
    each position after the last scramble (``None`` while the columns lie
    as laid); and ``turn``, how far every row has rotated left since.  A
    shuffle moves the columns the same way in every row: a rotation only
    changes ``turn``, and a scramble folds ``turn`` into a new ``order``."""

    __slots__ = ("rows", "order", "turn")

    def __init__(self, rows: list[list[str]]):
        self.rows = rows
        self.order = None
        self.turn = 0

    def row(self, i: int) -> list[str]:
        """Row i's stacks as they now lie, in a fresh list."""
        row, t = self.rows[i], self.turn
        if self.order is not None:
            row = [row[k] for k in self.order]
        return row[t:] + row[:t]


def pile_shift(m: Pile, rng: random.Random, transcript: Transcript) -> int:
    """Cyclic shift of every row by one uniform secret offset; returns it
    (for tests only -- it is never recorded)."""
    q = len(m.rows[0])
    r = rng.randrange(q)
    m.turn = (m.turn - r) % q   # column j moves to column (j + r) mod q
    transcript.shuffle("shift", len(m.rows), q)
    return r


def pile_scramble(m: Pile, rng: random.Random, transcript: Transcript):
    """One uniform secret permutation of the columns, the same in every row
    and never recorded.  Shuffling the columns' present order draws what
    shuffling ``range(q)`` would and composes with it."""
    q, t, order = len(m.rows[0]), m.turn, m.order
    order = [*range(t, q), *range(t)] if order is None else order[t:] + order[:t]
    rng.shuffle(order)
    m.order, m.turn = order, 0
    transcript.shuffle("scramble", len(m.rows), q)


def reveal_row(m: Pile, i: int, transcript: Transcript, site: str) -> int:
    """Turn row i face-up, record its stacks, and return where the site's
    marker lies.  Raises MalformedReveal, after recording, unless ``locate``
    finds the row well-formed."""
    faces = m.row(i)
    transcript.reveal(site, i, faces)
    return locate(faces, MARKER[site])


def rotate_to_normalize(m: Pile, shift: int, transcript: Transcript):
    """Cyclically shift every row left by the public ``shift``, bringing a
    revealed marker to column 1, and record the shift."""
    m.turn = (m.turn + shift) % len(m.rows[0])
    transcript.normalize(shift)
