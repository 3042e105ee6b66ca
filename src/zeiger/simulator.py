"""Transcript simulator: reproduces the verifier's view without any solution.

A check records the same events whatever well-formed values its cards hold,
and every revealed marker position is uniform thanks to the shuffle before
it.  So the simulator replays the ``structure`` of the protocol's own checks
on a public board of zeros, each marker at a uniformly drawn position.
"""

from __future__ import annotations

import functools
import random

from .cards import MARKER, ODD_STACK, Transcript, encode
from .grid import Grid
from .protocol import ResourceStats, verify_cell


def structure(t: Transcript) -> list[tuple]:
    """Every event's public shape: its kind, reveal site, row and width,
    shuffle kind and size, how many keys it has, so that an event carrying
    anything more has another shape, and the types of its row and size,
    since ``==`` takes a ``True`` or a ``3.0`` for an int.  Only marker
    positions may differ."""
    return [(ev.get("ev"), ev.get("site"), (row := ev.get("row")), len(ev.get("faces", ())),
             ev.get("kind"), (rows := ev.get("rows")), (cols := ev.get("cols")), len(ev),
             type(row), type(rows), type(cols)) for ev in t.events]


@functools.lru_cache
def _skeleton(g: Grid) -> tuple[tuple, ...]:
    """The ``structure`` of every accepting run of ``g``, verdict left out:
    ``verify_cell`` run for every cell on one board where each cell holds
    ``encode(b, 0, ODD_STACK)``.  Only a malformed row changes a check's
    events, so the checks' verdicts are unread."""
    b = g.max_value + 1
    board = [encode(b, 0, ODD_STACK)] * (g.rows * g.cols)  # no check changes a row it copies
    pool, rng, unique, steps = ResourceStats(), random.Random(0), {}, []
    for c in g.coords():  # one short transcript per cell keeps the build's peak memory small
        run = Transcript()
        verify_cell(board, g, c, pool, rng, run)
        steps += (unique.setdefault(s, s) for s in structure(run))  # one copy of equal shapes
    return tuple(steps)


def simulate_transcript(g: Grid, seed: int) -> Transcript:
    """Simulated accepting-run transcript for ``g``; no filling involved.
    A reveal right after a shuffle draws a uniform marker position, which
    every later reveal and normalize shows up to the next shuffle, the rule
    ``audit.check_transcript`` holds.  Each reveal is ``encode`` of its
    position, the one row ``locate`` accepts."""
    randrange = random.Random(f"sim:{seed}").randrange
    t = Transcript()
    shuffle, reveal, normalize = t.shuffle, t.reveal, t.normalize
    pos, fresh = 0, False
    for ev, site, row, q, kind, rows, cols, _, _, _, _ in _skeleton(g):
        if ev == "reveal":
            if fresh:
                pos, fresh = randrange(q), False
            reveal(site, row, encode(q, pos, MARKER[site]))
        elif ev == "shuffle":
            shuffle(kind, rows, cols)
            fresh = True
        else:  # a normalize, which follows a reveal
            normalize(pos)
    t.verdict(True)
    return t
