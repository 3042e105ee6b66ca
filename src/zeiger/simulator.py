"""Simulator: reproduces the verifier's view without any solution.

A check records the same events whatever well-formed values its cards hold,
and every revealed marker position is uniform thanks to the shuffle before
it.  So the schedule (``_skeleton``) is the protocol's own checks on a board
of zeros, and ``simulate_view`` draws each fresh reveal's position uniformly.
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
    """The ``structure`` of every accepting run of ``g``, verdict left out.
    A check's events depend only on its sightline's length (bar a malformed
    row), so ``verify_cell`` runs on each length's first cell, on a board of
    ``encode(b, 0, ODD_STACK)`` rows, and every cell of that length shares it."""
    b = g.max_value + 1
    board = [encode(b, 0, ODD_STACK)] * (g.rows * g.cols)  # no check changes a row it copies
    pool, rng, blocks = ResourceStats(), random.Random(0), {}
    for c, line in zip(g.coords(), g.sightlines):
        if len(line) not in blocks:
            verify_cell(board, g, c, pool, rng, run := Transcript())
            blocks[len(line)] = structure(run)
    return tuple(s for line in g.sightlines for s in blocks[len(line)])


@functools.lru_cache
def _counted(g: Grid) -> tuple[tuple[int, tuple[str | None, int], bool], ...]:
    """Every reveal and normalize of ``g``'s schedule: its place among the
    events, its (site, number of columns), ``(None, 0)`` for a normalize, and
    whether a shuffle comes right before it."""
    steps = _skeleton(g)
    return tuple((n, (site, q), steps[n - 1][0] == "shuffle")
                 for n, (kind, site, _, q, *_) in enumerate(steps)
                 if kind == "reveal" or kind == "normalize")


def simulate_view(g: Grid, seed: int) -> list[tuple[tuple[str, int], int]]:
    """``audit.check_transcript``'s view of an accepting run of ``g``, each
    fresh position drawn as ``simulate_transcript`` draws it for ``seed``."""
    randrange = random.Random(f"sim:{seed}").randrange
    return [(key, randrange(key[1])) for _, key, fresh in _counted(g) if fresh]


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
