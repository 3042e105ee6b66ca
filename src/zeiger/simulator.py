"""Simulator: reproduces the verifier's view without any solution.

A check records the same events whatever well-formed values its cards hold,
and each revealed marker position is uniform thanks to the shuffle before it.
So the schedule (``_schedule``, a block per cell) is the protocol's checks on
a board of zeros, and ``simulate_view`` draws each fresh position uniformly.
"""

from __future__ import annotations

import functools
import random
from collections.abc import Iterator

from .cards import MARKER, ODD_STACK, Stream, Transcript, encode
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
def _schedule(g: Grid) -> tuple[tuple[list[tuple], tuple[tuple, tuple, tuple]], ...]:
    """Each cell's check in an accepting run of ``g``, in cell order, as
    ``(steps, counted)``: its events' ``structure``; columns that ``zip`` to
    each reveal's and normalize's place in it, (site, width) or ``(None, 0)``,
    and whether a shuffle comes right before it.  Events depend only on the
    sightline's length, so ``verify_cell`` runs once per length, on rows of
    ``encode(b, 0, ODD_STACK)``, and the cells of a length share its block."""
    b = g.max_value + 1
    board = [encode(b, 0, ODD_STACK)] * (g.rows * g.cols)  # a check only reads the board
    pool, rng, blocks, key = ResourceStats(), random.Random(0), {}, {}.setdefault
    for c, line in zip(g.coords(), g.sightlines):
        if len(line) not in blocks:
            verify_cell(board, g, c, pool, rng, run := Transcript())
            steps = structure(run)  # a block opens with a shuffle, so steps[n - 1] is in it
            blocks[len(line)] = steps, tuple(zip(*[  # few long-lived objects: each pins freed pages
                (n, key((site, q), (site, q)), steps[n - 1][0] == "shuffle")
                for n, (kind, site, _, q, *_) in enumerate(steps) if kind != "shuffle"]))
    return tuple(blocks[len(line)] for line in g.sightlines)


def simulate_view(g: Grid, seed: int) -> Iterator[tuple[tuple[str, int], int]]:
    """``audit.check_transcript``'s view of an accepting run of ``g``, each
    fresh position drawn uniformly for ``seed``: the simulator's one draw rule.
    An iterator, so that ``simulate_transcript`` holds no list of the draws."""
    randrange = Stream(f"sim:{seed}").randrange  # the draws of random.Random's, inline
    return ((key, randrange(key[1]))
            for _, (_, keys, fresh) in _schedule(g) for key, new in zip(keys, fresh) if new)


def simulate_transcript(g: Grid, seed: int) -> Transcript:
    """Simulated accepting-run transcript for ``g``; no filling involved.
    A reveal right after a shuffle shows the next fresh position of
    ``simulate_view(g, seed)``, which every later reveal and normalize shows
    up to the next shuffle, the rule ``audit.check_transcript`` holds.  Each
    reveal is ``encode`` of its position, the one row ``locate`` accepts."""
    positions = (pos for _, pos in simulate_view(g, seed))
    t = Transcript()
    shuffle, reveal, normalize = t.shuffle, t.reveal, t.normalize
    pos, fresh = 0, False
    for steps, _ in _schedule(g):
        for ev, site, row, q, kind, rows, cols, _, _, _, _ in steps:
            if ev == "reveal":
                if fresh:
                    pos, fresh = next(positions), False
                reveal(site, row, encode(q, pos, MARKER[site]))
            elif ev == "shuffle":
                shuffle(kind, rows, cols)
                fresh = True
            else:  # a normalize, which follows a reveal
                normalize(pos)
    t.verdict(True)
    return t
