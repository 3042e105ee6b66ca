"""Transcript simulator: reproduces the verifier's view without any solution.

The event structure of an accepting run depends only on the grid geometry,
and every revealed marker position is uniform thanks to the shuffle before
it.  The simulator replays the protocol's own accepting run of each cell, on
a public board, with every marker moved to a uniformly drawn position.
"""

from __future__ import annotations

import functools
import random

from .cards import MARKER, ODD_STACK, Transcript, encode
from .grid import Grid, sightline
from .protocol import ResourceStats, verify_cell


@functools.lru_cache
def _skeleton(g: Grid) -> tuple[tuple, ...]:
    """An accepting run's events, verdict left out: ``verify_cell`` on a
    public board where the cell holds 1 and its sightline 0.  It accepts
    because ``Grid`` rules out empty sightlines, so its verdict is unread.
    A reveal keeps q, its faces twice over with the marker first (so any
    rotation is one slice, and the shuffle stream used here is immaterial),
    and whether a shuffle came just before it."""
    b = g.max_value + 1
    unique: dict[tuple, tuple] = {}
    steps, fresh = [], False
    for c in g.coords():
        board = {cc: encode(b, 0, ODD_STACK) for cc in sightline(g, c)}
        board[c] = encode(b, 1, ODD_STACK)
        run = Transcript()
        verify_cell(board, g, c, ResourceStats(), random.Random(0), run)
        for ev in run.events:
            if ev["ev"] == "reveal":
                faces = ev["faces"]
                i = faces.index(MARKER[ev["site"]])
                twice = tuple(2 * (faces[i:] + faces[:i]))
                step = ("reveal", ev["site"], ev["row"], len(faces), twice, fresh)
            else:
                step = (ev["ev"], ev.get("kind"), ev.get("rows"), ev.get("cols"))
            fresh = ev["ev"] == "shuffle"
            steps.append(unique.setdefault(step, step))  # one copy of equal steps
    return tuple(steps)


def simulate_transcript(g: Grid, seed: int) -> Transcript:
    """Simulated accepting-run transcript for ``g``; no filling involved.
    A reveal right after a shuffle draws a uniform marker position, which the
    comparing protocol's second row keeps and a normalize shifts by."""
    rng = random.Random(f"sim:{seed}")
    t = Transcript()
    pos = 0
    for step in _skeleton(g):
        if step[0] == "shuffle":
            t.shuffle(*step[1:])
        elif step[0] == "reveal":
            _, site, row, q, twice, fresh = step
            pos = rng.randrange(q) if fresh else pos
            t.reveal(site, row, list(twice[q - pos:2 * q - pos]))
        else:
            t.normalize(pos)
    t.verdict(True)
    return t
