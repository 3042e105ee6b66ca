"""Exact zero-knowledge check: every reveal that directly follows a shuffle
shows a marker position that is a bijection of that shuffle's secret, and
every later reveal and normalize, up to the next shuffle, shows that same
position.

For shuffle k of a cell, the cell is replayed from the same board once for
each of the q secrets r: shift offset r, or the stream's permutation rotated
by r.  The replay keeps every reveal's marker position and every normalize's
shift up to the next shuffle, or to the cell's end.  The first positions
over the q replays must be q distinct values, and each replay's later values
must equal its first; a shuffle followed directly by another shows
nothing of its secret.  No chi-square test and no sampling are involved.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeiger import protocol
from zeiger.audit import AuditError, audit_zk
from zeiger.cards import MARKER, Transcript, pile_shift, reveal_row
from zeiger.cli import main
from zeiger.protocol import (
    ProverBehavior,
    ResourceStats,
    count_resources,
    setup_board,
    verify_cell,
)
from zeiger.simulator import _schedule

from .conftest import FIXTURES, solved


class _Stop(Exception):
    pass


class _ForcedRng:
    """Shuffle secrets from a seeded stream, except shuffle ``k``'s: shift
    offset ``r``, or the stream's permutation rotated by ``r``."""

    def __init__(self, seed: str, k: int = -1, r: int = 0):
        self.stream = random.Random(seed)
        self.k, self.r = k, r
        self.n = 0

    def randrange(self, n):
        x = self.stream.randrange(n)
        self.n += 1
        return self.r if self.n - 1 == self.k else x

    def shuffle(self, x):
        perm = list(range(len(x)))
        self.stream.shuffle(perm)
        if self.n == self.k:
            perm = perm[self.r:] + perm[:self.r]
        self.n += 1
        x[:] = [x[p] for p in perm]


class _StopAfterShuffle(list):
    """A probe transcript's events list: it stops the cell at the shuffle
    after shuffle ``k``, keeping every marker position revealed and every
    normalize's shift since shuffle ``k``.  Every event is appended to the
    list, so it sees each one, whichever ``Transcript`` method writes it,
    and also when the engine appends to the list itself."""

    def __init__(self, k: int):
        super().__init__()
        self.k = k
        self.shuffles = 0
        self.shown = []

    def append(self, ev):
        super().append(ev)
        if ev["ev"] == "shuffle":
            if self.shuffles > self.k:
                raise _Stop
            self.shuffles += 1
        elif self.shuffles > self.k and ev["ev"] == "reveal":
            self.shown.append(ev["faces"].index(MARKER[ev["site"]]))
        elif self.shuffles > self.k and ev["ev"] == "normalize":
            self.shown.append(ev["shift"])


def exact_check(g, f, seed):
    """(shuffles whose first reveal after them is a bijection of the secret
    and whose later reveals and normalizes repeat it, shuffles where either
    fails, shuffles followed by another shuffle)."""
    board = setup_board(g, ProverBehavior.honest(f), ResourceStats())
    good, bad, unrevealed = 0, 0, 0
    for c in g.coords():
        stream = f"zk:{seed}:{c.row},{c.col}"
        t = Transcript()
        assert verify_cell(board, g, c, ResourceStats(), _ForcedRng(stream), t)
        widths = [ev["cols"] for ev in t.events if ev["ev"] == "shuffle"]
        for k, q in enumerate(widths):
            shown = []
            for r in range(q):
                probe = Transcript()
                probe.events = seen = _StopAfterShuffle(k)
                try:  # the cell's last shuffle runs to the cell's end
                    verify_cell(board, g, c, ResourceStats(), _ForcedRng(stream, k, r), probe)
                except _Stop:
                    pass
                shown.append(seen.shown)
            if not any(shown):
                unrevealed += 1
            elif (all(shown) and {s[0] for s in shown} == set(range(q))
                  and all(v == s[0] for s in shown for v in s)):
                good += 1
            else:
                bad += 1
    return good, bad, unrevealed


# (grid, seed): the 9x9 reduced grid takes ~2.6 s per seed, so it runs one
CASES = [(name, seed) for name in ("fig1", "R. L./R. L.") for seed in (0, 1, 2)]
CASES.append(("gen_nae(4, 6, 0)", 0))
GOOD = {"fig1": 279, "gen_nae(4, 6, 0)": 1527}


def assert_exact(g, f, seed, good_expected=None):
    good, bad, unrevealed = exact_check(g, f, seed)
    # only each cell's last set-size scramble is followed by another shuffle
    assert (bad, unrevealed) == (0, g.rows * g.cols)
    assert good + unrevealed == count_resources(g).total_shuffles
    if good_expected is not None:
        assert good == good_expected


@pytest.mark.parametrize("name,seed", CASES)
def test_every_revealed_position_is_a_bijection_of_its_secret(name, seed):
    assert_exact(*solved(name), seed, GOOD.get(name))


@settings(max_examples=5, deadline=None)
@given(st.integers())
def test_exact_check_holds_for_any_stream_seed(fig1_grid, fig1_solution, seed):
    assert_exact(fig1_grid, fig1_solution, seed, GOOD["fig1"])


def lazy_shift(m, rng, transcript):
    rng.randrange(q := len(m.rows[0]))
    transcript.shuffle("shift", len(m.rows), q)
    return 0


def leaky_shift(m, rng, transcript):
    r = pile_shift(m, rng, transcript)
    transcript.events[-1]["offset"] = r
    return r


def recorded_leaky_shift(m, rng, transcript):
    """The leaky shift, its shuffle event written through ``record``."""
    scratch = Transcript()
    r = pile_shift(m, rng, scratch)
    transcript.record({**scratch.events[0], "offset": r})
    return r


def appended_leaky_shift(m, rng, transcript):
    """The leaky shift, its shuffle event appended to the events list by hand."""
    scratch = Transcript()
    r = pile_shift(m, rng, scratch)
    transcript.events.append({**scratch.events[0], "offset": r})
    return r


def leaky_normalize(m, shift, transcript):
    """Rotates as the honest one does, but records the secret r of the pile's
    one shift, which turned it from 0 to -r, in place of the revealed position."""
    transcript.normalize(-m.turn % len(m.rows[0]))
    m.turn = (m.turn + shift) % len(m.rows[0])


def two_row_reveal(m, i, transcript, site):
    """A copy turns over its public zero row, then its input row: each alone
    is uniform, but the two differ by the copied value."""
    if site == "copy":
        reveal_row(m, 1, transcript, site)
    return reveal_row(m, i, transcript, site)


def skipped_shift(m, rng, transcript):
    return (lazy_shift if rng.random() < 0.05 else pile_shift)(m, rng, transcript)


# Each mutant: (its patches on zeiger.protocol; True if the verifier holds the
# honest engine's schedule, built before the patches go in, False for the
# mutant's own; {check that must catch it: its outcome on fig1 at seed 0}).
# "rules" is check_transcript, run by audit_zk; "exact" is exact_check;
# "chi-square" is `zkp audit` (exit code, last line, the report's "pass").
# Every mutant's run accepts.  Blind to each, as measured:
MUTANTS = {
    # the rules, as each later reveal and normalize repeats the unturned
    # position (the chi-square sees it too, p = 0.0)
    "lazy-shift": ({"pile_shift": lazy_shift}, False, {"exact": (77, 202, 25)}),
    # the exact check, which reads positions, not shapes; the chi-square, as
    # every position is the honest run's; under its own schedule, the rules too
    "leaky-shift": ({"pile_shift": leaky_shift}, True, {"rules": "structure differs"}),
    # the chi-square, as every reveal is the honest run's (the exact check
    # sees it too: (136, 143, 25))
    "leaky-normalize": ({"rotate_to_normalize": leaky_normalize}, False, {
        "rules": r"^event \d+: normalize shifts by \d+, not by the marker position \d+ "
                 r"revealed just before it$"}),
    # the chi-square, as each fresh reveal is uniform; under the honest
    # schedule, the rules see only that the structure differs
    "leaky-copy": ({"reveal_row": two_row_reveal}, False, {
        "rules": r"^event 3: second copy row shows position \d, not the first row's \d$",
        "exact": (177, 102, 25)}),  # each copy's input row shows r - v, not r, for v in 1..4
    # the rules, as every shape and repeat holds; the exact check cannot run
    # it, as _ForcedRng has no random()
    "skipped-shift": ({"pile_shift": skipped_shift}, False, {"chi-square": (1, "FAIL", False)}),
}


@pytest.fixture
def mutant(request, monkeypatch, fig1_grid):
    """The row's patches, installed with its schedule; the schedule cache is
    keyed on equal grids, so it is cleared before and after."""
    patches, honest_schedule, outcomes = MUTANTS[request.param]
    _schedule.cache_clear()
    if honest_schedule:
        _schedule(fig1_grid)
    for name, body in patches.items():
        monkeypatch.setattr(protocol, name, body)
    yield outcomes
    _schedule.cache_clear()


@pytest.mark.parametrize("mutant,check", [(name, check) for name, row in MUTANTS.items()
                                          for check in row[2]], indirect=["mutant"])
def test_each_mutant_is_caught_by_its_check(mutant, check, fig1_grid, fig1_solution, tmp_path,
                                            capsys):
    assert protocol.run_protocol(fig1_grid, ProverBehavior.honest(fig1_solution), seed=0)[0]
    if check == "exact":
        assert exact_check(fig1_grid, fig1_solution, 0) == mutant[check]
    elif check == "rules":
        with pytest.raises(AuditError, match=mutant[check]):
            audit_zk(fig1_grid, fig1_solution, 1000, 0.001, seed=0)
    else:  # the pooled chi-square, library and CLI in one run
        report = tmp_path / "audit.json"
        code = main(["zkp", "audit", "--grid", str(FIXTURES / "fig1.puzzle"), "--solution",
                     str(FIXTURES / "fig1.solution"), "--trials", "1000", "--seed", "0",
                     "--report", str(report)])
        last = capsys.readouterr().out.splitlines()[-1]
        assert (code, last, json.loads(report.read_text())["pass"]) == mutant[check]


@pytest.mark.parametrize("shift", [leaky_shift, recorded_leaky_shift, appended_leaky_shift])
def test_the_exact_check_counts_a_shuffle_however_it_is_written(shift, monkeypatch, fig1_grid,
                                                                fig1_solution):
    # the leak is an extra key on the shuffle event, and the positions are the
    # honest run's, so the exact check must count the honest (279, 0, 25)
    # whichever way the event is written
    monkeypatch.setattr(protocol, "pile_shift", shift)
    assert exact_check(fig1_grid, fig1_solution, 0) == (GOOD["fig1"], 0, 25)
