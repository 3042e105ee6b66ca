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

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeiger import protocol
from zeiger.audit import AuditError, audit_zk
from zeiger.cards import (MARKER, ODD_STACK, Pile, Transcript, encode, reveal_row,
                          rotate_to_normalize)
from zeiger.protocol import (
    ProverBehavior,
    ResourceStats,
    count_resources,
    setup_board,
    verify_cell,
)
from zeiger.simulator import _schedule

from .conftest import solved


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


class _StopAfterShuffle(Transcript):
    """Stops the cell at the shuffle after shuffle ``k``, keeping every marker
    position revealed and every normalize's shift since shuffle ``k``."""

    def __init__(self, k: int):
        super().__init__()
        self.k = k
        self.shuffles = 0
        self.shown = []

    def shuffle(self, kind, rows, cols):
        if self.shuffles > self.k:
            raise _Stop
        self.shuffles += 1
        super().shuffle(kind, rows, cols)

    def reveal(self, site, row, faces):
        if self.shuffles > self.k:
            self.shown.append(faces.index(MARKER[site]))
        super().reveal(site, row, faces)

    def normalize(self, shift):
        if self.shuffles > self.k:
            self.shown.append(shift)
        super().normalize(shift)


def exact_check(g, f, seed):
    """(shuffles whose first reveal after them is a bijection of the secret
    and whose later reveals and normalizes repeat it, shuffles where either
    fails, shuffles followed by another shuffle)."""
    board = setup_board(g, ProverBehavior.honest(f), ResourceStats())
    good, bad, unrevealed = 0, 0, 0
    for c in g.coords():
        stream = f"zk:{seed}:{c.row},{c.col}"
        start = list(board)
        t = Transcript()
        assert verify_cell(board, g, c, ResourceStats(), _ForcedRng(stream), t)
        widths = [ev["cols"] for ev in t.events if ev["ev"] == "shuffle"]
        for k, q in enumerate(widths):
            shown = []
            for r in range(q):
                probe = _StopAfterShuffle(k)
                try:  # the cell's last shuffle runs to the cell's end
                    verify_cell(list(start), g, c, ResourceStats(), _ForcedRng(stream, k, r), probe)
                except _Stop:
                    pass
                shown.append(probe.shown)
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


def test_a_shift_that_ignores_its_secret_fails(fig1_grid, fig1_solution, monkeypatch):
    def lazy_shift(m, rng, transcript):
        q = len(m.rows[0])
        rng.randrange(q)
        transcript.shuffle("shift", len(m.rows), q)
        return 0

    monkeypatch.setattr(protocol, "pile_shift", lazy_shift)
    good, bad, unrevealed = exact_check(fig1_grid, fig1_solution, 0)
    assert bad == count_resources(fig1_grid).shifts == 202
    assert (good, unrevealed) == (279 - 202, 25)


def test_a_shift_that_records_its_secret_fails_the_audit(fig1_grid, fig1_solution, monkeypatch):
    """Its marker positions stay uniform, so only the event's shape gives it
    away: a shuffle event with one key more than the schedule's."""
    def leaky_shift(m, rng, transcript):
        q = len(m.rows[0])
        r = rng.randrange(q)
        m.turn = (m.turn - r) % q
        transcript.record({"ev": "shuffle", "kind": "shift", "rows": len(m.rows), "cols": q,
                           "offset": r})
        return r

    _schedule(fig1_grid)  # the schedule of the honest engine, built before the mutant goes in
    monkeypatch.setattr(protocol, "pile_shift", leaky_shift)
    with pytest.raises(AuditError, match="structure differs"):
        audit_zk(fig1_grid, fig1_solution, 1000, 0.001, seed=2)


def test_a_normalize_that_records_the_shifts_secret_fails_the_audit(fig1_grid, fig1_solution,
                                                                   monkeypatch):
    """It rotates as the honest one does, so every run accepts and every
    shape and histogram stays the same; only its recorded shift, the
    preceding shift's secret offset in place of the marker position revealed
    just before it, gives it away."""
    offsets = []
    honest_shift = protocol.pile_shift

    def remembering_shift(m, rng, transcript):
        offsets.append(honest_shift(m, rng, transcript))
        return offsets[-1]

    def leaky_normalize(m, shift, transcript):
        m.turn = (m.turn + shift) % len(m.rows[0])
        transcript.normalize(offsets[-1])

    _schedule(fig1_grid)
    monkeypatch.setattr(protocol, "pile_shift", remembering_shift)
    monkeypatch.setattr(protocol, "rotate_to_normalize", leaky_normalize)
    accept, _, _ = protocol.run_protocol(fig1_grid, ProverBehavior.honest(fig1_solution), seed=2)
    assert accept
    with pytest.raises(AuditError, match=r"^event \d+: normalize shifts by \d+, not by the "
                                         r"marker position \d+ revealed just before it$"):
        audit_zk(fig1_grid, fig1_solution, 1000, 0.001, seed=2)


@pytest.fixture
def leaky_copy(monkeypatch):
    """A copy protocol that turns over its public zero row, then its input
    row, after its one shift, and normalizes by the input row's position.
    It copies honestly, so every run accepts, and each row alone shows a
    uniform position; but the two differ by the copied value.  The schedule
    cache is keyed on equal grids, so it is cleared before and after."""
    def leaky(a, pool, rng, transcript):
        q = len(a)
        reversed_a = a[:1] + a[:0:-1]
        pool.take(2 * q, 2 * q)
        zero = encode(q, 0, ODD_STACK)
        m = Pile([reversed_a, zero, zero])
        protocol.pile_shift(m, rng, transcript)
        reveal_row(m, 1, transcript, "copy")
        rotate_to_normalize(m, reveal_row(m, 0, transcript, "copy"), transcript)
        pool.discard(reversed_a)
        kept = m.row(1)
        return kept, kept[:]

    _schedule.cache_clear()
    monkeypatch.setattr(protocol, "copy_protocol", leaky)
    yield
    _schedule.cache_clear()


def test_a_copy_that_reveals_two_rows_fails_the_audit(fig1_grid, fig1_solution, leaky_copy):
    accept, _, _ = protocol.run_protocol(fig1_grid, ProverBehavior.honest(fig1_solution), seed=0)
    assert accept
    with pytest.raises(AuditError, match=r"^event 3: second copy row shows position \d, "
                                         r"not the first row's \d$"):
        audit_zk(fig1_grid, fig1_solution, 1000, 0.001, seed=0)


def test_a_copy_that_reveals_two_rows_fails_the_exact_check(fig1_grid, fig1_solution, leaky_copy):
    # each copy's input row shows r - v, not the zero row's r, for v in 1..4
    assert exact_check(fig1_grid, fig1_solution, 0) == (279 - 102, 102, 25)
