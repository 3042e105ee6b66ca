import collections
import math
import random
import warnings

import pytest

from zeiger.cards import (
    CLUB,
    HEART,
    MARKER,
    ODD_STACK,
    REST,
    CardError,
    MalformedReveal,
    Pile,
    Stream,
    Transcript,
    encode,
    locate,
    pile_scramble,
    pile_shift,
    reveal_row,
    rotate_to_normalize,
)
from zeiger.protocol import ResourceStats


def faces(seq):
    return "".join(seq)


class OffsetOne(random.Random):
    """A stream whose every offset is 1."""

    def randrange(self, n):
        return 1


def test_encode_club_example():
    assert faces(encode(4, 1, CLUB)) == "HCHH"


def test_encode_heart_example():
    assert faces(encode(4, 1, HEART)) == "CHCC"


def test_encode_pair_example():
    ps = encode(4, 1, ODD_STACK)
    assert [faces(st) for st in ps] == ["CH", "HC", "CH", "CH"]
    assert faces([st[0] for st in ps]) == "CHCC"  # tops: heart encoding
    assert faces([st[1] for st in ps]) == "HCHH"  # bottoms: club encoding


def test_encode_range_check():
    with pytest.raises(CardError):
        encode(4, 4, CLUB)
    with pytest.raises(CardError):
        encode(4, -1, ODD_STACK)


@pytest.mark.parametrize("mark", [CLUB, HEART, ODD_STACK])
def test_a_foreign_stack_among_the_rest_finds_no_marker(mark):
    # every stack but one is the rest, so the fast path looks for the marker,
    # finds none and falls through to the full check
    with pytest.raises(MalformedReveal, match=rf"^expected exactly one {mark!r} column, found 0$"):
        locate([REST[mark], "XX", REST[mark]], mark)


def test_shift_example_offset_one():
    m = Pile([[["A"], ["B"], ["C"]]])
    assert pile_shift(m, OffsetOne(), Transcript()) == 1
    assert [st[0] for st in m.row(0)] == ["C", "A", "B"]


def test_shift_offsets_uniform_4sigma():
    rng = random.Random(1234)
    counts = collections.Counter()
    trials, c = 6000, 6
    for _ in range(trials):
        m = Pile([[[j] for j in range(c)]])
        pile_shift(m, rng, Transcript())
        counts[m.row(0).index([0])] += 1
    expected = trials / c
    sigma = math.sqrt(trials * (1 / c) * (1 - 1 / c))
    for offset in range(c):
        assert abs(counts[offset] - expected) <= 4 * sigma


def test_scramble_swap_frequency():
    rng = random.Random(77)
    swapped = 0
    trials = 10_000
    for _ in range(trials):
        m = Pile([[["a"], ["b"]]])
        pile_scramble(m, rng, Transcript())
        swapped += m.row(0)[0] == ["b"]
    assert abs(swapped / trials - 0.5) <= 0.02


def test_scramble_identity_possible_and_multiset_preserved():
    rng = random.Random(5)
    seen_identity = False
    for _ in range(200):
        m = Pile([[[j] for j in range(4)]])
        pile_scramble(m, rng, Transcript())
        out = [st[0] for st in m.row(0)]
        assert sorted(out) == [0, 1, 2, 3]
        seen_identity |= out == [0, 1, 2, 3]
    assert seen_identity


# The list engine that ``Pile`` replaced, kept as its reference: every
# shuffle and normalize re-lays every row.  Beside the one-offset example
# above, the comparison below is the suite's only check that a shift turns
# every row by its offset the right way at every width, and that a shift or
# scramble moves every row of a pile alike.
def _list_shift(m, rng, transcript):
    q = len(m[0])
    r = rng.randrange(q)
    m[:] = [row[q - r:] + row[:q - r] for row in m]
    transcript.shuffle("shift", len(m), q)
    return r


def _list_scramble(m, rng, transcript):
    order = list(range(len(m[0])))
    rng.shuffle(order)
    m[:] = [[row[j] for j in order] for row in m]
    transcript.shuffle("scramble", len(m), len(order))


def _list_reveal(m, i, transcript, site):
    faces = list(m[i])
    transcript.reveal(site, i, faces)
    return locate(faces, MARKER[site])


def _list_normalize(m, shift, transcript):
    m[:] = [row[shift:] + row[:shift] for row in m]
    transcript.normalize(shift)


# every width from the single column up to 24, the widths of the 23x17
# benchmark grid's piles (b = 23 and b + 1) among them, twice
@pytest.mark.parametrize("seed", range(48))
def test_pile_matches_the_list_engine(seed):
    draw = random.Random(f"ops:{seed}")
    q = seed % 24 + 1
    sites = [draw.choice(sorted(MARKER)) for _ in range(draw.randint(1, 5))]
    rows = [encode(q, draw.randrange(q), MARKER[site]) for site in sites]
    mark = MARKER[sites[0]]
    bad = encode(q, 0, mark)
    if q > 1:
        bad[draw.randrange(1, q)] = mark  # a second marker
    else:
        bad[0] = REST[mark]  # a single column has no room for one: no marker
    rows.append(bad)
    listed, pile = [list(row) for row in rows], Pile([list(row) for row in rows])
    ours, theirs = Stream(seed), random.Random(seed)
    t_list, t_pile = Transcript(), Transcript()
    for _ in range(draw.randint(1, 30)):
        op = draw.choice(("shift", "scramble", "reveal", "normalize"))
        if op == "shift":
            assert _list_shift(listed, theirs, t_list) == pile_shift(pile, ours, t_pile)
        elif op == "scramble":
            _list_scramble(listed, theirs, t_list)
            pile_scramble(pile, ours, t_pile)
        elif op == "reveal":
            i = draw.randrange(len(sites))
            assert _list_reveal(listed, i, t_list, sites[i]) == reveal_row(pile, i, t_pile, sites[i])
        else:
            shift = draw.randrange(q)
            _list_normalize(listed, shift, t_list)
            rotate_to_normalize(pile, shift, t_pile)
        assert [pile.row(i) for i in range(len(rows))] == listed
    for m, reveal, t in ((listed, _list_reveal, t_list), (pile, reveal_row, t_pile)):
        with pytest.raises(MalformedReveal, match="found 2" if q > 1 else "found 0"):
            reveal(m, len(sites), t, sites[0])
    assert t_list.events == t_pile.events
    assert t_pile.events[-1]["faces"] == listed[-1]   # recorded before the raise
    assert pile.rows == rows   # no row of the pile was ever re-laid


@pytest.mark.parametrize("seeds", [range(k, 200, 4) for k in range(4)])
def test_stream_shuffles_as_the_standard_library_does(seeds):
    """The same list, and the same stream after it, for every length up to
    40: the golden digests rest on ``Stream.shuffle`` drawing exactly what
    ``random.Random.shuffle`` draws."""
    for seed in seeds:
        ours, theirs = Stream(f"shuffle:{seed}"), random.Random(f"shuffle:{seed}")
        for n in range(41):
            mine, stdlib = list(range(n)), list(range(n))
            ours.shuffle(mine)
            theirs.shuffle(stdlib)
            assert mine == stdlib
            assert ours.getrandbits(64) == theirs.getrandbits(64)


def _draw(rng, *args):
    """What ``rng.randrange(*args)`` returns, or the type of what it raises;
    a deprecated argument raises its warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return rng.randrange(*args)
        except Exception as e:
            return type(e)


@pytest.mark.parametrize("seeds", [range(k, 40, 4) for k in range(4)])
def test_stream_draws_a_range_as_the_standard_library_does(seeds):
    """The same ``randrange(n)`` for every n up to 70, and the same stream
    after it: the golden digests rest on each shift's offset and each
    simulated position.  Every other form, and every bad argument, gives the
    standard library's value or exception type."""
    others = [(5, 9), (2, 30, 3), (30, 2, -4), (0,), (-3,), (5, 5), (1, 9, 0), (2.5,),
              ("7",), (True,), (7, None, 2), (4, 1), (2**70,)]
    for seed in seeds:
        ours, theirs = Stream(f"range:{seed}"), random.Random(f"range:{seed}")
        for n in range(1, 71):
            assert ours.randrange(n) == theirs.randrange(n)
            assert ours.getrandbits(64) == theirs.getrandbits(64)
        for args in others:
            assert _draw(ours, *args) == _draw(theirs, *args), args
            assert ours.getrandbits(64) == theirs.getrandbits(64)


def test_a_row_is_a_fresh_list_however_the_pile_lies():
    rows = [encode(5, 1, ODD_STACK), encode(5, 3, CLUB)]
    laid = [list(row) for row in rows]
    m, t = Pile(rows), Transcript()
    # each step, then whether the pile is (scrambled, turned)
    steps = [(lambda: None, (False, False)),
             (lambda: rotate_to_normalize(m, 1, t), (False, True)),
             (lambda: pile_scramble(m, random.Random(3), t), (True, False)),
             (lambda: rotate_to_normalize(m, 2, t), (True, True))]
    for step, state in steps:
        step()
        assert (m.order is not None, m.turn != 0) == state
        for i in range(len(rows)):
            row = m.row(i)
            shown = list(row)
            row[0] = "XX"
            assert m.rows == laid
            assert m.row(i) == shown


@pytest.mark.parametrize("site", sorted(MARKER))
def test_reveal_row_locates_each_sites_marker(site):
    for q in range(1, 6):
        for x in range(q):
            row = encode(q, x, MARKER[site])
            t = Transcript()
            assert reveal_row(Pile([row]), 0, t, site) == x
            assert t.events == [{"ev": "reveal", "site": site, "row": 0, "faces": row}]


@pytest.mark.parametrize("site", sorted(MARKER))
def test_reveal_row_rejects_a_second_marker_after_recording(site):
    row = encode(4, 1, MARKER[site])
    row[3] = MARKER[site]
    t = Transcript()
    with pytest.raises(MalformedReveal, match="found 2"):
        reveal_row(Pile([row]), 0, t, site)
    assert t.events == [{"ev": "reveal", "site": site, "row": 0, "faces": row}]


def test_normalize_rotates_match_to_column_one():
    m = Pile([encode(4, 2, CLUB)])
    t = Transcript()
    shift = reveal_row(m, 0, t, "compare")
    rotate_to_normalize(m, shift, t)
    assert shift == 2
    assert m.row(0)[0][0] == "C"
    assert t.events[-1] == {"ev": "normalize", "shift": 2}


def test_transcript_json_roundtrip():
    t = Transcript()
    t.shuffle("shift", 3, 5)
    t.reveal("copy", 0, ["CH", "HC"])
    t.normalize(1)
    t.shuffle("scramble", 2, 5)
    t.shuffle("shift", 3, 5)
    t.verdict(True)
    back = Transcript.from_json_lines(t.to_json_lines())
    assert back.events == t.events


@pytest.mark.parametrize("text, error", [
    ('{"ev": "normalize", "shift": 1}\n\n{"ev": "verdict"', r"^line 3: not JSON: "),
    ('{"ev": "normalize", "shift": 1}\nnot json\n', r"^line 2: not JSON: "),
    ('[1, 2]\n', r"^line 1: not a JSON object: "),
    ('{"ev": "verdict", "accept": true}\n"verdict"\n', r"^line 2: not a JSON object: "),
    pytest.param('{"ev": "verdict", "accept": true}\n' + "[" * 100_000 + "]" * 100_000 + "\n",
                 r"^line 2: nested too deep to read$", id="nested-100000-deep"),
    pytest.param('{"ev": "verdict", "accept": true}\n{"ev": "normalize", "shift": ' + "1" * 5000
                 + "}\n", r"^line 2: .*5000 digits", id="integer-of-5000-digits"),
])
def test_transcript_from_json_lines_names_a_bad_line(text, error):
    with pytest.raises(CardError, match=error):
        Transcript.from_json_lines(text)


def test_card_pool_accounting():
    pool = ResourceStats()
    pool.take(3, 1)
    assert pool.in_play == 4 and pool.peak_cards == 4
    pool.discard(2)
    assert pool.in_play == 2
    pool.take(1, 0)
    assert pool.peak_cards == 4
    pool.discard(3)
    assert pool.in_play == 0
    assert (pool.clubs_drawn, pool.hearts_drawn) == (4, 1)
    assert "in_play" not in pool.to_dict()
