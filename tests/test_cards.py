import collections
import math
import random

import pytest

from zeiger.cards import (
    CLUB,
    HEART,
    MARKER,
    ODD_STACK,
    CardError,
    MalformedReveal,
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


def test_decode_roundtrip_exhaustive():
    for q in range(1, 9):
        for x in range(q):
            assert locate(encode(q, x, CLUB), CLUB) == x
            assert locate(encode(q, x, HEART), HEART) == x
            assert locate(encode(q, x, ODD_STACK), ODD_STACK) == x


def test_decode_rejects_malformed():
    with pytest.raises(MalformedReveal, match="expected exactly one 'C' column, found 3"):
        locate(encode(4, 1, HEART), CLUB)


def test_pile_shift_is_cyclic_rotation():
    rng = random.Random(1)
    for _ in range(30):
        labels = [chr(ord("A") + i) for i in range(6)]
        m = [[list(lbl) for lbl in labels]]  # abuse: stacks of strings
        r = pile_shift(m, rng, Transcript())
        rotated = [labels[(j - r) % 6] for j in range(6)]
        assert ["".join(st) for st in m[0]] == rotated


def test_shift_example_offset_one():
    m = [[["A"], ["B"], ["C"]]]
    assert pile_shift(m, OffsetOne(), Transcript()) == 1
    assert [st[0] for st in m[0]] == ["C", "A", "B"]


def test_shift_preserves_cyclic_adjacency():
    rng = random.Random(8)
    labels = list("ABCDEFG")
    m = [[[x] for x in labels]]
    pile_shift(m, rng, Transcript())
    out = [st[0] for st in m[0]]
    doubled = "".join(labels) * 2
    assert "".join(out) in doubled


def test_shift_offsets_uniform_4sigma():
    rng = random.Random(1234)
    counts = collections.Counter()
    trials, c = 6000, 6
    for _ in range(trials):
        m = [[[j] for j in range(c)]]
        pile_shift(m, rng, Transcript())
        counts[m[0].index([0])] += 1
    expected = trials / c
    sigma = math.sqrt(trials * (1 / c) * (1 - 1 / c))
    for offset in range(c):
        assert abs(counts[offset] - expected) <= 4 * sigma


def test_scramble_swap_frequency():
    rng = random.Random(77)
    swapped = 0
    trials = 10_000
    for _ in range(trials):
        m = [[["a"], ["b"]]]
        pile_scramble(m, rng, Transcript())
        swapped += m[0][0] == ["b"]
    assert abs(swapped / trials - 0.5) <= 0.02


def test_scramble_identity_possible_and_multiset_preserved():
    rng = random.Random(5)
    seen_identity = False
    for _ in range(200):
        m = [[[j] for j in range(4)]]
        pile_scramble(m, rng, Transcript())
        out = [st[0] for st in m[0]]
        assert sorted(out) == [0, 1, 2, 3]
        seen_identity |= out == [0, 1, 2, 3]
    assert seen_identity


def test_shuffles_move_every_row_alike():
    rng = random.Random(9)
    m = [list("abcde"), list("ABCDE")]
    for shuffle in (pile_shift, pile_scramble, pile_shift):
        shuffle(m, rng, Transcript())
        assert sorted(m[0]) == list("abcde")
        assert m[1] == [a.upper() for a in m[0]]


def test_reveal_records_faces_and_flips():
    m = [encode(4, 2, CLUB)]
    t = Transcript()
    assert reveal_row(m, 0, t, "compare") == 2
    faces_seen = ["H", "H", "C", "H"]
    assert t.events == [{"ev": "reveal", "site": "compare", "row": 0, "faces": faces_seen}]


@pytest.mark.parametrize("site", sorted(MARKER))
def test_reveal_row_locates_each_sites_marker(site):
    for q in range(1, 6):
        for x in range(q):
            row = encode(q, x, MARKER[site])
            t = Transcript()
            assert reveal_row([row], 0, t, site) == x
            assert t.events == [{"ev": "reveal", "site": site, "row": 0, "faces": row}]


@pytest.mark.parametrize("site", sorted(MARKER))
def test_reveal_row_rejects_a_second_marker_after_recording(site):
    row = encode(4, 1, MARKER[site])
    row[3] = MARKER[site]
    t = Transcript()
    with pytest.raises(MalformedReveal, match="found 2"):
        reveal_row([row], 0, t, site)
    assert t.events == [{"ev": "reveal", "site": site, "row": 0, "faces": row}]


def test_normalize_rotates_match_to_column_one():
    m = [encode(4, 2, CLUB)]
    t = Transcript()
    shift = reveal_row(m, 0, t, "compare")
    rotate_to_normalize(m, shift, t)
    assert shift == 2
    assert m[0][0][0] == "C"
    assert t.events[-1] == {"ev": "normalize", "shift": 2}


def test_normalize_rejects_two_matches():
    seq = encode(4, 1, CLUB)
    seq[3] = "C"
    m = [seq]
    t = Transcript()
    with pytest.raises(MalformedReveal):
        reveal_row(m, 0, t, "compare")


def test_transcript_never_contains_shuffle_secrets():
    rng = random.Random(3)
    t = Transcript()
    m = [encode(5, 2, CLUB)]
    pile_shift(m, rng, t)
    pile_scramble(m, rng, t)
    for ev in t.events:
        assert ev["ev"] == "shuffle"
        assert set(ev) == {"ev", "kind", "rows", "cols"}


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


def test_card_pool_accounting():
    pool = ResourceStats()
    pool.take(3, 1)
    cards = ["C", "C", "C", "H"]
    assert pool.in_play == 4 and pool.peak_cards == 4
    pool.discard(cards[:2])
    assert pool.in_play == 2
    pool.take(1, 0)
    assert pool.peak_cards == 4
    pool.discard(["CH", "H"])   # stacks return all their cards
    assert pool.in_play == 0
    assert (pool.clubs_drawn, pool.hearts_drawn) == (4, 1)
    assert "in_play" not in pool.to_dict()
