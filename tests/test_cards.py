import collections
import math

import pytest

from zeiger.cards import (
    CardError,
    CardPool,
    MalformedReveal,
    PileMatrix,
    SeededRng,
    Transcript,
    decode,
    decode_heart,
    decode_pair,
    encode_club,
    encode_heart,
    encode_pair,
    pile_scramble,
    pile_shift,
    reveal_row,
    rotate_to_normalize,
)


def faces(seq):
    return "".join(seq)


def test_encode_club_example():
    assert faces(encode_club(4, 1)) == "HCHH"


def test_encode_heart_example():
    assert faces(encode_heart(4, 1)) == "CHCC"


def test_encode_pair_example():
    ps = encode_pair(4, 1)
    assert [faces(st) for st in ps] == ["CH", "HC", "CH", "CH"]
    assert faces([st[0] for st in ps]) == "CHCC"  # tops: heart encoding
    assert faces([st[1] for st in ps]) == "HCHH"  # bottoms: club encoding


def test_encode_range_check():
    with pytest.raises(CardError):
        encode_club(4, 4)
    with pytest.raises(CardError):
        encode_pair(4, -1)


def test_decode_roundtrip_exhaustive():
    for q in range(1, 9):
        for x in range(q):
            assert decode(encode_club(q, x)) == x
            assert decode_heart(encode_heart(q, x)) == x
            assert decode_pair(encode_pair(q, x)) == x


def test_decode_rejects_malformed():
    with pytest.raises(CardError, match="no lone club"):
        decode(encode_heart(4, 1))


def test_pile_shift_is_cyclic_rotation():
    rng = SeededRng(1)
    for _ in range(30):
        labels = [chr(ord("A") + i) for i in range(6)]
        m = PileMatrix([[list(lbl) for lbl in labels]])  # abuse: stacks of strings
        r = pile_shift(m, rng)
        rotated = [labels[(j - r) % 6] for j in range(6)]
        assert ["".join(st) for st in m.row(0)] == rotated


def test_shift_example_offset_one():
    m = PileMatrix([[["A"], ["B"], ["C"]]])
    m.columns = [m.columns[(j - 1) % 3] for j in range(3)]
    assert [st[0] for st in m.row(0)] == ["C", "A", "B"]


def test_shift_preserves_cyclic_adjacency():
    rng = SeededRng(8)
    labels = list("ABCDEFG")
    m = PileMatrix([[[x] for x in labels]])
    pile_shift(m, rng)
    out = [st[0] for st in m.row(0)]
    doubled = "".join(labels) * 2
    assert "".join(out) in doubled


def test_shift_offsets_uniform_4sigma():
    rng = SeededRng(1234)
    counts = collections.Counter()
    trials, c = 6000, 6
    for _ in range(trials):
        m = PileMatrix([[[j] for j in range(c)]])
        pile_shift(m, rng)
        counts[m.row(0).index([0])] += 1
    expected = trials / c
    sigma = math.sqrt(trials * (1 / c) * (1 - 1 / c))
    for offset in range(c):
        assert abs(counts[offset] - expected) <= 4 * sigma


def test_scramble_swap_frequency():
    rng = SeededRng(77)
    swapped = 0
    trials = 10_000
    for _ in range(trials):
        m = PileMatrix([[["a"], ["b"]]])
        pile_scramble(m, rng)
        swapped += m.row(0)[0] == ["b"]
    assert abs(swapped / trials - 0.5) <= 0.02


def test_scramble_identity_possible_and_multiset_preserved():
    rng = SeededRng(5)
    seen_identity = False
    for _ in range(200):
        m = PileMatrix([[[j] for j in range(4)]])
        pile_scramble(m, rng)
        out = [st[0] for st in m.row(0)]
        assert sorted(out) == [0, 1, 2, 3]
        seen_identity |= out == [0, 1, 2, 3]
    assert seen_identity


def test_reveal_records_faces_and_flips():
    m = PileMatrix([[[c] for c in encode_club(4, 2)]])
    t = Transcript()
    patterns = reveal_row(m, 0, t, "copy")
    assert patterns == ["H", "H", "C", "H"]
    assert t.events == [{"ev": "reveal", "site": "copy", "row": 0, "faces": patterns}]


def test_normalize_rotates_match_to_column_one():
    m = PileMatrix([[[c] for c in encode_club(4, 2)]])
    t = Transcript()
    patterns = reveal_row(m, 0, t, "copy")
    shift = rotate_to_normalize(m, patterns, "C", t, rest="H")
    assert shift == 2
    assert m.row(0)[0][0] == "C"
    assert t.events[-1] == {"ev": "normalize", "shift": 2}


def test_normalize_rejects_two_matches():
    seq = encode_club(4, 1)
    seq[3] = "C"
    m = PileMatrix([[[c] for c in seq]])
    t = Transcript()
    patterns = reveal_row(m, 0, t, "copy")
    with pytest.raises(MalformedReveal):
        rotate_to_normalize(m, patterns, "C", t, rest="H")


def test_transcript_never_contains_shuffle_secrets():
    rng = SeededRng(3)
    t = Transcript()
    m = PileMatrix([[[c] for c in encode_club(5, 2)]])
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
    t.verdict(True)
    assert Transcript.from_json_lines(t.to_json_lines()).events == t.events


def test_transcript_counts_shuffles_as_recorded():
    t = Transcript()
    for kind in ("shift", "scramble", "shift"):
        t.shuffle(kind, 2, 4)
    t.normalize(0)
    assert (t.shifts, t.scrambles) == (2, 1)


def test_seeded_rng_reproducible():
    a, b = SeededRng(99), SeededRng(99)
    assert [a.shift_offset(10) for _ in range(20)] == [b.shift_offset(10) for _ in range(20)]


def test_card_pool_accounting():
    pool = CardPool()
    pool.take(3, 1)
    cards = ["C", "C", "C", "H"]
    assert pool.in_play == 4 and pool.peak_in_play == 4
    pool.discard(cards[:2])
    assert pool.in_play == 2
    pool.take(1, 0)
    assert pool.peak_in_play == 4
    pool.discard([["C", "H"], ["H"]])   # stacks return all their cards
    assert pool.in_play == 0
    assert (pool.clubs_drawn, pool.hearts_drawn) == (4, 1)
