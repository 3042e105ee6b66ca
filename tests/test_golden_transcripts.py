"""Golden transcripts: fixed seeds must keep producing byte-identical runs.

The digests were recorded from the object-per-card engine, before the
card engine stored faces as characters.  Any change to the shuffle
randomness, the event order or the resource accounting shows up here.
"""

import hashlib
import json

import pytest

from zeiger.grid import Coord
from zeiger.nae import gen_nae, nae_brute_force
from zeiger.protocol import ProverBehavior, run_protocol
from zeiger.reduction import lift_assignment, reduce_instance


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def reduced():
    """The 9x9 grid of gen_nae(4, 6, 0) and its lifted solution."""
    inst = gen_nae(4, 6, 0)
    return reduce_instance(inst), lift_assignment(inst, nae_brute_force(inst))


def _behavior(case: str, f):
    if case.endswith("honest"):
        return ProverBehavior.honest(f)
    if case == "fig1-wrong-value":
        return ProverBehavior.wrong_value(f, Coord(1, 1), 2)
    if case == "fig1-malformed":
        return ProverBehavior.malformed(f, Coord(2, 2))
    return ProverBehavior.malformed(f, Coord(9, 3))  # reduced-malformed, rejected late


# (case, seed) -> (accept, events, sha256 of the JSON-lines transcript,
#                  sha256 of json.dumps(ResourceStats.to_dict()))
GOLDEN = {
    ("fig1-honest", 1): (True, 811,
                         "65c51d0f6f1a8e78c68149402ce2d0803aae22ac7e28f1245f00e25a3ecdabcb",
                         "6b66e3412895892d618eccd9b87cf068d1547e2e53e40e01b2785b09df7837bb"),
    ("fig1-honest", 2): (True, 811,
                         "8e9914c4088108c73affac598ecda9c8d56efa2dc454c4e0eef184d6a467f093",
                         "6b66e3412895892d618eccd9b87cf068d1547e2e53e40e01b2785b09df7837bb"),
    ("fig1-wrong-value", 1): (False, 38,
                              "be2c1347ca80c73cd06006cca5fc10eed93253e50a491ba23f0632ad6a2cc718",
                              "8e1b27c0ce0bb421fe0e439894715e8386adfe3c872c2191314a4ef15441864f"),
    ("fig1-wrong-value", 2): (False, 38,
                              "7f53ee01304e62ce8f893b372e7866ced6fbda4ac1e6d5aecbd5207929b3baba",
                              "8e1b27c0ce0bb421fe0e439894715e8386adfe3c872c2191314a4ef15441864f"),
    ("fig1-malformed", 1): (False, 43,
                            "5eac0b17c1c92179e66a585f6e567acc12e022d60a8b8e4442fd4079b2acf613",
                            "8b7e19375f18050da5ad2a7e466cfff5a5644db6c09375e5099125486dd2608c"),
    ("fig1-malformed", 2): (False, 43,
                            "ce43ee5291844890684bf53559fad7b4101680889a9acd0560565cb7b636548a",
                            "8b7e19375f18050da5ad2a7e466cfff5a5644db6c09375e5099125486dd2608c"),
    ("reduced-honest", 1): (True, 4345,
                            "d9b057c5f3bc88bcd1e427d418e4e9a26347f2f0b80101143473af5f912c924a",
                            "9ffad2ddb98073618f7ae9bff991f3948eaab75fbb74f84734ae009895137fd8"),
    ("reduced-honest", 2): (True, 4345,
                            "336a7a75e0aab534e5337a86ad7f1faa1385ced63b3de3986bd6630bcd4f9e2d",
                            "9ffad2ddb98073618f7ae9bff991f3948eaab75fbb74f84734ae009895137fd8"),
    ("reduced-malformed", 1): (False, 668,
                               "86df15c95b1fbd29e57ffef59c687fd68509863d5c84bccb273ca256a780a5e2",
                               "228b1cf829f3e92fc2b49cff9b0f257c8cc2d38938354f4c9eeaa1805d58c7a9"),
    ("reduced-malformed", 2): (False, 668,
                               "682cebd03ca42978e8c6635290e6561319d93f87972d40693b4205405d59a9ce",
                               "228b1cf829f3e92fc2b49cff9b0f257c8cc2d38938354f4c9eeaa1805d58c7a9"),
}


@pytest.mark.parametrize("case,seed", list(GOLDEN), ids=[f"{c}-{s}" for c, s in GOLDEN])
def test_transcript_and_stats_are_byte_identical(case, seed, fig1_grid, fig1_solution, reduced):
    g, f = reduced if case.startswith("reduced") else (fig1_grid, fig1_solution)
    accept, transcript, stats = run_protocol(g, _behavior(case, f), seed)
    want_accept, want_events, want_transcript, want_stats = GOLDEN[case, seed]
    assert (accept, len(transcript.events)) == (want_accept, want_events)
    assert _sha(transcript.to_json_lines()) == want_transcript
    assert _sha(json.dumps(stats.to_dict())) == want_stats
