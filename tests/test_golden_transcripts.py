"""Golden transcripts: fixed seeds must keep producing byte-identical runs.

The run-transcript digests were re-pinned when one ``random.Random`` per run
replaced a fresh stream per shuffle, the only change to the shuffle secrets
since they were first recorded.  The stats digests are older: they were
recorded from the object-per-card engine, before the card engine stored
faces as characters, and the stream change left them unchanged.  The
simulator digests come from the simulator that spelled out each
subprotocol's steps itself, before it replayed the protocol's own accepting
run.  Any change to the shuffle randomness, the event order or the resource
accounting shows up here.
"""

import hashlib
import json

import pytest

from zeiger.grid import Coord
from zeiger.protocol import ProverBehavior, run_protocol
from zeiger.simulator import simulate_transcript

from .conftest import solved, with_value


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _solved(case: str):
    """The 9x9 grid of gen_nae(4, 6, 0) for a "reduced" case, else fig1; with a solution."""
    return solved("gen_nae(4, 6, 0)" if case.startswith("reduced") else "fig1")


def _behavior(case: str, f):
    if case.endswith("honest"):
        return ProverBehavior.honest(f)
    if case == "fig1-wrong-value":  # an honest run of fig1 with (1,1) set to 2
        return ProverBehavior.honest(with_value(f, Coord(1, 1), 2))
    if case == "fig1-malformed":
        return ProverBehavior.malformed(f, Coord(2, 2))
    return ProverBehavior.malformed(f, Coord(9, 3))  # reduced-malformed, rejected late


# (case, seed) -> (accept, events, sha256 of the JSON-lines transcript,
#                  sha256 of json.dumps(ResourceStats.to_dict()))
GOLDEN = {
    ("fig1-honest", 1): (True, 811,
                         "58aa4e5db7756f9c74ed946a41eafad502bae3e0d9c65da438eddda0960128d5",
                         "6b66e3412895892d618eccd9b87cf068d1547e2e53e40e01b2785b09df7837bb"),
    ("fig1-honest", 2): (True, 811,
                         "260af7886ddaefb1c65f9e854c498dbe80acf5be43f94684f352ef1d78157a58",
                         "6b66e3412895892d618eccd9b87cf068d1547e2e53e40e01b2785b09df7837bb"),
    ("fig1-wrong-value", 1): (False, 38,
                              "2d212e66063d2e05dc511d67e67104d038425dc1d971a9382f1c7144ccd2fc3c",
                              "8e1b27c0ce0bb421fe0e439894715e8386adfe3c872c2191314a4ef15441864f"),
    ("fig1-wrong-value", 2): (False, 38,
                              "5ab85c4482badf4ea92016dc8e90f58be1e97dc9260883352306618b107f01e4",
                              "8e1b27c0ce0bb421fe0e439894715e8386adfe3c872c2191314a4ef15441864f"),
    ("fig1-malformed", 1): (False, 43,
                            "6b5bcaf225f11f71543be21b878001aaf6f62ab6d1421e41c64f6080d8af6e04",
                            "8b7e19375f18050da5ad2a7e466cfff5a5644db6c09375e5099125486dd2608c"),
    ("fig1-malformed", 2): (False, 43,
                            "28fbf414f965d9ca9fec4664a57e1759edaa133818ffd5e01ec28e3305091243",
                            "8b7e19375f18050da5ad2a7e466cfff5a5644db6c09375e5099125486dd2608c"),
    ("reduced-honest", 1): (True, 4345,
                            "1549d1bb5546e672aa607c2ddd796ea7cebd5f34544fcbc3a94c301bfd563847",
                            "9ffad2ddb98073618f7ae9bff991f3948eaab75fbb74f84734ae009895137fd8"),
    ("reduced-honest", 2): (True, 4345,
                            "5f25b8f78abb6877782e2c99ed3ad444b2a91b1d8f5ecb16c83b47ccca078c12",
                            "9ffad2ddb98073618f7ae9bff991f3948eaab75fbb74f84734ae009895137fd8"),
    ("reduced-malformed", 1): (False, 668,
                               "2ee17d7b4e2616cddc0eb12d9b045d00809b41c86bb1ced23bf39607e98053d3",
                               "228b1cf829f3e92fc2b49cff9b0f257c8cc2d38938354f4c9eeaa1805d58c7a9"),
    ("reduced-malformed", 2): (False, 668,
                               "2413249561320ce310c4734133c0494d03236b51c870cb1c5a959e2f82d98abf",
                               "228b1cf829f3e92fc2b49cff9b0f257c8cc2d38938354f4c9eeaa1805d58c7a9"),
}


@pytest.mark.parametrize("case,seed", list(GOLDEN), ids=[f"{c}-{s}" for c, s in GOLDEN])
def test_transcript_and_stats_are_byte_identical(case, seed):
    g, f = _solved(case)
    accept, transcript, stats = run_protocol(g, _behavior(case, f), seed)
    want_accept, want_events, want_transcript, want_stats = GOLDEN[case, seed]
    assert (accept, len(transcript.events)) == (want_accept, want_events)
    assert _sha(transcript.to_json_lines()) == want_transcript
    assert _sha(json.dumps(stats.to_dict())) == want_stats


# (grid, seed) -> sha256 of simulate_transcript(grid, seed).to_json_lines()
SIM_GOLDEN = {
    ("fig1", 1): "78bdec1db02f433de45f29192935f57aa23dec3dee325ea0477f64f5401ae6c1",
    ("fig1", 2): "5d2762e920043237f2c830106e5147dd4b584bda5c807596cb3162af28caf088",
    ("reduced", 1): "981f3ebdc0e44f7250e2f05f7ec9ac6c531a31fe2aa419b0df82659e7fb2e777",
    ("reduced", 2): "6e4f6dbfb1b613fa994c1ccb213dd9a476cf00374f68c0781dc7a6f9e55cfcd9",
}


@pytest.mark.parametrize("name,seed", list(SIM_GOLDEN), ids=[f"sim-{n}-{s}" for n, s in SIM_GOLDEN])
def test_simulated_transcript_is_byte_identical(name, seed):
    g = _solved(name)[0]
    assert _sha(simulate_transcript(g, seed).to_json_lines()) == SIM_GOLDEN[name, seed]


def test_simulated_transcripts_share_no_events(fig1_grid):
    """Editing one simulated transcript in place leaves the next unchanged."""
    t = simulate_transcript(fig1_grid, 1)
    for ev in t.events:
        if ev["ev"] == "reveal":
            ev["faces"][:] = ["X"] * len(ev["faces"])
    t.events[-1]["accept"] = False
    assert _sha(simulate_transcript(fig1_grid, 1).to_json_lines()) == SIM_GOLDEN["fig1", 1]
