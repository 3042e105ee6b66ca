"""Statistical zero-knowledge audit: revealed positions must look uniform.

Aggregates, per reveal site, the histogram of marker positions over many
seeded real runs and as many simulated transcripts, then applies chi-square
uniformity tests to each and a two-sample test between them.
"""

from __future__ import annotations

import numpy as np
from scipy import stats as sps

from .cards import Transcript
from .grid import Filling, Grid
from .protocol import MARKER, ProverBehavior, run_protocol
from .simulator import simulate_transcript

MIN_TRIALS = 1000


class AuditError(ValueError):
    pass


def reveal_histograms(t: Transcript) -> dict[tuple[str, int], np.ndarray]:
    """Marker-position counts keyed by (site, number of columns).

    The comparing protocol's two rows always agree, so only its first row is
    counted (the second would duplicate every sample).
    """
    hists: dict[tuple[str, int], np.ndarray] = {}
    for ev in t.events:
        if ev["ev"] != "reveal":
            continue
        site = ev["site"]
        if site == "compare" and ev["row"] != 0:
            continue
        faces = ev["faces"]
        pos = faces.index(MARKER[site])
        key = (site, len(faces))
        if key not in hists:
            hists[key] = np.zeros(len(faces), dtype=np.int64)
        hists[key][pos] += 1
    return hists


def _structure(t: Transcript) -> list[tuple]:
    """Every event's public shape: its kind, reveal site, row and width, and
    shuffle kind and size.  Only marker positions may differ."""
    return [(ev["ev"], ev.get("site"), ev.get("row"), len(ev.get("faces", ())),
             ev.get("kind"), ev.get("rows"), ev.get("cols")) for ev in t.events]


def _merge(total: dict, part: dict):
    for key, counts in part.items():
        if key in total:
            total[key] += counts
        else:
            total[key] = counts.copy()


def audit_zk(g: Grid, f: Filling, trials: int, alpha: float, seed: int = 0) -> dict:
    """Run ``trials`` real and simulated transcripts and test every reveal
    site for uniformity and real-vs-simulated indistinguishability."""
    if trials < MIN_TRIALS:
        raise AuditError(f"need at least {MIN_TRIALS} trials, got {trials}")
    real: dict[tuple[str, int], np.ndarray] = {}
    sim: dict[tuple[str, int], np.ndarray] = {}
    for i in range(trials):
        accept, transcript, _ = run_protocol(g, ProverBehavior.honest(f), seed=seed * 1_000_003 + i)
        if not accept:
            raise AuditError("honest run rejected during audit")
        sim_transcript = simulate_transcript(g, seed=seed * 1_000_003 + i)
        if _structure(transcript) != _structure(sim_transcript):
            raise AuditError(f"simulated event structure differs from the real run (trial {i})")
        _merge(real, reveal_histograms(transcript))
        _merge(sim, reveal_histograms(sim_transcript))

    sites = []
    all_pass = True
    for key in sorted(real):
        site, q = key
        r, s = real[key], sim[key]
        p_real = float(sps.chisquare(r).pvalue)
        p_sim = float(sps.chisquare(s).pvalue)
        p_two = float(sps.chi2_contingency(np.stack([r, s])).pvalue)
        ok = p_real >= alpha and p_sim >= alpha and p_two >= alpha
        all_pass &= ok
        sites.append(
            {
                "site": site,
                "columns": q,
                "samples_real": int(r.sum()),
                "samples_sim": int(s.sum()),
                "real_counts": [int(v) for v in r],
                "sim_counts": [int(v) for v in s],
                "p_uniform_real": p_real,
                "p_uniform_sim": p_sim,
                "p_two_sample": p_two,
                "pass": ok,
            }
        )
    return {
        "trials": trials,
        "alpha": alpha,
        "seed": seed,
        "sites": sites,
        "pass": all_pass,
    }
