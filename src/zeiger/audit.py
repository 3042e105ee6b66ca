"""Statistical zero-knowledge audit: revealed positions must look uniform.

Checks every seeded real run, and as many simulated transcripts, against the
grid's one event schedule (``simulator._skeleton``) and aggregates, per reveal
site, the histogram of marker positions; then applies chi-square uniformity
tests to each and a two-sample test between them, whose p-values come from
the chi-square law's closed-form upper tail.
"""

from __future__ import annotations

import math

from .cards import MARKER, Transcript
from .grid import Filling, Grid
from .protocol import ProverBehavior, run_protocol
from .simulator import _skeleton, simulate_transcript, structure

MIN_TRIALS = 1000
MIN_EXPECTED = 5  # smallest expected count per bin for which a chi-square test is meaningful


class AuditError(ValueError):
    pass


def chi2_sf(x: float, dof: int) -> float:
    """P(X >= x) for X chi-square with a whole number ``dof`` of degrees of
    freedom (Abramowitz & Stegun 26.4.4 and 26.4.5): the sum of
    e^(-x/2) (x/2)^s / Gamma(s + 1) for s = dof/2 - 1, dof/2 - 2, ... down to
    0 (even ``dof``) or 1/2 (odd ``dof``, which adds erfc(sqrt(x/2))).  Each
    term is formed in logs, so a huge ``x`` gives 0.0 instead of overflowing."""
    if x <= 0:
        return 1.0
    half = x / 2
    tail = math.erfc(math.sqrt(half)) if dof % 2 else 0.0
    for k in range(dof // 2):
        s = k + dof % 2 / 2
        tail += math.exp(s * math.log(half) - half - math.lgamma(s + 1))
    return tail


def uniform_p(counts: list[int]) -> float:
    """Pearson's one-sample test of ``counts`` against the uniform law."""
    n, q = sum(counts), len(counts)
    return chi2_sf((q * sum(c * c for c in counts) - n * n) / n, q - 1)


def two_sample_p(r: list[int], s: list[int]) -> float:
    """Pearson's test of the 2 x q table [r, s], with Yates' correction at
    q = 2 as ``scipy.stats.chi2_contingency`` applies it.  Column j adds
    D^2 / ((r_j + s_j) n_r n_s), D = |r_j n_s - s_j n_r| (less N/2 under Yates)."""
    n_r, n_s = sum(r), sum(s)
    stat = 0.0
    for a, b in zip(r, s):
        if a + b:  # a column empty in both rows adds nothing
            d = 2 * abs(a * n_s - b * n_r)  # 2D: an integer under Yates too
            if len(r) == 2:
                d = max(0, d - n_r - n_s)
            stat += d * d / (4 * (a + b) * n_r * n_s)
    return chi2_sf(stat, len(r) - 1)


def reveal_histograms(g: Grid, t: Transcript, hists: dict[tuple[str, int], list[int]]):
    """Check that ``t`` is an accepting run of ``g``'s schedule, then add its
    marker positions to ``hists``, keyed by the schedule's (site, number of
    columns) for each reveal.

    The comparing protocol's two rows always agree, so only its first row is
    counted (the second would duplicate every sample).
    """
    steps = _skeleton(g)
    if t.events[-1:] != [{"ev": "verdict", "accept": True}] or structure(t)[:-1] != list(steps):
        raise AuditError("event structure differs from the grid's schedule")
    for ev, step in zip(t.events, steps):
        if step[0] == "reveal" and (step[1] != "compare" or step[2] == 0):
            site, q = step[1], step[3]
            hists.setdefault((site, q), [0] * q)[ev["faces"].index(MARKER[site])] += 1


def audit_zk(g: Grid, f: Filling, trials: int, alpha: float, seed: int = 0) -> dict:
    """Run ``trials`` real and simulated transcripts and test every reveal
    site for uniformity and real-vs-simulated indistinguishability."""
    if trials < MIN_TRIALS:
        raise AuditError(f"need at least {MIN_TRIALS} trials, got {trials}")
    if not 0 < alpha < 1:
        raise AuditError(f"alpha must lie in (0, 1), got {alpha}")
    real: dict[tuple[str, int], list[int]] = {}
    sim: dict[tuple[str, int], list[int]] = {}
    for i in range(trials):
        accept, transcript, _ = run_protocol(g, ProverBehavior.honest(f), seed=seed * 1_000_003 + i)
        if not accept:
            ev = transcript.events[-1]
            r, c = ev["cell"]
            raise AuditError(f"honest run rejected at cell ({r},{c}): {ev['reason']}")
        reveal_histograms(g, transcript, real)
        reveal_histograms(g, simulate_transcript(g, seed=seed * 1_000_003 + i), sim)

    sites = []
    all_pass = True
    for key in sorted(real):
        site, q = key
        r, s = real[key], sim[key]
        if sum(r) < MIN_EXPECTED * q:
            raise AuditError(f"site {site} with {q} columns has {sum(r)} samples, "
                             f"under {MIN_EXPECTED} expected per column")
        p_real, p_sim, p_two = uniform_p(r), uniform_p(s), two_sample_p(r, s)
        ok = p_real >= alpha and p_sim >= alpha and p_two >= alpha
        all_pass &= ok
        sites.append(
            {
                "site": site,
                "columns": q,
                "samples_real": sum(r),
                "samples_sim": sum(s),
                "real_counts": r,
                "sim_counts": s,
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
