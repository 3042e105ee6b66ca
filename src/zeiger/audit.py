"""Statistical zero-knowledge audit: revealed positions must look uniform.

Checks every seeded real run, and as many simulated transcripts, against the
grid's one event schedule (``simulator._skeleton``) and aggregates, per reveal
site, the histogram of marker positions; then applies chi-square uniformity
tests to each and a two-sample test between them, whose p-values come from
the chi-square law's closed-form upper tail.

Trial i draws from seed ``seed * 1_000_003 + i`` whatever process runs it,
and the histograms are sums, so the trials are split into contiguous spans,
one per CPU this process may run on, each run in a forked child that sends
its histograms back through a pipe.  The report is the serial run's, key for
key.  A failing span's exception reaches the caller unchanged; when several
fail, the lowest span's, which is the serial run's first failure.
"""

from __future__ import annotations

import marshal
import math
import os

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


def _trials(g: Grid, f: Filling, seed: int, lo: int, hi: int):
    """Trials ``lo`` to ``hi - 1``: the real and the simulated histograms."""
    real: dict[tuple[str, int], list[int]] = {}
    sim: dict[tuple[str, int], list[int]] = {}
    for i in range(lo, hi):
        accept, transcript, _ = run_protocol(g, ProverBehavior.honest(f), seed=seed * 1_000_003 + i)
        if not accept:
            ev = transcript.events[-1]
            r, c = ev["cell"]
            raise AuditError(f"honest run rejected at cell ({r},{c}): {ev['reason']}")
        reveal_histograms(g, transcript, real)
        reveal_histograms(g, simulate_transcript(g, seed=seed * 1_000_003 + i), sim)
    return real, sim


def _cpus() -> int:
    """How many CPUs this process may run on; 1 where it cannot fork."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _spans(g: Grid, f: Filling, seed: int, trials: int) -> list:
    """``_trials`` over ``min(_cpus(), trials)`` contiguous spans of the
    trials, each in a forked child but for a single span, which runs here.

    ``multiprocessing`` is not used: importing it adds ~1.7 MB to this
    process's peak memory; ``pickle`` and ``signal`` are imported only on an
    error, so a passing audit loads neither.  A child sends ``b"r"`` and its marshalled
    histograms, or ``b"e"`` and its pickled exception, and always leaves
    through ``os._exit``, so it never runs its parent's exit hooks.  Every
    child is reaped before this returns or raises; those whose span can no
    longer matter are killed first.
    """
    n = min(_cpus(), trials)
    if n == 1:
        return [_trials(g, f, seed, 0, trials)]
    _skeleton(g)  # built once here, not once per child
    bounds = [trials * k // n for k in range(n + 1)]
    children = []  # (pid, the pipe's read end, first trial, last trial + 1)
    try:
        for lo, hi in zip(bounds, bounds[1:]):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                status = 1
                try:
                    os.close(r)
                    try:
                        message = b"r" + marshal.dumps(_trials(g, f, seed, lo, hi))
                    except BaseException as e:
                        import pickle

                        message = b"e" + pickle.dumps(e)
                    with os.fdopen(w, "wb") as out:
                        out.write(message)
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children.append((pid, os.fdopen(r, "rb"), lo, hi))
        results = []
        while children:
            pid, inp, lo, hi = children[0]
            message = inp.read()
            inp.close()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            if message[:1] == b"e":
                import pickle

                raise pickle.loads(message[1:])
            if message[:1] != b"r":
                raise AuditError(f"the child running trials {lo}-{hi - 1} gave no result "
                                 f"(exit status {code})")
            results.append(marshal.loads(message[1:]))
        return results
    finally:
        if children:  # an error cut the collection short: the spans left no longer matter
            import signal

            for pid, inp, _, _ in children:
                inp.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def audit_zk(g: Grid, f: Filling, trials: int, alpha: float, seed: int = 0) -> dict:
    """Run ``trials`` real and simulated transcripts and test every reveal
    site for uniformity and real-vs-simulated indistinguishability."""
    if trials < MIN_TRIALS:
        raise AuditError(f"need at least {MIN_TRIALS} trials, got {trials}")
    if not 0 < alpha < 1:
        raise AuditError(f"alpha must lie in (0, 1), got {alpha}")
    real: dict[tuple[str, int], list[int]] = {}
    sim: dict[tuple[str, int], list[int]] = {}
    for part_real, part_sim in _spans(g, f, seed, trials):
        for total, part in ((real, part_real), (sim, part_sim)):
            for key, counts in part.items():
                total[key] = [a + b for a, b in zip(total.get(key, [0] * len(counts)), counts)]

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
