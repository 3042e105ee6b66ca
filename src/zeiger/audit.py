"""Statistical zero-knowledge audit: revealed positions must look uniform.

``check_transcript`` holds the verifier's rules, once.  It walks the grid's
schedule (``simulator._schedule``) a cell's block at a time, shapes first:
every reveal passes ``locate``; a reveal right after a shuffle shows a fresh
marker position, which every later reveal and normalize shows up to the next
shuffle; an accepting verdict ends it.  It returns the verifier's view: each
fresh reveal's site, width and position.  A rejecting transcript is not
checked yet.  The audit bins the views of seeded real runs and as many
simulated ones (``simulate_view``) per reveal site, then tests each for
uniformity and the two against each other, with chi-square p-values.

Trial i draws from seed ``seed * 1_000_003 + i`` whatever process runs it,
and the histograms are sums, so the trials are split into contiguous spans,
one per CPU this process may run on, each run in a forked child that sends
its histograms back through a pipe, and nothing else.  The report is the
serial run's, key for key.  A span that sends none runs again in the caller,
in order, so a failing audit raises the serial run's first exception itself.
"""

from __future__ import annotations

import marshal
import math
import os

from .cards import MARKER, MalformedReveal, Transcript, locate
from .grid import Filling, Grid
from .protocol import ProverBehavior, run_protocol
# simulate_transcript: no trial calls it; perfbench/run.py's traced run looks it up here
from .simulator import _schedule, simulate_transcript, simulate_view, structure

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


def check_transcript(g: Grid, t: Transcript) -> list[tuple[tuple[str, int], int]]:
    """Check ``t`` against the verifier's rules (above) and return each fresh
    reveal's ((site, number of columns), marker position), or raise
    AuditError naming the event (from 1) that breaks one.  A shift, like each
    row and size (``structure``), must be an ``int`` and ``accept`` ``True``
    itself: a ``True`` or a ``4.0`` compares equal to the int it stands for
    yet could carry a secret, as could a shift or later row showing another."""
    events = t.events
    try:
        shapes = structure(t)
    except (TypeError, AttributeError):  # faces with no length, or an event that is no dict
        shapes = []  # which breaks the first block
    fresh, pos, at = [], 0, 0  # each block opens with a shuffle, so a fresh reveal sets pos first
    for steps, counted in _schedule(g):
        if shapes[at:at + len(steps)] != steps:
            raise AuditError("event structure differs from the grid's schedule")
        for n, key, after_shuffle in zip(*counted):
            n += at
            if (site := key[0]) is None:  # a normalize
                if type(shift := events[n].get("shift")) is not int or shift != pos:
                    raise AuditError(f"event {n + 1}: normalize shifts by {shift!r}, "
                                     f"not by the marker position {pos} revealed just before it")
                continue
            try:
                shown = locate(events[n]["faces"], MARKER[site])
            except MalformedReveal as e:
                raise AuditError(f"event {n + 1}: malformed {site} reveal: {e}") from None
            if after_shuffle:
                pos = shown
                fresh.append((key, shown))
            elif shown != pos:
                raise AuditError(f"event {n + 1}: second {site} row shows position {shown}, "
                                 f"not the first row's {pos}")
        at += len(steps)
    if events[at:] != [{"ev": "verdict", "accept": True}] or events[at]["accept"] is not True:
        raise AuditError("event structure differs from the grid's schedule")
    return fresh


def reveal_histograms(view: list, hists: dict[tuple[str, int], list[int]]):
    """Add each fresh position of ``view`` (``check_transcript``'s or
    ``simulate_view``'s) to ``hists``, keyed by its (site, number of columns)."""
    for key, pos in view:
        counts = hists.get(key)
        if counts is None:
            counts = hists[key] = [0] * key[1]
        counts[pos] += 1


def _trials(g: Grid, f: Filling, seed: int, lo: int, hi: int):
    """Trials ``lo`` to ``hi - 1``: the real and the simulated views' histograms."""
    real: dict[tuple[str, int], list[int]] = {}
    sim: dict[tuple[str, int], list[int]] = {}
    for i in range(lo, hi):
        accept, transcript, _ = run_protocol(g, ProverBehavior.honest(f), seed=seed * 1_000_003 + i)
        if not accept:
            ev = transcript.events[-1]
            r, c = ev["cell"]
            raise AuditError(f"honest run rejected at cell ({r},{c}): {ev['reason']}")
        reveal_histograms(check_transcript(g, transcript), real)
        reveal_histograms(simulate_view(g, seed * 1_000_003 + i), sim)
    return real, sim


def _cpus() -> int:
    """How many CPUs this process may run on; 1 where it cannot fork."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _spans(g: Grid, f: Filling, seed: int, trials: int) -> list:
    """``_trials`` over ``min(_cpus(), trials)`` contiguous spans of the
    trials, each in a forked child but for a single span.

    A child sends only its marshalled histograms through a pipe, and exits 0
    only once they are written.  A span with no result -- the only span, or
    one whose fork failed or whose child raised or died -- runs again here,
    so it raises the serial run's exception or returns its histograms.
    ``multiprocessing`` is not used: importing it adds ~1.7 MB to this
    process's peak memory.  A child always leaves through ``os._exit``, so it
    never runs its parent's exit hooks.  Every child is reaped before this
    returns or raises; those whose span can no longer matter are killed first.
    """
    n = min(_cpus(), trials)
    _schedule(g)  # built once here, not once per child
    bounds = [trials * k // n for k in range(n + 1)]
    spans = list(zip(bounds, bounds[1:]))
    children = {}  # first trial -> (pid, the pipe's read end)
    try:
        for lo, hi in spans if n > 1 else ():
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # this span runs here instead
                os.close(r)
                os.close(w)
                continue
            if pid == 0:
                try:
                    os.close(r)
                    with os.fdopen(w, "wb") as out:
                        out.write(marshal.dumps(_trials(g, f, seed, lo, hi)))
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(w)
            children[lo] = pid, os.fdopen(r, "rb")
        results = []
        for lo, hi in spans:
            result = None
            if lo in children:
                pid, inp = children[lo]
                message = inp.read()
                inp.close()
                if os.waitpid(pid, 0)[1] == 0:  # the child exited 0: its message is whole
                    result = marshal.loads(message)
                del children[lo]
            results.append(_trials(g, f, seed, lo, hi) if result is None else result)
        return results
    finally:
        if children:  # an error cut the collection short: the spans left no longer matter
            import signal

            for pid, inp in children.values():
                inp.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def audit_zk(g: Grid, f: Filling, trials: int, alpha: float, seed: int = 0) -> dict:
    """Check ``trials`` real runs, simulate as many views, and test every
    reveal site for uniformity and real-vs-simulated indistinguishability.
    Every argument is checked before the first trial runs."""
    for name, value in (("trials", trials), ("seed", seed)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise AuditError(f"{name} must be an int, got {value!r}")
    if trials < MIN_TRIALS:
        raise AuditError(f"need at least {MIN_TRIALS} trials, got {trials}")
    if not isinstance(alpha, (int, float)) or not 0 < alpha < 1:
        raise AuditError(f"alpha must lie in (0, 1), got {alpha!r}")
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
