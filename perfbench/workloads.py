"""Seeded inputs, timed operations and correctness checks of the workloads.

Every call into the toolkit goes through its module attribute
(``protocol.run_protocol``, ``solver.solve`` ...), so that the traced run's
wrappers see it.  Each operation returns a ``Result``: its wall time without
the checks, the checks' failures, and counts that must repeat exactly for a
seed.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter
from typing import Callable, Optional

from zeiger import audit, grid, nae, protocol, reduction, simulator, solver

# The 5x5 instance of the paper's figure 1 and its unique solution.
FIG1_PUZZLE = """\
D. D. D. L2 D.
R. R. U. D. L3
U. D. R. L1 U.
U. R. D. U. U.
R. U. U2 L. L.
"""
FIG1_SOLUTION = """\
3 3 2 2 3
3 2 1 3 3
1 1 1 1 1
2 3 1 3 2
2 3 2 2 2
"""

AUDIT_TRIALS = audit.MIN_TRIALS
FIG1_RUNS = 300   # honest fig1 runs timed one by one, beside each audit call
# Small enough that an honest audit fails by chance about once in 50,000 calls
# (7 sites, 3 tests each).
AUDIT_ALPHA = 1e-6

# gen_nae(n, m, .) families; the reduced grid is (m+3) x (n+5).
ZKP_FAMILY = (12, 20)      # 23x17
SAT_FAMILY = (16, 30)      # 33x21
UNSAT_FAMILY = (8, 24)     # 27x13
# The grids are the first ones from this gen_nae seed on, whatever the
# workload seed.  Solve time over seeds 0-29 of SAT_FAMILY ranges from 0.04 s
# to 14 s, and where the protocol first copies the cheat cell (so how long a
# reject run takes) varies 3x between ZKP_FAMILY instances; grids that moved
# with the seed could not give steady medians.  The workload seed drives the
# protocol's and the audit's randomness.
BASE_SEED = 0
SOLVE_SAT_COUNT = 3
SOLVE_UNSAT_COUNT = 1


@dataclass
class Result:
    wall: float                              # timed seconds, checks excluded
    times: dict[tuple[str, str], list[float]]  # (role, instance) -> seconds
    attempted: int
    failures: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    digest: Optional[str] = None
    scale: float = 1.0                       # to seconds at the reference speed


def _check_span(tracer):
    return tracer.span("bench.check") if tracer is not None else nullcontext()


def structure(t) -> list[tuple]:
    """What the verifier sees of a run, minus the revealed positions and
    normalize shifts (which are uniform and differ per seed)."""
    out = []
    for ev in t.events:
        kind = ev["ev"]
        if kind == "shuffle":
            out.append((kind, ev["kind"], ev["rows"], ev["cols"]))
        elif kind == "reveal":
            out.append((kind, ev["site"], ev["row"], len(ev["faces"])))
        elif kind == "verdict":
            out.append((kind, ev["accept"]))
        else:
            out.append((kind,))
    return out


def stats_key(stats) -> tuple:
    """The ResourceStats fields that count_resources predicts."""
    per_cell = [(tuple(c["cell"]), c["shuffles"]) for c in stats.per_cell]
    return stats.shifts, stats.scrambles, stats.peak_cards, per_cell


def run_counts(t, stats) -> dict[str, int]:
    return {
        "protocol.events": len(t.events),
        "cards.shuffles": stats.total_shuffles,
        "cards.reveals": sum(1 for ev in t.events if ev["ev"] == "reveal"),
        "cards.drawn": stats.clubs_drawn + stats.hearts_drawn,
        "cards.peak_cards": stats.peak_cards,
    }


def merge_counts(total: dict[str, int], part: dict[str, int]):
    for key, v in part.items():
        total[key] = max(total.get(key, 0), v) if key.endswith("peak_cards") else total.get(key, 0) + v


def honest_problems(accept: bool, stats, expected: tuple) -> list[str]:
    problems = [] if accept else ["honest run rejected"]
    if stats_key(stats) != expected:
        problems.append("ResourceStats differ from count_resources")
    return problems


def digest(t) -> str:
    return hashlib.sha256(json.dumps(t.events).encode()).hexdigest()


@dataclass
class Instance:
    seed: int
    inst: nae.NaeInstance
    answer: Optional[tuple]


def family_seeds(n: int, m: int, sat: bool, start: int, count: int) -> list[Instance]:
    """The first ``count`` seeds >= ``start`` whose gen_nae(n, m, seed) uses
    all n variables (so its grid has the family's size) and whose brute-force
    answer is sat (``sat``) or unsat."""
    found = []
    s = start
    while len(found) < count:
        inst = nae.gen_nae(n, m, s)
        if inst.n == n:
            answer = nae.nae_brute_force(inst)
            if (answer is not None) == sat:
                found.append(Instance(s, inst, answer))
        s += 1
    return found


def cheat_cells(g) -> tuple[grid.Coord, grid.Coord]:
    """The unnumbered cell whose sequence the protocol copies last, and the
    cell whose check copies it first (where a malformed sequence there must
    be rejected).  Cells are checked in row-major order, each copying itself
    and then its sightline."""
    first_copy = {}
    for c in g.coords():
        for cc in [c] + grid.sightline(g, c):
            first_copy.setdefault(cc, c)
    order = {c: i for i, c in enumerate(g.coords())}
    unnumbered = [c for c in g.coords() if g.cell(c).given is None]
    target = max(unnumbered, key=lambda c: order[first_copy[c]])
    return target, first_copy[target]


# ---------------------------------------------------------------- audit-fig1

@dataclass
class AuditInputs:
    seed: int
    g: grid.Grid
    f: grid.Filling
    expected: tuple
    failures: list[str]


def setup_audit(seed: int) -> AuditInputs:
    g = grid.parse_grid(FIG1_PUZZLE)
    f = grid.parse_filling(FIG1_SOLUTION)
    failures = ["fig1 solution does not verify"] if grid.verify(g, f) else []
    return AuditInputs(seed, g, f, stats_key(protocol.count_resources(g)), failures)


class AuditChecker:
    """Checks every trial of an audit_zk call as it happens, by standing in
    for the audit's references to run_protocol and simulate_transcript.  The
    time spent checking is kept apart so the caller can leave it out."""

    def __init__(self, expected: tuple, tracer=None):
        self.expected = expected
        self.tracer = tracer
        self.trials = 0
        self.check_s = 0.0
        self.problems: dict[int, list[str]] = defaultdict(list)   # trial seed -> problems
        self.counts: dict[str, int] = {}
        self._real = None

    @contextmanager
    def installed(self):
        run, sim = audit.run_protocol, audit.simulate_transcript

        def checked_run(g, behavior, seed):
            result = run(g, behavior, seed)
            t1 = perf_counter()
            with _check_span(self.tracer):
                self.trials += 1
                accept, t, stats = result
                problems = honest_problems(accept, stats, self.expected)
                if problems:
                    self.problems[seed].extend(problems)
                merge_counts(self.counts, run_counts(t, stats))
                self._real = (seed, structure(t))
            self.check_s += perf_counter() - t1
            return result

        def checked_sim(g, seed):
            t = sim(g, seed)
            t1 = perf_counter()
            with _check_span(self.tracer):
                merge_counts(self.counts, {"simulator.events": len(t.events)})
                if self._real != (seed, structure(t)):
                    self.problems[seed].append("event structure differs from the simulator's")
            self.check_s += perf_counter() - t1
            return t

        audit.run_protocol, audit.simulate_transcript = checked_run, checked_sim
        try:
            yield self
        finally:
            audit.run_protocol, audit.simulate_transcript = run, sim


def audit_ops(inp: AuditInputs) -> list[Callable]:
    def audit_call(tracer):
        checker = AuditChecker(inp.expected, tracer)
        failures = []
        with checker.installed():
            t0 = perf_counter()
            try:
                report = audit.audit_zk(inp.g, inp.f, AUDIT_TRIALS, AUDIT_ALPHA, seed=inp.seed)
            except audit.AuditError as e:
                failures.append(f"audit raised: {e}")
                report = None
            wall = perf_counter() - t0 - checker.check_s
        failures += [f"trial seed {s}: " + ", ".join(p) for s, p in checker.problems.items()]
        # Trials run in other processes are not seen here; then only the
        # verdict and the direct runs below are checked.
        if report is not None and checker.trials not in (0, AUDIT_TRIALS):
            failures.append(f"audit ran {checker.trials} trials, expected {AUDIT_TRIALS}")
        if report is not None and not report["pass"]:
            worst = min(report["sites"], key=lambda s: min(s["p_uniform_real"], s["p_uniform_sim"], s["p_two_sample"]))
            failures.append(f"audit failed at alpha {AUDIT_ALPHA}: site {worst['site']}/{worst['columns']}")
        counts = dict(checker.counts, **{"audit.sites": len(report["sites"]) if report else 0})
        return Result(wall, {("primary", "audit"): [wall]}, AUDIT_TRIALS + 1, failures, counts)

    def honest_runs(tracer):
        """FIG1_RUNS honest runs called directly, each checked like a trial."""
        walls, failures, counts, sha = [], [], {}, hashlib.sha256()
        for i in range(FIG1_RUNS):
            seed = inp.seed * FIG1_RUNS + i
            t0 = perf_counter()
            accept, t, stats = protocol.run_protocol(inp.g, protocol.ProverBehavior.honest(inp.f), seed)
            walls.append(perf_counter() - t0)
            with _check_span(tracer):
                problems = honest_problems(accept, stats, inp.expected)
                if structure(t) != structure(simulator.simulate_transcript(inp.g, seed)):
                    problems.append("event structure differs from the simulator's")
                if problems:
                    failures.append(f"fig1 run seed {seed}: " + ", ".join(problems))
                merge_counts(counts, run_counts(t, stats))
                sha.update(json.dumps(t.events).encode())
        return Result(sum(walls), {("secondary", "fig1-run"): walls}, FIG1_RUNS, failures, counts,
                      sha.hexdigest())

    return [audit_call, honest_runs]


# -------------------------------------------------------------- zkp-reduced

@dataclass
class ZkpInputs:
    seed: int
    g: grid.Grid
    f: grid.Filling
    expected: tuple
    cheat_cell: grid.Coord
    reject_cell: grid.Coord
    failures: list[str]


def setup_zkp(seed: int) -> ZkpInputs:
    (rec,) = family_seeds(*ZKP_FAMILY, sat=True, start=BASE_SEED, count=1)
    g = reduction.reduce_instance(rec.inst)
    f = reduction.lift_assignment(rec.inst, rec.answer)
    failures = ["lifted filling does not verify"] if grid.verify(g, f) else []
    cheat, reject = cheat_cells(g)
    return ZkpInputs(seed, g, f, stats_key(protocol.count_resources(g)), cheat, reject, failures)


def zkp_ops(inp: ZkpInputs) -> list[Callable]:
    def honest(tracer):
        t0 = perf_counter()
        accept, t, stats = protocol.run_protocol(inp.g, protocol.ProverBehavior.honest(inp.f), inp.seed)
        wall = perf_counter() - t0
        with _check_span(tracer):
            problems = honest_problems(accept, stats, inp.expected)
            if structure(t) != structure(simulator.simulate_transcript(inp.g, inp.seed)):
                problems.append("event structure differs from the simulator's")
            failures = ["honest run: " + ", ".join(problems)] if problems else []
        return Result(wall, {("primary", "honest"): [wall]}, 1, failures, run_counts(t, stats), digest(t))

    def cheat(tracer):
        behavior = protocol.ProverBehavior.malformed(inp.f, inp.cheat_cell)
        t0 = perf_counter()
        accept, t, stats = protocol.run_protocol(inp.g, behavior, inp.seed)
        wall = perf_counter() - t0
        verdict = t.events[-1]
        want = [inp.reject_cell.row, inp.reject_cell.col]
        failures = []
        if accept or verdict.get("cell") != want:
            failures.append(f"malformed cell {inp.cheat_cell}: verdict {verdict}, expected reject at {want}")
        return Result(wall, {("secondary", "cheat"): [wall]}, 1, failures, run_counts(t, stats))

    # The reject run is short, so it runs twice per round for more samples.
    return [honest, cheat, cheat]


# ------------------------------------------------------------ solve-reduced

@dataclass
class SolveInputs:
    sat: list[tuple[Instance, grid.Grid]]
    unsat: list[tuple[Instance, grid.Grid]]
    failures: list[str]


def setup_solve(seed: int) -> SolveInputs:
    def family(spec, sat, count):
        recs = family_seeds(*spec, sat=sat, start=BASE_SEED, count=count)
        return [(rec, reduction.reduce_instance(rec.inst)) for rec in recs]

    return SolveInputs(family(SAT_FAMILY, True, SOLVE_SAT_COUNT), family(UNSAT_FAMILY, False, SOLVE_UNSAT_COUNT), [])


@contextmanager
def searches():
    """Collect the solver's search objects, to read their own node counters."""
    created = []
    original = getattr(solver, "_Search", None)
    if original is None:
        yield created
        return

    def capture(*args, **kwargs):
        s = original(*args, **kwargs)
        created.append(s)
        return s

    solver._Search = capture
    try:
        yield created
    finally:
        solver._Search = original


def solution_problems(rec: Instance, g: grid.Grid, f: Optional[grid.Filling]) -> list[str]:
    """The solver's answer against brute force, and the extract/lift round trip."""
    if (f is not None) != (rec.answer is not None):
        return [f"solver says {'sat' if f else 'unsat'}, brute force disagrees"]
    if f is None:
        return []
    try:
        if grid.verify(g, f):
            return ["solution does not verify"]
        a = reduction.extract_assignment(rec.inst, f)
        if not nae.nae_check(rec.inst, a):
            return ["extracted assignment is not NAE-satisfying"]
        if grid.verify(g, reduction.lift_assignment(rec.inst, a)):
            return ["lifted filling does not verify"]
    except (reduction.ReductionError, AssertionError) as e:
        return [f"extract/lift: {e}"]
    return []


def _solve_op(rec: Instance, g: grid.Grid, role: str, family: str) -> Callable:
    key = f"{family}:{rec.seed}"

    def solve(tracer):
        with searches() as created:
            t0 = perf_counter()
            try:
                f, gave_up = solver.solve(g), None
            except solver.BudgetExhausted as e:
                f, gave_up = None, f"solver gave up: {e}"
            wall = perf_counter() - t0
        counts = {"solver.nodes": sum(getattr(s, "nodes", 0) for s in created)}
        problems = [gave_up] if gave_up else solution_problems(rec, g, f)
        failures = [f"{key}: " + ", ".join(problems)] if problems else []
        return Result(wall, {(role, key): [wall]}, 1, failures, counts)

    return solve


def solve_ops(inp: SolveInputs) -> list[Callable]:
    return [_solve_op(rec, g, "primary", "sat") for rec, g in inp.sat] + [
        _solve_op(rec, g, "secondary", "unsat") for rec, g in inp.unsat
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    ops: Callable
    # what primary_s and secondary_s measure on this workload
    primary: str
    secondary: str


WORKLOADS = {
    w.name: w
    for w in [
        Workload("audit-fig1", setup_audit, audit_ops,
                 "wall time of one audit_zk call (1000 trials)",
                 "median wall time of one honest fig1 run_protocol called directly"),
        Workload("zkp-reduced", setup_zkp, zkp_ops,
                 "wall time of the honest run_protocol (zkp_run_s)",
                 "wall time of the malformed-cheat run_protocol (zkp_reject_s)"),
        Workload("solve-reduced", setup_solve, solve_ops,
                 "median solve wall time per satisfiable instance (solve_sat_s)",
                 "median solve wall time per unsatisfiable instance (solve_unsat_s)"),
    ]
}


def role_time(results: list[Result], role: str, scaled: bool = True) -> float:
    """Median over instances of each instance's median time for ``role``."""
    per_key = defaultdict(list)
    for r in results:
        k = r.scale if scaled else 1.0
        for (ro, key), ts in r.times.items():
            if ro == role:
                per_key[key].extend(t * k for t in ts)
    return median(median(ts) for ts in per_key.values())
