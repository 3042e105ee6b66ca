"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import random
import time
from functools import cache
from statistics import correlation

from zeiger.cards import (
    CLUB,
    EVEN_STACK,
    ODD_STACK,
    Transcript,
    encode,
    locate,
)
from zeiger.grid import Coord, sightline, verify
from zeiger.nae import gen_nae, nae_brute_force
from zeiger.protocol import (
    ProverBehavior,
    ResourceStats,
    comparing_protocol,
    copy_protocol,
    count_resources,
    run_protocol,
    set_size_protocol,
    summation_protocol,
)
from zeiger.reduction import column_fillings, extract_assignment, lift_assignment, reduce_instance
from zeiger.solver import enumerate_solutions, solve

from .conftest import with_value
from .test_reduction import check_placement_rules


def report(n, ok, msg):
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {msg}")
    assert ok, f"criterion {n} failed: {msg}"


def first(failures):
    """The suffix of a criterion's line naming its first failing case, if any."""
    return f"; first failure: {failures[0]}" if failures else ""


def test_criterion_01_golden_fixture(fig1_grid, fig1_solution):
    best = min(
        _timed(lambda: verify(fig1_grid, fig1_solution)) for _ in range(10)
    )
    ok = verify(fig1_grid, fig1_solution) == [] and best < 1e-3
    report(1, ok, f"fig1 verifies ok in {best * 1e6:.0f} us (< 1 ms)")


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_02_solver(fig1_grid, fig1_solution):
    sol = solve(fig1_grid, budget=10**6)
    sols = enumerate_solutions(fig1_grid, cap=2, budget=10**6)
    ok = (
        sol is not None
        and verify(fig1_grid, sol) == []
        and sols == [fig1_solution]
    )
    report(2, ok, "fig1 solved within 1e6 nodes; exactly 1 solution = Fig 1 right")


def test_criterion_03_reduction_structure(fig2_instance):
    g = reduce_instance(fig2_instance)
    ok = (g.rows, g.cols) == (7, 10)
    check_placement_rules(fig2_instance, g)
    report(3, ok, "reduce(fig2) is 7x10 and satisfies all placement rules cell-by-cell")


def test_criterion_04_column_rigidity(fig2_instance):
    # fig2, the one-clause instance (a single down arrow per column), and 50 fuzzed instances
    rng = random.Random(404)
    specs = [(3, 1, 0)] + [(rng.randint(3, 5), rng.randint(1, 5), rng.getrandbits(32))
                           for _ in range(50)]
    instances = [("fig2", fig2_instance)] + [(f"gen_nae{spec}", gen_nae(*spec)) for spec in specs]
    checked, failures = 0, []
    for name, inst in instances:
        g = reduce_instance(inst)
        for q, fillings in enumerate(column_fillings(inst), 1):
            u = sum(1 for p in range(1, g.rows + 1) if g.cell(Coord(p, q)).given is None)
            if sorted(fillings) != sorted([(2,) * u, (3,) * u]):
                failures.append(f"{name} column {q}")
            checked += 1
    report(4, not failures,
           f"{checked} columns over fig2, gen_nae(3, 1, 0) and 50 fuzzed instances: exactly "
           f"{{all-2s, all-3s}}{first(failures)}")


@cache
def sat_equivalence_runs():
    """200 drawn instances on five variables, so that some are unsatisfiable
    (on four or fewer, a 2/2 or 2/1 split gives every clause both values):
    each one's ``gen_nae`` arguments, the instance, its reduced grid, its
    brute-force assignment (None if unsatisfiable) and whether the grid has
    a solution; and the seconds they took."""
    t0 = time.perf_counter()
    rng = random.Random(505)
    runs = []
    for i in range(200):
        spec = (5, rng.randint(1, 25), 50_000 + i)
        inst = gen_nae(*spec)
        g = reduce_instance(inst)
        runs.append((spec, inst, g, nae_brute_force(inst), solve(g) is not None))
    return runs, time.perf_counter() - t0


def test_criterion_05_sat_equivalence():
    runs, elapsed = sat_equivalence_runs()
    failures = [f"gen_nae{spec}" for spec, _, _, a, solvable in runs if (a is not None) != solvable]
    sat = sum(a is not None for *_, a, _ in runs)
    ok = not failures and 0 < sat < 200 and elapsed < 600
    report(5, ok, f"{200 - len(failures)}/200 solvability agreements ({sat} sat, {200 - sat} "
                  f"unsat) in {elapsed:.1f} s (< 600 s){first(failures)}")


def test_criterion_06_lifting():
    sat = [run[:4] for run in sat_equivalence_runs()[0] if run[3] is not None]
    failures = []
    for spec, inst, g, a in sat:
        f = lift_assignment(inst, a)
        if verify(g, f) or extract_assignment(inst, f) != a:
            failures.append(f"gen_nae{spec}")
    report(6, not failures,
           f"lift/verify/extract round trip on all {len(sat)} satisfiable instances{first(failures)}")


def test_criterion_07_subprotocol_oracles():
    pool, rng, t = ResourceStats(), random.Random(7), Transcript()
    failures = []
    for q in range(1, 7):
        for x in range(q):
            o1, o2 = copy_protocol(encode(q, x, ODD_STACK), pool, rng, t)
            if not locate(o1, ODD_STACK) == locate(o2, ODD_STACK) == x:
                failures.append(f"copy q={q} x={x}")
        for p in (1, 2, 3):
            for xs in itertools.product(range(q), repeat=p):
                out = set_size_protocol([encode(q, x, ODD_STACK) for x in xs], pool, rng, t)
                got = sum(1 for st in out if (st[0], st[1]) == ("H", "C"))
                if len(out) != q or got != len(set(xs)):
                    failures.append(f"set-size q={q} xs={xs}")
        for bits in itertools.product((0, 1), repeat=q):
            stacks = [ODD_STACK if b else EVEN_STACK for b in bits]
            out = summation_protocol(stacks, pool, rng, t)
            if len(out) != q + 1 or locate(out, CLUB) != sum(bits):
                failures.append(f"summation q={q} bits={bits}")
        for x1 in range(q):
            for x2 in range(q):
                got = comparing_protocol(encode(q, x1, CLUB), encode(q, x2, CLUB), pool, rng, t)
                if got != (x1 == x2):
                    failures.append(f"comparing q={q} x1={x1} x2={x2}")
    report(7, not failures,
           f"exhaustive decode-equivalence q <= 6: {len(failures)} mismatches{first(failures)}")


def test_criterion_08_completeness(fig1_grid, fig1_solution):
    accepts = sum(
        run_protocol(fig1_grid, ProverBehavior.honest(fig1_solution), seed=800 + i)[0]
        for i in range(100)
    )
    report(8, accepts == 100, f"{accepts}/100 honest runs accepted")


def test_criterion_09_soundness(fig1_grid, fig1_solution):
    b = fig1_grid.max_value
    unnumbered = [c for c in fig1_grid.coords() if fig1_grid.cell(c).given is None]
    corruptions = [(c, v) for c in unnumbered for v in range(1, b + 1)
                   if v != fig1_solution.value(c)]
    rng = random.Random(909)
    picks = corruptions + [rng.choice(corruptions) for _ in range(100 - len(corruptions))]
    failures = []
    for i, (cell, v) in enumerate(picks):
        behavior = ProverBehavior.honest(with_value(fig1_solution, cell, v))
        if run_protocol(fig1_grid, behavior, seed=900 + i)[0]:
            failures.append(f"value {v} at {cell}, seed {900 + i}")
    cells = list(fig1_grid.coords())
    for i in range(10):
        behavior = ProverBehavior.malformed(fig1_solution, cells[i * 2])
        if run_protocol(fig1_grid, behavior, seed=1900 + i)[0]:
            failures.append(f"malformed {cells[i * 2]}, seed {1900 + i}")
    report(9, not failures,
           f"{110 - len(failures)}/110 cheating runs rejected{first(failures)}")


def test_criterion_10_zero_knowledge_audit(fig1_audit_report):
    rep = fig1_audit_report
    worst = min(
        min(s["p_uniform_real"], s["p_uniform_sim"], s["p_two_sample"])
        for s in rep["sites"]
    )
    report(
        10,
        rep["pass"],
        f"{len(rep['sites'])} reveal sites uniform & indistinguishable at alpha=0.001 "
        f"(worst p = {worst:.4f}, 2000 trials)",
    )


def test_criterion_11_resource_identity(fig1_grid, fig1_solution):
    _, _, measured = run_protocol(fig1_grid, ProverBehavior.honest(fig1_solution), seed=11)
    closed = count_resources(fig1_grid)
    b = fig1_grid.max_value + 1
    sum_t = sum(len(sightline(fig1_grid, c)) for c in fig1_grid.coords())
    formula = 2 * sum_t + 25 * (b + 1)
    # frozen from the sightline oracle on the fig1 fixture: sum_t = 77 -> 304
    exact_ok = measured.total_shuffles == closed.total_shuffles == formula == 304

    # growing reduced-grid family: measured shuffles scale as b*k*l
    totals, bkl, closed_forms = [], [], []
    rng = random.Random(1111)
    for n, m in [(3, 2), (4, 3), (5, 4), (6, 5), (7, 6), (8, 8)]:
        inst, a = None, None
        while a is None:
            inst = gen_nae(n, m, seed=rng.getrandbits(32))
            a = nae_brute_force(inst)
        g = reduce_instance(inst)
        f = lift_assignment(inst, a)
        _, _, stats = run_protocol(g, ProverBehavior.honest(f), seed=1100)
        totals.append(stats.total_shuffles)
        closed_forms.append(count_resources(g).total_shuffles)
        bkl.append(max(g.rows, g.cols) * g.rows * g.cols)
    # R^2 of the least-squares line is the squared correlation
    r2_closed = correlation(closed_forms, totals) ** 2
    r2_bkl = correlation(bkl, totals) ** 2
    ok = exact_ok and r2_closed > 0.99 and r2_bkl > 0.99
    report(
        11,
        ok,
        f"fig1 shuffles measured = closed form = {measured.total_shuffles}; "
        f"R2 vs closed form {r2_closed:.4f}, vs b*k*l {r2_bkl:.4f} (> 0.99)",
    )
