"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import random
import time

import numpy as np

from zeiger.audit import audit_zk
from zeiger.cards import (
    CardPool,
    SeededRng,
    Transcript,
    decode,
    decode_pair,
    encode_club,
    encode_pair,
)
from zeiger.grid import Coord, parse_filling, sightline, verify
from zeiger.nae import gen_nae, nae_brute_force
from zeiger.protocol import (
    ProverBehavior,
    comparing_protocol,
    copy_protocol,
    count_resources,
    run_protocol,
    set_size_protocol,
    summation_protocol,
)
from zeiger.reduction import column_fillings, extract_assignment, lift_assignment, reduce_instance
from zeiger.solver import enumerate_solutions, solve

from .test_reduction import check_placement_rules


def report(n, ok, msg):
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {msg}")
    assert ok, f"criterion {n} failed: {msg}"


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


def test_criterion_04_column_rigidity():
    rng = random.Random(404)
    checked = 0
    ok = True
    for _ in range(50):
        inst = gen_nae(rng.randint(3, 5), rng.randint(1, 5), rng.getrandbits(32))
        g = reduce_instance(inst)
        for q in range(1, inst.n + 1):
            u = sum(1 for p in range(1, g.rows + 1) if g.cell(Coord(p, q)).given is None)
            got = sorted(column_fillings(inst, q))
            ok &= got == sorted([(2,) * u, (3,) * u])
            checked += 1
    report(4, ok, f"{checked} columns over 50 fuzzed instances: exactly {{all-2s, all-3s}}")


def test_criterion_05_sat_equivalence():
    t0 = time.perf_counter()
    agree = 0
    sat_instances = []
    rng = random.Random(505)
    for i in range(200):
        inst = gen_nae(rng.choice([3, 4]), rng.randint(1, 4), seed=50_000 + i)
        a = nae_brute_force(inst)
        grid_sat = solve(reduce_instance(inst)) is not None
        agree += (a is not None) == grid_sat
        if a is not None:
            sat_instances.append((inst, a))
    elapsed = time.perf_counter() - t0
    test_criterion_05_sat_equivalence.sat_instances = sat_instances
    ok = agree == 200 and elapsed < 600
    report(5, ok, f"{agree}/200 solvability agreements in {elapsed:.1f} s (< 600 s)")


def test_criterion_06_lifting():
    sat = getattr(test_criterion_05_sat_equivalence, "sat_instances", None)
    if sat is None:
        test_criterion_05_sat_equivalence()
        sat = test_criterion_05_sat_equivalence.sat_instances
    ok = True
    for inst, a in sat:
        f = lift_assignment(inst, a)
        ok &= verify(reduce_instance(inst), f) == []
        ok &= extract_assignment(inst, f) == a
    report(6, ok, f"lift/verify/extract round trip on all {len(sat)} satisfiable instances")


def test_criterion_07_subprotocol_oracles():
    pool, rng, t = CardPool(), SeededRng(7), Transcript()
    mismatches = 0
    for q in range(2, 7):
        for x in range(q):
            o1, o2 = copy_protocol(encode_pair(q, x), pool, rng, t)
            mismatches += not (decode_pair(o1) == decode_pair(o2) == x)
        for p in (1, 2, 3):
            for xs in itertools.product(range(q), repeat=p):
                out = set_size_protocol([encode_pair(q, x) for x in xs], pool, rng, t)
                got = sum(
                    1 for st in out if (st[0], st[1]) == ("H", "C")
                )
                mismatches += got != len(set(xs))
        for bits in itertools.product((0, 1), repeat=q):
            stacks = [
                ["H" if b else "C", "C" if b else "H"] for b in bits
            ]
            out = summation_protocol(stacks, pool, rng, t)
            mismatches += decode(out) != sum(bits)
        for x1 in range(q):
            for x2 in range(q):
                got = comparing_protocol(encode_club(q, x1), encode_club(q, x2), pool, rng, t)
                mismatches += got != (x1 == x2)
    report(7, mismatches == 0, f"exhaustive decode-equivalence q <= 6: {mismatches} mismatches")


def test_criterion_08_completeness(fig1_grid, fig1_solution):
    accepts = sum(
        run_protocol(fig1_grid, ProverBehavior.honest(fig1_solution), seed=800 + i)[0]
        for i in range(100)
    )
    report(8, accepts == 100, f"{accepts}/100 honest runs accepted")


def test_criterion_09_soundness(fig1_grid, fig1_solution):
    b = fig1_grid.max_value
    unnumbered = [c for c in fig1_grid.coords() if fig1_grid.cell(c).given is None]
    corruptions = [
        (c, v)
        for c in unnumbered
        for v in range(1, b + 1)
        if v != fig1_solution.value(c)
    ]
    rng = random.Random(909)
    picks = corruptions + [rng.choice(corruptions) for _ in range(100 - len(corruptions))]
    rejects = 0
    for i, (cell, v) in enumerate(picks):
        behavior = ProverBehavior.wrong_value(fig1_solution, cell, v)
        rejects += not run_protocol(fig1_grid, behavior, seed=900 + i)[0]
    cells = list(fig1_grid.coords())
    for i in range(10):
        behavior = ProverBehavior.malformed(fig1_solution, cells[i * 2])
        rejects += not run_protocol(fig1_grid, behavior, seed=1900 + i)[0]
    report(9, rejects == 110, f"{rejects}/110 cheating runs rejected")


def test_criterion_10_zero_knowledge_audit(fig1_grid, fig1_solution):
    rep = audit_zk(fig1_grid, fig1_solution, trials=2000, alpha=0.001, seed=10)
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
    r2_closed = _r_squared(np.array(closed_forms, float), np.array(totals, float))
    r2_bkl = _r_squared(np.array(bkl, float), np.array(totals, float))
    ok = exact_ok and r2_closed > 0.99 and r2_bkl > 0.99
    report(
        11,
        ok,
        f"fig1 shuffles measured = closed form = {measured.total_shuffles}; "
        f"R2 vs closed form {r2_closed:.4f}, vs b*k*l {r2_bkl:.4f} (> 0.99)",
    )


def _r_squared(x: np.ndarray, y: np.ndarray) -> float:
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    return 1.0 - ss_res / ss_tot
