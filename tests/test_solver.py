import random

import pytest

from zeiger import solver
from zeiger.grid import parse_grid, verify
from zeiger.nae import gen_nae, nae_brute_force
from zeiger.reduction import reduce_instance
from zeiger.solver import BudgetExhausted, SolverError, enumerate_solutions, solve


def test_fig1_solution_found_and_valid(fig1_grid, fig1_solution):
    sol = solve(fig1_grid)
    assert sol is not None
    assert verify(fig1_grid, sol) == []
    assert sol == fig1_solution


def test_fig1_unique(fig1_grid, fig1_solution):
    sols = enumerate_solutions(fig1_grid, cap=2)
    assert sols == [fig1_solution]


def test_forced_all_ones():
    g = parse_grid("R. L.\nR. L.")
    sol = solve(g)
    assert sol is not None
    assert all(v == 1 for row in sol.values for v in row)
    assert enumerate_solutions(g, cap=5) == [sol]


def _unsat_instance():
    # all 10 triples over 5 variables: every 2/3 split hits a monochromatic
    # clause, so no NAE assignment exists (random small instances are
    # essentially always satisfiable)
    import itertools

    from zeiger.nae import NaeInstance

    inst = NaeInstance(5, tuple(itertools.combinations(range(1, 6), 3)))
    assert nae_brute_force(inst) is None
    return inst


def test_reduced_unsat_instance_has_no_filling():
    inst = _unsat_instance()
    g = reduce_instance(inst)
    assert solve(g) is None


def test_solver_deterministic(fig1_grid):
    assert solve(fig1_grid) == solve(fig1_grid)


def test_budget_exhaustion_is_distinct(fig1_grid):
    with pytest.raises(BudgetExhausted):
        solve(fig1_grid, budget=3)


def test_invalid_solver_result_raises(fig1_grid, monkeypatch):
    # a real exception, not an assert, so the check survives python -O
    monkeypatch.setattr(solver, "verify", lambda g, f: ["forced violation"])
    with pytest.raises(SolverError, match="invalid filling"):
        solve(fig1_grid)


def test_fuzzed_reduced_grids_solutions_verify():
    rng = random.Random(11)
    for _ in range(20):
        inst = gen_nae(rng.randint(3, 5), rng.randint(1, 4), seed=rng.getrandbits(32))
        g = reduce_instance(inst)
        sol = solve(g)
        if sol is not None:
            assert verify(g, sol) == []


def test_values_bounded_by_sightline_length(fig1_grid, fig1_solution):
    from zeiger.grid import sightline

    for c in fig1_grid.coords():
        v = fig1_solution.value(c)
        assert 1 <= v <= len(sightline(fig1_grid, c))
