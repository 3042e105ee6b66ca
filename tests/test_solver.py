import hashlib
import random

import pytest

from zeiger import solver
from zeiger.grid import parse_grid, serialize_filling, verify
from zeiger.nae import gen_nae, nae_brute_force
from zeiger.reduction import reduce_instance
from zeiger.solver import BudgetExhausted, SolverError, enumerate_solutions, solve

from .conftest import FIXTURES


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


def _searched(monkeypatch, g, cap):
    """``enumerate_solutions(g, cap)`` and the node count of its search."""
    created, search = [], solver._Search

    def capture(*args):
        created.append(search(*args))
        return created[-1]

    with monkeypatch.context() as m:
        m.setattr(solver, "_Search", capture)
        found = enumerate_solutions(g, cap)
    return created[0].nodes, found


def _golden_grid(name):
    if name == "fig1":
        return parse_grid((FIXTURES / "fig1.puzzle").read_text())
    if name == "R. L./R. L.":
        return parse_grid("R. L.\nR. L.")
    if name == "32x32":  # 1024 unnumbered cells, deeper than the recursion limit
        return parse_grid(("R. " * 31 + "L.\n") * 32)
    n, m, seed = (int(x) for x in name[len("gen_nae("):-1].split(","))
    return reduce_instance(gen_nae(n, m, seed))


# (grid, cap) -> (nodes, sha256 of the solutions' serialize_filling texts
# joined by newlines), pinned before the sightline counts were kept per cell:
# any change to the cell order, the value order or the pruning shows here
GOLDEN_SEARCHES = {
    ("fig1", 2): (266, "11abaaeeb872d665cb4ea70fd78291ef73be977e8a6a5a76aa8ccf2754912144"),
    ("R. L./R. L.", 5): (4, "f5c5e583808c61ef64c7c606dbd9f107efadadc78ef231dae68662e333a2d573"),
    ("32x32", 1): (1024, "be606500f266f1194db42bd7ca97a8d2fbc64713de9873c271dbcc943792be22"),
    ("gen_nae(3, 2, 0)", 50): (55, "db1aad7c6e154b54ec386d02b92826c72f8f7adf4de523ac20edc8bd1d5e16b5"),
    ("gen_nae(3, 4, 0)", 50): (173, "136480f4a6694715516e837ddad065c7d9b9894000b979009b012e442436d9b0"),
    ("gen_nae(4, 4, 0)", 50): (226, "f84e20c0eb1be1e9bea9cd3644ca685a19d31090cf9f689d3b491c31785d93bb"),
    ("gen_nae(4, 6, 0)", 50): (363, "e7f8e003eaa6204fe31f277ec606c695a020cef01b3f2dfe7d58ca3ca4f595f1"),
    ("gen_nae(5, 6, 0)", 50): (567, "db9fa1e84855b10025c4f653a8ccabb3127f1a36dd56da820f29dc78f94dae2b"),
    ("gen_nae(5, 8, 0)", 50): (704, "df95b1d6fa33457f35ef9c5ca55072fdc51bca1747d3b48ca27b918cca3d0a02"),
    ("gen_nae(6, 6, 0)", 50): (916, "f1b230b387a92c4f4b5f7c6c80fd1bde82a635e67a0a77b5625c6f359717afe7"),
    ("gen_nae(6, 8, 0)", 50): (1265, "fb24f930ad47ca7b5c55587e7252b08c28c9cbb88bed9db75c63209d4f13bd56"),
    # the benchmark's unsat 27x13 grid, searched to exhaustion
    ("gen_nae(8, 24, 1)", 1): (53881, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.mark.parametrize("name,cap", list(GOLDEN_SEARCHES))
def test_search_is_pinned(monkeypatch, name, cap):
    nodes, found = _searched(monkeypatch, _golden_grid(name), cap)
    text = "\n".join(serialize_filling(f) for f in found)
    assert (nodes, hashlib.sha256(text.encode()).hexdigest()) == GOLDEN_SEARCHES[name, cap]
