import hashlib

import pytest

from zeiger import solver
from zeiger.grid import Cell, Coord, Grid, parse_grid, serialize_filling
from zeiger.nae import gen_nae, nae_brute_force
from zeiger.reduction import reduce_instance
from zeiger.solver import BudgetExhausted, SolverError, enumerate_solutions, solve

from .conftest import solved, with_value


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


def test_budget_exhaustion_is_distinct(fig1_grid):
    with pytest.raises(BudgetExhausted):
        solve(fig1_grid, budget=3)


@pytest.mark.parametrize("cap", [0, -1])
def test_enumerate_cap_below_one_raises(fig1_grid, cap):
    with pytest.raises(ValueError, match="^cap must be positive$"):
        enumerate_solutions(fig1_grid, cap=cap)


def test_invalid_solver_result_raises(fig1_grid, monkeypatch):
    # a real exception, not an assert, so the check survives python -O
    monkeypatch.setattr(solver, "verify", lambda g, f: ["forced violation"])
    with pytest.raises(SolverError, match="invalid filling"):
        solve(fig1_grid)


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


def _numbered(g, f, free=()):
    """``g`` with every cell but those in ``free`` numbered from ``f``."""
    return Grid([[Cell(cell.direction, None if Coord(r, c) in free else f.value(Coord(r, c)))
                  for c, cell in enumerate(row, start=1)]
                 for r, row in enumerate(g.cells, start=1)])


@pytest.mark.parametrize("wrong", [False, True])
def test_a_grid_with_no_unnumbered_cell_is_checked_without_a_node(monkeypatch, fig1_grid, fig1_solution, wrong):
    # its givens solve it, or (1,1) numbered 2 breaks (1,1) and the cells that see it
    f = with_value(fig1_solution, Coord(1, 1), 2) if wrong else fig1_solution
    assert _searched(monkeypatch, _numbered(fig1_grid, f), cap=2) == (0, [] if wrong else [f])


def test_a_grid_with_one_unnumbered_cell(monkeypatch, fig1_grid, fig1_solution):
    # (2,1) sees (2,2)..(2,5) = 2 1 3 3, so its domain is {3}
    g = _numbered(fig1_grid, fig1_solution, free=[Coord(2, 1)])
    assert _searched(monkeypatch, g, cap=2) == (1, [fig1_solution])
    # (1,1) numbered 2 sees 1 and 2 below (2,1), so it is tight and leaves
    # (2,1) only {1, 2}: the domain is empty and no value is tried
    g = _numbered(fig1_grid, with_value(fig1_solution, Coord(1, 1), 2), free=[Coord(2, 1)])
    assert _searched(monkeypatch, g, cap=2) == (0, [])


@pytest.mark.parametrize("name,nodes,sat", [("gen_nae(16, 30, 0)", 138, True),
                                            ("gen_nae(8, 24, 1)", 329, False)])
def test_the_budget_runs_out_one_node_short_of_the_answer(name, nodes, sat):
    g = _golden_grid(name)
    with pytest.raises(BudgetExhausted, match=f"^exceeded {nodes - 1} nodes$"):
        solve(g, budget=nodes - 1)
    assert (solve(g, budget=nodes) is not None) == sat


def _golden_grid(name):
    if name in ("fig1", "R. L./R. L."):
        return solved(name)[0]
    if name == "32x32":  # 1024 unnumbered cells, deeper than the recursion limit
        return parse_grid(("R. " * 31 + "L.\n") * 32)
    n, m, seed = (int(x) for x in name[len("gen_nae("):-1].split(","))
    return reduce_instance(gen_nae(n, m, seed))


# (grid, cap) -> (nodes, sha256 of the solutions' serialize_filling texts
# joined by newlines); the digests were pinned before the sightline counts
# were kept per cell, the node counts when the watchers' tight cases began
# to prune the domains: any change to the cell order, the value order or the
# pruning shows here
GOLDEN_SEARCHES = {
    ("fig1", 2): (62, "11abaaeeb872d665cb4ea70fd78291ef73be977e8a6a5a76aa8ccf2754912144"),
    ("R. L./R. L.", 5): (4, "f5c5e583808c61ef64c7c606dbd9f107efadadc78ef231dae68662e333a2d573"),
    ("32x32", 1): (1024, "be606500f266f1194db42bd7ca97a8d2fbc64713de9873c271dbcc943792be22"),
    ("gen_nae(3, 2, 0)", 50): (36, "db1aad7c6e154b54ec386d02b92826c72f8f7adf4de523ac20edc8bd1d5e16b5"),
    ("gen_nae(3, 4, 0)", 50): (60, "136480f4a6694715516e837ddad065c7d9b9894000b979009b012e442436d9b0"),
    ("gen_nae(4, 4, 0)", 50): (82, "f84e20c0eb1be1e9bea9cd3644ca685a19d31090cf9f689d3b491c31785d93bb"),
    ("gen_nae(4, 6, 0)", 50): (98, "e7f8e003eaa6204fe31f277ec606c695a020cef01b3f2dfe7d58ca3ca4f595f1"),
    ("gen_nae(5, 6, 0)", 50): (144, "db9fa1e84855b10025c4f653a8ccabb3127f1a36dd56da820f29dc78f94dae2b"),
    ("gen_nae(5, 8, 0)", 50): (136, "df95b1d6fa33457f35ef9c5ca55072fdc51bca1747d3b48ca27b918cca3d0a02"),
    ("gen_nae(6, 6, 0)", 50): (230, "f1b230b387a92c4f4b5f7c6c80fd1bde82a635e67a0a77b5625c6f359717afe7"),
    ("gen_nae(6, 8, 0)", 50): (228, "fb24f930ad47ca7b5c55587e7252b08c28c9cbb88bed9db75c63209d4f13bd56"),
    # the benchmark's unsat 27x13 grid, searched to exhaustion
    ("gen_nae(8, 24, 1)", 1): (329, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # the benchmark's three sat 33x21 grids: 587 givens, 106 unnumbered cells
    ("gen_nae(16, 30, 0)", 1): (138, "c6bc69ff93943a622fca3d7095bbd3ddab93af99ad7719e655c03f99f3ea5bd0"),
    ("gen_nae(16, 30, 1)", 1): (470, "7e19d37e06cb52aa498d51963eac3fcc2709dd253341a4cd1f36561d0a7106e9"),
    ("gen_nae(16, 30, 2)", 1): (126, "71a14d8261b1a43fcd6633cb80062449dee312fd48908ecdf2a5479f096545ba"),
}


# (n, m, seed) -> sha256 of every solution of the grid reduced from
# gen_nae(n, m, seed), enumerated with cap 1000 and hashed as above; pinned
# before the solver pruned with its watchers' tight cases, which must find
# the same solutions in the same order
SOLUTION_LISTS = {
    (3, 2, 0): "db1aad7c6e154b54ec386d02b92826c72f8f7adf4de523ac20edc8bd1d5e16b5",
    (3, 2, 1): "db1aad7c6e154b54ec386d02b92826c72f8f7adf4de523ac20edc8bd1d5e16b5",
    (3, 2, 2): "db1aad7c6e154b54ec386d02b92826c72f8f7adf4de523ac20edc8bd1d5e16b5",
    (3, 4, 0): "136480f4a6694715516e837ddad065c7d9b9894000b979009b012e442436d9b0",
    (3, 4, 1): "136480f4a6694715516e837ddad065c7d9b9894000b979009b012e442436d9b0",
    (3, 4, 2): "136480f4a6694715516e837ddad065c7d9b9894000b979009b012e442436d9b0",
    (3, 6, 0): "5a4a361d2bc35e4f3bd147b0d40e6ff4b0873f0d5defe3f1c35059d7be49549c",
    (3, 6, 1): "5a4a361d2bc35e4f3bd147b0d40e6ff4b0873f0d5defe3f1c35059d7be49549c",
    (3, 6, 2): "5a4a361d2bc35e4f3bd147b0d40e6ff4b0873f0d5defe3f1c35059d7be49549c",
    (3, 8, 0): "020a2d16bb5ed2d16329f7f2234c15c35fa69169d20db44a96a53e93dbeed16f",
    (3, 8, 1): "020a2d16bb5ed2d16329f7f2234c15c35fa69169d20db44a96a53e93dbeed16f",
    (3, 8, 2): "020a2d16bb5ed2d16329f7f2234c15c35fa69169d20db44a96a53e93dbeed16f",
    (4, 2, 0): "c08e28957ca131833cd21c910f01c5282eb51fb041d4821fe6fd73c2c0ed4545",
    (4, 2, 1): "db1aad7c6e154b54ec386d02b92826c72f8f7adf4de523ac20edc8bd1d5e16b5",
    (4, 2, 2): "82b0d91dd6cbde42ca0519893df05449773f9de4c3a216530d6fcd9606315825",
    (4, 4, 0): "f84e20c0eb1be1e9bea9cd3644ca685a19d31090cf9f689d3b491c31785d93bb",
    (4, 4, 1): "d1e5fc7e88430115277de005a934d19be8f87559b58399325f25c75236fb3301",
    (4, 4, 2): "0eaf8739f643d4a9659e44c75e1eaa10ebd0ba50d73a012523bbfee70494c72f",
    (4, 6, 0): "e7f8e003eaa6204fe31f277ec606c695a020cef01b3f2dfe7d58ca3ca4f595f1",
    (4, 6, 1): "94bdc13e99d072a683ed366fe5283997f4834c86ebc26eaab40beef53cd5e0b9",
    (4, 6, 2): "b61c52f0db5e876281a72b9a66554d92a2bd40c40f39eb54f0cc7ffc9b9f82d2",
    (4, 8, 0): "9edc4b6d8a0777d3fea63ad022347938ea0e6f6aebbe54a9e0d875d18bfea718",
    (4, 8, 1): "1d0188724f9b7dc55d3106ced651c4a8100b2aeeaf301bb6cb6819f48d8683eb",
    (4, 8, 2): "201ce7c3e34d0331ddc08a41b7e3b02ca47d10586c22583b7b30d1933461a9b4",
    (5, 2, 0): "e582ffbbf29e48a8cd34db111ca43e3411ab4d8c3b499fed66ebb9ffcef7ddba",
    (5, 2, 1): "ad326c5367123a66c4030e595abab419a6aa8ff450273d13543e921caf6875a8",
    (5, 2, 2): "0c91404276a837d820472588271c10b698a528b6f3a644ece081d4222a90f302",
    (5, 4, 0): "40cd6213dd4f98295d09109912bd2cc3efffa1ea677b733665646d2a5ec511b8",
    (5, 4, 1): "13a76f9805bd8b438c3b6555c83064a197cd518f8968006bccc428bd15b2db95",
    (5, 4, 2): "6dbbbbe66fa3e6ae37e98dfdd32546497d8276e33cae23748bb8a1cdf19de722",
    (5, 6, 0): "db9fa1e84855b10025c4f653a8ccabb3127f1a36dd56da820f29dc78f94dae2b",
    (5, 6, 1): "80ee57b2fafabb195baeb2093d1f016715d1736cf2a9e73e43c5b4ff93aff3d2",
    (5, 6, 2): "d9f6c8452a70f0c2b53ba0545f9029ce4850921a735d6f98756ae141290a7205",
    (5, 8, 0): "df95b1d6fa33457f35ef9c5ca55072fdc51bca1747d3b48ca27b918cca3d0a02",
    (5, 8, 1): "71035eb4650bd4adfbc9a7534fb7de9726db3739d80d2742460cb8c8ec2fa4f0",
    (5, 8, 2): "a21769fe4445212018ce06f58d6be7bc59fc927da5a0ef88316bdb1ce5b27b1c",
    (6, 2, 0): "df94e4ff9521a5f1e1f472c998b24b178e3d682c1134f9e4f6af2a9a839ac6bc",
    (6, 2, 1): "723706ff32624dae6f5fa1085b101edb2ce7e4cda3b41aa9935b99d9ea0cae4b",
    (6, 2, 2): "0c91404276a837d820472588271c10b698a528b6f3a644ece081d4222a90f302",
    (6, 4, 0): "d93437a342b306fc696e20c6df6529c0696dd3b5a137413fd4806da41767154f",
    (6, 4, 1): "42f7b8db4154bc071c8a03ae46a0f7ecd4e82397979c2847e733184593487967",
    (6, 4, 2): "8f4cf7e2e01b0b4f38ae13109692c8243561410eb5cb8c1eecd917131842ecfa",
    (6, 6, 0): "f1b230b387a92c4f4b5f7c6c80fd1bde82a635e67a0a77b5625c6f359717afe7",
    (6, 6, 1): "0ad8c3530e04ccfa6b834cd15b60b6555ca969fb48cd711c9c4e1ff257985943",
    (6, 6, 2): "b3a022aab360b17ae8171df4b3f36a6bc2816e614cbff36c0e80d0f400bb1f7c",
    (6, 8, 0): "fb24f930ad47ca7b5c55587e7252b08c28c9cbb88bed9db75c63209d4f13bd56",
    (6, 8, 1): "8fcb80917943f1e4bd66bb20df6fab8820149ed51092e0e69ca2ba6e116bcd72",
    (6, 8, 2): "3c651c2d3fa758ad715971108c7eee1011fad6b8506882f0ffc519f575432236",
}


@pytest.mark.parametrize("n,m,seed", list(SOLUTION_LISTS))
def test_solution_lists_are_pinned(n, m, seed):
    found = enumerate_solutions(reduce_instance(gen_nae(n, m, seed)), cap=1000)
    text = "\n".join(serialize_filling(f) for f in found)
    assert hashlib.sha256(text.encode()).hexdigest() == SOLUTION_LISTS[n, m, seed]


@pytest.mark.parametrize("name,cap", list(GOLDEN_SEARCHES))
def test_search_is_pinned(monkeypatch, name, cap):
    nodes, found = _searched(monkeypatch, _golden_grid(name), cap)
    text = "\n".join(serialize_filling(f) for f in found)
    assert (nodes, hashlib.sha256(text.encode()).hexdigest()) == GOLDEN_SEARCHES[name, cap]
