import itertools
from functools import cache
from pathlib import Path

import pytest

from zeiger.audit import audit_zk
from zeiger.grid import Coord, Filling, Grid, parse_filling, parse_grid
from zeiger.nae import NaeInstance, gen_nae, nae_brute_force, parse_nae
from zeiger.reduction import lift_assignment, reduce_instance

FIXTURES = Path(__file__).parent / "fixtures"


@cache
def solved(name: str) -> tuple[Grid, Filling]:
    """The suite's named grids, each with a solution: "fig1" (the fixture),
    "R. L./R. L." (every value forced to 1), or "gen_nae(n, m, s)", the grid
    reduced from that satisfiable instance with the lift of its brute-force
    assignment."""
    if name == "fig1":
        return (parse_grid((FIXTURES / "fig1.puzzle").read_text()),
                parse_filling((FIXTURES / "fig1.solution").read_text()))
    if name == "R. L./R. L.":
        return parse_grid("R. L.\nR. L."), Filling([[1, 1], [1, 1]])
    inst = gen_nae(*(int(x) for x in name[len("gen_nae("):-1].split(",")))
    return reduce_instance(inst), lift_assignment(inst, nae_brute_force(inst))


def triple_sets(n: int) -> list[NaeInstance]:
    """Every instance over n variables whose clauses are a set of distinct
    triples that uses every variable: 1, 11 and 958 of them for n = 3, 4, 5."""
    triples = list(itertools.combinations(range(1, n + 1), 3))
    every = set(range(1, n + 1))
    return [NaeInstance(n, clauses) for size in range(1, len(triples) + 1)
            for clauses in itertools.combinations(triples, size)
            if {v for cl in clauses for v in cl} == every]


def with_value(f: Filling, cell: Coord, v: int) -> Filling:
    """``f`` with ``cell`` set to ``v``: the filling a prover who claims a
    wrong value there lays out."""
    values = [list(row) for row in f.values]
    values[cell.row - 1][cell.col - 1] = v
    return Filling(values)


@pytest.fixture(scope="session")
def fig1_grid():
    return solved("fig1")[0]


@pytest.fixture(scope="session")
def fig1_solution():
    return solved("fig1")[1]


@pytest.fixture(scope="session")
def fig1_audit_report(fig1_grid, fig1_solution):
    """One 2000-trial audit of fig1, shared by every test that reads a full
    report: an audit is the slowest step of the suite."""
    return audit_zk(fig1_grid, fig1_solution, trials=2000, alpha=0.001, seed=10)


@pytest.fixture(scope="session")
def fig2_instance():
    inst, _ = parse_nae((FIXTURES / "fig2.nae").read_text())
    return inst
