from pathlib import Path

import pytest

from zeiger.audit import audit_zk
from zeiger.grid import Coord, Filling, parse_filling, parse_grid
from zeiger.nae import parse_nae

FIXTURES = Path(__file__).parent / "fixtures"


def with_value(f: Filling, cell: Coord, v: int) -> Filling:
    """``f`` with ``cell`` set to ``v``: the filling a prover who claims a
    wrong value there lays out."""
    values = [list(row) for row in f.values]
    values[cell.row - 1][cell.col - 1] = v
    return Filling(values)


@pytest.fixture(scope="session")
def fig1_grid():
    return parse_grid((FIXTURES / "fig1.puzzle").read_text())


@pytest.fixture(scope="session")
def fig1_solution():
    return parse_filling((FIXTURES / "fig1.solution").read_text())


@pytest.fixture(scope="session")
def fig1_audit_report(fig1_grid, fig1_solution):
    """One 2000-trial audit of fig1, shared by every test that reads a full
    report: an audit is the slowest step of the suite."""
    return audit_zk(fig1_grid, fig1_solution, trials=2000, alpha=0.001, seed=10)


@pytest.fixture(scope="session")
def fig2_instance():
    inst, _ = parse_nae((FIXTURES / "fig2.nae").read_text())
    return inst
