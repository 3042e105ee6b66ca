import random

import pytest

from zeiger import reduction
from zeiger.grid import Coord, Direction, verify
from zeiger.nae import gen_nae, nae_brute_force, nae_check
from zeiger.reduction import (
    ReductionError,
    column_fillings,
    extract_assignment,
    lift_assignment,
    reduce_instance,
)
from zeiger.solver import solve


def check_placement_rules(inst, g):
    """Cell-by-cell check of all nine transformation rules."""
    m, n = inst.m, inst.n
    assert (g.rows, g.cols) == (m + 3, n + 5)
    members = [set(cl) for cl in inst.clauses]
    for p in range(1, m + 4):
        for q in range(1, n + 6):
            cell = g.cell(Coord(p, q))
            if q <= n:
                if p <= m:
                    if q in members[p - 1]:
                        assert (cell.direction, cell.given) == (Direction.DOWN, None)
                    else:
                        assert (cell.direction, cell.given) == (Direction.RIGHT, 4)
                elif p == m + 1:
                    assert (cell.direction, cell.given) == (Direction.RIGHT, 4)
                elif p == m + 2:
                    assert (cell.direction, cell.given) == (Direction.UP, 2)
                else:
                    assert (cell.direction, cell.given) == (Direction.UP, None)
            elif q == n + 1:
                assert (cell.direction, cell.given) == (Direction.RIGHT, 4)
            elif q == n + 2:
                expected_dir = Direction.LEFT if p <= m else Direction.RIGHT
                assert (cell.direction, cell.given) == (expected_dir, 3)
            elif q == n + 3:
                assert (cell.direction, cell.given) == (Direction.RIGHT, 2)
            elif q == n + 4:
                assert (cell.direction, cell.given) == (Direction.RIGHT, 1)
            else:
                assert (cell.direction, cell.given) == (Direction.LEFT, 4)


def test_fig2_reduction_size_and_rules(fig2_instance):
    g = reduce_instance(fig2_instance)
    assert (g.rows, g.cols) == (7, 10)
    check_placement_rules(fig2_instance, g)


def test_fig2_sample_cells(fig2_instance):
    g = reduce_instance(fig2_instance)
    assert g.cell(Coord(1, 1)) .direction == Direction.DOWN
    assert g.cell(Coord(1, 1)).given is None
    assert g.cell(Coord(1, 4)).direction == Direction.RIGHT
    assert g.cell(Coord(1, 4)).given == 4


def test_unnumbered_cell_counts(fig2_instance):
    rng = random.Random(3)
    for inst in [fig2_instance] + [
        gen_nae(rng.randint(3, 5), rng.randint(1, 5), rng.getrandbits(32)) for _ in range(10)
    ]:
        g = reduce_instance(inst)
        unnumbered = [c for c in g.coords() if g.cell(c).given is None]
        assert len(unnumbered) == 3 * inst.m + inst.n
        for p in range(1, inst.m + 1):
            row_unnumbered = [c for c in unnumbered if c.row == p]
            assert len(row_unnumbered) == 3


def test_lift_fig2_solution(fig2_instance):
    a = (True, False, True, True, False)
    f = lift_assignment(fig2_instance, a)
    assert verify(reduce_instance(fig2_instance), f) == []
    g = reduce_instance(fig2_instance)
    # FALSE column bottoms hold a 3
    assert f.value(Coord(g.rows, 2)) == 3
    assert f.value(Coord(g.rows, 5)) == 3
    assert f.value(Coord(g.rows, 1)) == 2


def test_lift_refuses_non_solution(fig2_instance):
    # flipping x3 makes C1 = (T,F,F)... still NAE; flip x1,x3: C1 all-False
    bad = (False, False, False, True, False)
    assert not nae_check(fig2_instance, bad)
    with pytest.raises(ReductionError):
        lift_assignment(fig2_instance, bad)


def test_lift_raises_when_its_result_fails_verification(fig2_instance, monkeypatch):
    # a real exception, not an assert, so the check survives python -O
    monkeypatch.setattr(reduction, "verify", lambda g, f: ["forced violation"])
    with pytest.raises(ReductionError, match="lifted filling failed verification"):
        lift_assignment(fig2_instance, (True, False, True, True, False))


def test_extract_raises_when_its_result_violates_the_instance(fig2_instance, monkeypatch):
    f = lift_assignment(fig2_instance, (True, False, True, True, False))
    monkeypatch.setattr(reduction, "nae_check", lambda inst, a: False)
    with pytest.raises(ReductionError, match="extracted assignment violates"):
        extract_assignment(fig2_instance, f)


def test_extract_lift_roundtrip_fuzzed():
    rng = random.Random(21)
    checked = 0
    while checked < 25:
        inst = gen_nae(rng.randint(3, 5), rng.randint(1, 5), rng.getrandbits(32))
        a = nae_brute_force(inst)
        if a is None:
            continue
        assert extract_assignment(inst, lift_assignment(inst, a)) == a
        checked += 1


def test_extract_from_solver_filling(fig2_instance):
    g = reduce_instance(fig2_instance)
    f = solve(g)
    assert f is not None
    a = extract_assignment(fig2_instance, f)
    assert nae_check(fig2_instance, a)


def test_extract_requires_valid_filling(fig2_instance):
    a = (True, False, True, True, False)
    f = lift_assignment(fig2_instance, a)
    values = [list(row) for row in f.values]
    values[-1][0] = 3 if values[-1][0] == 2 else 2
    from zeiger.grid import Filling

    with pytest.raises(ReductionError):
        extract_assignment(fig2_instance, Filling(values))


def test_column_fillings_fig2_all_columns(fig2_instance):
    g = reduce_instance(fig2_instance)
    for q in range(1, fig2_instance.n + 1):
        u = sum(
            1 for p in range(1, g.rows + 1) if g.cell(Coord(p, q)).given is None
        )
        fillings = column_fillings(fig2_instance, q)
        assert sorted(fillings) == sorted([(2,) * u, (3,) * u])


def test_column_fillings_single_down_arrow():
    inst = gen_nae(3, 1, seed=0)  # one clause: each column has one down arrow
    for q in (1, 2, 3):
        assert sorted(column_fillings(inst, q)) == [(2, 2), (3, 3)]


def test_row_cells_mix_two_and_three(fig2_instance):
    """Solver-found fillings put both a 2 and a 3 among each clause row's
    three unnumbered cells."""
    g = reduce_instance(fig2_instance)
    f = solve(g)
    members = [set(cl) for cl in fig2_instance.clauses]
    for p in range(1, fig2_instance.m + 1):
        vals = {f.value(Coord(p, q)) for q in members[p - 1]}
        assert vals == {2, 3}


def test_sat_equivalence_quick():
    rng = random.Random(5)
    for _ in range(40):
        inst = gen_nae(rng.choice([3, 4]), rng.randint(1, 4), rng.getrandbits(32))
        sat = nae_brute_force(inst) is not None
        assert sat == (solve(reduce_instance(inst)) is not None)
