import itertools
import random

import pytest

from zeiger import reduction
from zeiger.grid import Coord, Direction, parse_grid, sightline, verify
from zeiger.nae import NaeInstance, gen_nae, nae_brute_force, nae_check
from zeiger.reduction import (
    ReductionError,
    column_fillings,
    extract_assignment,
    lift_assignment,
    reduce_instance,
)
from zeiger.solver import enumerate_solutions, solve

from .conftest import triple_sets, with_value

# gen_nae specs: the smallest instance, the benchmark's three families and
# CI's unsat 43x25, then ten sampled sizes
SPECS = [(3, 1, 0), (12, 20, 0), (16, 30, 0), (8, 24, 0), (20, 40, 1)] + [
    (rng.randint(3, 24), rng.randint(1, 40), rng.getrandbits(32))
    for rng in [random.Random(7)] for _ in range(10)]


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
    for inst in [fig2_instance] + [gen_nae(*spec) for spec in SPECS]:
        check_placement_rules(inst, reduce_instance(inst))


def template_text(inst):
    """The module docstring's two row templates, written out as .puzzle text."""
    clause_rows = [["D." if q in cl else "R4" for q in range(1, inst.n + 1)] + ["R4 L3 R2 R1 L4"]
                   for cl in inst.clauses]
    lower_rows = [[token] * inst.n + ["R4 R3 R2 R1 L4"] for token in ("R4", "U2", "U.")]
    return "\n".join(" ".join(row) for row in clause_rows + lower_rows)


def test_reduced_grid_is_its_template_text(fig2_instance):
    # reduce_instance builds the cells directly; the text stays the spec
    for inst in [fig2_instance] + [gen_nae(*spec) for spec in SPECS]:
        assert reduce_instance(inst) == parse_grid(template_text(inst)), inst


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


def test_extract_from_solver_filling(fig2_instance):
    g = reduce_instance(fig2_instance)
    f = solve(g)
    assert f is not None
    a = extract_assignment(fig2_instance, f)
    assert nae_check(fig2_instance, a)


def test_extract_requires_valid_filling(fig2_instance):
    a = (True, False, True, True, False)
    f = lift_assignment(fig2_instance, a)
    bottom_left = Coord(f.rows, 1)
    bad = with_value(f, bottom_left, 3 if f.value(bottom_left) == 2 else 2)
    with pytest.raises(ReductionError):
        extract_assignment(fig2_instance, bad)


def test_column_fillings_fig2_all_columns(fig2_instance):
    g = reduce_instance(fig2_instance)
    for q, fillings in enumerate(column_fillings(fig2_instance), 1):
        u = sum(
            1 for p in range(1, g.rows + 1) if g.cell(Coord(p, q)).given is None
        )
        assert sorted(fillings) == sorted([(2,) * u, (3,) * u])


def test_column_fillings_refuses_too_many_candidates():
    # eight clauses over four variables: column 1 has 18,144,000 candidate fillings
    inst = NaeInstance(4, ((1, 2, 3), (1, 2, 4), (1, 3, 4)) * 2 + ((1, 2, 3), (1, 2, 4)))
    with pytest.raises(ReductionError, match="^too many candidates to enumerate: 18144000$"):
        column_fillings(inst)


def test_column_fillings_single_down_arrow():
    inst = gen_nae(3, 1, seed=0)  # one clause: each column has one down arrow
    assert [sorted(fillings) for fillings in column_fillings(inst)] == [[(2, 2), (3, 3)]] * 3


def exhaustive_column_fillings(inst, q):
    """Every value 1..max_value on each unnumbered cell of column q, kept when
    the column's up and down arrows hold."""
    g = reduce_instance(inst)
    column = [Coord(p, q) for p in range(1, g.rows + 1)]
    unknown = [c for c in column if g.cell(c).given is None]
    arrows = [c for c in column if g.cell(c).direction in (Direction.UP, Direction.DOWN)]
    found = []
    for combo in itertools.product(range(1, g.max_value + 1), repeat=len(unknown)):
        value = {c: g.cell(c).given for c in column}
        value.update(zip(unknown, combo))
        if all(len({value[s] for s in sightline(g, c)}) == value[c] for c in arrows):
            found.append(combo)
    return found


def test_column_fillings_equal_exhaustive_enumeration(fig2_instance):
    # column_fillings tries only 1..(sightline length) per cell; no filling is lost
    small = [gen_nae(n, m, seed) for n, m in [(3, 1), (4, 2), (5, 3)] for seed in range(3)]
    for inst in [fig2_instance] + small:
        assert [sorted(fillings) for fillings in column_fillings(inst)] == [
            exhaustive_column_fillings(inst, q) for q in range(1, inst.n + 1)]


def test_row_cells_mix_two_and_three(fig2_instance):
    """Solver-found fillings put both a 2 and a 3 among each clause row's
    three unnumbered cells."""
    g = reduce_instance(fig2_instance)
    f = solve(g)
    members = [set(cl) for cl in fig2_instance.clauses]
    for p in range(1, fig2_instance.m + 1):
        vals = {f.value(Coord(p, q)) for q in members[p - 1]}
        assert vals == {2, 3}


def test_sat_equivalence_near_the_nae_threshold():
    # ten seeds at each of three sizes with about 2.1 clauses per variable,
    # where gen_nae gives unsatisfiable instances as well as satisfiable ones
    answers = []
    for n, m in [(10, 21), (12, 25), (14, 29)]:
        for seed in range(10):
            inst = gen_nae(n, m, seed)
            a = nae_brute_force(inst)
            g = reduce_instance(inst)
            f = solve(g)
            assert (f is None) == (a is None), (n, m, seed)
            if a is not None:
                assert nae_check(inst, extract_assignment(inst, f))
                assert verify(g, lift_assignment(inst, a)) == []
            answers.append(a is not None)
    assert True in answers and False in answers


def test_the_reduction_is_parsimonious():
    # the assignments read off the grid's solutions are the satisfying ones,
    # each once.  NAE solutions come in complementary pairs, so this does not
    # make Zeiger ASP-complete.  Every instance for n <= 4, 200 of the 958 for
    # n = 5, and gen_nae draws with a repeated clause
    repeated = [gen_nae(n, m, s) for n, m in [(4, 5), (5, 6), (6, 8)] for s in range(6)]
    repeated = [inst for inst in repeated if len(set(inst.clauses)) < inst.m]
    assert len(repeated) >= 10
    sample = random.Random(5).sample(triple_sets(5), 200)
    for inst in triple_sets(3) + triple_sets(4) + sample + repeated:
        solutions = enumerate_solutions(reduce_instance(inst), cap=2 ** inst.n + 1)
        satisfying = [a for a in itertools.product((False, True), repeat=inst.n)
                      if nae_check(inst, a)]
        assert sorted(extract_assignment(inst, f) for f in solutions) == satisfying, inst
