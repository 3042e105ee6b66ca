import itertools
import random

import pytest

from zeiger.nae import (
    NaeError,
    NaeInstance,
    gen_nae,
    nae_brute_force,
    nae_check,
    parse_assignment,
    parse_nae,
    serialize_assignment,
    serialize_nae,
)

from .conftest import triple_sets

FIG2_TEXT = "nae3sat+ 5 4\n1 2 3\n2 3 5\n1 4 5\n2 4 5\n"


def test_parse_fig2(fig2_instance):
    inst, remap = parse_nae(FIG2_TEXT)
    assert inst == fig2_instance
    assert inst.n == 5 and inst.m == 4
    assert inst.clauses[0] == (1, 2, 3)
    assert remap == {i: i for i in range(1, 6)}


def test_roundtrip(fig2_instance):
    inst, _ = parse_nae(serialize_nae(fig2_instance))
    assert inst == fig2_instance


def test_repeated_variable_rejected():
    with pytest.raises(NaeError, match="repeated variable"):
        parse_nae("nae3sat+ 3 1\n1 1 2")


@pytest.mark.parametrize("clause", [(1, 2), (1, 2, 3, 4)])
def test_clause_of_wrong_arity_names_its_arity(clause):
    with pytest.raises(NaeError, match=rf"has {len(clause)} variables, expected 3"):
        NaeInstance(4, (clause,))


def test_index_out_of_range():
    with pytest.raises(NaeError, match="out of range"):
        parse_nae("nae3sat+ 3 1\n1 2 9")


def test_clause_count_mismatch():
    with pytest.raises(NaeError, match="clauses"):
        parse_nae("nae3sat+ 3 2\n1 2 3")


def test_unused_variables_removed_with_remap():
    inst, remap = parse_nae("nae3sat+ 6 1\n1 2 3")
    assert inst.n == 3
    assert remap == {1: 1, 2: 2, 3: 3}
    inst2, remap2 = parse_nae("nae3sat+ 6 1\n2 4 6")
    assert inst2.n == 3
    assert remap2 == {2: 1, 4: 2, 6: 3}
    assert inst2.clauses == ((1, 2, 3),)


def test_nae_check_fig2(fig2_instance):
    assert nae_check(fig2_instance, (True, False, True, True, False))
    assert not nae_check(fig2_instance, (True,) * 5)
    # C1 = x1 v x2 v x3 all true
    assert not nae_check(fig2_instance, (True, True, True, True, False))


def test_all_equal_always_fails(fig2_instance):
    assert not nae_check(fig2_instance, (False,) * 5)


def test_brute_force_fig2_satisfiable(fig2_instance):
    a = nae_brute_force(fig2_instance)
    assert a is not None
    assert nae_check(fig2_instance, a)


def test_brute_force_first_hit_order():
    inst = NaeInstance(3, ((1, 2, 3),))
    assert nae_brute_force(inst) == (False, False, True)


def test_brute_force_unsat_instance():
    # the complete set of triples over 5 variables is NAE-unsatisfiable
    inst = NaeInstance(5, tuple(itertools.combinations(range(1, 6), 3)))
    assert nae_brute_force(inst) is None
    for bits in itertools.product((False, True), repeat=inst.n):
        assert not nae_check(inst, bits)


def first_nae(inst):
    """The oracle's definition: the first assignment, False before True, that
    satisfies the instance."""
    return next((a for a in itertools.product((False, True), repeat=inst.n)
                 if nae_check(inst, a)), None)


def test_brute_force_is_its_definition():
    rng = random.Random(11)
    sample = [gen_nae(n, rng.randint(1, 3 * n), rng.getrandbits(32))
              for n in range(3, 13) for _ in range(8)]
    # the sample holds unsat instances and instances with a repeated clause
    assert any(first_nae(inst) is None for inst in sample)
    assert any(len(set(inst.clauses)) < inst.m for inst in sample)
    small = triple_sets(3) + triple_sets(4)
    assert len(small) == 1 + 11
    for inst in small + sample:
        assert nae_brute_force(inst) == first_nae(inst), inst


def test_brute_force_guard():
    big = NaeInstance(25, tuple((i, i + 1, i + 2) for i in range(1, 24)))
    with pytest.raises(NaeError, match="too large"):
        nae_brute_force(big)


def test_gen_nae_normalized_and_deterministic():
    a = gen_nae(5, 4, seed=9)
    b = gen_nae(5, 4, seed=9)
    assert a == b
    used = {v for cl in a.clauses for v in cl}
    assert used == set(range(1, a.n + 1))


def test_gen_nae_single_clause():
    inst = gen_nae(3, 1, seed=0)
    assert inst.clauses == ((1, 2, 3),)


def test_gen_nae_infeasible_params():
    with pytest.raises(NaeError):
        gen_nae(2, 1, seed=0)


def test_assignment_roundtrip():
    a = (True, False, True)
    assert parse_assignment(serialize_assignment(a)) == a
    with pytest.raises(NaeError):
        parse_assignment("T\nX\n")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: NaeInstance(3, ((1, 2, 2),)), r"repeated variable in clause \(1, 2, 2\)"),
        (lambda: NaeInstance(3, ((1, 2, 4),)), r"variable index 4 out of range \[1,3\]"),
        (lambda: NaeInstance(4, ((1, 2, 3),)), r"unused variables \[4\]; normalize first"),
        (lambda: parse_nae("\n\n"), "empty instance file"),
        (lambda: parse_nae("nae3sat+ 5 0\n"), "instance has no clauses"),
        (lambda: parse_nae("nae3sat 3 1\n1 2 3"), "bad header 'nae3sat 3 1'"),
        (lambda: parse_nae("nae3sat+ 3 one\n1 2 3"), "bad header 'nae3sat\\+ 3 one'"),
        (lambda: parse_nae("nae3sat+ 4 1\n1 2 3 4"), "clause '1 2 3 4' must have 3 variables"),
        (lambda: parse_assignment("\n \n"), "empty assignment file"),
        (lambda: gen_nae(25, 1, seed=0), "n must be <= 24"),
        (lambda: gen_nae(3, 0, seed=0), "need m >= 1"),
        # int() reads each of these, but a count or variable is ASCII digits only
        (lambda: parse_nae("nae3sat+ +3 1\n1 2 3"), r"bad header 'nae3sat\+ \+3 1'"),
        (lambda: parse_nae("nae3sat+ 10 1\n1 2 1_0"), "clause '1 2 1_0' must hold integer variables"),
        (lambda: parse_nae("nae3sat+ 3 1\n1 2 \u0663"),
         "clause '1 2 \u0663' must hold integer variables"),
        (lambda: parse_nae("nae3sat+ 3 1\n1 2 \uff13"),
         "clause '1 2 \uff13' must hold integer variables"),
    ],
    ids=["repeated", "out-of-range", "unused", "empty-file", "no-clauses", "header-word", "header-count",
         "four-variables", "empty-assignment", "gen-too-many-vars", "gen-no-clauses",
         "header-plus-sign", "clause-underscore", "clause-arabic-indic-digit",
         "clause-fullwidth-digit"],
)
def test_malformed_input_raises(build, message):
    with pytest.raises(NaeError, match=f"^{message}$"):
        build()
