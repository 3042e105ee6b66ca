import subprocess
import sys
from pathlib import Path

import workloads
from zeiger import audit, grid, protocol, simulator, solver

BENCH = Path(workloads.__file__).resolve().parent


def test_family_seed_rule_is_deterministic():
    a = workloads.family_seeds(12, 20, sat=True, start=5, count=2)
    b = workloads.family_seeds(12, 20, sat=True, start=5, count=2)
    assert [r.seed for r in a] == [r.seed for r in b]
    assert [r.inst for r in a] == [r.inst for r in b]
    assert a[0].seed >= 5 and a[0].seed < a[1].seed
    assert all(r.inst.n == 12 and r.answer is not None for r in a)


def test_family_seed_rule_takes_the_first_matching_seeds():
    (rec,) = workloads.family_seeds(8, 24, sat=False, start=0, count=1)
    for s in range(rec.seed):
        skipped = workloads.family_seeds(8, 24, sat=False, start=s, count=1)[0]
        assert skipped.seed == rec.seed
    assert rec.answer is None


def test_cheat_is_rejected_where_it_is_first_copied():
    inputs = workloads.setup_audit(0)
    cheat, reject = workloads.cheat_cells(inputs.g)
    assert inputs.g.cell(cheat).given is None
    behavior = protocol.ProverBehavior.malformed(inputs.f, cheat)
    accept, t, _ = protocol.run_protocol(inputs.g, behavior, 11)
    assert not accept
    assert t.events[-1]["cell"] == [reject.row, reject.col]


def test_honest_run_matches_simulator_structure_and_closed_form():
    inputs = workloads.setup_audit(0)
    accept, t, stats = protocol.run_protocol(inputs.g, protocol.ProverBehavior.honest(inputs.f), 4)
    assert accept
    assert workloads.structure(t) == workloads.structure(simulator.simulate_transcript(inputs.g, 9))
    assert workloads.stats_key(stats) == inputs.expected


def test_hooks_restore_module_names():
    run, sim, search = audit.run_protocol, audit.simulate_transcript, solver._Search
    checker = workloads.AuditChecker(expected=())
    with checker.installed():
        assert audit.run_protocol is not run
    with workloads.searches() as created:
        assert solver.solve(grid.parse_grid(workloads.FIG1_PUZZLE)) is not None
    assert len(created) == 1 and created[0].nodes > 0
    assert (audit.run_protocol, audit.simulate_transcript, solver._Search) == (run, sim, search)


def test_refuses_to_run_without_the_sources(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for f in BENCH.glob("*.py"):
        (copy / f.name).write_text(f.read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit-fig1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_an_audit_error_is_a_failed_operation(monkeypatch):
    def refuse(*args, **kwargs):
        raise audit.AuditError("honest run rejected during audit")

    monkeypatch.setattr(audit, "audit_zk", refuse)
    audit_call, _ = workloads.audit_ops(workloads.setup_audit(0))
    r = audit_call(None)
    assert r.failures == ["audit raised: honest run rejected during audit"]
    assert r.counts["audit.sites"] == 0


def test_an_exhausted_solver_budget_is_a_failed_operation(monkeypatch):
    def give_up(g):
        raise solver.BudgetExhausted("exceeded 10 nodes")

    (rec,) = workloads.family_seeds(8, 24, sat=False, start=0, count=1)
    monkeypatch.setattr(solver, "solve", give_up)
    op = workloads._solve_op(rec, None, "secondary", "unsat")
    assert op(None).failures == [f"unsat:{rec.seed}: solver gave up: exceeded 10 nodes"]
