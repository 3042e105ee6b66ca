import os
import random

import numpy as np
import pytest
from scipy import stats as sps

from zeiger.audit import AuditError, audit_zk, chi2_sf, reveal_histograms, two_sample_p, uniform_p
from zeiger.grid import Filling, GridError, parse_grid
from zeiger import audit
from zeiger.cards import MARKER
from zeiger.protocol import ProverBehavior, run_protocol
from zeiger.simulator import simulate_transcript, structure


def test_simulator_structure_matches_real_run(fig1_grid, fig1_solution):
    _, real, _ = run_protocol(fig1_grid, ProverBehavior.honest(fig1_solution), seed=11)
    sim = simulate_transcript(fig1_grid, seed=999)
    assert structure(real) == structure(sim)


def test_simulator_structure_for_degenerate_sightlines():
    g = parse_grid("R. L.\nR. L.")
    f = Filling([[1, 1], [1, 1]])
    _, real, _ = run_protocol(g, ProverBehavior.honest(f), seed=0)
    sim = simulate_transcript(g, seed=0)
    assert structure(real) == structure(sim)


def test_simulator_deterministic(fig1_grid):
    a = simulate_transcript(fig1_grid, seed=4)
    b = simulate_transcript(fig1_grid, seed=4)
    assert a.events == b.events


def test_reveal_histograms_sites(fig1_grid, fig1_solution):
    _, t, _ = run_protocol(fig1_grid, ProverBehavior.honest(fig1_solution), seed=2)
    hists = {}
    reveal_histograms(fig1_grid, t, hists)
    b = fig1_grid.max_value + 1
    assert set(hists) == {
        ("copy", b),
        ("setsize", b),
        ("compare", b + 1),
        *{("sum", i + 1) for i in range(2, b + 1)},
    }
    # one copy reveal per cell and per sightline cell: sum(t_c) + 25 = 102
    assert sum(hists[("copy", b)]) == 102
    assert sum(hists[("compare", b + 1)]) == 25


def test_compare_counts_only_first_row(fig1_grid):
    hists = {}
    reveal_histograms(fig1_grid, simulate_transcript(fig1_grid, seed=1), hists)
    assert sum(hists[("compare", 6)]) == 25


def test_normalize_shift_equals_revealed_position(fig1_grid, fig1_solution):
    _, t, _ = run_protocol(fig1_grid, ProverBehavior.honest(fig1_solution), seed=3)
    events = t.events
    for i, ev in enumerate(events):
        if ev["ev"] == "normalize":
            prev = events[i - 1]
            assert prev["ev"] == "reveal"
            assert prev["faces"].index(MARKER[prev["site"]]) == ev["shift"]


def test_real_reveal_positions_uniform_many_runs(fig1_grid, fig1_solution):
    total = {}
    for i in range(60):
        _, t, _ = run_protocol(fig1_grid, ProverBehavior.honest(fig1_solution), seed=5000 + i)
        reveal_histograms(fig1_grid, t, total)
    for key, counts in total.items():
        assert sps.chisquare(counts).pvalue >= 0.001, key


def test_audit_requires_enough_trials(fig1_grid, fig1_solution):
    with pytest.raises(AuditError, match="at least"):
        audit_zk(fig1_grid, fig1_solution, trials=10, alpha=0.001)


def extra_event(t):
    t.events.insert(-1, {"ev": "normalize", "shift": 0})


def verdict_to_normalize(t):
    t.events[-1] = {"ev": "normalize", "shift": 0}


DEVIATIONS = pytest.mark.parametrize(
    "target, deviate",
    [("simulate_transcript", extra_event), ("run_protocol", extra_event),
     ("simulate_transcript", verdict_to_normalize)],
    ids=["simulated-extra-event", "real-extra-event", "simulated-verdict-to-normalize"],
)


@DEVIATIONS
def test_audit_checks_structure_of_every_trial(target, deviate, fig1_grid, fig1_solution, monkeypatch):
    # run serially, the audit stops at trial 1, whose real run or simulated
    # transcript deviates from the schedule
    calls, original = [], getattr(audit, target)

    def deviating(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(result)
        if len(calls) == 2:
            deviate(result[1] if target == "run_protocol" else result)
        return result

    monkeypatch.setattr(audit, "_cpus", lambda: 1)
    monkeypatch.setattr(audit, target, deviating)
    with pytest.raises(AuditError, match="structure differs"):
        audit_zk(fig1_grid, fig1_solution, trials=1000, alpha=0.001)
    assert len(calls) == 2


@pytest.mark.parametrize("position", ["first", "middle", "last"])
@DEVIATIONS
def test_audit_checks_structure_in_every_span(target, deviate, position, fig1_grid, fig1_solution,
                                              monkeypatch):
    # over three spans of 12 trials ([0, 4), [4, 8), [8, 12)), the first,
    # a mid-span and the last trial deviate, chosen by its seed
    trials = 12
    bad = {"first": 0, "middle": trials // 2, "last": trials - 1}[position]
    original = getattr(audit, target)

    def deviating(g, *args, seed):
        result = original(g, *args, seed=seed)
        if seed == bad:
            deviate(result[1] if target == "run_protocol" else result)
        return result

    monkeypatch.setattr(audit, "_cpus", lambda: 3)
    monkeypatch.setattr(audit, "MIN_TRIALS", trials)
    monkeypatch.setattr(audit, target, deviating)
    with pytest.raises(AuditError, match="structure differs"):
        audit_zk(fig1_grid, fig1_solution, trials=trials, alpha=0.001)


def test_pooled_audit_equals_the_serial_one(monkeypatch):
    # 1000 trials over 3 CPUs split 333/333/334
    g, f = parse_grid("D. D.\nU. U.\n"), Filling([[1, 1], [1, 1]])
    reports = []
    for cpus in (1, 3):
        monkeypatch.setattr(audit, "_cpus", lambda: cpus)
        reports.append(audit_zk(g, f, 1000, 0.001, seed=4))
    assert reports[0] == reports[1]


def test_a_child_that_dies_is_reported_and_reaped(fig1_grid, fig1_solution, monkeypatch):
    original = audit.run_protocol

    def dying(g, behavior, seed):
        if seed == 6:
            os._exit(3)
        return original(g, behavior, seed=seed)

    monkeypatch.setattr(audit, "_cpus", lambda: 3)
    monkeypatch.setattr(audit, "MIN_TRIALS", 12)
    monkeypatch.setattr(audit, "run_protocol", dying)
    with pytest.raises(AuditError, match=r"^the child running trials 4-7 gave no result "
                                         r"\(exit status 3\)$"):
        audit_zk(fig1_grid, fig1_solution, trials=12, alpha=0.001)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_the_lowest_failing_spans_exception_reaches_the_caller(fig1_grid, fig1_solution, monkeypatch):
    # trials 5 and 9 fail, in the second and the third of three spans
    original = audit.run_protocol

    def failing(g, behavior, seed):
        if seed in (5, 9):
            raise GridError(f"trial {seed}")
        return original(g, behavior, seed=seed)

    monkeypatch.setattr(audit, "_cpus", lambda: 3)
    monkeypatch.setattr(audit, "MIN_TRIALS", 12)
    monkeypatch.setattr(audit, "run_protocol", failing)
    with pytest.raises(GridError, match="^trial 5$"):
        audit_zk(fig1_grid, fig1_solution, trials=12, alpha=0.001)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_audit_report_shape(fig1_audit_report):
    report = fig1_audit_report
    assert report["pass"] is True
    sites = {s["site"] for s in report["sites"]}
    assert sites == {"copy", "setsize", "sum", "compare"}
    for s in report["sites"]:
        assert s["samples_real"] == s["samples_sim"]
        assert sum(s["real_counts"]) == s["samples_real"]


def test_audit_counts_are_pinned(fig1_audit_report):
    # every site's counts at seed 10, 2000 trials: any change to how the
    # audit walks, bins or seeds its trials must reproduce them exactly
    counts = {(s["site"], s["columns"]): (s["real_counts"], s["sim_counts"])
              for s in fig1_audit_report["sites"]}
    assert counts == {
        ("compare", 6): ([8366, 8278, 8349, 8259, 8338, 8410], [8229, 8502, 8280, 8182, 8418, 8389]),
        ("copy", 5): ([40864, 40613, 40491, 41112, 40920], [40842, 40951, 40810, 40512, 40885]),
        ("setsize", 5): ([20716, 20847, 20536, 20954, 20947], [20702, 20902, 20591, 20932, 20873]),
        ("sum", 3): ([16638, 16647, 16715], [16768, 16647, 16585]),
        ("sum", 4): ([12367, 12674, 12491, 12468], [12523, 12607, 12359, 12511]),
        ("sum", 5): ([10097, 9892, 9940, 10107, 9964], [10046, 10053, 9984, 9941, 9976]),
        ("sum", 6): ([8439, 8352, 8197, 8175, 8499, 8338], [8190, 8368, 8298, 8358, 8423, 8363]),
    }


def test_audit_checks_reveal_widths(fig1_grid, fig1_solution, monkeypatch):
    # a simulator whose copy reveals are one column too wide must be caught
    # by the structure check, before any per-site histogram is compared
    def widened(g, seed):
        t = simulate_transcript(g, seed)
        for ev in t.events:
            if ev.get("site") == "copy":
                ev["faces"] = ev["faces"] + ["CH"]
        return t

    monkeypatch.setattr(audit, "simulate_transcript", widened)
    monkeypatch.setattr(audit, "MIN_TRIALS", 1)
    with pytest.raises(AuditError, match="structure differs"):
        audit_zk(fig1_grid, fig1_solution, trials=1, alpha=0.001)


def test_audit_refuses_sites_under_five_per_column(fig1_grid, fig1_solution, monkeypatch):
    # one trial gives the comparing site 25 samples over 6 columns
    monkeypatch.setattr(audit, "MIN_TRIALS", 1)
    with pytest.raises(AuditError, match="site compare with 6 columns has 25 samples"):
        audit_zk(fig1_grid, fig1_solution, trials=1, alpha=0.001)


# scipy is the reference for the audit's stdlib p-values: equal within 1e-10
# relative wherever scipy's value is at least 1e-300

def assert_close(got, ref, what):
    if ref >= 1e-300:
        assert abs(got - ref) <= 1e-10 * ref, (what, got, ref)


def test_chi2_sf_matches_scipy():
    for dof in range(1, 61):
        for x in (1e-9, 0.01, 0.5, 1, 3, dof / 2, dof, 2 * dof, 50, 100, 300, 700, 1000, 1400):
            assert_close(chi2_sf(x, dof), sps.chi2.sf(x, dof), (x, dof))
        assert chi2_sf(0, dof) == 1.0


def test_chi2_sf_of_a_huge_statistic_is_zero():
    for dof in (1, 2, 59, 60):
        assert chi2_sf(1e308, dof) == 0.0


def test_uniform_p_matches_scipy_chisquare():
    rng = random.Random(7)
    for _ in range(500):
        q = rng.randint(2, 12)
        counts = [rng.randint(0, 3000) for _ in range(q)]
        assert_close(uniform_p(counts), sps.chisquare(counts).pvalue, counts)
    assert uniform_p([40] * 5) == sps.chisquare([40] * 5).pvalue == 1.0


def test_two_sample_p_matches_scipy_chi2_contingency():
    # q = 2 has one degree of freedom, where both apply Yates' correction
    rng = random.Random(8)
    for _ in range(500):
        q = rng.choice([2, 2, 3, 5, 8, 12])
        table = [[rng.randint(1, 3000) for _ in range(q)] for _ in range(2)]
        ref = sps.chi2_contingency(np.array(table)).pvalue
        assert_close(two_sample_p(*table), ref, table)
    table = [[50, 51], [51, 50]]  # Yates' correction takes the statistic to 0
    assert two_sample_p(*table) == sps.chi2_contingency(table).pvalue == 1.0
