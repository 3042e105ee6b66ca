import os
import random

import pytest
from scipy import stats as sps

from zeiger.audit import (AuditError, audit_zk, check_transcript, chi2_sf, reveal_histograms,
                          two_sample_p, uniform_p)
from zeiger.grid import Filling, GridError, parse_grid
from zeiger import audit
from zeiger.cards import Transcript
from zeiger.protocol import ProverBehavior, run_protocol
from zeiger.simulator import simulate_transcript, structure

from .conftest import solved


def test_simulator_structure_for_degenerate_sightlines():
    g, f = solved("R. L./R. L.")
    _, real, _ = run_protocol(g, ProverBehavior.honest(f), seed=0)
    sim = simulate_transcript(g, seed=0)
    assert structure(real) == structure(sim)


def test_reveal_histograms_sites(fig1_grid, fig1_solution):
    _, t, _ = run_protocol(fig1_grid, ProverBehavior.honest(fig1_solution), seed=2)
    hists = {}
    reveal_histograms(check_transcript(fig1_grid, t), hists)
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
    reveal_histograms(check_transcript(fig1_grid, simulate_transcript(fig1_grid, seed=1)), hists)
    assert sum(hists[("compare", 6)]) == 25


@pytest.mark.parametrize("marks, found", [(0, 0), (2, 2)])
def test_audit_checks_each_counted_reveals_format(fig1_grid, marks, found):
    # a copy reveal with no marker, or a second one, keeps its width and so
    # its shape; the audit's format check refuses it
    t = simulate_transcript(fig1_grid, seed=1)
    n, ev = next((n, ev) for n, ev in enumerate(t.events, 1) if ev["ev"] == "reveal")
    ev["faces"] = ["CH"] * len(ev["faces"])
    ev["faces"][:marks] = ["HC"] * marks
    with pytest.raises(AuditError, match=rf"^event {n}: malformed copy reveal: "
                                         rf"expected exactly one 'HC' column, found {found}$"):
        check_transcript(fig1_grid, t)


def first(t: Transcript, **fields):
    """The number (from 1) of ``t``'s first event holding ``fields``, and it."""
    return next((n, ev) for n, ev in enumerate(t.events, 1) if fields.items() <= ev.items())


def test_a_second_compare_row_with_two_clubs_is_malformed(fig1_grid):
    t = simulate_transcript(fig1_grid, seed=1)
    seconds = [ev for ev in t.events if ev.get("site") == "compare" and ev["row"] == 1]
    assert len(seconds) == 25
    for ev in seconds:
        ev["faces"] = ["C", "C", "H", "H", "C", "H"]
    n, _ = first(t, site="compare", row=1)
    with pytest.raises(AuditError, match=rf"^event {n}: malformed compare reveal: "
                                         rf"expected exactly one 'C' column, found 3$"):
        audit.check_transcript(fig1_grid, t)


def test_a_second_compare_row_must_show_the_first_rows_position(fig1_grid):
    # well formed, but its club one column right of the first row's
    t = simulate_transcript(fig1_grid, seed=1)
    n, ev = first(t, site="compare", row=1)
    pos = ev["faces"].index("C")
    ev["faces"] = ev["faces"][-1:] + ev["faces"][:-1]
    with pytest.raises(AuditError, match=rf"^event {n}: second compare row shows position "
                                         rf"{(pos + 1) % 6}, not the first row's {pos}$"):
        audit.check_transcript(fig1_grid, t)


@pytest.mark.parametrize("earlier", ["rule", "shape"])
def test_of_two_broken_cells_the_earlier_is_refused(fig1_grid, earlier):
    # one cell's second compare row shows another position, and another
    # cell's has lost its site; each cell's check holds one compare pair
    t = simulate_transcript(fig1_grid, seed=1)
    seconds = [n for n, ev in enumerate(t.events) if ev.get("site") == "compare" and ev["row"] == 1]
    rule, shape = (seconds[1], seconds[-1]) if earlier == "rule" else (seconds[-1], seconds[1])
    faces = t.events[rule]["faces"]
    t.events[rule]["faces"] = faces[-1:] + faces[:-1]
    del t.events[shape]["site"]
    match = (rf"^event {rule + 1}: second compare row shows position \d, not the first row's \d$"
             if earlier == "rule" else "^event structure differs from the grid's schedule$")
    with pytest.raises(AuditError, match=match):
        audit.check_transcript(fig1_grid, t)


def test_an_event_without_its_kind_differs_from_the_schedule(fig1_grid):
    t = simulate_transcript(fig1_grid, seed=1)
    del t.events[10]["ev"]
    with pytest.raises(AuditError, match="^event structure differs from the grid's schedule$"):
        audit.check_transcript(fig1_grid, t)


@pytest.mark.parametrize("event", [[1, 2], None, "shuffle"], ids=["list", "none", "str"])
def test_an_event_that_is_not_a_dict_differs_from_the_schedule(fig1_grid, event):
    # only an in-memory transcript holds one: from_json_lines refuses such a line
    t = simulate_transcript(fig1_grid, seed=1)
    t.events[3] = event
    with pytest.raises(AuditError, match="^event structure differs from the grid's schedule$"):
        audit.check_transcript(fig1_grid, t)


# a value of the wrong type is refused as it lies in memory and as JSON reads it back
READS = pytest.mark.parametrize(
    "read", [lambda t: t, lambda t: Transcript.from_json_lines(t.to_json_lines())],
    ids=["in-memory", "json"])


@READS
def test_faces_that_are_not_a_list_are_malformed(fig1_grid, read):
    # a string of the row's one-card stacks has the row's width and one heart
    t = simulate_transcript(fig1_grid, seed=1)
    n, ev = first(t, site="sum")
    ev["faces"] = "".join(ev["faces"])
    with pytest.raises(AuditError, match=rf"^event {n}: malformed sum reveal: "
                                         rf"expected a list of stacks, got a str$"):
        audit.check_transcript(fig1_grid, read(t))


@READS
@pytest.mark.parametrize("faces", [5, None, True, 2.5])
def test_faces_with_no_length_differ_from_the_schedule(fig1_grid, faces, read):
    t = simulate_transcript(fig1_grid, seed=1)
    _, ev = first(t, site="copy")
    ev["faces"] = faces
    with pytest.raises(AuditError, match="^event structure differs from the grid's schedule$"):
        audit.check_transcript(fig1_grid, read(t))


@READS
@pytest.mark.parametrize("shift", [True, 4.0])
def test_a_shift_that_is_not_an_int_is_refused(fig1_grid, shift, read):
    # each compares equal to the position it stands for
    t = simulate_transcript(fig1_grid, seed=1)
    n, ev = first(t, ev="normalize", shift=int(shift))
    ev["shift"] = shift
    with pytest.raises(AuditError, match=rf"^event {n}: normalize shifts by {shift!r}, not by the "
                                         rf"marker position {int(shift)} revealed just before it$"):
        audit.check_transcript(fig1_grid, read(t))


@READS
@pytest.mark.parametrize("fields, value", [
    ({"site": "compare", "row": 1}, True),
    ({"ev": "shuffle", "rows": 3}, 3.0),
    ({"ev": "shuffle", "cols": 5}, 5.0),
    ({"ev": "verdict", "accept": True}, 1),
], ids=["second-compare-row", "shuffle-rows", "shuffle-cols", "verdict-accept"])
def test_a_value_that_only_compares_equal_is_refused(fig1_grid, fields, value, read):
    # each stands for the field's value, yet is of another type
    t = simulate_transcript(fig1_grid, seed=1)
    _, ev = first(t, **fields)
    key = list(fields)[-1]
    ev[key] = value
    assert ev[key] == fields[key]
    with pytest.raises(AuditError, match="^event structure differs from the grid's schedule$"):
        audit.check_transcript(fig1_grid, read(t))


def test_real_reveal_positions_uniform_many_runs(fig1_grid, fig1_solution):
    total = {}
    for i in range(60):
        _, t, _ = run_protocol(fig1_grid, ProverBehavior.honest(fig1_solution), seed=5000 + i)
        reveal_histograms(check_transcript(fig1_grid, t), total)
    for key, counts in total.items():
        assert sps.chisquare(counts).pvalue >= 0.001, key


def test_audit_requires_enough_trials(fig1_grid, fig1_solution):
    with pytest.raises(AuditError, match="at least"):
        audit_zk(fig1_grid, fig1_solution, trials=10, alpha=0.001)


@pytest.mark.parametrize("trials, alpha, seed, message", [
    (1000.0, 0.001, 0, "trials must be an int, got 1000.0"),
    (True, 0.001, 0, "trials must be an int, got True"),
    (1000, "0.1", 0, r"alpha must lie in \(0, 1\), got '0.1'"),
    (1000, 0.001, "x", "seed must be an int, got 'x'"),
    (1000, 0.001, 1.5, "seed must be an int, got 1.5"),
    (1000, 0.001, False, "seed must be an int, got False"),
], ids=["trials-float", "trials-bool", "alpha-str", "seed-str", "seed-float", "seed-bool"])
def test_audit_checks_argument_types_before_any_trial(trials, alpha, seed, message, fig1_grid,
                                                      fig1_solution, monkeypatch):
    calls = []

    def run_protocol(*args, **kwargs):
        calls.append(args)
        raise RuntimeError("a trial ran")

    # serial, so every trial that runs is counted here
    monkeypatch.setattr(audit, "_cpus", lambda: 1)
    monkeypatch.setattr(audit, "run_protocol", run_protocol)
    with pytest.raises(AuditError, match=f"^{message}$"):
        audit_zk(fig1_grid, fig1_solution, trials, alpha, seed)
    assert calls == []


def extra_event(t):
    """A real run's deviation: an event past its schedule, before the verdict."""
    t.events.insert(-1, {"ev": "normalize", "shift": 0})


def test_audit_checks_structure_of_every_trial(fig1_grid, fig1_solution, monkeypatch):
    # run serially, the audit stops at trial 1, whose real run deviates from
    # the schedule
    calls, original = [], audit.run_protocol

    def deviating(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(result)
        if len(calls) == 2:
            extra_event(result[1])
        return result

    monkeypatch.setattr(audit, "_cpus", lambda: 1)
    monkeypatch.setattr(audit, "run_protocol", deviating)
    with pytest.raises(AuditError, match="structure differs"):
        audit_zk(fig1_grid, fig1_solution, trials=1000, alpha=0.001)
    assert len(calls) == 2


@pytest.mark.parametrize("position", ["first", "middle", "last"])
def test_audit_checks_structure_in_every_span(position, fig1_grid, fig1_solution, monkeypatch):
    # over three spans of 12 trials ([0, 4), [4, 8), [8, 12)), the first,
    # a mid-span and the last trial deviate, chosen by its seed
    trials = 12
    bad = {"first": 0, "middle": trials // 2, "last": trials - 1}[position]
    original = audit.run_protocol

    def deviating(g, behavior, seed):
        result = original(g, behavior, seed=seed)
        if seed == bad:
            extra_event(result[1])
        return result

    monkeypatch.setattr(audit, "_cpus", lambda: 3)
    monkeypatch.setattr(audit, "MIN_TRIALS", trials)
    monkeypatch.setattr(audit, "run_protocol", deviating)
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


def test_a_dead_child_or_a_failed_fork_gives_the_serial_report(fig1_grid, fig1_solution,
                                                              monkeypatch):
    # over three spans of 12 trials, the second span's child dies at trial 6
    # and the third span's fork fails: both spans run again in this process
    test_pid, original, fork = os.getpid(), audit.run_protocol, os.fork
    forks = []

    def dying(g, behavior, seed):
        if seed == 6 and os.getpid() != test_pid:
            os._exit(3)
        return original(g, behavior, seed=seed)

    def failing_third_fork():
        forks.append(None)
        if len(forks) == 3:
            raise BlockingIOError("fork refused")
        return fork()

    monkeypatch.setattr(audit, "MIN_TRIALS", 12)
    monkeypatch.setattr(audit, "_cpus", lambda: 1)
    expected = audit_zk(fig1_grid, fig1_solution, 12, 0.001)
    monkeypatch.setattr(audit, "_cpus", lambda: 3)
    monkeypatch.setattr(audit, "run_protocol", dying)
    monkeypatch.setattr(os, "fork", failing_third_fork)
    assert audit_zk(fig1_grid, fig1_solution, 12, 0.001) == expected
    assert len(forks) == 3
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("name", ["fork", "sched_getaffinity"])
def test_a_process_that_cannot_fork_counts_one_cpu(name, monkeypatch):
    monkeypatch.delattr(os, name)
    assert audit._cpus() == 1


def test_without_fork_the_audit_is_the_serial_one(fig1_grid, fig1_solution, monkeypatch):
    monkeypatch.setattr(audit, "MIN_TRIALS", 12)
    with monkeypatch.context() as serial:
        serial.setattr(audit, "_cpus", lambda: 1)
        expected = audit_zk(fig1_grid, fig1_solution, 12, 0.001)
    monkeypatch.delattr(os, "fork")
    assert audit_zk(fig1_grid, fig1_solution, 12, 0.001) == expected


class TwoArgError(Exception):
    def __init__(self, trial, reason):
        super().__init__(f"trial {trial}: {reason}")
        self.trial, self.reason = trial, reason


class UnpicklableError(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.describe = lambda: message


@pytest.mark.parametrize("make", [lambda: TwoArgError(5, "refused"),
                                  lambda: UnpicklableError("trial 5: refused")],
                         ids=["two-argument", "unpicklable"])
def test_an_exception_that_cannot_cross_a_pipe_reaches_the_caller_unchanged(
        make, fig1_grid, fig1_solution, monkeypatch):
    # trial 5 fails, in the second of three spans; neither exception survives
    # pickling whole, and the caller sees the one the serial run raises
    original = audit.run_protocol

    def failing(g, behavior, seed):
        if seed == 5:
            raise make()
        return original(g, behavior, seed=seed)

    monkeypatch.setattr(audit, "_cpus", lambda: 3)
    monkeypatch.setattr(audit, "MIN_TRIALS", 12)
    monkeypatch.setattr(audit, "run_protocol", failing)
    with pytest.raises(type(make()), match="^trial 5: refused$") as raised:
        audit_zk(fig1_grid, fig1_solution, trials=12, alpha=0.001)
    assert vars(raised.value).keys() == vars(make()).keys()
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
        ref = sps.chi2_contingency(table).pvalue
        assert_close(two_sample_p(*table), ref, table)
    table = [[50, 51], [51, 50]]  # Yates' correction takes the statistic to 0
    assert two_sample_p(*table) == sps.chi2_contingency(table).pvalue == 1.0
