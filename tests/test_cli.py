import json
import os
import subprocess
import sys

import pytest

from zeiger.audit import audit_zk
from zeiger.cli import main
from zeiger.grid import Coord, parse_filling, parse_grid, serialize_filling

from .conftest import FIXTURES, solved, with_value

SRC = FIXTURES.parent.parent / "src"

FIG1 = str(FIXTURES / "fig1.puzzle")
FIG1_SOL = str(FIXTURES / "fig1.solution")
FIG2 = str(FIXTURES / "fig2.nae")
# every cell sees the one other cell of its column: all ones solve it
TWO_BY_TWO = "D. D.\nU. U.\n"


def fig1_with(tmp_path, cell, v) -> str:
    """The path of a file holding fig1's solution with ``cell`` set to ``v``."""
    bad = tmp_path / "bad.solution"
    bad.write_text(serialize_filling(with_value(solved("fig1")[1], cell, v)))
    return str(bad)


def test_solve_fig1(tmp_path, capsys):
    out = tmp_path / "out.solution"
    assert main(["solve", FIG1, "-o", str(out)]) == 0
    assert out.read_text() == (FIXTURES / "fig1.solution").read_text()


def test_solve_unsatisfiable(tmp_path, capsys):
    # each row forces distinct{1,1} = 2: impossible
    grid = tmp_path / "bad.puzzle"
    grid.write_text("R2 R. L1\nR2 R. L1\nR2 R. L1\n")
    assert main(["solve", str(grid)]) == 1
    assert "unsatisfiable" in capsys.readouterr().out


def test_solve_grid_deeper_than_the_recursion_limit(tmp_path, capsys):
    # 1024 unnumbered cells, one search level each: more than Python's
    # default recursion limit of 1000
    grid = tmp_path / "big.puzzle"
    grid.write_text(("R. " * 31 + "L.\n") * 32)
    out = tmp_path / "big.solution"
    assert main(["solve", str(grid), "-o", str(out)]) == 0
    assert main(["verify", str(grid), str(out)]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_solve_garbage_file(tmp_path):
    p = tmp_path / "garbage.puzzle"
    p.write_text("not a grid at all\n")
    assert main(["solve", str(p)]) == 2


def test_solve_enumerate_cap(tmp_path, capsys):
    out = tmp_path / "out.solution"
    assert main(["solve", FIG1, "--enumerate-cap", "2", "-o", str(out)]) == 0
    assert "1 solution(s)" in capsys.readouterr().out


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_solve_enumerate_cap_below_one_exits_2(cap, capsys):
    assert main(["solve", FIG1, "--enumerate-cap", cap]) == 2
    assert f"--enumerate-cap must be at least 1, got {cap}" in capsys.readouterr().err


def python(*args, cwd=None):
    """A subprocess ``python -S``: -S leaves site-packages off sys.path, so
    numpy and scipy cannot be found."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-S", *args], env=env, cwd=cwd, capture_output=True, text=True
    )


def test_runs_on_the_standard_library_alone():
    code = "import sys, zeiger.cli; print(sorted({'numpy', 'scipy'} & set(sys.modules)))"
    imported = python("-c", code)
    assert (imported.returncode, imported.stdout) == (0, "[]\n"), imported.stderr
    for args in (["zkp", "run", "--grid", FIG1, "--solution", FIG1_SOL], ["solve", FIG1]):
        run = python("-m", "zeiger.cli", *args)
        assert run.returncode == 0, (args, run.stderr)


def fig1_solve_verify(zeiger, d, _):
    # the paper's Figure 1 has arrows in all four directions and one solution
    zeiger("solve", FIG1, "-o", "f1.solution")
    assert (d / "f1.solution").read_bytes() == (FIXTURES / "fig1.solution").read_bytes()
    assert zeiger("solve", FIG1, "--enumerate-cap", "2", "-o", "f1.solution") == "1 solution(s) found (cap 2)\n"
    zeiger("verify", FIG1, "f1.solution")


def reduced(zeiger, spec):
    zeiger("gen-nae", *spec.split(), "-o", "r.nae")
    zeiger("reduce", "r.nae", "-o", "r.puzzle")


def stats_equal_a_run(zeiger, d, spec):
    # the closed form equals a measured run, on fig1 or on a reduced grid
    grid, solution = FIG1, FIG1_SOL
    if spec:
        reduced(zeiger, spec)
        grid, solution = "r.puzzle", "r.solution"
        zeiger("solve", grid, "-o", solution)
    zeiger("stats", grid, "-o", "closed.json")
    zeiger("zkp", "run", "--grid", grid, "--solution", solution, "--stats", "measured.json")
    assert (d / "closed.json").read_bytes() == (d / "measured.json").read_bytes()


def unsat(zeiger, d, spec):
    reduced(zeiger, spec)
    assert "unsatisfiable" in zeiger("solve", "r.puzzle", code=1).splitlines()


def sat(zeiger, d, spec):
    reduced(zeiger, spec)
    zeiger("solve", "r.puzzle", "-o", "r.solution")
    zeiger("extract", "r.nae", "r.solution", "-o", "r.assignment")
    zeiger("nae-check", "r.nae", "r.assignment")


def audit_2x2(zeiger, d, _):
    (d / "g.puzzle").write_text(TWO_BY_TWO)
    (d / "ones.solution").write_text("1 1\n1 1\n")
    out = zeiger("zkp", "audit", "--grid", "g.puzzle", "--solution", "ones.solution",
                 "--trials", "1000")
    assert out.endswith("\npass\n")


def fig2_end_to_end(zeiger, d, _):
    zeiger("reduce", FIG2, "-o", "fig2.puzzle")
    assert (d / "fig2.puzzle").read_bytes() == (FIXTURES / "fig2.puzzle").read_bytes()
    zeiger("solve", "fig2.puzzle", "-o", "fig2.solution")
    zeiger("extract", FIG2, "fig2.solution", "-o", "fig2.assignment")
    zeiger("nae-check", FIG2, "fig2.assignment")


@pytest.mark.parametrize(
    "pipeline, spec",
    [
        (fig1_solve_verify, None),
        (stats_equal_a_run, None),
        (stats_equal_a_run, "4 6 --seed 0"),
        (unsat, "8 24 --seed 1"),
        (unsat, "20 40 --seed 1"),
        (sat, "16 30 --seed 1"),
        (fig2_end_to_end, None),
        (audit_2x2, None),
    ],
    ids=["fig1", "stats-fig1", "stats-9x9", "unsat-27x13", "unsat-43x25", "sat-33x21", "fig2",
         "audit-2x2"],
)
def test_pipeline_on_the_standard_library_alone(pipeline, spec, tmp_path):
    """Each pipeline runs ``zeiger`` under ``python -S -W error`` in its own
    directory: no site-packages, and any warning is an error."""

    def zeiger(*args, code=0):
        run = python("-W", "error", "-m", "zeiger.cli", *args, cwd=tmp_path)
        assert run.returncode == code, (args, run.stdout, run.stderr)
        return run.stdout

    pipeline(zeiger, tmp_path, spec)


def test_verify_ok(capsys):
    assert main(["verify", FIG1, FIG1_SOL]) == 0
    assert "ok" in capsys.readouterr().out


def test_verify_violations(tmp_path, capsys):
    bad = fig1_with(tmp_path, Coord(1, 1), 2)
    assert main(["verify", FIG1, bad]) == 1
    assert "(1,1)" in capsys.readouterr().out


def test_verify_names_a_given_mismatch(tmp_path, capsys):
    bad = fig1_with(tmp_path, Coord(3, 4), 2)  # (3,4) is given as 1
    assert main(["verify", FIG1, bad]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "given mismatch at (3,4): expected 1, got 2"


def test_verify_dimension_mismatch(tmp_path):
    small = tmp_path / "small.solution"
    small.write_text("1 1\n1 1\n")
    assert main(["verify", FIG1, str(small)]) == 2


def test_reduce_and_roundtrip(tmp_path, capsys):
    out = tmp_path / "fig2.puzzle"
    assert main(["reduce", FIG2, "-o", str(out)]) == 0
    g = parse_grid(out.read_text())
    assert (g.rows, g.cols) == (7, 10)
    # the paper's Figure 2 grid, pinned byte for byte
    assert out.read_bytes() == (FIXTURES / "fig2.puzzle").read_bytes()


def test_reduce_notes_a_remap_of_unused_variables(tmp_path, capsys):
    nae = tmp_path / "gap.nae"
    nae.write_text("nae3sat+ 5 2\n1 2 4\n2 4 5\n")
    assert main(["reduce", str(nae), "-o", str(tmp_path / "gap.puzzle")]) == 0
    assert capsys.readouterr().err == ("note: remapped variables after removing unused ones: "
                                       "{1: 1, 2: 2, 4: 3, 5: 4}\n")
    # fig2 uses every variable, so nothing is remapped
    assert main(["reduce", FIG2, "-o", str(tmp_path / "fig2.puzzle")]) == 0
    assert "note" not in capsys.readouterr().err


def test_lift_extract_nae_check(tmp_path, capsys):
    assignment = tmp_path / "a.txt"
    assignment.write_text("T\nF\nT\nT\nF\n")
    solution = tmp_path / "fig2.solution"
    assert main(["lift", FIG2, str(assignment), "-o", str(solution)]) == 0
    extracted = tmp_path / "extracted.txt"
    assert main(["extract", FIG2, str(solution), "-o", str(extracted)]) == 0
    assert extracted.read_text() == assignment.read_text()
    assert main(["nae-check", FIG2, str(assignment)]) == 0


def test_lift_rejects_non_solution(tmp_path, capsys):
    assignment = tmp_path / "a.txt"
    assignment.write_text("T\nT\nT\nT\nT\n")
    assert main(["lift", FIG2, str(assignment)]) == 1


def test_nae_check_unsatisfied(tmp_path, capsys):
    assignment = tmp_path / "a.txt"
    assignment.write_text("T\nT\nT\nT\nT\n")
    assert main(["nae-check", FIG2, str(assignment)]) == 1


def test_gen_nae(tmp_path):
    out = tmp_path / "g.nae"
    assert main(["gen-nae", "5", "4", "--seed", "1", "-o", str(out)]) == 0
    from zeiger.nae import parse_nae

    inst, _ = parse_nae(out.read_text())
    assert inst.m == 4


def test_gen_nae_infeasible():
    assert main(["gen-nae", "2", "1"]) == 2


def test_zkp_run_honest(tmp_path, capsys):
    transcript = tmp_path / "t.jsonl"
    stats = tmp_path / "s.json"
    rc = main(
        [
            "zkp", "run",
            "--grid", FIG1,
            "--solution", FIG1_SOL,
            "--seed", "3",
            "--transcript", str(transcript),
            "--stats", str(stats),
        ]
    )
    assert rc == 0
    assert "accept" in capsys.readouterr().out
    events = [json.loads(l) for l in transcript.read_text().splitlines()]
    assert events[-1] == {"ev": "verdict", "accept": True}
    data = json.loads(stats.read_text())
    assert data["total_shuffles"] == 304


def test_zkp_run_transcript_is_reproducible_across_processes(tmp_path):
    """The same seed gives the same bytes whatever the process's str hash seed."""
    written = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"t{hash_seed}.jsonl"
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed}
        run = subprocess.run(
            [sys.executable, "-m", "zeiger.cli", "zkp", "run", "--grid", FIG1,
             "--solution", FIG1_SOL, "--seed", "5", "--transcript", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert run.returncode == 0, run.stderr
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_zkp_run_cheat(capsys):
    rc = main(
        ["zkp", "run", "--grid", FIG1, "--solution", FIG1_SOL, "--seed", "3",
         "--cheat", "wrong-value:1,1"]
    )
    assert rc == 1
    assert "reject at cell (1,1)" in capsys.readouterr().out


def test_zkp_run_rejects_value_above_max(tmp_path, capsys):
    bad = fig1_with(tmp_path, Coord(1, 1), 9)  # unnumbered; the largest value fig1 allows is 4
    assert main(["zkp", "run", "--grid", FIG1, "--solution", bad]) == 1
    assert "reject at cell (1,1): expected exactly one 'HC' column" in capsys.readouterr().out


def test_zkp_run_refuses_cheat_at_given_cell(capsys):
    # (3,4) holds the given 1: the verifier lays it out, the prover cannot cheat there
    for kind in ("wrong-value", "malformed"):
        rc = main(["zkp", "run", "--grid", FIG1, "--solution", FIG1_SOL, "--cheat", f"{kind}:3,4"])
        assert rc == 2
        assert "given cell" in capsys.readouterr().err


def test_zkp_solution_disagreeing_with_given(tmp_path, capsys):
    bad = fig1_with(tmp_path, Coord(3, 4), 2)  # (3,4) is given as 1
    for command in ("run", "audit"):
        rc = main(["zkp", command, "--grid", FIG1, "--solution", bad])
        assert rc == 2
        assert "(3,4)" in capsys.readouterr().err


def test_zkp_audit_names_the_cell_a_non_solution_fails(tmp_path, capsys):
    bad = fig1_with(tmp_path, Coord(1, 1), 2)  # (1,1) is unnumbered and holds 3
    assert main(["zkp", "audit", "--grid", FIG1, "--solution", bad]) == 2
    assert ("honest run rejected at cell (1,1): cell value differs from its sightline's "
            "distinct count") in capsys.readouterr().err


def test_zkp_run_bad_cheat_spec(capsys):
    for spec, message in [("nonsense", "bad --cheat spec 'nonsense'; expected KIND:ROW,COL"),
                          ("bogus:1,1", "unknown cheat kind 'bogus'")]:
        rc = main(["zkp", "run", "--grid", FIG1, "--solution", FIG1_SOL, "--cheat", spec])
        assert rc == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("spec", ["wrong-value:0,1", "malformed:6,1", "wrong-value:1,0"])
def test_zkp_run_cheat_off_the_board_exits_2(spec, capsys):
    # the grid checks the cell's place, for either kind of cheat
    rc = main(["zkp", "run", "--grid", FIG1, "--solution", FIG1_SOL, "--cheat", spec])
    assert rc == 2
    cell = spec.partition(":")[2]
    assert capsys.readouterr() == ("", f"error: ({cell}) is off the 5x5 board\n")


def test_zkp_audit_passes_and_reports(tmp_path, capsys):
    grid, ones, report = tmp_path / "g.puzzle", tmp_path / "ones.solution", tmp_path / "r.json"
    grid.write_text(TWO_BY_TWO)
    ones.write_text("1 1\n1 1\n")
    assert main(["zkp", "audit", "--grid", str(grid), "--solution", str(ones),
                 "--trials", "1000", "--report", str(report)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0].strip() for line in lines[:-1]] == [
        "compare q=3", "copy q=2", "sum q=3"]
    assert all(line.endswith(" pass") for line in lines[:-1])
    assert lines[-1] == "pass"
    g, f = parse_grid(TWO_BY_TWO), parse_filling("1 1\n1 1\n")
    assert json.loads(report.read_text()) == audit_zk(g, f, 1000, 0.001)


def test_zkp_audit_rejects_few_trials():
    rc = main(
        ["zkp", "audit", "--grid", FIG1, "--solution", FIG1_SOL, "--trials", "5"]
    )
    assert rc == 2


@pytest.mark.parametrize("alpha", ["-1", "0", "1", "2", "nan"])
def test_zkp_audit_rejects_alpha_outside_unit_interval(alpha, capsys, monkeypatch):
    # the range check comes before any trial is run
    monkeypatch.setattr("zeiger.audit.MIN_TRIALS", 1)
    rc = main(["zkp", "audit", "--grid", FIG1, "--solution", FIG1_SOL, "--trials", "1",
               "--alpha", alpha])
    assert rc == 2
    assert f"alpha must lie in (0, 1), got {float(alpha)}" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_solve_budget_below_one_exits_2(budget, capsys):
    assert main(["solve", FIG1, "--budget", budget]) == 2
    assert f"--budget must be at least 1, got {budget}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,content",
    [
        (["verify", FIG1, "{path}"], b"\xe9 1\n"),
        (["reduce", "{path}"], b"nae3sat+ 3 1\n1 2 x\n"),
        (["verify", FIG1, "{path}"], "1 \u00b2\n".encode()),
    ],
    ids=["not-utf-8", "nae-clause-token-not-an-integer", "solution-superscript-digit"],
)
def test_malformed_input_exits_2(argv, content, tmp_path, capsys):
    path = tmp_path / "input"
    path.write_bytes(content)
    assert main([arg.replace("{path}", str(path)) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert err.count("\n") == 1


def test_short_assignment_exits_2(tmp_path, capsys):
    """fig2.nae has 5 variables; the library's length check refuses 3."""
    assignment = tmp_path / "a.txt"
    assignment.write_text("T\nF\nT\n")
    for command in ("lift", "nae-check"):
        assert main([command, FIG2, str(assignment)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [["zkp", "run"], ["zkp", "run", "--cheat", "malformed:1,1"],
     ["zkp", "run", "--cheat", "wrong-value:5,5"], ["zkp", "audit"]],
    ids=["run", "run-malformed", "run-wrong-value", "audit"],
)
def test_zkp_wrong_size_solution_exits_2(argv, tmp_path, capsys):
    small = tmp_path / "small.solution"
    small.write_text("1 1\n1 1\n")
    assert main([*argv, "--grid", FIG1, "--solution", str(small)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "2x2" in err and "5x5" in err


def test_negative_answers_exit_1_on_stdout(tmp_path, capsys):
    assert main(["solve", FIG1, "--budget", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == "budget exhausted: exceeded 1 nodes\n" and err == ""
    # an all-2s filling of the right size does not solve fig2's 7x10 reduced grid
    wrong = tmp_path / "wrong.solution"
    wrong.write_text("2 2 2 2 2 2 2 2 2 2\n" * 7)
    assert main(["extract", FIG2, str(wrong)]) == 1
    out, err = capsys.readouterr()
    assert out == "filling does not solve the reduced grid\n" and err == ""


def test_value_cheat_needs_another_value(tmp_path, capsys):
    # every cell of a 2x2 grid holds 1, so no value differs from the honest one
    grid = tmp_path / "rl.puzzle"
    grid.write_text("R. L.\nR. L.\n")
    ones = tmp_path / "ones.solution"
    ones.write_text("1 1\n1 1\n")
    rc = main(["zkp", "run", "--grid", str(grid), "--solution", str(ones),
               "--cheat", "wrong-value:1,1"])
    assert rc == 2
    assert "cheat cell (1,1) has no wrong value" in capsys.readouterr().err
    assert main(["zkp", "run", "--grid", str(grid), "--solution", str(ones),
                 "--cheat", "malformed:1,1"]) == 1


def test_stats_command(tmp_path):
    out = tmp_path / "stats.json"
    assert main(["stats", FIG1, "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["total_shuffles"] == 304
    assert data["peak_cards"] == 310
    assert (data["clubs_drawn"], data["hearts_drawn"]) == (1395, 1270)
    # the closed form is the whole ledger of an honest run
    run = tmp_path / "run.json"
    assert main(["zkp", "run", "--grid", FIG1, "--solution", FIG1_SOL, "--stats", str(run)]) == 0
    assert run.read_text() == out.read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", FIG1, "-o", "{out}"],
        ["reduce", FIG2, "-o", "{out}"],
        ["gen-nae", "4", "3", "-o", "{out}"],
        ["stats", FIG1, "-o", "{out}"],
        ["zkp", "run", "--grid", FIG1, "--solution", FIG1_SOL, "--transcript", "{out}"],
        ["zkp", "run", "--grid", FIG1, "--solution", FIG1_SOL, "--stats", "{out}"],
        ["zkp", "audit", "--grid", FIG1, "--solution", FIG1_SOL, "--report", "{out}"],
    ],
    ids=["solve", "reduce", "gen-nae", "stats", "zkp-transcript", "zkp-stats", "zkp-report"],
)
def test_unwritable_output_exits_2(argv, tmp_path, capsys, monkeypatch):
    """An output path in a missing directory is a usage error: main returns 2
    with a one-line message instead of letting the OSError escape."""
    # the audit itself is not under test here: an empty report stands in for it
    monkeypatch.setattr("zeiger.cli.audit_mod.audit_zk", lambda *a, **k: {"sites": [], "pass": True})
    out = str(tmp_path / "no-such-dir" / "out")
    assert main([arg.replace("{out}", out) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}")
    assert err.count("\n") == 1
