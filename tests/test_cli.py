import json

import pytest

from zeiger.cli import main

from .conftest import FIXTURES

FIG1 = str(FIXTURES / "fig1.puzzle")
FIG1_SOL = str(FIXTURES / "fig1.solution")
FIG2 = str(FIXTURES / "fig2.nae")


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


def test_solve_garbage_file(tmp_path):
    p = tmp_path / "garbage.puzzle"
    p.write_text("not a grid at all\n")
    assert main(["solve", str(p)]) == 2


def test_solve_enumerate_cap(tmp_path, capsys):
    out = tmp_path / "out.solution"
    assert main(["solve", FIG1, "--enumerate-cap", "2", "-o", str(out)]) == 0
    assert "1 solution(s)" in capsys.readouterr().out


def test_verify_ok(capsys):
    assert main(["verify", FIG1, FIG1_SOL]) == 0
    assert "ok" in capsys.readouterr().out


def test_verify_violations(tmp_path, capsys):
    bad = tmp_path / "bad.solution"
    lines = (FIXTURES / "fig1.solution").read_text().splitlines()
    lines[0] = "2 3 2 2 3"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["verify", FIG1, str(bad)]) == 1
    assert "(1,1)" in capsys.readouterr().out


def test_verify_dimension_mismatch(tmp_path):
    small = tmp_path / "small.solution"
    small.write_text("1 1\n1 1\n")
    assert main(["verify", FIG1, str(small)]) == 2


def test_reduce_and_roundtrip(tmp_path, capsys):
    out = tmp_path / "fig2.puzzle"
    assert main(["reduce", FIG2, "-o", str(out)]) == 0
    from zeiger.grid import parse_grid

    g = parse_grid(out.read_text())
    assert (g.rows, g.cols) == (7, 10)


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


def test_zkp_run_cheat(capsys):
    rc = main(
        ["zkp", "run", "--grid", FIG1, "--solution", FIG1_SOL, "--seed", "3",
         "--cheat", "wrong-value:1,1"]
    )
    assert rc == 1
    assert "reject at cell (1,1)" in capsys.readouterr().out


def test_zkp_run_refuses_cheat_at_given_cell(capsys):
    # (3,4) holds the given 1: the verifier lays it out, the prover cannot cheat there
    for kind in ("wrong-value", "malformed"):
        rc = main(["zkp", "run", "--grid", FIG1, "--solution", FIG1_SOL, "--cheat", f"{kind}:3,4"])
        assert rc == 2
        assert "given cell" in capsys.readouterr().err


def test_zkp_solution_disagreeing_with_given(tmp_path, capsys):
    bad = tmp_path / "bad.solution"
    rows = [line.split() for line in (FIXTURES / "fig1.solution").read_text().splitlines()]
    rows[2][3] = "2"  # (3,4) is given as 1
    bad.write_text("\n".join(" ".join(r) for r in rows) + "\n")
    for command in ("run", "audit"):
        rc = main(["zkp", command, "--grid", FIG1, "--solution", str(bad)])
        assert rc == 2
        assert "(3,4)" in capsys.readouterr().err


def test_zkp_run_bad_cheat_spec():
    rc = main(
        ["zkp", "run", "--grid", FIG1, "--solution", FIG1_SOL, "--cheat", "nonsense"]
    )
    assert rc == 2


def test_zkp_audit_rejects_few_trials():
    rc = main(
        ["zkp", "audit", "--grid", FIG1, "--solution", FIG1_SOL, "--trials", "5"]
    )
    assert rc == 2


def test_stats_command(tmp_path):
    out = tmp_path / "stats.json"
    assert main(["stats", FIG1, "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["total_shuffles"] == 304
    assert data["peak_cards"] == 310
