"""Command-line entry point.

Exit codes: 0 = success, 1 = valid negative answer (no solution, reject,
violations), 2 = usage or file-format error.

The library checks every input it is given; a command only calls it and
returns 0 or 1 for the answer.  ``main`` is the only place that turns an
exception into an exit code: ``BudgetExhausted`` and ``ReductionError`` are
negative answers (exit 1, message on stdout), and ``GridError``,
``NaeError``, ``AuditError`` and ``InputError`` are input errors (exit 2,
``error: ...`` on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import audit as audit_mod
from . import nae as nae_mod
from .grid import (
    Coord,
    Filling,
    GridError,
    parse_filling,
    parse_grid,
    serialize_filling,
    serialize_grid,
    verify,
)
from .protocol import ProverBehavior, count_resources, run_protocol
from .reduction import (
    ReductionError,
    extract_assignment,
    lift_assignment,
    reduce_instance,
)
from .solver import DEFAULT_BUDGET, BudgetExhausted, enumerate_solutions


class InputError(Exception):
    """Maps to exit code 2."""


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read {path}: {e}") from None


def _load(path: str, parse):
    """``parse`` the file's text, naming the file in any format error."""
    try:
        return parse(_read(path))
    except (GridError, nae_mod.NaeError) as e:
        raise InputError(f"{path}: {e}") from None


def _parse_nae(text: str):
    inst, remap = nae_mod.parse_nae(text)
    if any(remap[old] != old for old in remap):
        print(f"note: remapped variables after removing unused ones: {remap}", file=sys.stderr)
    return inst


def _write(path: str | None, text: str):
    if path:
        try:
            Path(path).write_text(text)
        except OSError as e:
            raise InputError(f"cannot write {path}: {e}") from None
    else:
        sys.stdout.write(text)


def cmd_solve(args) -> int:
    if args.enumerate_cap < 1:
        raise InputError(f"--enumerate-cap must be at least 1, got {args.enumerate_cap}")
    if args.budget < 1:
        raise InputError(f"--budget must be at least 1, got {args.budget}")
    g = _load(args.grid, parse_grid)
    sols = enumerate_solutions(g, cap=args.enumerate_cap, budget=args.budget)
    if args.enumerate_cap > 1:
        print(f"{len(sols)} solution(s) found (cap {args.enumerate_cap})")
    elif not sols:
        print("unsatisfiable")
    if sols:
        _write(args.output, serialize_filling(sols[0]))
    return 0 if sols else 1


def cmd_verify(args) -> int:
    g = _load(args.grid, parse_grid)
    f = _load(args.solution, parse_filling)
    violations = verify(g, f)
    if violations:
        for v in violations:
            print(v)
        return 1
    print("ok")
    return 0


def cmd_reduce(args) -> int:
    inst = _load(args.nae, _parse_nae)
    g = reduce_instance(inst)
    _write(args.output, serialize_grid(g))
    if args.output:
        print(f"wrote {g.rows}x{g.cols} grid to {args.output}")
    return 0


def cmd_lift(args) -> int:
    inst = _load(args.nae, _parse_nae)
    a = _load(args.assignment, nae_mod.parse_assignment)
    _write(args.output, serialize_filling(lift_assignment(inst, a)))
    return 0


def cmd_extract(args) -> int:
    inst = _load(args.nae, _parse_nae)
    f = _load(args.solution, parse_filling)
    _write(args.output, nae_mod.serialize_assignment(extract_assignment(inst, f)))
    return 0


def cmd_nae_check(args) -> int:
    inst = _load(args.nae, _parse_nae)
    a = _load(args.assignment, nae_mod.parse_assignment)
    if nae_mod.nae_check(inst, a):
        print("satisfied")
        return 0
    print("not satisfied")
    return 1


def cmd_gen_nae(args) -> int:
    _write(args.output, nae_mod.serialize_nae(nae_mod.gen_nae(args.n, args.m, args.seed)))
    return 0


def _parse_cheat(spec: str, g, f):
    kind, _, coords = spec.partition(":")
    try:
        r, c = (int(x) for x in coords.split(","))
    except ValueError:
        raise InputError(f"bad --cheat spec {spec!r}; expected KIND:ROW,COL") from None
    cell = Coord(r, c)
    if kind == "wrong-value":
        if g.cell(cell).given is not None:
            raise InputError(f"cheat cell {cell} is a given cell, which the verifier lays out publicly")
        # the filling must fit the grid before one of its values can change
        g.check_size(f)
        wrong = f.value(cell) % g.max_value + 1
        if wrong == f.value(cell):
            raise InputError(f"cheat cell {cell} has no wrong value: the grid allows only 1")
        values = [list(row) for row in f.values]
        values[r - 1][c - 1] = wrong
        return ProverBehavior.honest(Filling(values))
    if kind == "malformed":
        return ProverBehavior.malformed(f, cell)
    raise InputError(f"unknown cheat kind {kind!r}")


def cmd_zkp_run(args) -> int:
    g = _load(args.grid, parse_grid)
    f = _load(args.solution, parse_filling)
    if args.cheat:
        behavior = _parse_cheat(args.cheat, g, f)
    else:
        behavior = ProverBehavior.honest(f)
    accept, transcript, stats = run_protocol(g, behavior, seed=args.seed)
    if args.transcript:
        _write(args.transcript, transcript.to_json_lines())
    if args.stats:
        _write(args.stats, json.dumps(stats.to_dict(), indent=2) + "\n")
    if accept:
        print("accept")
        return 0
    last = transcript.events[-1]
    r, c = last["cell"]
    print(f"reject at cell ({r},{c}): {last['reason']}")
    return 1


def cmd_zkp_audit(args) -> int:
    g = _load(args.grid, parse_grid)
    f = _load(args.solution, parse_filling)
    report = audit_mod.audit_zk(g, f, trials=args.trials, alpha=args.alpha, seed=args.seed)
    if args.report:
        _write(args.report, json.dumps(report, indent=2) + "\n")
    for site in report["sites"]:
        print(
            f"{site['site']:>8} q={site['columns']}: "
            f"p_real={site['p_uniform_real']:.4f} p_sim={site['p_uniform_sim']:.4f} "
            f"p_two={site['p_two_sample']:.4f} {'pass' if site['pass'] else 'FAIL'}"
        )
    print("pass" if report["pass"] else "FAIL")
    return 0 if report["pass"] else 1


def cmd_stats(args) -> int:
    g = _load(args.grid, parse_grid)
    _write(args.output, json.dumps(count_resources(g).to_dict(), indent=2) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="zeiger",
        description="Zeiger puzzles: solve, verify, reduce from NAE3SAT+, "
        "and simulate the card-based zero-knowledge proof.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve a .puzzle file")
    sp.add_argument("grid")
    sp.add_argument("-o", "--output", help="output .solution path (default stdout)")
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="backtrack node budget")
    sp.add_argument("--enumerate-cap", type=int, default=1, help="count solutions up to this cap")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("verify", help="check a .solution against a .puzzle")
    sp.add_argument("grid")
    sp.add_argument("solution")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("reduce", help="transform a .nae instance into a .puzzle")
    sp.add_argument("nae")
    sp.add_argument("-o", "--output", help="output .puzzle path (default stdout)")
    sp.set_defaults(func=cmd_reduce)

    sp = sub.add_parser("lift", help="turn a satisfying assignment into a grid solution")
    sp.add_argument("nae")
    sp.add_argument("assignment")
    sp.add_argument("-o", "--output", help="output .solution path (default stdout)")
    sp.set_defaults(func=cmd_lift)

    sp = sub.add_parser("extract", help="read the assignment off a solved reduced grid")
    sp.add_argument("nae")
    sp.add_argument("solution")
    sp.add_argument("-o", "--output", help="output assignment path (default stdout)")
    sp.set_defaults(func=cmd_extract)

    sp = sub.add_parser("nae-check", help="check an assignment against a .nae instance")
    sp.add_argument("nae")
    sp.add_argument("assignment")
    sp.set_defaults(func=cmd_nae_check)

    sp = sub.add_parser("gen-nae", help="generate a random normalized .nae instance")
    sp.add_argument("n", type=int)
    sp.add_argument("m", type=int)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("-o", "--output", help="output .nae path (default stdout)")
    sp.set_defaults(func=cmd_gen_nae)

    zkp = sub.add_parser("zkp", help="card-based zero-knowledge proof simulation")
    zsub = zkp.add_subparsers(dest="zkp_command", required=True)

    sp = zsub.add_parser("run", help="run the protocol once")
    sp.add_argument("--grid", required=True)
    sp.add_argument("--solution", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--cheat", help="wrong-value:R,C or malformed:R,C")
    sp.add_argument("--transcript", help="write JSON-lines transcript here")
    sp.add_argument("--stats", help="write resource stats JSON here")
    sp.set_defaults(func=cmd_zkp_run)

    sp = zsub.add_parser("audit", help="statistical zero-knowledge audit")
    sp.add_argument("--grid", required=True)
    sp.add_argument("--solution", required=True)
    sp.add_argument("--trials", type=int, default=2000)
    sp.add_argument("--alpha", type=float, default=0.001)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--report", help="write JSON report here")
    sp.set_defaults(func=cmd_zkp_audit)

    sp = sub.add_parser("stats", help="closed-form card/shuffle accounting for a grid")
    sp.add_argument("grid")
    sp.add_argument("-o", "--output", help="output JSON path (default stdout)")
    sp.set_defaults(func=cmd_stats)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExhausted as e:
        print(f"budget exhausted: {e}")
        return 1
    except ReductionError as e:
        print(e)
        return 1
    except (GridError, nae_mod.NaeError, audit_mod.AuditError, InputError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
