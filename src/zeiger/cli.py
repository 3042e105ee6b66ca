"""Command-line entry point.

Exit codes: 0 = success, 1 = valid negative answer (no solution, reject,
violations), 2 = usage or file-format error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import audit as audit_mod
from . import nae as nae_mod
from .cards import CardError
from .grid import (
    Coord,
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
from .solver import DEFAULT_BUDGET, BudgetExhausted, enumerate_solutions, solve


class InputError(Exception):
    """Maps to exit code 2."""


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None


def _load_grid(path: str):
    try:
        return parse_grid(_read(path))
    except GridError as e:
        raise InputError(f"{path}: {e}") from None


def _load_filling(path: str):
    try:
        return parse_filling(_read(path))
    except GridError as e:
        raise InputError(f"{path}: {e}") from None


def _load_nae(path: str):
    try:
        inst, remap = nae_mod.parse_nae(_read(path))
    except nae_mod.NaeError as e:
        raise InputError(f"{path}: {e}") from None
    dropped = [old for old in remap if remap[old] != old]
    if dropped:
        print(f"note: remapped variables after removing unused ones: {remap}", file=sys.stderr)
    return inst


def _load_assignment(path: str):
    try:
        return nae_mod.parse_assignment(_read(path))
    except nae_mod.NaeError as e:
        raise InputError(f"{path}: {e}") from None


def _write(path: str | None, text: str, default_msg: str | None = None):
    if path:
        Path(path).write_text(text)
        if default_msg:
            print(default_msg)
    else:
        sys.stdout.write(text)


def cmd_solve(args) -> int:
    g = _load_grid(args.grid)
    try:
        if args.enumerate_cap > 1:
            sols = enumerate_solutions(g, cap=args.enumerate_cap, budget=args.budget)
            print(f"{len(sols)} solution(s) found (cap {args.enumerate_cap})")
            if not sols:
                return 1
            _write(args.output, serialize_filling(sols[0]))
            return 0
        sol = solve(g, budget=args.budget)
    except BudgetExhausted as e:
        print(f"budget exhausted: {e}")
        return 1
    if args.enumerate_cap <= 1:
        if sol is None:
            print("unsatisfiable")
            return 1
        _write(args.output, serialize_filling(sol))
    return 0


def cmd_verify(args) -> int:
    g = _load_grid(args.grid)
    f = _load_filling(args.solution)
    try:
        violations = verify(g, f)
    except GridError as e:
        raise InputError(str(e)) from None
    if violations:
        for v in violations:
            print(v)
        return 1
    print("ok")
    return 0


def cmd_reduce(args) -> int:
    inst = _load_nae(args.nae)
    g = reduce_instance(inst)
    _write(args.output, serialize_grid(g), f"wrote {g.rows}x{g.cols} grid to {args.output}")
    return 0


def cmd_lift(args) -> int:
    inst = _load_nae(args.nae)
    a = _load_assignment(args.assignment)
    if len(a) != inst.n:
        raise InputError(f"assignment has {len(a)} variables, instance has {inst.n}")
    try:
        f = lift_assignment(inst, a)
    except ReductionError as e:
        print(e)
        return 1
    _write(args.output, serialize_filling(f))
    return 0


def cmd_extract(args) -> int:
    inst = _load_nae(args.nae)
    f = _load_filling(args.solution)
    try:
        a = extract_assignment(inst, f)
    except ReductionError as e:
        print(e)
        return 1
    except GridError as e:
        raise InputError(str(e)) from None
    _write(args.output, nae_mod.serialize_assignment(a))
    return 0


def cmd_nae_check(args) -> int:
    inst = _load_nae(args.nae)
    a = _load_assignment(args.assignment)
    if len(a) != inst.n:
        raise InputError(f"assignment has {len(a)} variables, instance has {inst.n}")
    if nae_mod.nae_check(inst, a):
        print("satisfied")
        return 0
    print("not satisfied")
    return 1


def cmd_gen_nae(args) -> int:
    try:
        inst = nae_mod.gen_nae(args.n, args.m, args.seed)
    except nae_mod.NaeError as e:
        raise InputError(str(e)) from None
    _write(args.output, nae_mod.serialize_nae(inst))
    return 0


def _parse_cheat(spec: str, g, f):
    kind, _, coords = spec.partition(":")
    try:
        r, c = (int(x) for x in coords.split(","))
    except ValueError:
        raise InputError(f"bad --cheat spec {spec!r}; expected KIND:ROW,COL") from None
    cell = Coord(r, c)
    if not (1 <= r <= g.rows and 1 <= c <= g.cols):
        raise InputError(f"cheat cell {cell} out of bounds")
    if g.cell(cell).given is not None:
        raise InputError(f"cheat cell {cell} is a given cell, which the verifier lays out publicly")
    if kind == "wrong-value":
        wrong = f.value(cell) % g.max_value + 1
        return ProverBehavior.wrong_value(f, cell, wrong)
    if kind == "malformed":
        return ProverBehavior.malformed(f, cell)
    raise InputError(f"unknown cheat kind {kind!r}")


def _load_proof_inputs(args):
    """The grid and the prover's solution for ``zkp run``/``zkp audit``; the
    solution must fit the grid and keep every given."""
    g = _load_grid(args.grid)
    f = _load_filling(args.solution)
    if (f.rows, f.cols) != (g.rows, g.cols):
        raise InputError("solution dimensions do not match grid")
    for c in g.coords():
        given = g.cell(c).given
        if given is not None and f.value(c) != given:
            raise InputError(f"solution has {f.value(c)} at given cell {c}, which holds {given}")
    return g, f


def cmd_zkp_run(args) -> int:
    g, f = _load_proof_inputs(args)
    if args.cheat:
        behavior = _parse_cheat(args.cheat, g, f)
    else:
        behavior = ProverBehavior.honest(f)
    accept, transcript, stats = run_protocol(g, behavior, seed=args.seed)
    if args.transcript:
        Path(args.transcript).write_text(transcript.to_json_lines())
    if args.stats:
        Path(args.stats).write_text(json.dumps(stats.to_dict(), indent=2) + "\n")
    if accept:
        print("accept")
        return 0
    last = transcript.events[-1]
    cell = last.get("cell")
    where = f" at cell ({cell[0]},{cell[1]})" if cell else ""
    print(f"reject{where}: {last.get('reason', '')}")
    return 1


def cmd_zkp_audit(args) -> int:
    g, f = _load_proof_inputs(args)
    try:
        report = audit_mod.audit_zk(g, f, trials=args.trials, alpha=args.alpha, seed=args.seed)
    except audit_mod.AuditError as e:
        raise InputError(str(e)) from None
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=2) + "\n")
    for site in report["sites"]:
        print(
            f"{site['site']:>8} q={site['columns']}: "
            f"p_real={site['p_uniform_real']:.4f} p_sim={site['p_uniform_sim']:.4f} "
            f"p_two={site['p_two_sample']:.4f} {'pass' if site['pass'] else 'FAIL'}"
        )
    print("pass" if report["pass"] else "FAIL")
    return 0 if report["pass"] else 1


def cmd_stats(args) -> int:
    g = _load_grid(args.grid)
    stats = count_resources(g)
    text = json.dumps(stats.to_dict(), indent=2) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
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
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
