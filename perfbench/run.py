"""Benchmark of the zeiger toolkit: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload audit-fig1 --seed 1 --seconds 22 --trace 0

With ``--trace 0`` it cycles through the workload's operations for about
``--seconds`` seconds and reports the end-to-end metrics.  With ``--trace 1``
it runs each operation once plain, once with spans recorded around the calls
into each layer, and once plain again, and reports the per-layer metrics;
the spans are written to ``perfbench/out/``.  The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60
# The reference probe's time on the machine the benchmark was written on,
# when it was quiet: 2 shared Xeon cores at 2.0 GHz, Python 3.11.7.
REFERENCE_IMPORT_S = 1.15
MIN_SPEED_SAMPLES = 5

# per-layer time metric -> the span names whose self times it sums
LAYER_TIMES = {
    "cards.shuffle_s": ["cards.pile_shift", "cards.pile_scramble"],
    "cards.reveal_s": ["cards.reveal_row"],
    "cards.turn_down_s": ["cards.turn_down_all"],
    "cards.normalize_s": ["cards.rotate_to_normalize"],
    "protocol.setup_board_s": ["protocol.setup_board"],
    "protocol.copy_s": ["protocol.copy_protocol"],
    "protocol.setsize_s": ["protocol.set_size_protocol"],
    "protocol.sum_s": ["protocol.summation_protocol"],
    "protocol.compare_s": ["protocol.comparing_protocol"],
    "protocol.self_s": ["protocol.run_protocol"],
    "simulator.simulate_s": ["simulator.simulate_transcript"],
    "audit.histogram_s": ["audit.reveal_histograms"],
    "audit.tests_s": ["audit.audit_zk"],
    "solver.solve_s": ["solver.solve"],
    "grid.verify_s": ["grid.verify"],
    "reduction.reduce_s": ["reduction.reduce_instance"],
    "reduction.lift_s": ["reduction.lift_assignment"],
    "reduction.extract_s": ["reduction.extract_assignment"],
    "nae.gen_s": ["nae.gen_nae"],
    "nae.brute_force_s": ["nae.nae_brute_force"],
}
# counts read from the program's own outputs; they must repeat for a seed
LAYER_COUNTS = [
    "cards.shuffles", "cards.reveals", "cards.drawn", "cards.peak_cards",
    "protocol.events", "simulator.events", "audit.sites", "solver.nodes",
]


def trace_targets():
    """Module-level names wrapped in the traced run: the subprotocols and
    card primitives as zeiger.protocol imports them, zeiger.audit's own
    references, and the functions this benchmark calls directly."""
    from zeiger import audit, grid, nae, protocol, reduction, solver
    from tracing import Target

    cards = ["pile_shift", "pile_scramble", "reveal_row", "turn_down_all", "rotate_to_normalize"]
    subprotocols = ["setup_board", "copy_protocol", "set_size_protocol", "summation_protocol",
                    "comparing_protocol", "run_protocol"]
    return (
        [Target(protocol, name, f"cards.{name}") for name in cards]
        + [Target(protocol, name, f"protocol.{name}") for name in subprotocols]
        + [
            Target(audit, "run_protocol", "protocol.run_protocol"),
            Target(audit, "simulate_transcript", "simulator.simulate_transcript"),
            Target(audit, "reveal_histograms", "audit.reveal_histograms"),
            Target(audit, "audit_zk", "audit.audit_zk"),
            Target(solver, "solve", "solver.solve"),
            Target(grid, "verify", "grid.verify"),
            Target(reduction, "reduce_instance", "reduction.reduce_instance"),
            Target(reduction, "lift_assignment", "reduction.lift_assignment"),
            Target(reduction, "extract_assignment", "reduction.extract_assignment"),
            Target(nae, "gen_nae", "nae.gen_nae"),
            Target(nae, "nae_brute_force", "nae.nae_brute_force"),
        ]
    )


def probe(*args: str) -> str:
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), *args],
        capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
    )
    return out.stdout.split()[-1]


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median set-up time over fresh interpreters (import, inputs, oracles),
    scaled and as measured.  Reference probes, fresh interpreters that
    import only the toolkit's third-party dependencies, run before, between
    and after the set-ups; each set-up time is scaled by REFERENCE_IMPORT_S
    over the mean of the two references beside it.  Importing is most of
    set-up, and it follows the machine's load more closely than the
    pure-Python kernel of speed.py does."""
    reference = float(probe("--reference"))
    scaled, wall = [], []
    for _ in range(SETUP_PROBES):
        seconds = float(probe(workload, str(seed)))
        previous, reference = reference, float(probe("--reference"))
        scaled.append(seconds * REFERENCE_IMPORT_S * 2 / (previous + reference))
        wall.append(seconds)
    return median(scaled), median(wall)


def failure_totals(setup_failures, results):
    attempted = 1 + sum(r.attempted for r in results)
    failures = list(setup_failures)
    for r in results:
        failures.extend(r.failures)
    return attempted, failures


def measure(w, inputs, seconds: float):
    """Cycle through the workload's operations until the next one would pass
    ``seconds`` (after at least one pass); checks that each operation
    repeats its first counts.  Each operation's times are scaled by the
    machine speed sampled while it ran."""
    ops = w.ops(inputs)
    results: list = []
    took: list[list[float]] = [[] for _ in ops]
    start = perf_counter()
    with speed.Sampler() as sampler:
        for i in itertools.count():
            k = i % len(ops)
            first = len(sampler.samples)
            t0 = perf_counter()
            r = ops[k](None)
            took[k].append(perf_counter() - t0)
            during = sampler.samples[first:]
            # an operation too short to be sampled takes the run's speed so far
            r.scale = speed.scale(during if len(during) >= MIN_SPEED_SAMPLES
                                  else sampler.samples or speed.kernel_times())
            if i >= len(ops) and results[k].counts != r.counts:
                r.failures.append(f"counts did not repeat: {results[k].counts} then {r.counts}")
            results.append(r)
            nxt = (i + 1) % len(ops)
            if i + 1 >= len(ops) and perf_counter() - start + median(took[nxt]) > seconds:
                return results, (i + 1) / len(ops)


def end_to_end(w, seed: int, seconds: float, lines: list[str]):
    import workloads

    inputs = w.setup(seed)
    setup_s, setup_wall = probe_setup(w.name, seed)
    results, rounds = measure(w, inputs, seconds)
    attempted, failures = failure_totals(inputs.failures, results)
    primary = workloads.role_time(results, "primary")
    secondary = workloads.role_time(results, "secondary")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lines.append(f"rounds {rounds:.2f}; primary_s is the {w.primary}; secondary_s is the {w.secondary}")
    lines.append("wall seconds before scaling: primary "
                 f"{workloads.role_time(results, 'primary', scaled=False):.6f}, secondary "
                 f"{workloads.role_time(results, 'secondary', scaled=False):.6f}, setup {setup_wall:.6f}; "
                 f"median speed scale {median(r.scale for r in results):.4f}")
    if w.name == "audit-fig1":
        lines.append(f"audit_trials_per_s {workloads.AUDIT_TRIALS / primary:.3f} 1/s")
    metrics = {
        "setup_s": (setup_s, "s"),
        "primary_s": (primary, "s"),
        "secondary_s": (secondary, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, attempted, failures, results


def layer_metrics(tracer, results) -> dict:
    import workloads

    own = tracer.self_times()
    metrics = {}
    for metric, spans in LAYER_TIMES.items():
        metrics[metric] = (sum(own.get(s, (0.0, 0))[0] for s in spans), "s")
    counts: dict[str, int] = {}
    for r in results:
        workloads.merge_counts(counts, r.counts)
    for name in LAYER_COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
    metrics["grid.verify_calls"] = (own.get("grid.verify", (0.0, 0))[1], "count")
    solve_s = metrics["solver.solve_s"][0]
    metrics["solver.nodes_per_s"] = (counts.get("solver.nodes", 0) / solve_s if solve_s else 0.0, "1/s")
    return metrics


def shares(tracer) -> list[str]:
    """Where the traced time of the protocol runs went: card primitives, the
    subprotocols' own code, and run_protocol's own per-cell bookkeeping."""
    total = tracer.total_time("protocol.run_protocol")
    if not total:
        return []
    own = tracer.self_times()
    card_s = sum(t for name, (t, _) in own.items() if name.startswith("cards."))
    sub_s = sum(t for name, (t, _) in own.items()
                if name.startswith("protocol.") and name != "protocol.run_protocol")
    run_self = own.get("protocol.run_protocol", (0.0, 0))[0]
    return [f"share of protocol.run_protocol time: card primitives {card_s / total:.3f}, "
            f"subprotocol self {sub_s / total:.3f}, run_protocol self {run_self / total:.3f}"]


def traced(w, seed: int, out_dir: Path, lines: list[str]):
    """One round, each operation run plain, traced, and plain again;
    per-layer metrics come from the traced runs and the program's own
    counts."""
    from tracing import Tracer

    tracer = Tracer()
    targets = trace_targets()
    with tracer.patched(targets):
        inputs = w.setup(seed)
    plain, spanned, plain_again = [], [], []
    for op in w.ops(inputs):
        # plain, traced, plain: the two plain walls bracket the traced one
        plain.append(op(None))
        with tracer.patched(targets):
            spanned.append(op(tracer))
        plain_again.append(op(None))
    for a, b, c in zip(plain, spanned, plain_again):
        if not a.counts == b.counts == c.counts:
            b.failures.append(f"counts did not repeat: {a.counts}, traced {b.counts}, {c.counts}")
    attempted, failures = failure_totals(inputs.failures, plain + spanned + plain_again)
    metrics = layer_metrics(tracer, spanned)
    overhead = 2 * sum(r.wall for r in spanned) / sum(r.wall for r in plain + plain_again)
    metrics["trace.overhead"] = (overhead, "ratio")

    lines.extend(shares(tracer))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"trace-{w.name}-{seed}.json"
    tracer.write(path)
    lines.append(f"spans {len(tracer.names)} written to {path.relative_to(ROOT)}")
    return metrics, attempted, failures, plain + spanned + plain_again


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "zeiger" / "__init__.py").is_file():
        print(f"perfbench: no zeiger sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    lines = [f"workload {w.name} seed {args.seed} trace {args.trace}"]
    if args.trace:
        metrics, attempted, failures, results = traced(w, args.seed, HERE / "out", lines)
    else:
        metrics, attempted, failures, results = end_to_end(w, args.seed, args.seconds, lines)
    seen = set()
    for r in results:
        key = next(iter(r.times))[1]
        if r.digest and key not in seen:
            seen.add(key)
            lines.append(f"sha256 honest transcript(s) of {key}: {r.digest}")
    lines.append(f"failed_share {len(failures) / attempted:.6f} ({len(failures)} of {attempted} operations)")
    lines.extend(f"FAILED {msg}" for msg in failures[:20])
    lines.extend(f"{name} {value} {unit}" for name, (value, unit) in metrics.items())
    print("\n".join(lines))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
