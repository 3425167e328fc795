"""temperlab benchmark: three batch workloads, each one process, one caller,
a closed loop, no worker pool (the CLI runs with --jobs 1), BLAS pinned to
one thread.

    python3 bench/run.py --workload {staging,long-chain,lab} --seed N \
        --seconds S --trace {0,1} [--holdout-seed M]

Run from the repository root; the program is imported from ./src.

staging     run_main on the headline ladder (two-mode-symmetric, 8 levels).
            One op is one run_main seed.
long-chain  run_stlmc over 4000 time units at thin=1 with quadrature
            normalizers, then run_plain_langevin for the same number of steps
            from x0 = +5, then mode_masses, empirical_tv, integrated_autocorr.
            The two runs are two ops.
lab         cli.main verify-decomposition and verify-divergences in-process,
            then verify_tempering_decomposition on 512-state instances.
            One op is one bound report or divergence check.

Iterations (one op; one pair of runs for long-chain; one pass for lab) run
in a loop.  Their number is fixed by --seconds and the workload's nominal
iteration time, so the same seed and --seconds always run the same
operations: round(seconds / nominal), and at least two.  A traced run does
each iteration twice, so it runs round(seconds / (2 * nominal)), at least one.
With --trace 0 the run prints the end-to-end metrics of BENCHMARK.json:
setup_s (median import time of five fresh interpreters plus the median of
five in-process set-ups: fixture, ladder, quadrature normalizers, config
files, warm-up), wall_s (median time of one iteration), work_per_s (median
work per second of an iteration: short runs, Langevin steps or
decomposition instances) and peak_rss_mb.  With --trace 1 every input is
run twice, untraced then traced, and the run prints the per-layer metrics,
including trace.overhead_s (median traced minus untraced time of the same
input).  Layers the named workload does not call are measured on one
iteration pair of each other workload, on inputs from the same seed.  Where
two workloads share a layer, the named workload's numbers win, then
staging's, then long-chain's.  The lab's traced run reaches the library
under cli.main by wrapping the names the CLI module calls.

`attempted` and `failed` count ops; an op fails when its check fails (see
checks.py).  `correct` is false when an output is malformed or contradicts
its own verdict.  Human-readable lines come first; the last line of stdout is
the JSON result.  The full record, spans included, goes to
.bench_out/<workload>-seed<N>-trace<T>.json (holdout<M> for a held-out seed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
# wall_s is a median over iterations; a staging iteration can outlast --seconds
UNTRACED_AT_LEAST = 2
# a fresh interpreter's import of numpy, temperlab and this benchmark
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; t = time.perf_counter(); "
    "import workloads; print(time.perf_counter() - t)"
)
HOLDOUT_BASE = 2**31  # held-out seed M runs on inputs of seed 2^31 + M


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["staging", "long-chain", "lab"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--holdout-seed", type=int, default=None,
                   help="run on held-out seed M instead of --seed; held-out seeds "
                        "never coincide with a --seed value")
    args = p.parse_args(argv)
    if args.seed < 0 or (args.holdout_seed is not None and args.holdout_seed < 0):
        p.error("seeds must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def src_lines() -> int:
    return sum(len(f.read_text().splitlines()) for f in (ROOT / "src" / "temperlab").rglob("*.py"))


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_ENV},
        "src_lines": src_lines(),
    }


def import_seconds() -> float:
    """Import time in a fresh interpreter, which this process cannot repeat."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), str(HERE)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.split()[-1])


def iterations(wl, seconds: float, traced: bool) -> int:
    """How many iterations fill `seconds` at the workload's nominal pace.
    A count, not a deadline, so attempted and failed repeat for a seed."""
    if traced:
        return max(1, round(seconds / (2 * wl.nominal_s)))
    return max(UNTRACED_AT_LEAST, round(seconds / wl.nominal_s))


def run_loop(wl, count: int, tracer=None):
    """Iterations k = 0 .. count-1.  With a tracer each k runs twice,
    untraced and then traced."""
    from spans import NullTracer

    null = NullTracer()
    results, pairs = [], []
    for k in range(count):
        plain = wl.run_op(k, null)
        results.append(plain)
        if tracer is not None:
            with_spans = wl.run_op(k, tracer)
            results.append(with_spans)
            pairs.append((plain, with_spans))
    return results, pairs


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    if not (ROOT / "src" / "temperlab" / "__init__.py").is_file():
        print(f"error: no temperlab sources under {ROOT / 'src'}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np
    import workloads

    seed = args.seed if args.holdout_seed is None else HOLDOUT_BASE + args.holdout_seed
    out_dir = ROOT / ".bench_out"
    wl = workloads.WORKLOADS[args.workload](seed, out_dir)
    import_times, setup_times = [], []
    for _ in range(SETUP_REPEATS):
        import_times.append(import_seconds())
        t = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t)
    setup_s = statistics.median(import_times) + statistics.median(setup_times)

    from spans import Tracer

    tracer = Tracer() if args.trace else None
    count = iterations(wl, args.seconds, tracer is not None)
    ops, pairs = run_loop(wl, count, tracer)
    if args.trace:
        found = wl.layer_metrics(pairs, tracer)
        # layers the named workload does not call: one iteration pair of
        # each other workload, on inputs from the same seed
        for name, cls in workloads.WORKLOADS.items():
            if name != wl.name:
                other = cls(seed, out_dir)
                other.setup()
                other_ops, other_pairs = run_loop(other, 1, tracer)
                ops += other_ops
                for key, value in other.layer_metrics(other_pairs, tracer).items():
                    found.setdefault(key, value)
        found["trace.overhead_s"] = (
            statistics.median(t.seconds - u.seconds for u, t in pairs), "s")
        wanted = spec["per_layer"]
    else:
        timed = [r for r in ops if r.work]
        found = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(r.seconds for r in ops), "s"),
            "work_per_s": (statistics.median(r.work / r.seconds for r in timed) if timed else 0.0,
                           "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        wanted = spec["end_to_end"]
    attempted = sum(r.attempted for r in ops)
    failed = sum(r.failed for r in ops)
    correct = all(r.consistent for r in ops)
    metrics = {}
    for m in wanted:
        if m["name"] not in found:
            raise RuntimeError(f"{m['name']} was not measured")
        value, unit = found.pop(m["name"])
        if unit != m["unit"]:
            raise RuntimeError(f"{m['name']}: unit {unit} here, {m['unit']} in BENCHMARK.json")
        metrics[m["name"]] = {"value": value, "unit": unit}
    if found:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(found)}")

    env = environment(np)
    tag = f"seed{args.seed}" if args.holdout_seed is None else f"holdout{args.holdout_seed}"
    print(f"# workload {wl.name}, {tag}, {len(ops)} timed iterations "
          f"({count} for {args.seconds:g} s at {wl.nominal_s:g} s each), trace {args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# work unit: {wl.work_unit}")
    for name, m in metrics.items():
        print(f"{name:<48} {m['value']!r:>24} {m['unit']}")
    print(f"{'ops_total':<48} {attempted:>24} count")
    print(f"{'ops_failed':<48} {failed:>24} count")
    for note in sorted({n for r in ops for n in r.notes}):
        print(f"# failed or inconsistent: {note}")

    record = {
        "workload": wl.name, "seed": args.seed, "holdout_seed": args.holdout_seed,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "import_times_s": import_times, "setup_times_s": setup_times,
        "ops": [{"seconds": r.seconds, "work": r.work, "attempted": r.attempted,
                 "failed": r.failed, "consistent": r.consistent, "notes": r.notes}
                for r in ops],
        "metrics": metrics,
        "spans": tracer.to_records() if tracer else [],
    }
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{wl.name}-{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
