"""Benchmark runner for qmarginal.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the package is imported from ``src/`` next to
this directory, never from an installed copy. One client runs a closed
loop: each op starts when the previous one has finished. With ``--trace 0``
the last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a separate
traced run. The line before it is a JSON record of the run (environment,
op counts, tail percentile, determinism digest, gate problems), which is
also written with the spans to ``perfbench/results/``. The exit code is 0
only when the correctness gate passed.
"""

import time

_T_START = time.perf_counter()

import os  # noqa: E402

# The numbers should measure the program, not the scheduler: one BLAS thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOAD_NAMES = ("oracle_generic", "oracle_stalled", "analytic")
POOL_CYCLES = 64        # inputs made in set-up; later ops reuse them in order
DIGEST_CYCLES = 1       # hashed cycles; also the length of the traced run
SETUP_REPEATS = 3
TAIL_BEYOND = 10        # ops that must lie beyond the reported tail percentile

END_TO_END = {
    "setup_s": "s",
    "state_s_p50": "s",
    "state_s_tail": "s",
    "states_per_s": "1/s",
    "decided_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, in output order."""
    from perfbench.sweep import SIZES, shape_label
    from perfbench.workloads import LINEAR_KINDS
    units = {
        "feasibility.probe_s": "s",
        "feasibility.dykstra_iterations": "count",
        "feasibility.restarts_at_cap_ratio": "ratio",
        "feasibility.restarts_converged_ratio": "ratio",
        "feasibility.witness_ratio": "ratio",
        "feasibility.s_per_kiter": "s",
    }
    for layer in ("constraint_build_s", "project_psd_s", "project_affine_s"):
        units.update({f"feasibility.{layer}.T{t}": "s" for t in SIZES})
    for metric in ("uniqueness.linear_check_s", "uniqueness.elimination_s",
                   "uniqueness.consistency_build_s", "tensor.rank_nullspace_s"):
        units.update({f"{metric}.{shape_label(k)}": "s" for k in LINEAR_KINDS})
    units.update({
        "tensor.partial_trace_s": "s",
        "tensor.haar_sample_s": "s",
        "bounds.finite_n_s": "s",
        "bounds.alpha_root_s": "s",
        "trace.overhead_ratio": "ratio",
    })
    return units


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--scale", default="full", choices=("full", "tiny"),
                   help="tiny: short restarts and small counting inputs, for smoke tests")
    args = p.parse_args(argv)
    if args.seconds < 0:
        p.error("--seconds must be >= 0")
    return args


def import_package():
    """Import qmarginal from this checkout's ``src/``; raise if it is absent."""
    package = SRC / "qmarginal"
    if not (package / "__init__.py").is_file():
        raise FileNotFoundError(f"no qmarginal sources at {package}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import qmarginal
    if Path(qmarginal.__file__).resolve().parent != package.resolve():
        raise ImportError(f"qmarginal imported from {qmarginal.__file__}, not {package}")


def fresh_import_seconds() -> float:
    """Wall seconds for a new interpreter to start and import qmarginal."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import qmarginal"], env=env, cwd=ROOT,
                   check=True, timeout=120)
    return time.perf_counter() - t0


def environment(args) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": None, "version": None}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "seed": args.seed,
    }


def run_pass(workload, inputs, config, seconds, min_cycles, tracer):
    """Closed loop over whole cycles: at least ``min_cycles``, then until the
    deadline has passed at the end of a cycle."""
    from perfbench.workloads import run_op
    length = len(workload.cycle)
    times, results = [], []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i < min_cycles * length or i % length or time.perf_counter() < deadline:
        op = inputs[i % len(inputs)]
        t0 = time.perf_counter()
        results.append(run_op(op, config, tracer))
        times.append(time.perf_counter() - t0)
        i += 1
    return times, results, time.perf_counter() - start


def digest(results, n_ops: int) -> str:
    """Hash of verdicts, per-restart iterations and decided flags."""
    rows = [[r.kind, list(r.verdicts), list(r.iterations), r.decided]
            for r in results[:n_ops]]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def end_to_end(setup_s, times, results, wall):
    ts = sorted(times)
    n = len(ts)
    k = max(1, n - TAIL_BEYOND)
    metrics = {
        "setup_s": setup_s,
        "state_s_p50": statistics.median(ts),
        "state_s_tail": ts[k - 1],
        "states_per_s": n / wall,
        "decided_ratio": sum(r.decided for r in results) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, 100.0 * k / n


def per_layer(tracer, sweep, untraced_wall, traced_wall):
    self_times = tracer.self_times()
    counts = tracer.counters
    probe = self_times["feasibility.probe"]
    restarts = counts["restarts"]
    iterations = counts["iterations"]
    metrics = {
        "feasibility.probe_s": statistics.fmean(probe),
        "feasibility.dykstra_iterations": int(iterations),
        "feasibility.restarts_at_cap_ratio": counts["restarts_at_cap"] / restarts,
        "feasibility.restarts_converged_ratio": counts["restarts_converged"] / restarts,
        "feasibility.witness_ratio": counts["restarts_witness"] / restarts,
        "feasibility.s_per_kiter": sum(probe) / (iterations / 1000),
        "bounds.finite_n_s": statistics.fmean(self_times["bounds.finite_n"]),
        "bounds.alpha_root_s": statistics.fmean(self_times["bounds.alpha_root"]),
        "trace.overhead_ratio": traced_wall / untraced_wall - 1,
    }
    metrics.update(sweep)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_package()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import_in_process_s = time.perf_counter() - _T_START

    from perfbench.sweep import run_sweep
    from perfbench.tracing import NULL_TRACER, Tracer
    from perfbench.workloads import (FILL_STREAM, FULL_CONFIG, HAAR3_PAIRS, TINY_CONFIG,
                                     TINY_WORKLOADS, WORKLOADS, CountingKind, OpInput,
                                     make_inputs, run_op, warmup_inputs)
    from qmarginal.tensor import SeededRng

    tiny = args.scale == "tiny"
    workload = (TINY_WORKLOADS if tiny else WORKLOADS)[args.workload]
    config = TINY_CONFIG if tiny else FULL_CONFIG
    repeats = 1 if tiny else SETUP_REPEATS
    trace_cycles = DIGEST_CYCLES
    length = len(workload.cycle)

    # Set-up: fresh-interpreter import and input generation, each the median
    # of several tries, plus one warm-up op of each kind.
    import_s = statistics.median(fresh_import_seconds() for _ in range(repeats))
    generate = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        inputs = make_inputs(workload, args.seed, POOL_CYCLES * length)
        generate.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    warm = [run_op(op, config) for op in warmup_inputs(workload)]
    warmup_s = time.perf_counter() - t0
    setup_s = import_s + statistics.median(generate) + warmup_s

    record = {"workload": args.workload, "scale": args.scale, "trace": args.trace,
              "seconds": args.seconds, "env": environment(args),
              "setup": {"import_s": import_s, "import_in_process_s": import_in_process_s,
                        "generate_s": statistics.median(generate), "warmup_s": warmup_s}}
    checked = list(warm)
    digest_ops = trace_cycles * length

    if args.trace == 0:
        times, results, wall = run_pass(workload, inputs, config, args.seconds,
                                        max(workload.min_cycles, trace_cycles), NULL_TRACER)
        checked += results
        metrics, tail_pct = end_to_end(setup_s, times, results, wall)
        units = END_TO_END
        record.update(ops=len(results), cycles=len(results) // length,
                      tail_percentile=tail_pct, timed_wall_s=wall)
        spans = None
    else:
        _, plain, untraced_wall = run_pass(workload, inputs, config, 0, trace_cycles,
                                           NULL_TRACER)
        tracer = Tracer()
        times, results, traced_wall = run_pass(workload, inputs, config, 0, trace_cycles,
                                               tracer)
        checked += plain + results
        if digest(plain, digest_ops) != digest(results, digest_ops):
            record["digest_mismatch"] = digest(plain, digest_ops)
        # A layer the workload's ops never call is run once on a standard
        # input, so that no per-layer number is an empty zero.
        fill_rng = SeededRng(args.seed).spawn(FILL_STREAM)
        fills = []
        if not tracer.calls("feasibility.probe"):
            fills.append(OpInput(HAAR3_PAIRS, -1, HAAR3_PAIRS.make(fill_rng.spawn(0), fill_rng.spawn(0))))
        if not tracer.calls("bounds.finite_n"):
            kind = CountingKind(2, 400)
            fills.append(OpInput(kind, -2, kind.make(fill_rng.spawn(1), fill_rng.spawn(1))))
        checked += [run_op(op, config, tracer) for op in fills]
        metrics = per_layer(tracer, run_sweep(workload, args.seed), untraced_wall, traced_wall)
        units = per_layer_units()
        record.update(ops=len(results), untraced_wall_s=untraced_wall,
                      traced_wall_s=traced_wall, filled=[op.kind.name for op in fills])
        spans = tracer.to_json()

    problems = [(r.kind, p) for r in checked for p in r.problems]
    failed = sum(1 for r in results if r.problems)
    record.update(
        digest=digest(results, digest_ops), digest_ops=digest_ops,
        undecided=sum(1 for r in results if not r.decided),
        wrong=sum(1 for r in checked if r.problems), problems=problems[:50],
        per_kind={k.name: {"ops": sum(1 for r in results if r.kind == k.name),
                           "median_s": statistics.median(
                               [t for t, r in zip(times, results) if r.kind == k.name])}
                  for k in workload.kinds()})
    correct = not problems and "digest_mismatch" not in record

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"record": record, "metrics": metrics, "spans": spans}))
    print(json.dumps(record))
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
