"""semrdp benchmark.

    python3 benchmarks/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload (see workloads.py) in this process for ``--seconds``,
checks every operation's output, and prints the metrics, one per line
with its unit, then a final JSON line
``{"correct", "attempted", "failed", "metrics"}``. The first operations
run once untimed as a warm-up; they are checked like the rest. With
``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
the run spends a third of the time untraced, repeats the same
operations with the span wrappers of tracing.py installed and then
untraced again, and reports the per-layer metrics and the tracing
overhead (traced minus untraced) of each end-to-end metric.
A result file and, when traced, the spans are written to benchmarks/out/.

The package is imported from the ``src`` directory next to this one; the
run fails before printing a result when it is not there.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 10
WARMUP_OPS = 4  # run and checked before timing starts, so lazy set-up is not timed
E2E_UNITS = {"setup_s": "s", "main_p50_ms": "ms", "main_p90_ms": "ms", "second_p50_ms": "ms"}
LATENCIES = ("main_p50_ms", "main_p90_ms", "second_p50_ms")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("curve", "point-queries", "monte-carlo"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(workload, seed, trace, repeats):
    """Seconds, in each of ``repeats`` fresh interpreters, to import semrdp
    and generate the inputs."""
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(trace)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def clear_tables(semrdp):
    """Empty the solver's process-wide table cache, so an operation that
    stands for one CLI invocation starts as cold as that invocation."""
    cache = getattr(semrdp.rdpf_solver, "_TABLE_CACHE", None)
    if cache is not None:
        cache.clear()


def run_phase(semrdp, workload, ops, seconds=None, count=None, tracer=None):
    """Run operations in order until ``seconds`` have passed and both kinds
    ran (giving up on the kinds after 120 s), or until ``count``
    operations are done. Returns (outcomes, failures), one list of failure
    messages per attempted operation."""
    outcomes, failures, kinds = [], [], set()
    clear_tables(semrdp)
    start = time.perf_counter()

    def more():
        if count is not None:
            return i < count
        elapsed = time.perf_counter() - start
        return elapsed < seconds or (kinds != {"main", "second"} and elapsed < 120)

    i = 0
    while more():
        op = ops[i % len(ops)]
        if workload.cold_cache_per_op:
            clear_tables(semrdp)
        if tracer is not None:
            tracer.op, tracer.enabled = i, True
        try:
            out = workload.execute(op)
        except Exception:  # a crash is this operation's failure; the run goes on
            failures.append([traceback.format_exc(limit=3)])
            i += 1
            continue
        finally:
            if tracer is not None:
                tracer.enabled = False
        failures.append(workload.check(op, out))
        outcomes.append(out)
        kinds.add(out.kind)
        i += 1
    return outcomes, failures


def end_to_end(outcomes):
    from workloads import quantile
    main = [o.ms_per_unit for o in outcomes if o.kind == "main"]
    second = [o.ms_per_unit for o in outcomes if o.kind == "second"]
    return {"main_p50_ms": quantile(main, 0.5), "main_p90_ms": quantile(main, 0.9),
            "second_p50_ms": quantile(second, 0.5)}, len(main), len(second)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "semrdp" / "__init__.py").is_file():
        print(f"benchmark: no semrdp package under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("SEMRDP_THREADS", None)  # the sweep pool keeps its default size
    sys.path.insert(0, str(SRC))
    import numpy
    import semrdp
    if not Path(semrdp.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"benchmark: imported semrdp from {semrdp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    # half the set-up samples before the timed phases and half after, so a
    # slow spell of the machine at either end moves their median less
    setup_samples = measure_setup(args.workload, args.seed, 0, SETUP_REPEATS // 2)
    if args.trace:
        traced_setup = measure_setup(args.workload, args.seed, 1, SETUP_REPEATS // 2)
    ops = workload.generate(args.seed)
    env = {"cpu_count": os.cpu_count(), "max_workers": semrdp.cli_sweeper.max_workers(),
           "numpy": numpy.__version__, "python": platform.python_version(),
           "machine": platform.machine()}

    _, failures_warmup = run_phase(semrdp, workload, ops, count=WARMUP_OPS)
    missing = []
    if not args.trace:
        outcomes, failures = run_phase(semrdp, workload, ops, seconds=args.seconds)
    else:
        # untraced, traced, untraced over the same operations, so a drift
        # or warm-up across the run does not show up as tracing overhead
        outcomes, failures = run_phase(semrdp, workload, ops, seconds=args.seconds / 3)
        count = len(failures)
        tracer = tracing.Tracer()
        missing = tracer.install(tracing.default_bindings())
        try:
            traced_outcomes, traced_failures = run_phase(
                semrdp, workload, ops, count=count, tracer=tracer)
        finally:
            tracer.uninstall()
        again, again_failures = run_phase(semrdp, workload, ops, count=count)
        outcomes += again
        failures += traced_failures + again_failures
    setup_samples += measure_setup(args.workload, args.seed, 0, SETUP_REPEATS // 2)
    setup_s = statistics.median(setup_samples)
    if args.trace:
        traced_setup += measure_setup(args.workload, args.seed, 1, SETUP_REPEATS // 2)
        traced_setup_s = statistics.median(traced_setup)
    e2e, n_main, n_second = end_to_end(outcomes)
    e2e["setup_s"] = setup_s
    per_layer = {}
    if args.trace:
        traced_e2e, _, _ = end_to_end(traced_outcomes)
        per_layer = tracing.layer_metrics(tracer.spans, count, tracing.span_cost_us())
        per_layer["trace_overhead.setup_s"] = traced_setup_s - setup_s
        for name in LATENCIES:
            per_layer[f"trace_overhead.{name}"] = traced_e2e[name] - e2e[name]
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")

    failures = failures_warmup + failures
    attempted = len(failures)
    failed = sum(1 for f in failures if f)
    figures = workload.summary(outcomes)
    figures["failed_ops_ratio"] = (failed / attempted, "ratio")
    if args.trace:
        metrics = {k: (v, tracing.unit_of(k)) for k, v in per_layer.items()}
    else:
        metrics = {k: (e2e[k], unit) for k, unit in E2E_UNITS.items()}

    print(f"# semrdp benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# environment  " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# main = {workload.labels[0]} ({n_main} timed), "
          f"second = {workload.labels[1]} ({n_second} timed)")
    print(f"setup_s {setup_s:.6f} s  (median of {SETUP_REPEATS} fresh processes: "
          + ", ".join(f"{t:.4f}" for t in setup_samples) + ")")
    for name in LATENCIES:
        print(f"{name} {e2e[name]:.6f} ms")
    for name, (value, unit) in figures.items():
        print(f"{name} {value if isinstance(value, str) else f'{value:.6g}'} {unit}")
    for name in sorted(per_layer):
        label = "  (computed)" if name in tracing.COMPUTED else ""
        print(f"{name} {per_layer[name]:.6g} {tracing.unit_of(name)}{label}")
    if missing:
        print("# call sites not found, not traced: " + ", ".join(missing))
    for messages in [f for f in failures if f][:5]:
        print("# FAILED: " + " | ".join(m.strip() for m in messages))

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "environment": env, "end_to_end": e2e,
                   "setup_samples_s": setup_samples,
                   "figures": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
                   "per_layer": per_layer,
                   "samples_ms": {kind: [o.ms_per_unit for o in outcomes if o.kind == kind]
                                  for kind in ("main", "second")},
                   "failures": [f for f in failures if f]}, handle, indent=1)

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
