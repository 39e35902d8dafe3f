"""Run every workload of the benchmark and summarise across seeds.

    python3 benchmarks/run_all.py [--seeds 1-10] [--seconds 30] [--trace 0]
                                  [--write benchmarks/baseline.json]

Each (workload, seed) is one run of run.py in its own process. The
summary gives, per workload, the median and quartiles over the seeds of
every metric in the run's final JSON line and of the workload's own
figures, with the failed and attempted operation counts. ``--write``
stores the summary as JSON, for instance as the committed baseline.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("curve", "point-queries", "monte-carlo")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values):
    """(median, first quartile, third quartile), the quartiles as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1", type=parse_seeds)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", default=None, help="path of the JSON summary")
    args = parser.parse_args(argv)

    summary = {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
               "workloads": {}}
    for workload in WORKLOADS:
        values, units, figures, attempted, failed = {}, {}, {}, 0, 0
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            with open(HERE / "out" / f"result-{workload}-seed{seed}-trace{args.trace}.json",
                      encoding="utf-8") as handle:
                detail = json.load(handle)
            summary["environment"] = detail["environment"]
            for name, figure in detail["figures"].items():
                if not isinstance(figure["value"], str):
                    figures.setdefault(name, []).append(figure["value"])
                    units[name] = figure["unit"]

        print(f"== {workload}: {failed} failed of {attempted} operations over "
              f"{len(args.seeds)} seeds")
        entry = {"attempted": attempted, "failed": failed, "metrics": {}, "figures": {}}
        for name, vals in values.items():
            med, q1, q3 = spread(vals)
            entry["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "unit": units[name]}
            share = (q3 - q1) / med if med else 0.0
            print(f"{name} {med:.6g} {units[name]}  [q1 {q1:.6g}, q3 {q3:.6g}, "
                  f"(q3 - q1) / median {share:.3f}]")
        for name, vals in figures.items():
            entry["figures"][name] = {"median": statistics.median(vals), "unit": units[name]}
            print(f"  {name} {statistics.median(vals):.6g} {units[name]} (median over seeds)")
        summary["workloads"][workload] = entry

    if args.write:
        with open(args.write, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
