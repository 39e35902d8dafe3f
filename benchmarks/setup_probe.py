"""Set-up probe: in a fresh interpreter, import semrdp and generate one
workload's inputs, then print the seconds that took.

    python3 benchmarks/setup_probe.py <workload> <seed> <trace 0|1>

With trace 1 the span wrappers are installed as well, so the difference
shows what tracing adds to set-up.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main():
    workload, seed, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    import semrdp  # noqa: F401  (the import being timed)
    import workloads
    if trace:
        import tracing
        tracing.Tracer().install(tracing.default_bindings())
    workloads.WORKLOADS[workload].generate(seed)
    print(repr(time.perf_counter() - START))


if __name__ == "__main__":
    main()
