"""Span tracing installed from outside the package.

``Tracer.install`` rebinds public functions at the module attribute their
caller looks up (``semrdp.cli_sweeper.oracle_min_rates``,
``semrdp.rdpf_solver.evaluate_decoder``, ...), so the package itself is
not edited. Each call records one span ``(id, name, start, end, parent,
op, thread, status, info)``. Spans are kept in memory, with one span stack
per thread: the curve workload runs jobs in the sweep's thread pool, and a
span that opens on a worker thread with an empty stack takes the span
currently open on the main thread (the blocked ``sweep_curve``) as its
parent. ``layer_metrics`` turns the spans into the per-layer figures.
"""

import functools
import itertools
import json
import math
import statistics
import threading
import time

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "op", "thread", "status", "info")
# work counters derived from grid and codebook sizes, not counted calls
COMPUTED = ("rdpf_solver.pairs_scanned", "rdpf_solver.pairs_per_s",
            "rdpf_closed_form.rdpf_piecewise.calls_computed",
            "coding_simulator.codeword_symbol_compares", "trace.span_cost_per_op.ms")


def _axis_size(resolution, upper):
    """Points on ``upper`` / ``resolution`` steps, endpoint appended when missed
    (the coarse grids of the oracle and of ``solve_min2``)."""
    steps = int(math.floor(upper / resolution + 1e-9))
    return steps + 1 + (steps * resolution < upper - 1e-12)


def _refine_size(center, resolution, upper=1.0):
    """Points of the +/-10 step refinement box at a tenth of the resolution,
    clipped to [0, upper]."""
    pts = {min(max(round(center + k * resolution / 10.0, 12), 0.0), upper)
           for k in range(-10, 11)}
    return len(pts)


def oracle_pairs(resolution, laws, infeasible=False):
    """Computed candidate pairs one oracle call scans: the coarse product of
    the two branch tables, one refinement box per feasible target (taken
    around the returned decoder), and a second full scan when the call
    diagnoses infeasibility."""
    coarse = _axis_size(resolution, 1.0) ** 4
    refine = 0
    for law in laws:
        sizes = [_refine_size(v, resolution) for v in law.as_tuple()]
        refine += math.prod(sizes)
    return coarse * (2 if infeasible else 1) + refine


def min2_piecewise_calls(resolution, allocation):
    """Computed ``rdpf_piecewise`` calls of one ``solve_min2`` call: a
    (distortion x perception) table per branch on the half grid, then per
    branch on the refinement box around the returned allocation."""
    coarse = 2 * _axis_size(resolution, 0.5) ** 2
    d0, d1, p0, p1 = allocation
    refine = (_refine_size(d0, resolution, 0.5) * _refine_size(p0, resolution, 0.5)
              + _refine_size(d1, resolution, 0.5) * _refine_size(p1, resolution, 0.5))
    return coarse + refine


def binning_compares(cfg):
    """Computed codeword-symbol compares of one binning trial: the encoder
    scans the whole codebook, the decoder the largest bin."""
    log2_words = cfg.n * cfg.rate_R1
    words = max(1, round(2.0 ** log2_words))
    bins = min(max(1, round(2.0 ** (cfg.n * cfg.rate_R2))), words)
    return cfg.n * (words + math.ceil(words / bins))


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self.enabled = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = None
        self._patches = []
        self._last_oracle_key = None
        self._oracle_lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.get_ident() == self._main:
                self._main_stack = stack
        return stack

    def wrap(self, name, fn, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            sid = next(self._ids)
            stack.append(sid)
            status, result = "ok", None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                status = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                info = annotate(self, args, kwargs, result) if annotate else None
                self.spans.append((sid, name, start, end, parent, self.op,
                                   threading.get_ident() != self._main, status, info))
        return traced

    def install(self, bindings):
        """Rebind every (module, attribute) site; returns the sites that do
        not exist in this version of the package."""
        missing = []
        for name, sites, annotate in bindings:
            for module, attr in sites:
                original = getattr(module, attr, None)
                if original is None:
                    missing.append(f"{module.__name__}.{attr}")
                    continue
                self._patches.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, annotate))
        return missing

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def span_cost_us(calls=20000):
    """Wall time one span adds: a no-op called through an enabled wrapper,
    minus the same number of direct calls."""
    tracer = Tracer()

    def noop():
        return None

    traced = tracer.wrap("noop", noop)
    tracer.enabled = True
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    middle = time.perf_counter()
    for _ in range(calls):
        traced()
    end = time.perf_counter()
    return max((end - middle) - (middle - start), 0.0) / calls * 1e6


# ---------------------------------------------------------------------------
# per-call annotations (computed outside the span's own interval)
# ---------------------------------------------------------------------------

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _oracle_point(tracer, args, kwargs, result):
    model = _arg(args, kwargs, 0, "model")
    resolution = float(_arg(args, kwargs, 3, "resolution"))
    key = (model.params, resolution)
    with tracer._oracle_lock:
        repeat = key == tracer._last_oracle_key
        tracer._last_oracle_key = key
    laws = [result.argmin] if result is not None else []
    return {"repeat": repeat, "rate": None if result is None else result.rate,
            "pairs": oracle_pairs(resolution, laws, infeasible=result is None)}


def _oracle_batch(tracer, args, kwargs, result):
    resolution = float(_arg(args, kwargs, 3, "resolution"))
    if result is None:
        return None
    found = [r for r in result if r is not None]
    return {"rates": [r.rate for r in found],
            "pairs": oracle_pairs(resolution, [r.argmin for r in found])}


def _min2(tracer, args, kwargs, result):
    if result is None:
        return None
    resolution = float(_arg(args, kwargs, 3, "resolution"))
    return {"rate": result.rate,
            "calls": min2_piecewise_calls(resolution, result.branch_allocation)}


def _symbols_arg(index, name):
    def annotate(tracer, args, kwargs, result):
        value = _arg(args, kwargs, index, name)
        return {"symbols": int(value) if isinstance(value, int) else int(value.size)}
    return annotate


def _binning(tracer, args, kwargs, result):
    cfg = _arg(args, kwargs, 1, "cfg")
    return {"trials": cfg.trials, "compares": binning_compares(cfg)}


def default_bindings():
    """(span name, call sites, annotation) for the public functions of the
    six modules, each rebound where its caller looks it up."""
    from semrdp import cli_sweeper as cli
    from semrdp import coding_simulator as sim
    from semrdp import rdpf_closed_form as closed
    from semrdp import rdpf_solver as solver
    from semrdp import semantic_model as model
    return [
        ("cli_sweeper.sweep_curve", [(cli, "sweep_curve")], None),
        ("rdpf_solver.oracle_min_rates", [(cli, "oracle_min_rates")], _oracle_batch),
        ("rdpf_solver.oracle_min_rate", [(cli, "oracle_min_rate"), (solver, "oracle_min_rate")],
         _oracle_point),
        ("rdpf_solver.solve_min2", [(cli, "solve_min2"), (solver, "solve_min2")], _min2),
        ("rdpf_solver.evaluate_decoder", [(solver, "evaluate_decoder"), (cli, "evaluate_decoder")],
         None),
        ("rdpf_closed_form.rdpf_piecewise", [(solver, "rdpf_piecewise")], None),
        ("rdpf_closed_form.closed_form_rate", [(cli, "closed_form_rate"),
                                               (closed, "closed_form_rate")], None),
        ("probability_core.binary_entropy_array", [(solver, "binary_entropy_array")], None),
        ("probability_core.conditional_mutual_information",
         [(solver, "conditional_mutual_information")], None),
        ("semantic_model.build_model", [(model, "build_model"), (cli, "build_model")], None),
        ("coding_simulator.run_decoder_trials", [(sim, "run_decoder_trials")], None),
        ("coding_simulator.random_binning_trial", [(sim, "random_binning_trial"),
                                                   (cli, "random_binning_trial")], _binning),
        ("coding_simulator.sample_block", [(sim, "sample_block")], _symbols_arg(1, "n")),
        ("coding_simulator.apply_decoder", [(sim, "apply_decoder")], _symbols_arg(1, "x_block")),
        ("coding_simulator.empirical_metrics", [(sim, "empirical_metrics")],
         _symbols_arg(0, "s_block")),
        ("coding_simulator.derive_seed", [(sim, "derive_seed"), (cli, "derive_seed")], None),
    ]


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def unit_of(name):
    """Unit of a per-layer metric, read from its name."""
    if name.startswith("trace_overhead."):
        return "s" if name.endswith("_s") else "ms"
    if name in ("rdpf_solver.evaluate_decoder.calls", "coding_simulator.derive_seed.calls",
                "trace.spans_per_op"):
        return "count/op"
    if name.endswith(("calls", "calls_computed")):
        return "count/call"
    suffixes = (("_ms", "ms"), (".ms", "ms"), ("_per_trial", "ms"), (".us", "us"),
                ("_per_symbol", "ns"), ("_per_s", "1/s"), ("_bits", "bits"),
                ("parallelism", "ratio"))
    for suffix, unit in suffixes:
        if name.endswith(suffix):
            return unit
    return "count"


def _union_length(intervals, lo, hi):
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Span id -> duration minus the part of its interval its children cover."""
    children = {}
    for s in spans:
        if s[4] is not None:
            children.setdefault(s[4], []).append((s[2], s[3]))
    return {s[0]: (s[3] - s[2]) - _union_length(children.get(s[0], ()), s[2], s[3])
            for s in spans}


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def layer_metrics(spans, ops, span_cost):
    """Per-layer figures of one traced phase of ``ops`` operations, given
    the measured cost of one span in microseconds. A function the workload
    never calls reads 0."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s[1], []).append(s)
    selfs = self_times(spans)
    ops = max(ops, 1)

    def named(name):
        return by_name.get(name, [])

    def dur(s):
        return s[3] - s[2]

    def mean_dur(name, scale):
        return _mean([dur(s) for s in named(name)]) * scale

    def per_symbol_ns(name):
        calls = named(name)
        symbols = sum(s[8]["symbols"] for s in calls)
        return sum(dur(s) for s in calls) / symbols * 1e9 if symbols else 0.0

    batch = named("rdpf_solver.oracle_min_rates")
    point = named("rdpf_solver.oracle_min_rate")
    min2 = named("rdpf_solver.solve_min2")
    min2_ids = {s[0] for s in min2}
    piecewise = [s for s in named("rdpf_closed_form.rdpf_piecewise") if s[4] in min2_ids]
    binning = named("coding_simulator.random_binning_trial")
    binning_trials = sum(s[8]["trials"] for s in binning)
    batch_pairs = sum(s[8]["pairs"] for s in batch if s[8])
    batch_time = sum(dur(s) for s in batch)
    oracle_rates = ([r for s in batch if s[8] for r in s[8]["rates"]]
                    + [s[8]["rate"] for s in point if s[8] and s[8]["rate"] is not None])

    # pool jobs: spans on a worker thread whose parent is on the main thread
    main_ids = {s[0] for s in spans if not s[6]}
    pool = {}
    for s in spans:
        if s[6] and s[4] in main_ids:
            entry = pool.setdefault((s[4], s[1]), [math.inf, -math.inf, 0.0])
            entry[0] = min(entry[0], s[2])
            entry[1] = max(entry[1], s[3])
            entry[2] += dur(s)
    pool_wall = sum(e[1] - e[0] for e in pool.values())

    return {
        "rdpf_solver.oracle_min_rates.self_ms": _median([selfs[s[0]] for s in batch]) * 1e3,
        "rdpf_solver.pairs_scanned": _mean([s[8]["pairs"] for s in batch if s[8]]),
        "rdpf_solver.pairs_per_s": batch_pairs / batch_time if batch_time else 0.0,
        "rdpf_solver.oracle_min_rate.feasible_ms":
            _median([dur(s) for s in point if s[7] == "ok"]) * 1e3,
        "rdpf_solver.oracle_min_rate.infeasible_ms":
            _median([dur(s) for s in point if s[7] == "InfeasibleError"]) * 1e3,
        "rdpf_solver.oracle_min_rate.repeat_model_ms":
            _median([dur(s) for s in point if s[8]["repeat"]]) * 1e3,
        "rdpf_solver.oracle_min_rate.new_model_ms":
            _median([dur(s) for s in point if not s[8]["repeat"]]) * 1e3,
        "rdpf_solver.evaluate_decoder.us": mean_dur("rdpf_solver.evaluate_decoder", 1e6),
        "rdpf_solver.evaluate_decoder.calls": len(named("rdpf_solver.evaluate_decoder")) / ops,
        "rdpf_solver.solve_min2.self_ms": _median([selfs[s[0]] for s in min2]) * 1e3,
        "rdpf_solver.oracle_rate_mean_bits": _mean(oracle_rates),
        "rdpf_solver.min2_rate_mean_bits": _mean([s[8]["rate"] for s in min2 if s[8]]),
        "rdpf_closed_form.rdpf_piecewise.calls": len(piecewise) / len(min2) if min2 else 0.0,
        "rdpf_closed_form.rdpf_piecewise.total_ms":
            sum(dur(s) for s in piecewise) / len(min2) * 1e3 if min2 else 0.0,
        "rdpf_closed_form.rdpf_piecewise.calls_computed":
            _mean([s[8]["calls"] for s in min2 if s[8]]),
        "rdpf_closed_form.closed_form_rate.us": mean_dur("rdpf_closed_form.closed_form_rate", 1e6),
        "probability_core.binary_entropy_array.ms":
            mean_dur("probability_core.binary_entropy_array", 1e3),
        "probability_core.conditional_mutual_information.us":
            mean_dur("probability_core.conditional_mutual_information", 1e6),
        "semantic_model.build_model.us": mean_dur("semantic_model.build_model", 1e6),
        "coding_simulator.sample_block.ns_per_symbol":
            per_symbol_ns("coding_simulator.sample_block"),
        "coding_simulator.apply_decoder.ns_per_symbol":
            per_symbol_ns("coding_simulator.apply_decoder"),
        "coding_simulator.empirical_metrics.ns_per_symbol":
            per_symbol_ns("coding_simulator.empirical_metrics"),
        "coding_simulator.derive_seed.us": mean_dur("coding_simulator.derive_seed", 1e6),
        "coding_simulator.derive_seed.calls": len(named("coding_simulator.derive_seed")) / ops,
        "coding_simulator.random_binning_trial.self_ms_per_trial":
            sum(selfs[s[0]] for s in binning) / binning_trials * 1e3 if binning_trials else 0.0,
        "coding_simulator.codeword_symbol_compares":
            sum(s[8]["compares"] * s[8]["trials"] for s in binning) / binning_trials
            if binning_trials else 0.0,
        "cli_sweeper.sweep_curve.self_ms":
            _median([selfs[s[0]] for s in named("cli_sweeper.sweep_curve")]) * 1e3,
        "cli_sweeper.pool_parallelism":
            sum(e[2] for e in pool.values()) / pool_wall if pool_wall else 0.0,
        "trace.spans_per_op": len(spans) / ops,
        "trace.span_cost.us": span_cost,
        "trace.span_cost_per_op.ms": len(spans) / ops * span_cost / 1e3,
    }
    return m
