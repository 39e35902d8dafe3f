"""The three benchmark workloads.

Each workload turns ``--seed`` into a list of operations (``generate``),
runs one operation with the timed region around the package call only
(``execute``), and checks the operation's output (``check``). Every
workload times two kinds of operation, ``main`` and ``second``; the
end-to-end metrics are their latencies, so each metric exists on every
workload:

=============  ================================  ===============================
workload       main operation                    second operation
=============  ================================  ===============================
curve          one point of a D-axis sweep       one point of a P-axis sweep
point-queries  one ``oracle_min_rate`` query     one ``solve_min2`` query
monte-carlo    one 10^6-symbol decoder trial     one n = 12 binning trial
=============  ================================  ===============================

Inputs are drawn by ``random.Random`` keyed on the workload and the seed.
Draws that set how much work an operation does (sweep lengths, the query
mix, codebook sizes) follow fixed cycles; the seed moves the model
parameters and targets within fixed ranges.
"""

import math
import random
import time
from dataclasses import dataclass, field

from semrdp import cli_sweeper, coding_simulator, rdpf_closed_form, rdpf_solver, semantic_model
from semrdp.errors import InfeasibleError

P_CYCLE = (0.02, 0.05, 0.1, math.inf)


@dataclass
class Outcome:
    kind: str          # "main" or "second"
    seconds: float     # wall time of the package call
    units: int         # points, queries or trials the call completed
    value: object      # the call's output, for the checks
    extra: dict = field(default_factory=dict)

    @property
    def ms_per_unit(self):
        return self.seconds * 1e3 / self.units


def _timed(fn, *args):
    """(wall seconds, result) of one package call; an InfeasibleError is
    the call's answer, not a crash."""
    start = time.perf_counter()
    try:
        value = fn(*args)
    except InfeasibleError as exc:
        value = exc
    return time.perf_counter() - start, value


def _dsbs_draw(rng, q=(0.02, 0.2), pi_x=(0.1, 0.4)):
    return round(rng.uniform(*q), 4), round(rng.uniform(*pi_x), 4)


def _plateau(q, pi_x):
    return (1.0 - 2.0 * q) * pi_x + q


def _law_metrics(model, law):
    """Exact distortion and total variation of a decoder law, computed here
    from the model joint so the checks do not lean on the solver."""
    p3 = model.joint.masses
    p0 = law.prob_zero_table()
    distortion = float((p3[0] * (1.0 - p0)).sum() + (p3[1] * p0).sum())
    shat0 = float((p3.sum(axis=0) * p0).sum())
    return distortion, abs(shat0 - (1.0 - model.pi))


def _strata(rng, n):
    """One uniform draw in each of n equal slices of [0, 1), shuffled."""
    return _shuffled(rng, [(k + rng.random()) / n for k in range(n)])


def _shuffled(rng, values):
    values = list(values)
    rng.shuffle(values)
    return values


def _asymmetric_draw(rng):
    """(pi, q1, q2, a, b) of an asymmetric model."""
    return (round(rng.uniform(0.25, 0.5), 4), round(rng.uniform(0.05, 0.2), 4),
            round(rng.uniform(0.05, 0.2), 4), round(rng.uniform(0.1, 0.35), 4),
            round(rng.uniform(0.1, 0.35), 4))


def _bayes_error(model):
    p3 = model.joint.masses
    return float(p3.min(axis=0).sum())


# ---------------------------------------------------------------------------

class Curve:
    """``sweep_curve`` on DSBS models at resolution 0.02, methods
    closed_form,min2,oracle, alternating D-axis and P-axis sweeps.

    At 0.02 a sweep takes a few tenths of a second, so a run holds dozens
    of sweeps of each axis and its medians are not at the mercy of a few
    slow ones; the coarse oracle scan still takes most of a D sweep. The
    models stay near the README example (q = 0.1, pi_x = 0.2) and the D
    sweeps' fixed perception budgets follow one cycle, so the cost of a
    sweep moves little from seed to seed."""

    name = "curve"
    labels = ("D-axis curve point", "P-axis curve point")
    cold_cache_per_op = True  # each sweep stands for one `semrdp curve` run
    RESOLUTION = 0.02
    D_STEPS, P_STEPS = 8, 4
    HEADER = "D,P,R_closed,R_min2,R_oracle"

    def generate(self, seed):
        rng = random.Random(f"curve:{seed}")
        ops = []
        for k in range(256):
            q, pi_x = _dsbs_draw(rng, q=(0.09, 0.11), pi_x=(0.18, 0.22))
            common = dict(pi=0.5, q1=q, q2=q, a=pi_x, b=pi_x, resolution=self.RESOLUTION,
                          methods=("closed_form", "min2", "oracle"))
            if k % 2 == 0:
                cfg = cli_sweeper.SweepConfig(
                    axis="D", axis_min=q + 0.01, axis_max=0.45, steps=self.D_STEPS,
                    fixed_P=P_CYCLE[(k // 2) % len(P_CYCLE)], **common)
            else:
                fixed_d = round(q + rng.uniform(0.45, 0.65) * (_plateau(q, pi_x) - q), 4)
                cfg = cli_sweeper.SweepConfig(
                    axis="P", axis_min=0.0, axis_max=0.2, steps=self.P_STEPS,
                    fixed_D=fixed_d, **common)
            ops.append(cfg)
        return ops

    def execute(self, cfg):
        seconds, text = _timed(cli_sweeper.sweep_curve, cfg)
        kind = "main" if cfg.axis == "D" else "second"
        return Outcome(kind, seconds, cfg.steps, text)

    def check(self, cfg, out):
        if isinstance(out.value, Exception):
            return [f"sweep raised {out.value!r}"]
        lines = out.value.strip().split("\n")
        if lines[0] != self.HEADER or len(lines) != cfg.steps + 1:
            return [f"unexpected CSV shape: {lines[0]!r}, {len(lines) - 1} rows"]
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        out.extra["oracle"] = [r[4] for r in rows]
        out.extra["min2"] = [r[3] for r in rows]
        failures = []
        for d, p, closed, min2, oracle in rows:
            where = f"(q={cfg.q1}, pi_x={cfg.a}, D={d}, P={p})"
            if not all(math.isfinite(v) and v >= 0.0 for v in (closed, min2, oracle)):
                failures.append(f"non-finite or negative rate at {where}")
            elif oracle > closed + 0.01 + 1e-6:
                failures.append(f"oracle {oracle} above closed form {closed} + 0.01 at {where}")
            elif min2 < oracle - 0.02 - 1e-6:
                failures.append(f"solve_min2 {min2} below oracle {oracle} - 0.02 at {where}")
        return failures

    def summary(self, outcomes):
        d = [o for o in outcomes if o.kind == "main"]
        p = [o for o in outcomes if o.kind == "second"]
        d_points, p_points = sum(o.units for o in d), sum(o.units for o in p)
        oracle = [r for o in outcomes for r in o.extra.get("oracle", ())]
        min2 = [r for o in outcomes for r in o.extra.get("min2", ())]
        return {
            "curve_d_points_per_s": (_ratio(d_points, sum(o.seconds for o in d)), "1/s"),
            "curve_p_points_per_s": (_ratio(p_points, sum(o.seconds for o in p)), "1/s"),
            "oracle_rate_mean_bits": (_mean(oracle), "bits"),
            "min2_rate_mean_bits": (_mean(min2), "bits"),
            "share_oracle_points_batched": (_ratio(d_points, d_points + p_points), "ratio"),
            "share_oracle_points_per_point": (_ratio(p_points, d_points + p_points), "ratio"),
        }


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Query:
    kind: str                 # "new", "repeat", "infeasible" or "min2"
    params: tuple             # build_model (or dsbs_model) parameters
    D: float
    P: float
    model: object             # the same model, built at set-up for the checks
    law: object = None        # a grid decoder meeting (D, P), for feasible oracle queries
    cross_check: bool = False  # also solve the oracle at this min2 query


class PointQueries:
    """A closed loop with one caller sending single-point queries at the
    `semrdp oracle` default resolution 0.02. Per block of 28 queries: 10
    oracle queries on a new asymmetric model, 3 on the previous oracle
    query's model, 3 infeasible oracle queries (D below the model's Bayes
    error), and 12 ``solve_min2`` queries on DSBS models. Like the CLI, each
    query builds its model from the parameters. Within a block the targets
    are stratified, so every block asks the same mix of hard and easy
    queries."""

    name = "point-queries"
    labels = ("oracle_min_rate query", "solve_min2 query")
    cold_cache_per_op = False  # one process answers the whole stream
    RESOLUTION = 0.02
    BLOCK = ("repeat",) * 3 + ("infeasible",) * 3 + ("min2",) * 12 + ("new",) * 9

    def _reachable_target(self, rng, model, share, unbounded_p):
        """(D, P) just above a decoder on the search grid, so the query is
        feasible by construction; that decoder's rate bounds the answer.
        ``share`` in [0, 1) sets how close the decoder is to the MAP rule."""
        p3 = model.joint.masses
        weight = 0.5 + 0.45 * share
        cells = []
        for x, y in ((0, 0), (1, 0), (0, 1), (1, 1)):
            map_zero = 1.0 if p3[0, x, y] >= p3[1, x, y] else 0.0
            mix = weight * map_zero + (1.0 - weight) * rng.random()
            cells.append(round(round(mix / self.RESOLUTION) * self.RESOLUTION, 12))
        law = rdpf_solver.DecoderLaw(*cells)
        distortion, perception = _law_metrics(model, law)
        d_target = distortion + rng.uniform(0.001, 0.03)
        p_target = math.inf if unbounded_p else perception + rng.uniform(0.001, 0.05)
        return d_target, p_target, law

    def generate(self, seed):
        rng = random.Random(f"point-queries:{seed}")
        ops, previous = [], None
        for _ in range(120):
            block = list(self.BLOCK)
            rng.shuffle(block)
            plan = {"min2": zip(_strata(rng, 12), _shuffled(rng, P_CYCLE * 3)),
                    "infeasible": zip(_strata(rng, 3), _shuffled(rng, P_CYCLE[:3])),
                    "reachable": zip(_strata(rng, 13), _shuffled(rng, [True] * 3 + [False] * 10))}
            cross_check = True
            for kind in ["new"] + block:
                share, p_draw = next(plan["reachable" if kind in ("new", "repeat") else kind])
                if kind == "min2":
                    q, pi_x = _dsbs_draw(rng)
                    ops.append(Query(kind, (q, pi_x), q + 0.02 + share * (_plateau(q, pi_x) - q),
                                     p_draw, semantic_model.dsbs_model(q, pi_x),
                                     cross_check=cross_check))
                    cross_check = False
                    continue
                params = previous if kind == "repeat" else _asymmetric_draw(rng)
                model = semantic_model.build_model(*params)
                if kind == "infeasible":
                    ops.append(Query(kind, params, _bayes_error(model) * (0.3 + 0.6 * share),
                                     p_draw, model))
                else:
                    d_target, p_target, law = self._reachable_target(rng, model, share, p_draw)
                    ops.append(Query(kind, params, d_target, p_target, model, law))
                previous = params
        return ops

    def execute(self, op):
        def query():
            if op.kind == "min2":
                return rdpf_solver.solve_min2(semantic_model.dsbs_model(*op.params),
                                              op.D, op.P, self.RESOLUTION)
            return rdpf_solver.oracle_min_rate(semantic_model.build_model(*op.params),
                                               op.D, op.P, self.RESOLUTION)

        seconds, value = _timed(query)
        return Outcome("second" if op.kind == "min2" else "main", seconds, 1, value,
                       {"query": op.kind})

    def check(self, op, out):
        value = out.value
        if op.kind == "infeasible":
            return [] if isinstance(value, InfeasibleError) else [
                f"infeasible query D={op.D} returned {value!r}"]
        if isinstance(value, Exception):
            return [f"{op.kind} query D={op.D}, P={op.P} raised {value!r}"]
        out.extra["rate"] = value.rate
        failures = []
        if op.kind == "min2":
            # on DSBS models the closed form at P = inf is the exact
            # distortion-only rate, a floor for every perception budget
            floor = rdpf_closed_form.closed_form_rate(op.model, op.D, math.inf)
            if value.rate < floor - 0.02:
                failures.append(f"solve_min2 {value.rate} below closed form (P = inf) "
                                f"{floor} - 0.02")
            if op.cross_check:
                oracle = rdpf_solver.oracle_min_rate(op.model, op.D, op.P, self.RESOLUTION).rate
                closed = rdpf_closed_form.closed_form_rate(op.model, op.D, op.P)
                if value.rate < oracle - 0.02:
                    failures.append(f"solve_min2 {value.rate} below oracle {oracle} - 0.02")
                if oracle > closed + 0.01:
                    failures.append(f"oracle {oracle} above closed form {closed} + 0.01")
            return failures
        exact = rdpf_solver.evaluate_decoder(op.model, value.argmin)
        bound = rdpf_solver.evaluate_decoder(op.model, op.law).rate
        if exact.distortion > op.D + 1e-9 or exact.perception > op.P + 1e-9:
            failures.append(f"argmin misses (D, P) = ({op.D}, {op.P}): "
                            f"({exact.distortion}, {exact.perception})")
        if abs(exact.rate - value.rate) > 1e-9:
            failures.append(f"reported rate {value.rate} != re-evaluated {exact.rate}")
        if value.rate > bound + 1e-9:
            failures.append(f"rate {value.rate} above the grid decoder's {bound}")
        return failures

    def summary(self, outcomes):
        oracle = [o for o in outcomes if o.kind == "main"]
        min2 = [o for o in outcomes if o.kind == "second"]
        oracle_ms = [o.ms_per_unit for o in oracle]
        repeat = sum(o.extra["query"] == "repeat" for o in oracle)
        infeasible = sum(o.extra["query"] == "infeasible" for o in oracle)
        return {
            "oracle_query_p50_ms": (quantile(oracle_ms, 0.5), "ms"),
            "oracle_query_p90_ms": (quantile(oracle_ms, 0.9), "ms"),
            "min2_query_p50_ms": (quantile([o.ms_per_unit for o in min2], 0.5), "ms"),
            "oracle_rate_mean_bits": (_mean([o.extra["rate"] for o in oracle if "rate" in o.extra]),
                                      "bits"),
            "min2_rate_mean_bits": (_mean([o.extra["rate"] for o in min2 if "rate" in o.extra]),
                                    "bits"),
            "oracle_queries": (len(oracle), "count"),
            "share_oracle_repeat_model": (_ratio(repeat, len(oracle)), "ratio"),
            "share_oracle_infeasible": (_ratio(infeasible, len(oracle)), "ratio"),
            "share_queries_min2": (_ratio(len(min2), len(outcomes)), "ratio"),
        }


# ---------------------------------------------------------------------------

class MonteCarlo:
    """``coding_simulator`` only: ``run_decoder_trials`` with seeded decoder
    laws on 10^6-symbol blocks, alternating with ``random_binning_trial``
    at n = 12 over a ladder of codebooks of 2^4.5 to 2^12 words."""

    name = "monte-carlo"
    labels = ("10^6-symbol decoder trial", "n = 12 binning trial")
    cold_cache_per_op = False  # never touches the solver's tables
    SYMBOLS, DECODE_TRIALS = 10**6, 3
    BIN_N, BIN_TRIALS = 12, 40
    LOG2_WORDS = (4.5, 6.0, 7.5, 9.0, 10.5, 12.0)

    def generate(self, seed):
        rng = random.Random(f"monte-carlo:{seed}")
        ops = []
        for _ in range(300):
            params = _asymmetric_draw(rng)
            law = rdpf_solver.DecoderLaw(*(rng.random() for _ in range(4)))
            cfg = coding_simulator.TrialConfig(n=self.SYMBOLS, trials=self.DECODE_TRIALS,
                                               seed=rng.getrandbits(63))
            exact, _ = _law_metrics(semantic_model.build_model(*params), law)
            ops.append(("decode", params, law, cfg, exact))
            q, pi_x = _dsbs_draw(rng)
            d_target = rng.uniform(0.5 * (q + _plateau(q, pi_x)), _plateau(q, pi_x))
            operating = rdpf_closed_form.closed_form_rate(
                semantic_model.dsbs_model(q, pi_x), d_target, math.inf)
            cfgs = [coding_simulator.TrialConfig(
                        n=self.BIN_N, trials=self.BIN_TRIALS, seed=rng.getrandbits(63),
                        rate_R1=bits / self.BIN_N, rate_R2=bits / self.BIN_N)
                    for bits in self.LOG2_WORDS]
            ops.append(("binning", (q, pi_x), cfgs, operating))
        return ops

    def execute(self, op):
        if op[0] == "decode":
            _, params, law, cfg, _ = op
            seconds, report = _timed(lambda: coding_simulator.run_decoder_trials(
                semantic_model.build_model(*params), law, cfg))
            return Outcome("main", seconds, cfg.trials, report)
        _, (q, pi_x), cfgs, _ = op
        law = rdpf_solver.DecoderLaw.copy_observation()
        start = time.perf_counter()
        model = semantic_model.dsbs_model(q, pi_x)
        reports = [coding_simulator.random_binning_trial(model, cfg, law) for cfg in cfgs]
        return Outcome("second", time.perf_counter() - start, sum(c.trials for c in cfgs),
                       reports)

    def check(self, op, out):
        if op[0] == "decode":
            _, _, _, cfg, exact = op
            se = math.sqrt(exact * (1.0 - exact) / (cfg.n * cfg.trials))
            gap = abs(out.value.empirical_D - exact)
            return [] if gap <= 4.0 * se else [
                f"empirical distortion {out.value.empirical_D} is more than 4 se = {4 * se:.2e} "
                f"from {exact}"]
        _, _, cfgs, operating = op
        out.extra["margins"] = [c.rate_R1 - operating for c in cfgs]
        return [f"{r.bin_decode_failures} bin decode failures at R1 = R2 = {c.rate_R1}"
                for c, r in zip(cfgs, out.value) if r.bin_decode_failures != 0 or
                r.trials != c.trials]

    def summary(self, outcomes):
        decode = [o for o in outcomes if o.kind == "main"]
        binning = [o for o in outcomes if o.kind == "second"]
        symbols = sum(o.units for o in decode) * self.SYMBOLS
        margins = [m for o in binning for m in o.extra.get("margins", ())]
        return {
            "mc_msymbols_per_s": (_ratio(symbols / 1e6, sum(o.seconds for o in decode)),
                                  "Msymbol/s"),
            "binning_trials_per_s": (_ratio(sum(o.units for o in binning),
                                            sum(o.seconds for o in binning)), "1/s"),
            "binning_margin_min_bits": (min(margins, default=0.0), "bits"),
            "binning_margin_max_bits": (max(margins, default=0.0), "bits"),
        }


WORKLOADS = {w.name: w for w in (Curve(), PointQueries(), MonteCarlo())}


def _ratio(num, den):
    return num / den if den else 0.0


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def quantile(values, share):
    """Linear-interpolation quantile (the 'inclusive' rule)."""
    values = sorted(values)
    if not values:
        return 0.0
    pos = share * (len(values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)
