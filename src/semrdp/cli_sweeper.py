"""Command-line front end: curve sweeps, cross-method verification, CSV output.

Subcommands
-----------
curve     sweep distortion (or perception) and emit one rate column per
          selected method as CSV
oracle    exhaustive-search rate at a single (D, P) point
simulate  random-codebook binning runs, one CSV row per rate margin
verify    run the full verification suite; exit status 0 iff every
          criterion passes

The CSV schema for curves is fixed: ``D,P`` followed by a subset of
``R_closed,R_min2,R_oracle,R_sim`` in that order, floats printed with six
decimals, rows in ascending axis order, infeasible points marked ``inf``
so files stay rectangular. All randomness flows from ``--seed``; two runs
with equal flags produce byte-identical artifacts. ``SEMRDP_THREADS``
caps the worker count used for sweep evaluation.
"""

import argparse
import concurrent.futures
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .coding_simulator import (TrialConfig, apply_decoder, derive_seed, random_binning_trial,
                               run_decoder_trials, sample_block)
from .errors import DomainError, InfeasibleError, SemRdpError
from .probability_core import chain_rule_decomposition, random_joint
from .rdpf_closed_form import RdpPoint, closed_form_rate, rdpf_piecewise
from .rdpf_solver import DecoderLaw, evaluate_decoder, oracle_min_rate, oracle_min_rates, solve_min2
from .semantic_model import SemanticModel, build_model, dsbs_model

_METHOD_ORDER = ("closed_form", "min2", "oracle", "simulate")
_METHOD_COLUMNS = {
    "closed_form": "R_closed",
    "min2": "R_min2",
    "oracle": "R_oracle",
    "simulate": "R_sim",
}
_METHOD_TAGS = {
    "closed_form": "closed_form",
    "min2": "min2_solver",
    "oracle": "oracle",
    "simulate": "simulation",
}


def max_workers() -> int:
    env = os.environ.get("SEMRDP_THREADS", "").strip()
    if env:
        try:
            cap = int(env)
        except ValueError as exc:
            raise DomainError(f"SEMRDP_THREADS must be an integer, got {env!r}") from exc
        if cap < 1:
            raise DomainError(f"SEMRDP_THREADS must be positive, got {cap}")
        return cap
    return min(4, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# sweep configuration and curve emission
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepConfig:
    pi: float = 0.5
    q1: float = 0.0
    q2: float = 0.0
    a: float = 0.2
    b: float = 0.2
    axis: str = "D"
    axis_min: float = 0.0
    axis_max: float = 0.5
    steps: int = 51
    fixed_P: float = math.inf
    fixed_D: float = 0.25
    methods: tuple[str, ...] = ("closed_form",)
    resolution: float = 0.01
    n: int = 10000
    trials: int = 10
    seed: int = 1234
    margin: float = 0.4

    def __post_init__(self):
        if self.steps < 2:
            raise DomainError(f"steps must be at least 2, got {self.steps}")
        if self.axis not in ("D", "P"):
            raise DomainError(f"axis must be 'D' or 'P', got {self.axis!r}")
        if not 0.0 <= self.axis_min < self.axis_max <= 1.0:
            raise DomainError(
                f"axis range must satisfy 0 <= min < max <= 1, got "
                f"[{self.axis_min}, {self.axis_max}]"
            )
        if not self.methods:
            raise DomainError("select at least one method")
        unknown = [m for m in self.methods if m not in _METHOD_ORDER]
        if unknown:
            raise DomainError(f"unknown methods {unknown}; choose from {_METHOD_ORDER}")

    def model(self) -> SemanticModel:
        return build_model(self.pi, self.q1, self.q2, self.a, self.b)

    def axis_points(self) -> list[tuple[float, float]]:
        axis_vals = np.linspace(self.axis_min, self.axis_max, self.steps)
        if self.axis == "D":
            return [(float(d), self.fixed_P) for d in axis_vals]
        return [(self.fixed_D, float(p)) for p in axis_vals]


def _fmt(value: float) -> str:
    if math.isinf(value):
        return "inf"
    if abs(value) < 5e-13:
        value = 0.0
    return f"{value:.6f}"


def _rate_or_inf(fn, *args) -> float:
    try:
        return fn(*args)
    except InfeasibleError:
        return math.inf


def _simulated_rate(model, cfg: SweepConfig, index: int, D: float, P: float) -> float:
    operating = _rate_or_inf(closed_form_rate, model, D, P)
    if math.isinf(operating):
        return math.inf
    rate = operating + cfg.margin
    trial_cfg = TrialConfig(
        n=cfg.n, trials=cfg.trials, seed=derive_seed(cfg.seed, index),
        rate_R1=rate, rate_R2=rate,
    )
    report = random_binning_trial(model, trial_cfg, DecoderLaw.copy_observation())
    slack = 4.0 * (report.empirical_D_se or 0.0)
    if report.empirical_D > D + slack:
        return math.inf  # the desk-scale run missed the distortion target
    return rate


def sweep_points(cfg: SweepConfig) -> list[list[RdpPoint]]:
    """Evaluate every selected method at every axis point; one RdpPoint per
    method per point, infeasible rates carried as math.inf."""
    model = cfg.model()
    points = cfg.axis_points()
    selected = [m for m in _METHOD_ORDER if m in cfg.methods]
    columns: dict[str, list[float]] = {}

    for method in selected:
        if method == "oracle" and cfg.axis == "D":
            results = oracle_min_rates(
                model, [d for d, _ in points], cfg.fixed_P, cfg.resolution
            )
            columns[method] = [math.inf if r is None else r.rate for r in results]
            continue
        if method == "closed_form":
            columns[method] = [
                _rate_or_inf(closed_form_rate, model, d, p) for d, p in points
            ]
            continue

        def job(item, method=method):
            index, (d, p) = item
            if method == "min2":
                return _rate_or_inf(
                    lambda: solve_min2(model, d, p, cfg.resolution).rate
                )
            if method == "oracle":
                # the batched form reports infeasibility as None, without
                # the nearest-candidate search an InfeasibleError carries
                result, = oracle_min_rates(model, [d], p, cfg.resolution)
                return math.inf if result is None else result.rate
            return _simulated_rate(model, cfg, index, d, p)

        with concurrent.futures.ThreadPoolExecutor(max_workers=max_workers()) as pool:
            columns[method] = list(pool.map(job, enumerate(points)))

    rows = []
    for idx, (d, p) in enumerate(points):
        rows.append(
            [
                RdpPoint(D=d, P=p, R=max(columns[m][idx], 0.0),
                         method=_METHOD_TAGS[m])
                for m in selected
            ]
        )
    return rows


def sweep_curve(cfg: SweepConfig) -> str:
    """CSV document for the configured sweep; deterministic for a fixed config."""
    selected = [m for m in _METHOD_ORDER if m in cfg.methods]
    header = "D,P," + ",".join(_METHOD_COLUMNS[m] for m in selected)
    lines = [header]
    for row in sweep_points(cfg):
        d, p = row[0].D, row[0].P
        lines.append(
            ",".join([_fmt(d), _fmt(p)] + [_fmt(pt.R) for pt in row])
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationConfig:
    q_values: tuple[float, ...] = (0.0, 0.1, 0.2)
    pi_x: float = 0.2
    p_values: tuple[float, ...] = (0.02, 0.05, 0.1, math.inf)
    d_points: int = 20
    d_max: float = 0.45
    oracle_resolution: float = 0.01
    sandwich_tolerance: float = 0.02
    reduction_tolerance: float = 1e-12
    seed: int = 20250808
    transform_laws: int = 20
    transform_n: int = 100_000
    consistency_trials: int = 10
    consistency_n: int = 10_000
    binning_n: int = 12
    binning_trials: int = 200
    binning_margins: tuple[float, ...] = (0.2, 0.4, 0.8)
    chain_joints: int = 1000
    closed_form_bias: float = 0.0  # fault-injection hook for the sandwich check


@dataclass(frozen=True)
class CriterionResult:
    key: str
    title: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationSummary:
    criteria: tuple[CriterionResult, ...]
    point_rows: tuple[tuple, ...]  # (q, P, D, R_closed, R_oracle)
    max_sandwich_gap: float
    monotonicity_violations: int
    zero_rate_threshold: float

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.criteria)

    def to_text(self) -> str:
        lines = ["verification summary", "--------------------"]
        for c in self.criteria:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"{c.key}: {status}  {c.title}")
            lines.append(f"    {c.detail}")
        passed = sum(c.passed for c in self.criteria)
        lines.append(f"overall: {'PASS' if self.all_passed else 'FAIL'} "
                     f"({passed}/{len(self.criteria)} criteria)")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["q,P,D,R_closed,R_oracle"]
        for q, p, d, rc, ro in self.point_rows:
            lines.append(",".join(_fmt(v) for v in (q, p, d, rc, ro)))
        return "\n".join(lines) + "\n"


def _grid(cfg: VerificationConfig, q: float) -> np.ndarray:
    return np.linspace(q + 0.01, cfg.d_max, cfg.d_points)


def _seeded_laws(seed: int, count: int) -> list[DecoderLaw]:
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    return [DecoderLaw(*rng.random(4)) for _ in range(count)]


def _sandwich_data(cfg: VerificationConfig):
    """Closed-form and oracle rates over the verification grid, cached by the
    caller. Returns {(q, P): (d_grid, closed, oracle)}."""
    data = {}
    for q in cfg.q_values:
        model = dsbs_model(q, cfg.pi_x)
        d_grid = _grid(cfg, q)
        for p_val in cfg.p_values:
            closed = np.array(
                [closed_form_rate(model, float(d), p_val) + cfg.closed_form_bias
                 for d in d_grid]
            )
            oracle = oracle_min_rates(model, d_grid, p_val, cfg.oracle_resolution)
            oracle_rates = np.array(
                [math.inf if r is None else r.rate for r in oracle]
            )
            data[(q, p_val)] = (d_grid, closed, oracle_rates)
    return data


def check_sandwich(cfg: VerificationConfig, data=None):
    """Sandwich the exhaustive search between the closed form's two readings.

    At every grid point the oracle must satisfy

        oracle <= closed(D, P) + tol          (the closed form is achievable)
        |oracle - closed(D, inf)| <= tol      (the exact DSBS minimum)

    with ``cfg.closed_form_bias`` added to both closed-form values, so a
    shifted closed form fails in either direction. Where the perception
    branch is slack, closed(D, P) == closed(D, inf) and the two conditions
    are the plain two-sided agreement.

    Why closed(D, inf) is exact for every P >= 0 on the doubly symmetric
    construction: flipping every bit of (S, X, Y) leaves their joint law
    unchanged. Average any decoder p(Shat | x, y) with its mirror
    p(1 - Shat | 1 - x, 1 - y). I(X; Shat | Y) is convex in the decoder law
    and equal for both, so the rate does not rise; distortion is linear and
    equal for both, so it does not change; and Shat becomes uniform, so the
    total variation to the uniform source is 0. Every distortion-only
    optimum therefore meets any perception budget, and R(D, inf) is a lower
    bound for every P. The paper's perception-binding middle branch is an
    achievable rate above this minimum; its measured gap, max
    |closed - oracle|, is reported in the detail and returned.
    """
    data = data if data is not None else _sandwich_data(cfg)
    violation = (-math.inf, None)
    gap = (-math.inf, None)
    rows = []
    for (q, p_val), (d_grid, closed, oracle) in sorted(
        data.items(), key=lambda kv: (kv[0][0], kv[0][1])
    ):
        model = dsbs_model(q, cfg.pi_x)
        exact = np.array(
            [closed_form_rate(model, float(d), math.inf) + cfg.closed_form_bias
             for d in d_grid]
        )
        violations = np.maximum(oracle - closed, np.abs(oracle - exact))
        gaps = np.abs(closed - oracle)
        for d, rc, ro in zip(d_grid, closed, oracle):
            rows.append((q, p_val, float(d), float(rc), float(ro)))
        k = int(violations.argmax())
        if violations[k] > violation[0]:
            violation = (float(violations[k]), (q, p_val, round(float(d_grid[k]), 4)))
        k = int(gaps.argmax())
        if gaps[k] > gap[0]:
            gap = (float(gaps[k]), (q, p_val, round(float(d_grid[k]), 4)))
    passed = violation[0] <= cfg.sandwich_tolerance
    detail = (
        f"worst of max(oracle - closed(D, P), |oracle - closed(D, inf)|) = "
        f"{violation[0]:.6f} at (q, P, D) = {violation[1]} "
        f"[tolerance {cfg.sandwich_tolerance}]; paper closed form: "
        f"max |closed - oracle| = {gap[0]:.6f} at (q, P, D) = {gap[1]}"
    )
    return CriterionResult("criterion-1", "closed form vs exhaustive-search sandwich",
                           passed, detail), rows, gap[0]


def check_direct_observation_reduction(cfg: VerificationConfig):
    """At q = 0 the closed form is the Bernoulli(pi_x) piecewise function
    below the plateau onset pi_x' (= pi_x here) and 0 from pi_x' on, where
    decoding straight from the side information is certified to reach zero
    rate at distortion pi_x' and zero perception."""
    model = dsbs_model(0.0, cfg.pi_x)
    onset = model.pi_x_prime
    worst = (-math.inf, None)
    for p_val in cfg.p_values:
        for d in _grid(cfg, 0.0):
            d = float(d)
            expected = rdpf_piecewise(cfg.pi_x, d, p_val) if d < onset else 0.0
            diff = abs(closed_form_rate(model, d, p_val) - expected)
            if diff > worst[0]:
                worst = (diff, (p_val, d))
    metrics = evaluate_decoder(model, DecoderLaw.from_side_information())
    tol = cfg.reduction_tolerance
    anchor_ok = (
        abs(metrics.rate) <= tol
        and abs(metrics.distortion - onset) <= tol
        and abs(metrics.perception) <= tol
    )
    passed = worst[0] <= tol and anchor_ok
    detail = (
        f"max |closed(q=0) - expected| = {worst[0]:.3e} at (P, D) = {worst[1]}, "
        f"expected = piecewise(pi_x, D, P) for D < pi_x' = {onset:g}, else 0 "
        f"[tolerance {tol}]; side-information decoder gives (rate, D, P) = "
        f"({metrics.rate:.2e}, {metrics.distortion:.6f}, {metrics.perception:.2e}) "
        f"({'ok' if anchor_ok else 'FAIL'})"
    )
    return CriterionResult(
        "criterion-2", "direct-observation reduction at q = 0", passed, detail
    )


def check_spot_values(cfg: VerificationConfig):
    model = dsbs_model(0.1, 0.2)
    spot = closed_form_rate(model, 0.2, 0.05)
    spot_ok = abs(spot - 0.1937) <= 2e-4
    exact = closed_form_rate(model, 0.2, math.inf)
    oracle = oracle_min_rate(model, 0.2, 0.05, cfg.oracle_resolution).rate
    oracle_ok = oracle <= spot + 0.01 and abs(oracle - exact) <= 0.01
    zero_vals = [closed_form_rate(model, 0.26, p) for p in cfg.p_values]
    zero_ok = all(v == 0.0 for v in zero_vals)
    passed = spot_ok and oracle_ok and zero_ok
    detail = (
        f"closed(D=0.2, P=0.05) = {spot:.6f} (target 0.1937 +/- 2e-4: "
        f"{'ok' if spot_ok else 'FAIL'}); oracle = {oracle:.6f}: "
        f"oracle - spot = {oracle - spot:+.6f} (limit +0.01), "
        f"|oracle - exact R(0.2, inf)| = |oracle - {exact:.6f}| = "
        f"{abs(oracle - exact):.6f} (limit 0.01) ({'ok' if oracle_ok else 'FAIL'}); "
        f"closed(D=0.26, any P) = {max(zero_vals):.1e} ({'ok' if zero_ok else 'FAIL'})"
    )
    return CriterionResult("criterion-3", "spot values of the closed form",
                           passed, detail)


def zero_rate_threshold(model: SemanticModel, P: float, resolution: float,
                        rate_tolerance: float = 1e-3,
                        width: float = 0.004) -> float:
    """Smallest distortion at which the exhaustive search reaches (near) zero
    rate, located by bisection."""
    lo, hi = model.q1, 0.6
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        try:
            rate = oracle_min_rate(model, mid, P, resolution).rate
        except InfeasibleError:
            rate = math.inf
        if rate <= rate_tolerance:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def check_zero_rate_threshold(cfg: VerificationConfig):
    model = dsbs_model(0.1, 0.2)
    threshold = zero_rate_threshold(model, 0.05, cfg.oracle_resolution)
    threshold_ok = abs(threshold - 0.26) <= 0.01
    metrics = evaluate_decoder(model, DecoderLaw.from_side_information())
    anchor_ok = (
        abs(metrics.rate) <= 1e-12
        and abs(metrics.distortion - 0.26) <= 1e-12
        and abs(metrics.perception) <= 1e-12
    )
    passed = threshold_ok and anchor_ok
    detail = (
        f"bisected threshold = {threshold:.4f} (target 0.26 +/- 0.01: "
        f"{'ok' if threshold_ok else 'FAIL'}); side-information decoder gives "
        f"(rate, D, P) = ({metrics.rate:.2e}, {metrics.distortion:.6f}, "
        f"{metrics.perception:.2e}) ({'ok' if anchor_ok else 'FAIL'})"
    )
    return CriterionResult("criterion-4", "zero-rate plateau onset", passed, detail), threshold


def check_distortion_transform_law(cfg: VerificationConfig):
    model = dsbs_model(0.1, 0.2)
    q = model.q1
    worst = 0.0
    failures = 0
    for idx, law in enumerate(_seeded_laws(cfg.seed, cfg.transform_laws)):
        s, x, y = sample_block(model, cfg.transform_n, derive_seed(cfg.seed, 5, idx, 0))
        shat = apply_decoder(law, x, y, derive_seed(cfg.seed, 5, idx, 1))
        z = (s != shat).astype(float) - (1 - 2 * q) * (x != shat).astype(float) - q
        se = float(z.std(ddof=1) / math.sqrt(z.size))
        ratio = abs(float(z.mean())) / se if se > 0 else math.inf
        worst = max(worst, ratio)
        failures += ratio > 4.0
    passed = failures == 0
    detail = (
        f"{cfg.transform_laws} seeded decoders at n = {cfg.transform_n}: "
        f"worst |mean residual| = {worst:.2f} standard errors [limit 4]"
    )
    return CriterionResult("criterion-5", "semantic/observed distortion conversion",
                           passed, detail)


def check_monotonicity_and_ordering(cfg: VerificationConfig, data=None):
    data = data if data is not None else _sandwich_data(cfg)
    violations = 0
    slack = 1e-9

    for (q, p_val), (d_grid, closed, oracle) in data.items():
        violations += int(np.sum(np.diff(closed) > slack))
        violations += int(np.sum(np.diff(oracle) > slack))
    p_sorted = sorted([p for p in cfg.p_values], reverse=False)
    for q in cfg.q_values:
        for p_small, p_large in zip(p_sorted, p_sorted[1:]):
            _, closed_s, oracle_s = data[(q, p_small)]
            _, closed_l, oracle_l = data[(q, p_large)]
            violations += int(np.sum(closed_l > closed_s + slack))
            violations += int(np.sum(oracle_l > oracle_s + slack))

    # ordering across observation noise on a shared distortion grid
    q_sorted = sorted(cfg.q_values)
    common = np.linspace(max(q_sorted) + 0.01, cfg.d_max, cfg.d_points)
    for p_val in cfg.p_values:
        curves = []
        for q in q_sorted:
            model = dsbs_model(q, cfg.pi_x)
            curves.append(
                np.array([closed_form_rate(model, float(d), p_val) for d in common])
            )
        for low, high in zip(curves, curves[1:]):
            violations += int(np.sum(low > high + slack))

    passed = violations == 0
    detail = f"{violations} monotonicity/ordering violations across all sweeps"
    return CriterionResult("criterion-6", "monotone in D and P; ordered by q and P",
                           passed, detail), violations


def check_simulation_consistency(cfg: VerificationConfig):
    model = dsbs_model(0.1, 0.2)
    worst_d = worst_p = 0.0
    failures = 0
    for idx, law in enumerate(_seeded_laws(cfg.seed, cfg.transform_laws)):
        exact = evaluate_decoder(model, law)
        trial_cfg = TrialConfig(
            n=cfg.consistency_n, trials=cfg.consistency_trials,
            seed=derive_seed(cfg.seed, 7, idx),
        )
        per_d = []
        per_pdiff = []
        for t in range(trial_cfg.trials):
            s, x, y = sample_block(model, trial_cfg.n, derive_seed(trial_cfg.seed, t, 0))
            shat = apply_decoder(law, x, y, derive_seed(trial_cfg.seed, t, 1))
            per_d.append(float(np.mean(s != shat)))
            per_pdiff.append(
                float(np.mean(shat == 0)) - float(np.mean(s == 0))
            )
        per_d = np.asarray(per_d)
        per_pdiff = np.asarray(per_pdiff)
        se_d = float(per_d.std(ddof=1) / math.sqrt(per_d.size))
        se_p = float(per_pdiff.std(ddof=1) / math.sqrt(per_pdiff.size))
        ratio_d = abs(per_d.mean() - exact.distortion) / se_d if se_d > 0 else math.inf
        emp_p = abs(float(per_pdiff.mean()))
        ratio_p = abs(emp_p - exact.perception) / se_p if se_p > 0 else math.inf
        worst_d = max(worst_d, ratio_d)
        worst_p = max(worst_p, ratio_p)
        failures += (ratio_d > 4.0) or (ratio_p > 4.0)
    passed = failures == 0
    detail = (
        f"{cfg.transform_laws} decoders x {cfg.consistency_trials} trials at "
        f"n = {cfg.consistency_n}: worst distortion gap = {worst_d:.2f} se, "
        f"worst perception gap = {worst_p:.2f} se [limit 4]"
    )
    return CriterionResult("criterion-7", "empirical metrics match exact metrics",
                           passed, detail)


def check_binning_trend(cfg: VerificationConfig):
    model = dsbs_model(0.1, 0.2)
    base_rate = closed_form_rate(model, 0.2, math.inf)
    means, ses = [], []
    for margin in cfg.binning_margins:
        rate = base_rate + margin
        trial_cfg = TrialConfig(
            n=cfg.binning_n, trials=cfg.binning_trials,
            seed=derive_seed(cfg.seed, 8, int(round(margin * 1000))),
            rate_R1=rate, rate_R2=rate,
        )
        report = random_binning_trial(model, trial_cfg, DecoderLaw.copy_observation())
        means.append(report.empirical_D)
        ses.append(report.empirical_D_se or 0.0)
    ok = True
    for i in range(len(means) - 1):
        combined = math.sqrt(ses[i] ** 2 + ses[i + 1] ** 2)
        if means[i + 1] > means[i] + combined:
            ok = False
    detail = (
        f"mean distortion by margin "
        + ", ".join(
            f"+{m}: {v:.4f} (se {s:.4f})"
            for m, v, s in zip(cfg.binning_margins, means, ses)
        )
    )
    return CriterionResult("criterion-8", "binning distortion non-increasing in rate margin",
                           ok, detail)


def check_chain_rule_identities(cfg: VerificationConfig):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(cfg.seed + 9)))
    worst = 0.0
    for i in range(cfg.chain_joints):
        joint = random_joint(rng, zero_fraction=0.1 if i % 5 == 0 else 0.0)
        terms = chain_rule_decomposition(joint)
        worst = max(
            worst, abs(terms.residual_mutual_form), abs(terms.residual_entropy_form)
        )
    passed = worst < 1e-9
    detail = f"{cfg.chain_joints} random joints: worst identity residual = {worst:.3e}"
    return CriterionResult("criterion-9", "conditional-rate chain-rule identities",
                           passed, detail)


def run_verification(cfg: VerificationConfig | None = None) -> VerificationSummary:
    """Execute every verification criterion and collect a summary."""
    cfg = cfg or VerificationConfig()
    data = _sandwich_data(cfg)
    c1, rows, max_gap = check_sandwich(cfg, data)
    c2 = check_direct_observation_reduction(cfg)
    c3 = check_spot_values(cfg)
    c4, threshold = check_zero_rate_threshold(cfg)
    c5 = check_distortion_transform_law(cfg)
    c6, violations = check_monotonicity_and_ordering(cfg, data)
    c7 = check_simulation_consistency(cfg)
    c8 = check_binning_trend(cfg)
    c9 = check_chain_rule_identities(cfg)
    return VerificationSummary(
        criteria=(c1, c2, c3, c4, c5, c6, c7, c8, c9),
        point_rows=tuple(rows),
        max_sandwich_gap=max_gap,
        monotonicity_violations=violations,
        zero_rate_threshold=threshold,
    )


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_model_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--pi", type=float, default=0.5, help="prior P(S = 1)")
    parser.add_argument("--q", type=float, default=None,
                        help="common observation crossover (sets q1 = q2)")
    parser.add_argument("--q1", type=float, default=None)
    parser.add_argument("--q2", type=float, default=None)
    parser.add_argument("--a", type=float, default=None,
                        help="side-channel crossover for X = 0")
    parser.add_argument("--b", type=float, default=None,
                        help="side-channel crossover for X = 1")
    parser.add_argument("--pi-x", type=float, default=None, dest="pi_x",
                        help="symmetric side-channel crossover (sets a = b)")


def _resolve_model_params(args) -> tuple[float, float, float, float, float]:
    if args.pi_x is not None and (args.a is not None or args.b is not None):
        raise DomainError("--pi-x conflicts with --a/--b")
    if args.q is not None and (args.q1 is not None or args.q2 is not None):
        raise DomainError("--q conflicts with --q1/--q2")
    q1 = args.q if args.q is not None else (args.q1 if args.q1 is not None else 0.0)
    q2 = args.q if args.q is not None else (args.q2 if args.q2 is not None else q1)
    if args.pi_x is not None:
        return (args.pi, q1, q2, args.pi_x, args.pi_x)
    if args.a is None or args.b is None:
        raise DomainError("provide either --pi-x or both --a and --b")
    return (args.pi, q1, q2, args.a, args.b)


def _parse_methods(text: str) -> tuple[str, ...]:
    methods = tuple(m.strip() for m in text.split(",") if m.strip())
    if not methods:
        raise DomainError("select at least one method")
    return methods


def _parse_law(text: str) -> DecoderLaw:
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 4:
        raise DomainError(f"a decoder law needs 4 comma-separated values, got {text!r}")
    return DecoderLaw(*parts)


def _load_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"config line without '=': {raw.strip()!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            values[key.replace("-", "_")] = val
    return values


def _coerce(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="semrdp",
        description="rate-distortion-perception curves for an indirectly "
                    "observed binary source with side information",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("curve", help="sweep an axis and emit rate columns")
    _add_model_flags(curve)
    curve.add_argument("--axis", choices=("D", "P"), default="D")
    curve.add_argument("--P", type=float, default=math.inf,
                       help="perception budget for D sweeps (inf allowed)")
    curve.add_argument("--D", type=float, default=0.25,
                       help="distortion target for P sweeps")
    curve.add_argument("--d-min", type=float, default=0.0)
    curve.add_argument("--d-max", type=float, default=0.5)
    curve.add_argument("--p-min", type=float, default=0.0)
    curve.add_argument("--p-max", type=float, default=0.3)
    curve.add_argument("--steps", type=int, default=51)
    curve.add_argument("--methods", default="closed_form")
    curve.add_argument("--resolution", type=float, default=0.01)
    curve.add_argument("--n", type=int, default=10000)
    curve.add_argument("--trials", type=int, default=10)
    curve.add_argument("--seed", type=int, default=1234)
    curve.add_argument("--margin", type=float, default=0.4)
    curve.add_argument("--out", default=None, help="CSV path (stdout when omitted)")

    oracle = sub.add_parser("oracle", help="exhaustive search at one point")
    _add_model_flags(oracle)
    oracle.add_argument("--D", type=float, required=True)
    oracle.add_argument("--P", type=float, default=math.inf)
    oracle.add_argument("--resolution", type=float, default=0.02)
    oracle.add_argument("--out", default=None)

    simulate = sub.add_parser("simulate", help="random-codebook binning runs")
    _add_model_flags(simulate)
    simulate.add_argument("--D", type=float, default=0.2)
    simulate.add_argument("--P", type=float, default=math.inf)
    simulate.add_argument("--margins", default="0.2,0.4,0.8",
                          help="rate margins over the closed form, comma separated")
    simulate.add_argument("--law", default=None,
                          help="decoder law s0,t0,s1,t1 for plain decoding trials "
                               "(skips the binning stage)")
    simulate.add_argument("--n", type=int, default=12)
    simulate.add_argument("--trials", type=int, default=200)
    simulate.add_argument("--seed", type=int, default=1234)
    simulate.add_argument("--r2-gap", type=float, default=0.0,
                          help="rate_R1 - rate_R2 in bits per symbol")
    simulate.add_argument("--out", default=None)

    verify = sub.add_parser("verify", help="run the verification suite")
    verify.add_argument("--resolution", type=float, default=0.01)
    verify.add_argument("--seed", type=int, default=20250808)
    verify.add_argument("--quick", action="store_true",
                        help="smaller grids and trial counts (not the official run)")
    verify.add_argument("--closed-form-bias", type=float, default=0.0,
                        help="fault-injection offset added to the closed form "
                             "inside the sandwich check")
    verify.add_argument("--out", default=None,
                        help="path prefix; writes <prefix>.txt and <prefix>.csv")

    commands = {"curve": curve, "oracle": oracle, "simulate": simulate,
                "verify": verify}
    for command in commands.values():
        command.add_argument("--config", default=None,
                             help="key=value file merged beneath explicit flags")
    return parser, commands


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _cmd_curve(args) -> int:
    pi, q1, q2, a, b = _resolve_model_params(args)
    axis_min, axis_max = (
        (args.d_min, args.d_max) if args.axis == "D" else (args.p_min, args.p_max)
    )
    cfg = SweepConfig(
        pi=pi, q1=q1, q2=q2, a=a, b=b,
        axis=args.axis, axis_min=axis_min, axis_max=axis_max, steps=args.steps,
        fixed_P=args.P, fixed_D=args.D,
        methods=_parse_methods(args.methods), resolution=args.resolution,
        n=args.n, trials=args.trials, seed=args.seed, margin=args.margin,
    )
    _emit(sweep_curve(cfg), args.out)
    return 0


def _cmd_oracle(args) -> int:
    pi, q1, q2, a, b = _resolve_model_params(args)
    model = build_model(pi, q1, q2, a, b)
    result = oracle_min_rate(model, args.D, args.P, args.resolution)
    law = result.argmin
    text = (
        "D,P,R_oracle,achieved_D,achieved_P,s0,t0,s1,t1\n"
        + ",".join(
            _fmt(v)
            for v in (args.D, args.P, result.rate, result.achieved_D,
                      result.achieved_P, law.s0, law.t0, law.s1, law.t1)
        )
        + "\n"
    )
    _emit(text, args.out)
    return 0


def _cmd_simulate(args) -> int:
    pi, q1, q2, a, b = _resolve_model_params(args)
    model = build_model(pi, q1, q2, a, b)
    header = (
        "n,trials,seed,rate_R1,rate_R2,empirical_D,empirical_D_se,"
        "empirical_P_marginal,empirical_P_blockwise,bin_decode_failures"
    )
    lines = [header]

    def row(report, cfg):
        return ",".join(
            [
                str(cfg.n), str(cfg.trials), str(cfg.seed),
                _fmt(cfg.rate_R1), _fmt(cfg.rate_R2),
                _fmt(report.empirical_D),
                _fmt(report.empirical_D_se) if report.empirical_D_se is not None else "",
                _fmt(report.empirical_P_marginal),
                _fmt(report.empirical_P_blockwise),
                str(report.bin_decode_failures),
            ]
        )

    if args.law is not None:
        law = _parse_law(args.law)
        cfg = TrialConfig(n=args.n, trials=args.trials, seed=args.seed)
        lines.append(row(run_decoder_trials(model, law, cfg), cfg))
    else:
        base = closed_form_rate(model, args.D, args.P)
        for margin in (float(m) for m in args.margins.split(",")):
            r1 = base + margin
            cfg = TrialConfig(
                n=args.n, trials=args.trials,
                seed=derive_seed(args.seed, int(round(margin * 1000))),
                rate_R1=r1, rate_R2=max(r1 - args.r2_gap, 0.0),
            )
            report = random_binning_trial(model, cfg, DecoderLaw.copy_observation())
            lines.append(row(report, cfg))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    cfg = VerificationConfig(
        oracle_resolution=args.resolution,
        seed=args.seed,
        closed_form_bias=args.closed_form_bias,
    )
    if args.quick:
        cfg = replace(
            cfg, d_points=8, transform_laws=5, transform_n=20_000,
            consistency_trials=4, consistency_n=4000,
            binning_trials=40, chain_joints=100,
            oracle_resolution=max(args.resolution, 0.02),
        )
    summary = run_verification(cfg)
    if args.out is None:
        sys.stdout.write(summary.to_text())
    else:
        _emit(summary.to_text(), args.out + ".txt")
        _emit(summary.to_csv(), args.out + ".csv")
        sys.stdout.write(summary.to_text())
    return 0 if summary.all_passed else 1


def main(argv=None) -> int:
    parser, commands = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            file_values = {
                k: _coerce(v) for k, v in _load_config_file(args.config).items()
            }
            sub = commands[args.command]
            known = {action.dest for action in sub._actions}
            sub.set_defaults(**{k: v for k, v in file_values.items() if k in known})
            args = parser.parse_args(argv)
        handler = {
            "curve": _cmd_curve,
            "oracle": _cmd_oracle,
            "simulate": _cmd_simulate,
            "verify": _cmd_verify,
        }[args.command]
        return handler(args)
    except SemRdpError as exc:
        print(f"semrdp: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
