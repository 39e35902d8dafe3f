"""Cross-method verification suite: nine acceptance criteria that check the
closed form, the exact oracle and Monte Carlo against each other.

Every criterion is one row ``(key, title, check)`` of ``CRITERIA``, and
every check has the signature ``check(cfg, data) -> (passed, detail)``,
where ``data`` is the oracle sweep ``_sandwich_data(cfg)``.
``run_verification`` builds that sweep once and runs the rows in order.
"""

import math
from dataclasses import dataclass

import numpy as np

from .coding_simulator import (TrialConfig, apply_decoder, derive_seed, random_binning_trial,
                               run_decoder_trials, sample_block)
from .errors import DomainError, InfeasibleError
from .probability_core import chain_rule_decomposition, random_joint
from .rdpf_closed_form import closed_form_rate, rdpf_piecewise
from .rdpf_solver import DecoderLaw, evaluate_decoder, oracle_min_rate
from .semantic_model import SemanticModel, dsbs_model

PI_X = 0.2
D_MAX = 0.45
SANDWICH_TOLERANCE = 0.02
REDUCTION_TOLERANCE = 1e-12
BINNING_N = 12
ZERO_RATE_TOLERANCE = 1e-3  # rate read as zero by the threshold bisection
ZERO_RATE_WIDTH = 0.004  # bracket width at which the bisection stops


def _fmt(value: float) -> str:
    if math.isinf(value):
        return "inf"
    if abs(value) < 5e-13:
        value = 0.0
    return f"{value:.6f}"


def _csv(header: str, rows) -> str:
    """The header line, then one line per row: text as given, numbers through _fmt."""
    lines = [",".join([v if isinstance(v, str) else _fmt(v) for v in row]) for row in rows]
    return "\n".join([header, *lines]) + "\n"


def _check_margins(margins) -> None:
    # a margin sits above the closed form, sizes a 2^(n (base + margin))-word
    # codebook and keys a ladder run's stream as round(1000 * margin)
    if not all(0.0 <= m < math.inf for m in margins):
        raise DomainError(f"rate margin(s) must be finite and non-negative, got {margins}")


def _margin_ladder(model: SemanticModel, base: float, margins, n: int, trials: int,
                   seed_parts: tuple[int, ...], r2_gap: float = 0.0):
    """(TrialConfig, TrialReport) pairs of binning runs with the copy-observation
    decoder, one per margin m: rate_R1 = base + m, rate_R2 = max(rate_R1 - r2_gap, 0),
    on the stream derive_seed(*seed_parts, round(1000 m))."""
    _check_margins(margins)
    runs = []
    for margin in margins:
        r1 = base + margin
        cfg = TrialConfig(n=n, trials=trials, rate_R1=r1, rate_R2=max(r1 - r2_gap, 0.0),
                          seed=derive_seed(*seed_parts, int(round(margin * 1000))))
        runs.append((cfg, random_binning_trial(model, cfg, DecoderLaw.copy_observation())))
    return runs


def _rate_or_inf(fn, *args) -> float:
    """``fn(*args)``, or inf when it raises InfeasibleError."""
    try:
        return fn(*args)
    except InfeasibleError:
        return math.inf


@dataclass(frozen=True)
class VerificationConfig:
    q_values: tuple[float, ...] = (0.0, 0.1, 0.2)
    p_values: tuple[float, ...] = (0.02, 0.05, 0.1, math.inf)
    d_points: int = 20
    seed: int = 20250808
    transform_laws: int = 20
    transform_n: int = 100_000
    consistency_trials: int = 10
    consistency_n: int = 10_000
    binning_trials: int = 200
    binning_margins: tuple[float, ...] = (0.2, 0.4, 0.8)
    chain_joints: int = 1000

    def __post_init__(self):
        # criterion 9 keys its Philox stream with the 64-bit word seed + 9
        if not 0 <= self.seed <= 2**64 - 10:
            raise DomainError(f"seed must lie in [0, 2**64 - 10], got {self.seed}")


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
        return _csv("q,P,D,R_closed,R_oracle", self.point_rows)


def _grid(cfg: VerificationConfig, q: float) -> np.ndarray:
    return np.linspace(q + 0.01, D_MAX, cfg.d_points)


def _seeded_laws(seed: int, count: int) -> list[DecoderLaw]:
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    return [DecoderLaw(*rng.random(4)) for _ in range(count)]


def _sandwich_data(cfg: VerificationConfig):
    """Closed-form and oracle rates over the verification grid.
    Returns {(q, P): (d_grid, closed, oracle)} in ascending (q, P) order."""
    data = {}
    for q in sorted(cfg.q_values):
        model = dsbs_model(q, PI_X)
        d_grid = _grid(cfg, q)
        for p_val in sorted(cfg.p_values):
            closed = np.array([closed_form_rate(model, float(d), p_val) for d in d_grid])
            oracle = np.array([
                _rate_or_inf(lambda: oracle_min_rate(model, d, p_val).rate)
                for d in d_grid
            ])
            data[(q, p_val)] = (d_grid, closed, oracle)
    return data


def _side_information_anchor(model: SemanticModel, distortion: float):
    """Decoding straight from the side information must reach zero rate at
    ``distortion`` with zero perception; returns (ok, detail)."""
    metrics = evaluate_decoder(model, DecoderLaw.from_side_information())
    ok = (
        abs(metrics.rate) <= REDUCTION_TOLERANCE
        and abs(metrics.distortion - distortion) <= REDUCTION_TOLERANCE
        and abs(metrics.perception) <= REDUCTION_TOLERANCE
    )
    detail = (
        f"side-information decoder gives (rate, D, P) = ({metrics.rate:.2e}, "
        f"{metrics.distortion:.6f}, {metrics.perception:.2e}) ({'ok' if ok else 'FAIL'})"
    )
    return ok, detail


def check_sandwich(cfg: VerificationConfig, data):
    """Sandwich the exact oracle between the closed form's two readings.

    At every grid point the oracle must satisfy

        oracle <= closed(D, P) + tol          (the closed form is achievable)
        |oracle - closed(D, inf)| <= tol      (the exact DSBS minimum)

    Both readings come from ``closed_form_rate`` as this module looks it
    up, so a shifted closed form fails in either direction. Where
    perception is slack, the two are the plain two-sided agreement.

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
    |closed - oracle|, is reported in the detail.
    """
    violation = (-math.inf, None)
    gap = (-math.inf, None)
    for (q, p_val), (d_grid, closed, oracle) in data.items():
        model = dsbs_model(q, PI_X)
        exact = np.array([closed_form_rate(model, float(d), math.inf) for d in d_grid])
        violations = np.maximum(oracle - closed, np.abs(oracle - exact))
        gaps = np.abs(closed - oracle)
        k = int(violations.argmax())
        if violations[k] > violation[0]:
            violation = (float(violations[k]), (q, p_val, round(float(d_grid[k]), 4)))
        k = int(gaps.argmax())
        if gaps[k] > gap[0]:
            gap = (float(gaps[k]), (q, p_val, round(float(d_grid[k]), 4)))
    detail = (
        f"worst of max(oracle - closed(D, P), |oracle - closed(D, inf)|) = "
        f"{violation[0]:.6f} at (q, P, D) = {violation[1]} "
        f"[tolerance {SANDWICH_TOLERANCE}]; paper closed form: "
        f"max |closed - oracle| = {gap[0]:.6f} at (q, P, D) = {gap[1]}"
    )
    return violation[0] <= SANDWICH_TOLERANCE, detail


def check_direct_observation_reduction(cfg: VerificationConfig, data):
    """At q = 0 the closed form is the Bernoulli(pi_x) piecewise function
    below the plateau onset pi_x' (= pi_x here) and 0 from pi_x' on, where
    decoding straight from the side information is certified to reach zero
    rate at distortion pi_x' and zero perception."""
    model = dsbs_model(0.0, PI_X)
    onset = model.pi_x_prime
    worst = (-math.inf, None)
    for p_val in cfg.p_values:
        for d in _grid(cfg, 0.0):
            d = float(d)
            expected = rdpf_piecewise(PI_X, d, p_val) if d < onset else 0.0
            diff = abs(closed_form_rate(model, d, p_val) - expected)
            if diff > worst[0]:
                worst = (diff, (p_val, d))
    anchor_ok, anchor = _side_information_anchor(model, onset)
    detail = (
        f"max |closed(q=0) - expected| = {worst[0]:.3e} at (P, D) = {worst[1]}, "
        f"expected = piecewise(pi_x, D, P) for D < pi_x' = {onset:g}, else 0 "
        f"[tolerance {REDUCTION_TOLERANCE}]; {anchor}"
    )
    return worst[0] <= REDUCTION_TOLERANCE and anchor_ok, detail


def check_spot_values(cfg: VerificationConfig, data):
    model = dsbs_model(0.1, 0.2)
    spot = closed_form_rate(model, 0.2, 0.05)
    spot_ok = abs(spot - 0.1937) <= 2e-4
    exact = closed_form_rate(model, 0.2, math.inf)
    oracle = oracle_min_rate(model, 0.2, 0.05).rate
    oracle_ok = oracle <= spot + 0.01 and abs(oracle - exact) <= 0.01
    zero_vals = [closed_form_rate(model, 0.26, p) for p in cfg.p_values]
    zero_ok = all(v == 0.0 for v in zero_vals)
    detail = (
        f"closed(D=0.2, P=0.05) = {spot:.6f} (target 0.1937 +/- 2e-4: "
        f"{'ok' if spot_ok else 'FAIL'}); oracle = {oracle:.6f}: "
        f"oracle - spot = {oracle - spot:+.6f} (limit +0.01), "
        f"|oracle - exact R(0.2, inf)| = |oracle - {exact:.6f}| = "
        f"{abs(oracle - exact):.6f} (limit 0.01) ({'ok' if oracle_ok else 'FAIL'}); "
        f"closed(D=0.26, any P) = {max(zero_vals):.1e} ({'ok' if zero_ok else 'FAIL'})"
    )
    return spot_ok and oracle_ok and zero_ok, detail


def zero_rate_threshold(model: SemanticModel, P: float) -> float:
    """Smallest distortion at which the oracle reaches (near) zero rate,
    located by bisection."""
    lo, hi = model.q1, 0.6
    while hi - lo > ZERO_RATE_WIDTH:
        mid = 0.5 * (lo + hi)
        rate = _rate_or_inf(lambda: oracle_min_rate(model, mid, P).rate)
        if rate <= ZERO_RATE_TOLERANCE:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def check_zero_rate_threshold(cfg: VerificationConfig, data):
    model = dsbs_model(0.1, 0.2)
    threshold = zero_rate_threshold(model, 0.05)
    threshold_ok = abs(threshold - 0.26) <= 0.01
    anchor_ok, anchor = _side_information_anchor(model, 0.26)
    detail = (
        f"bisected threshold = {threshold:.4f} (target 0.26 +/- 0.01: "
        f"{'ok' if threshold_ok else 'FAIL'}); {anchor}"
    )
    return threshold_ok and anchor_ok, detail


def check_distortion_transform_law(cfg: VerificationConfig, data):
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
    detail = (
        f"{cfg.transform_laws} seeded decoders at n = {cfg.transform_n}: "
        f"worst |mean residual| = {worst:.2f} standard errors [limit 4]"
    )
    return failures == 0, detail


def check_monotonicity_and_ordering(cfg: VerificationConfig, data):
    violations = 0
    slack = 1e-9

    for _, closed, oracle in data.values():
        violations += int(np.sum(np.diff(closed) > slack))
        violations += int(np.sum(np.diff(oracle) > slack))
    p_sorted = sorted(cfg.p_values)
    for q in cfg.q_values:
        for p_small, p_large in zip(p_sorted, p_sorted[1:]):
            _, closed_s, oracle_s = data[(q, p_small)]
            _, closed_l, oracle_l = data[(q, p_large)]
            violations += int(np.sum(closed_l > closed_s + slack))
            violations += int(np.sum(oracle_l > oracle_s + slack))

    # ordering across observation noise on a shared distortion grid
    q_sorted = sorted(cfg.q_values)
    common = np.linspace(max(q_sorted) + 0.01, D_MAX, cfg.d_points)
    for p_val in cfg.p_values:
        curves = []
        for q in q_sorted:
            model = dsbs_model(q, PI_X)
            curves.append(
                np.array([closed_form_rate(model, float(d), p_val) for d in common])
            )
        for low, high in zip(curves, curves[1:]):
            violations += int(np.sum(low > high + slack))

    return violations == 0, f"{violations} monotonicity/ordering violations across all sweeps"


def check_simulation_consistency(cfg: VerificationConfig, data):
    model = dsbs_model(0.1, 0.2)
    worst_d = worst_p = 0.0
    failures = 0
    for idx, law in enumerate(_seeded_laws(cfg.seed, cfg.transform_laws)):
        exact = evaluate_decoder(model, law)
        report = run_decoder_trials(model, law, TrialConfig(
            n=cfg.consistency_n, trials=cfg.consistency_trials,
            seed=derive_seed(cfg.seed, 7, idx),
        ))
        se_d = report.empirical_D_se or 0.0
        se_p = report.empirical_P_signed_se or 0.0
        ratio_d = abs(report.empirical_D - exact.distortion) / se_d if se_d > 0 else math.inf
        emp_p = abs(report.empirical_P_signed)
        ratio_p = abs(emp_p - exact.perception) / se_p if se_p > 0 else math.inf
        worst_d = max(worst_d, ratio_d)
        worst_p = max(worst_p, ratio_p)
        failures += (ratio_d > 4.0) or (ratio_p > 4.0)
    detail = (
        f"{cfg.transform_laws} decoders x {cfg.consistency_trials} trials at "
        f"n = {cfg.consistency_n}: worst distortion gap = {worst_d:.2f} se, "
        f"worst perception gap = {worst_p:.2f} se [limit 4]"
    )
    return failures == 0, detail


def check_binning_trend(cfg: VerificationConfig, data):
    model = dsbs_model(0.1, 0.2)
    runs = _margin_ladder(model, closed_form_rate(model, 0.2, math.inf), cfg.binning_margins,
                          BINNING_N, cfg.binning_trials, (cfg.seed, 8))
    means = [report.empirical_D for _, report in runs]
    ses = [report.empirical_D_se or 0.0 for _, report in runs]
    ok = not any(
        high > low + math.sqrt(se_low ** 2 + se_high ** 2)
        for low, high, se_low, se_high in zip(means, means[1:], ses, ses[1:])
    )
    return ok, "mean distortion by margin " + ", ".join(
        f"+{m}: {v:.4f} (se {s:.4f})" for m, v, s in zip(cfg.binning_margins, means, ses))


def check_chain_rule_identities(cfg: VerificationConfig, data):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(cfg.seed + 9)))
    worst = 0.0
    for i in range(cfg.chain_joints):
        joint = random_joint(rng, zero_fraction=0.1 if i % 5 == 0 else 0.0)
        terms = chain_rule_decomposition(joint)
        worst = max(
            worst, abs(terms.residual_mutual_form), abs(terms.residual_entropy_form)
        )
    return worst < 1e-9, f"{cfg.chain_joints} random joints: worst identity residual = {worst:.3e}"


CRITERIA = (
    ("criterion-1", "closed form vs exhaustive-search sandwich", check_sandwich),
    ("criterion-2", "direct-observation reduction at q = 0", check_direct_observation_reduction),
    ("criterion-3", "spot values of the closed form", check_spot_values),
    ("criterion-4", "zero-rate plateau onset", check_zero_rate_threshold),
    ("criterion-5", "semantic/observed distortion conversion", check_distortion_transform_law),
    ("criterion-6", "monotone in D and P; ordered by q and P", check_monotonicity_and_ordering),
    ("criterion-7", "empirical metrics match exact metrics", check_simulation_consistency),
    ("criterion-8", "binning distortion non-increasing in rate margin", check_binning_trend),
    ("criterion-9", "conditional-rate chain-rule identities", check_chain_rule_identities),
)


def run_verification(cfg: VerificationConfig | None = None) -> VerificationSummary:
    """Execute every verification criterion and collect a summary."""
    cfg = cfg or VerificationConfig()
    data = _sandwich_data(cfg)
    criteria = tuple(
        CriterionResult(key, title, *check(cfg, data)) for key, title, check in CRITERIA
    )
    point_rows = tuple(
        (q, p_val, float(d), float(rc), float(ro))
        for (q, p_val), (d_grid, closed, oracle) in data.items()
        for d, rc, ro in zip(d_grid, closed, oracle)
    )
    return VerificationSummary(criteria, point_rows)
