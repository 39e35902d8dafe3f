"""Numerical minimization of the conditional rate under distortion and
perception constraints.

Two independent routes are provided on purpose:

- ``oracle_min_rate``: the exact minimum of I(X; Shat | Y) over every
  stochastic decoding rule p(Shat | X, Y), under exact expected Hamming
  distortion against the hidden bit and exact total variation between the
  source and reconstruction marginals. It is the ground truth the closed
  forms are checked against, and it is free to use decoders whose
  per-branch marginal deviations cancel, which the branch-decomposed
  program below cannot. A decoder is four cells P(Shat = 0 | x, y); the
  rate is convex in them and both constraints are linear, so the oracle
  solves the Lagrangian dual in Blahut's form (Blahut 1972), with total
  variation as a convex perception term (Blau & Michaeli 2019). With a
  uniform S and a common crossover its distortion root without perception
  multiplier opens at the closed form solve_min2 uses (Gray 1972). Each
  answer carries the dual value, a lower bound up to the rounding of its
  own evaluation. It runs in plain floats; ``evaluate_decoder`` re-derives
  its metrics from the joint.

- ``solve_min2``: the branch-decomposed program. It minimizes
  p_a R(a*)(d_0, p_0) + p_b R(b*)(d_1, p_1) over per-branch allocations of
  observation-domain distortion d_y and perception p_y, subject to the
  semantic-distortion budget p_a ((1-2q) d_0 + q) + p_b ((1-2q) d_1 + q) <= D
  and the aligned perception budget p_a p_0 + p_b p_1 <= P. The aligned
  sum upper-bounds the true total variation, so every allocation is a
  decoder, which it returns, and it never undercuts the oracle; near the
  zero-rate plateau cancellation makes the oracle better. Each branch RDPF
  and its slopes are closed-form and convex (Blau & Michaeli 2019); the
  branches share the slopes, found in allocation space by at most two nested
  bracketed roots (none for equal posteriors), whose dual value certifies it.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, HypothesisError, InfeasibleError
from .probability_core import (JointDistribution, _as_probability, binary_entropy,
                               conditional_mutual_information)
from .rdpf_closed_form import rdpf_piecewise
from .semantic_model import SemanticModel

_TOL = 1e-12
_RES_MIN, _RES_MAX = 1e-4, 0.1


@dataclass(frozen=True)
class DecoderLaw:
    """Stochastic binary decoding rule, one Bernoulli per (X, Y) cell.

    s_y = P(Shat = 0 | X = 0, Y = y) and t_y = P(Shat = 0 | X = 1, Y = y).
    """

    s0: float
    t0: float
    s1: float
    t1: float

    def __post_init__(self):
        for name in ("s0", "t0", "s1", "t1"):
            object.__setattr__(self, name, _as_probability(getattr(self, name), name))

    @classmethod
    def copy_observation(cls) -> "DecoderLaw":
        """Shat = X."""
        return cls(1.0, 0.0, 1.0, 0.0)

    @classmethod
    def from_side_information(cls) -> "DecoderLaw":
        """Shat = Y, ignoring the observation entirely."""
        return cls(1.0, 1.0, 0.0, 0.0)

    @classmethod
    def uniform(cls) -> "DecoderLaw":
        """Shat is an independent fair coin."""
        return cls(0.5, 0.5, 0.5, 0.5)

    def prob_zero_table(self) -> np.ndarray:
        """P(Shat = 0) indexed [x, y]."""
        return np.array([[self.s0, self.s1], [self.t0, self.t1]])

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.s0, self.t0, self.s1, self.t1)


@dataclass(frozen=True)
class DecoderMetrics:
    """Exact per-symbol performance of a decoding rule on a model."""

    rate: float
    distortion: float
    perception: float


@dataclass(frozen=True)
class SolverResult:
    rate: float
    achieved_D: float
    achieved_P: float
    argmin: DecoderLaw
    branch_allocation: tuple[float, float, float, float] | None = None
    # a lower bound, up to the rounding of its own evaluation, on the minimum at the
    # aimed distortion, within 1e-12 of D (solve_min2 also aims its perception _AIM past P)
    dual_bound: float | None = None


def evaluate_decoder(model: SemanticModel, law: DecoderLaw) -> DecoderMetrics:
    """Exact (rate, distortion, perception) of a decoding rule.

    The rate is I(X; Shat | Y) computed by probability_core on the
    assembled four-variable joint; no shortcut formula is trusted here.
    It is the independent check of the oracle's four-cell _cell_metrics.
    """
    p3 = model.joint.masses
    p_zero = law.prob_zero_table()[None, :, :]
    m4 = np.empty(p3.shape + (2,))
    m4[..., 0] = p3 * p_zero
    m4[..., 1] = p3 * (1.0 - p_zero)
    # products of validated masses with probabilities: non-negative, sum 1
    joint4 = JointDistribution._trusted(m4, ("S", "X", "Y", "Shat"))
    rate = conditional_mutual_information(joint4, "X", "Shat", "Y")
    distortion = float(m4[0, :, :, 1].sum() + m4[1, :, :, 0].sum())
    # a marginal mass can round above 1 (pi = 0, or Shat constant); clip it to 1
    p_s, p_shat = (np.minimum(m4.sum(axis=axes), 1.0) for axes in ((1, 2, 3), (0, 1, 2)))
    perception = float(0.5 * np.abs(p_s - p_shat).sum())  # total variation: half the L1 distance
    return DecoderMetrics(rate=rate, distortion=distortion, perception=perception)


# ---------------------------------------------------------------------------
# exact oracle
# ---------------------------------------------------------------------------

# The oracle aims at least this far above the distortion floor, within the
# 1e-12 tolerance, so its multipliers stay finite when D sits at the floor;
# both solvers let perception pass its budget by this much before it binds.
_AIM = 1e-13
_ROOT_TOL, _ROOT_WIDTH = 1e-12, 1e-10  # a bracket closes on its residual or width
_K_CAP = 1000.0  # a cell cost in bits past which 2**-k moves no cell off 0 or 1
_MULTIPLIER_CAP = 2.0 ** 20
_LN2 = math.log(2.0)


class _Unbounded(Exception):
    """A multiplier bracket grew past _MULTIPLIER_CAP."""


def _knapsack(p0: list[float], p1: list[float], target: float,
              P: float) -> tuple[float, list[float]]:
    """Least Hamming distortion, and a minimizer, over cells z = P(Shat = 0 |
    cell) in [0, 1] whose pooled P(Shat = 0) lies within P of ``target``,
    given p0, p1 = p(S = 0, cell), p(S = 1, cell). A fractional knapsack: the
    MAP rule reaches the Bayes error, and cells move its P(Shat = 0) to the
    nearer budget edge, least distortion per unit of P(Shat = 0) first."""
    weight, cost = [a + b for a, b in zip(p0, p1)], [b - a for a, b in zip(p0, p1)]
    z = [1.0 if c < 0 else 0.0 for c in cost]  # the MAP rule
    floor = shift = 0.0
    for a, b, w, v in zip(p0, p1, weight, z):  # left to right, as NumPy sums a few cells
        floor, shift = floor + min(a, b), shift + w * v
    excess, lower = abs(shift - target) - P, shift > target
    # only the cells the MAP rule decodes as 0 can lower P(Shat = 0); only the others raise it
    movable = [k for k, (w, v) in enumerate(zip(weight, z)) if w > 0 and (v == 1.0) == lower]
    for k in sorted(movable, key=lambda k: abs(cost[k]) / weight[k]):  # ties in cell order
        if excess <= 0:
            break
        step = min(excess, weight[k])
        floor += step * abs(cost[k]) / weight[k]
        z[k] += -step / weight[k] if lower else step / weight[k]
        excess -= step
    return floor, z


def _distortion_floor(model: SemanticModel, P: float,
                      merged: bool = False) -> tuple[float, tuple[float, float, float, float]]:
    """(least distortion, cells (s0, t0, s1, t1) of a decoder reaching it)
    among decoders whose P(Shat = 0) lies within P of P(S = 0). ``merged``
    restricts them to s_y = t_y, where Shat is independent of X given Y: rate 0."""
    p0, p1, source0 = model.flat_masses[:4], model.flat_masses[4:], 1.0 - model.pi  # (x, y) order
    if merged:  # one cell per branch y
        floor, (z0, z1) = _knapsack(*([p[0] + p[2], p[1] + p[3]] for p in (p0, p1)), source0, P)
        return floor, (z0, z0, z1, z1)
    floor, z = _knapsack(p0, p1, source0, P)
    return floor, (z[0], z[2], z[1], z[3])


def _cell_metrics(model: SemanticModel, cells: tuple[float, ...]) -> tuple[float, float, float]:
    """(rate, distortion, perception) of the cells (s0, t0, s1, t1) in floats. The rate is
    sum_y [P(y) h(P(Shat = 0 | y)) - sum_x p(x, y) h(z_xy)], a branch with equal cells adding
    exactly 0 (Shat ignores X there); the perception is |P(Shat = 0) - P(S = 0)|."""
    masses, z = model.flat_masses, (cells[0], cells[2], cells[1], cells[3])  # (x, y) order
    w = [masses[k] + masses[k + 4] for k in range(4)]
    rate = d0 = d1 = mass0 = 0.0
    for k in range(4):  # the distortion sums run as evaluate_decoder's
        d0, d1 = d0 + masses[k] * (1.0 - z[k]), d1 + masses[k + 4] * z[k]
        mass0 += w[k] * z[k]
        if k < 2 and z[k] != z[k + 2]:  # branch y = k
            b = w[k] + w[k + 2]
            rate += (b * binary_entropy((w[k] * z[k] + w[k + 2] * z[k + 2]) / b)
                     - w[k] * binary_entropy(z[k]) - w[k + 2] * binary_entropy(z[k + 2]))
    return rate, d0 + d1, abs(mass0 - (1.0 - model.pi))


def _branch_argmin(px0: float, px1: float, k0: float, k1: float) -> tuple[float, float]:
    """P(Shat = 0 | X = x), x = 0, 1, minimizing I(X; Shat) + E[k_X 1{Shat = 0}]
    on one branch with p(x) = (px0, px1), costs k in bits. In Blahut's form
    the value is min over r = P(Shat = 0) of -sum_x p(x) log2(r a_x + 1 - r),
    a_x = 2**-k_x, with cells r a_x / (r a_x + 1 - r). Costs of one sign suit
    one reconstruction for both x; otherwise the stationary r solves a
    linear equation, clipped to [0, 1]."""
    if k0 >= 0.0 and k1 >= 0.0:
        return 0.0, 0.0
    if k0 <= 0.0 and k1 <= 0.0:
        return 1.0, 1.0
    k0, k1 = min(max(k0, -_K_CAP), _K_CAP), min(max(k1, -_K_CAP), _K_CAP)
    # a_x - 1 through expm1, exact where a_x rounds to 1
    r = min(max(-px0 / math.expm1(-_LN2 * k1) - px1 / math.expm1(-_LN2 * k0), 0.0), 1.0)
    a0, a1 = 2.0 ** -k0, 2.0 ** -k1
    return r * a0 / (r * a0 + (1.0 - r)), r * a1 / (r * a1 + (1.0 - r))


def _bracketed_root(residual, start: float = 0.0, step: float = 1.0, first=None):
    """(cells, multipliers) at the root of a residual that does not increase
    in t >= 0; ``residual(t)`` returns (h, cells, multipliers), and h <= 0 is
    feasible; ``first`` is residual(start) when the caller already has it.
    The bracket opens at t = start and widens by step, 4 step, 16 step, ...
    away from it: upward until its upper end is feasible, or downward, to 0
    at most, until its lower end is not; a feasible t = 0 is the root.
    Regula falsi (Illinois) closes it until |h| <= _ROOT_TOL at one end or
    the bracket is _ROOT_WIDTH wide. h is linear in the cells, so the two
    ends mix to put h at 0, also across a jump where a branch minimizer is
    not unique; the multipliers are those of the end with the larger
    share."""
    lo = hi = start
    h_lo, z_lo, m_lo = h_hi, z_hi, m_hi = first or residual(start)
    while h_hi > 0.0:
        if hi >= _MULTIPLIER_CAP:
            raise _Unbounded
        lo, h_lo, z_lo, m_lo = hi, h_hi, z_hi, m_hi
        hi, step = start + step, 4.0 * step
        h_hi, z_hi, m_hi = residual(hi)
    while h_lo <= 0.0:
        if lo == 0.0:
            return z_lo, m_lo
        hi, h_hi, z_hi, m_hi = lo, h_lo, z_lo, m_lo
        lo, step = max(start - step, 0.0), 4.0 * step
        h_lo, z_lo, m_lo = residual(lo)
    f_lo, f_hi, side = h_lo, h_hi, 0
    while min(h_lo, -h_hi) > _ROOT_TOL and hi - lo > _ROOT_WIDTH:
        t = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < t < hi:
            break  # closed in floats
        h, z, multipliers = residual(t)
        if h > 0.0:
            lo, h_lo, z_lo, m_lo, f_lo = t, h, z, multipliers, h
            f_hi *= 0.5 if side < 0 else 1.0
            side = -1
        else:
            hi, h_hi, z_hi, m_hi, f_hi = t, h, z, multipliers, h
            f_lo *= 0.5 if side > 0 else 1.0
            side = 1
    theta = h_hi / (h_hi - h_lo)  # share of the infeasible end, in [0, 1)
    mixed = tuple(theta * a + (1.0 - theta) * b for a, b in zip(z_lo, z_hi))
    return mixed, m_lo if theta > 0.5 else m_hi


def _warm_start(roots, x: float) -> tuple[float, float]:
    """(start, step) of the oracle's lam root at nu = x, given the (x, lam) of
    the roots found so far: from 0 by 1 before any, from the one root by 1, and then
    from the linear interpolation of the two nearest in x, stepping by its
    distance from the nearer one, at least 2**-30."""
    if not roots:
        return 0.0, 1.0
    (xa, la), *farther = sorted(roots, key=lambda root: abs(root[0] - x))
    if not farther:
        return la, 1.0
    xb, lb = farther[0]
    lam = la + (lb - la) * (x - xa) / (xb - xa)
    return max(lam, 0.0), max(abs(lam - la), 2.0 ** -30)


def _water_level(branches, aim: float) -> tuple[float, float]:
    """(d, weight below it): without perception multiplier branch y = (s_y,
    1 - s_y, w_y) is a Bernoulli(s_y) source at distortion min(d, s_y) with
    slope lam = log2((1 - d) / d) (Blahut 1972), sum_y w_y min(d, s_y) = aim >
    0; d = 1/2, lam = 0+, with no weight where sum_y w_y s_y <= aim."""
    if sum(w * s for s, _, w in branches) <= aim:  # the cells' distortion at Shat = 0
        return 0.5, 0.0
    fixed, free = 0.0, sum(w for _, _, w in branches)
    for s, _, w in sorted(branches)[:-1]:
        if fixed + free * s < aim:  # d* > s: the branch sits at s
            fixed, free = fixed + w * s, free - w
    return (aim - fixed) / free, free


def _slope_start(branches, aim: float) -> tuple[float, float]:
    """(start, step) of a lam root without perception multiplier at
    _water_level (step: ~_ROOT_TOL in h), or the jump at lam = 0+."""
    d, free = _water_level(branches, aim)
    return ((max(math.log2((1.0 - d) / d), 0.0), _ROOT_TOL / (_LN2 * free * d * (1.0 - d)))
            if free else (0.0, _ROOT_WIDTH))


def _oracle_opening(model: SemanticModel, D: float, aim_d: float) -> tuple[float, float]:
    """(start, step) of the oracle's lam root at nu = 0. With a uniform S and
    a common crossover q < 1/2 every cell costs -+(1 - 2q) per unit of lam,
    so that root is X's rate-distortion given Y (Gray 1972) at Hamming
    distortion (aim_d - q) / (1 - 2q): _slope_start's, over 1 - 2q, since
    lam charges semantic distortion. Elsewhere from 0 by 1, also where aim_d is
    pushed past D to the floor + _AIM: lam is 43 or more there, and a root that
    closes tight lets the dual round a few ulps above the rate."""
    q, scale = model.q1, 1.0 - 2.0 * model.q1
    if aim_d != D or model.pi != 0.5 or model.q2 != q or q >= 0.5:
        return 0.0, 1.0
    stars = [min(s, 1.0 - s) for s in (model.a_star, model.b_star)]
    branches = [(s, 1.0 - s, w) for s, w in zip(stars, (model.p_a, model.p_b)) if s > 0.0]
    start, step = _slope_start(branches, (aim_d - q) / scale)
    return (start / scale, step / scale) if start else (0.0, step)  # the jump: _ROOT_WIDTH wide


def _dual_solve(model: SemanticModel, P: float, aim_d: float, opening: tuple[float, float]):
    """(cells in (s0, t0, s1, t1) order, dual value) where the minimum is
    positive, at a distortion ``aim_d`` within the tolerance of D.
    Multipliers lam >= 0 on distortion and nu on P(Shat = 0) charge the cell
    (x, y) k = lam (P(S = 1 | x, y) - P(S = 0 | x, y)) + nu bits per unit of
    P(x, y) P(Shat = 0 | x, y), and the dual is
    g = sum_y phi_y + lam (P(S = 0) - aim_d) - nu P(S = 0) - |nu| P. At fixed nu
    the minimizer's distortion does not increase in lam: a root puts it on
    aim_d. Unless that meets P with nu = 0, P(Shat = 0) does not increase
    in nu (lam re-solved each time): a second root, which opens on the
    nu = 0 root, puts it on the nearer edge of the budget. The lam root at nu = 0 opens
    at ``opening``; each one at nu != 0 starts from the roots found at nu != 0 (_warm_start)."""
    p0, p1 = ([model.flat_masses[s + k] for k in (0, 2, 1, 3)] for s in (0, 4))  # (y, x) order
    weight, cost = [a + b for a, b in zip(p0, p1)], [b - a for a, b in zip(p0, p1)]
    branch = [weight[k & 2] + weight[k | 1] for k in range(4)]  # P(Y = y) per cell
    (px0, px1, px2, px3), (c0, c1, c2, c3) = [w / b for w, b in zip(weight, branch)], cost
    base, source0 = p0[0] + p0[1] + p0[2] + p0[3], 1.0 - model.pi
    g0, g1, g2, g3 = (c / w if w > 0 else 0.0 for c, w in zip(cost, weight))  # lam's slope per cell

    def argmin(lam, nu):  # (cells, their distortion)
        z = (*_branch_argmin(px0, px1, lam * g0 + nu, lam * g1 + nu),
             *_branch_argmin(px2, px3, lam * g2 + nu, lam * g3 + nu))
        return z, base + (c0 * z[0] + c1 * z[1] + c2 * z[2] + c3 * z[3])

    def mass0(z):
        return sum(w * v for w, v in zip(weight, z))

    roots = []  # (nu, lam) of the lam roots found at nu != 0

    def on_distortion(nu):
        def residual(lam):
            z, distortion = argmin(lam, nu)
            return distortion - aim_d, z, (lam, nu)
        return _bracketed_root(residual, *(_warm_start(roots, nu) if nu else opening))

    # never a warm start from nu = 0: lam can sit at 0+ there, where
    # _branch_argmin loses its precision; its own opening is exact or cold
    z, found = on_distortion(0.0)
    sign = math.copysign(1.0, mass0(z) - source0)
    excess = sign * (mass0(z) - source0)
    if excess > P + _AIM:
        def residual(t):
            z_t, found_t = on_distortion(sign * t)
            roots.append(found_t[::-1])
            return sign * (mass0(z_t) - source0) - P, z_t, found_t
        z, found = _bracketed_root(residual, first=(excess - P, z, found))
    lam, nu = found
    s, distortion = argmin(lam, nu)  # g is the Lagrangian at its minimizer
    rate = _cell_metrics(model, s)[0]
    dual = rate + lam * (distortion - aim_d) + nu * (mass0(s) - source0)
    return z, dual - abs(nu) * P if nu else dual  # |nu| P is 0 at nu = 0, also at P = inf


def oracle_min_rate(model: SemanticModel, D: float, P: float,
                    resolution: float | None = None) -> SolverResult:
    """Exact minimum of I(X; Shat | Y) over all decoding rules meeting the
    targets within 1e-12; deterministic. ``resolution`` is only validated.
    The rate (clipped at 0, and exactly 0 where the argmin ignores X given
    Y), achieved_D and achieved_P are the argmin's by _cell_metrics;
    ``dual_bound`` is the dual value at the returned multipliers, 0 at a
    zero rate. Where a multiplier would pass 2**20 (D within 1e-13 of the
    floor on a model with masses or posterior gaps near 0), the argmin is
    the knapsack's floor decoder and the bound is only 0. Raises
    InfeasibleError iff the exact distortion floor at P exceeds D."""
    D, P = _validate_args(D, P, resolution)
    floor, floor_cells = _distortion_floor(model, P)
    if floor > D + _TOL:
        raise InfeasibleError(
            f"D <= {D} and P <= {P} cannot both be met: the exact distortion floor "
            f"at this P is {floor:.6g} > D, so no decoder meets both targets"
        )
    aim_d = min(max(D, floor + _AIM), D + _TOL)
    zero_floor, cells = _distortion_floor(model, P, merged=True)
    dual = 0.0  # the Lagrangian's minimum at zero multipliers is the zero rate
    if zero_floor > D + _TOL:  # a zero-rate decoder within the tolerance answers 0
        try:
            cells, dual = _dual_solve(model, P, aim_d, _oracle_opening(model, D, aim_d))
        except _Unbounded:
            cells = floor_cells
    law = DecoderLaw(*cells)
    rate, distortion, perception = _cell_metrics(model, law.as_tuple())
    return SolverResult(rate=max(0.0, rate), achieved_D=distortion, achieved_P=perception,
                        argmin=law, dual_bound=dual)


# ---------------------------------------------------------------------------
# branch-decomposed program
# ---------------------------------------------------------------------------

def _validate_args(D: float, P: float, resolution: float | None) -> tuple[float, float]:
    if resolution is not None:
        if not _RES_MIN <= float(resolution) <= _RES_MAX:
            raise DomainError(f"resolution must lie in [{_RES_MIN}, {_RES_MAX}], got {resolution}")
    P = float(P)
    if math.isnan(P) or P < -_TOL:
        raise DomainError(f"perception budget must be non-negative, got {P}")
    D = float(D)
    if math.isnan(D):
        raise DomainError("distortion target D must be a number, got nan")
    return D, max(P, 0.0)  # a budget within the tolerance below 0 reads 0


def _min2_hypotheses(model: SemanticModel) -> float:
    q = model.common_crossover()
    if model.a_star > 0.5 + _TOL or model.b_star > 0.5 + _TOL:
        raise HypothesisError(
            f"branch posteriors must not exceed 1/2, got a*={model.a_star}, "
            f"b*={model.b_star}"
        )
    return q


def _zero_perception_cost(s: float, lam: float) -> float:
    """k0 = nu0 - lam in [-lam, 0], where nu0 is the multiplier on P(Shat = 0)
    at which the minimizer of I(X; Shat) + lam P(X != Shat) + nu P(Shat = 0)
    for a Bernoulli(s) source, 0 < s <= 1/2, keeps P(Shat = 0) = 1 - s: zero
    perception. With t = 2**-lam, x = 2**-nu0 is the positive root of
    (1 - s) x**2 - (1 - 2s) t x - s, and x / t = 1 + u / t with
    u = 2s (1 - t**2) / (S + t), S = sqrt((1 - 2s)**2 t**2 + 4s (1 - s)).
    Computing k0 = -log2(1 + u / t) this way keeps its relative precision as
    s or lam nears 0, where nu0 - lam would cancel."""
    t = 2.0 ** -lam
    root = math.sqrt(((1.0 - 2.0 * s) * t) ** 2 + 4.0 * s * (1.0 - s))
    u = -2.0 * s * math.expm1(-2.0 * _LN2 * lam) / (root + t)
    if u <= t:
        k0 = -math.log1p(u / t) / _LN2
    else:
        k0 = -(math.log2(u) + lam + math.log1p(t / u) / _LN2)
    return max(k0, -lam)  # nu0 >= 0 also in floats


def _zero_rate_allocation(star, weight, P: float):
    """Per branch (d_y, p_y) of least total distortion at rate 0, where Shat
    ignores X: P(Shat = 0) = 1 - s costs 2s(1 - s) at no perception, and
    each unit of perception spent raising it cuts (1 - 2s), at most s per
    branch. A fractional knapsack: the budget goes to the larger cut first."""
    allocation = [(0.0, 0.0)] * 2
    for y in sorted(range(2), key=lambda y: star[y]):
        s = star[y]
        spent = min(s, max(P, 0.0) / weight[y])
        P -= weight[y] * spent
        allocation[y] = (2.0 * s * (1.0 - s) - (1.0 - 2.0 * s) * spent, spent)
    return allocation


def _min2_cells(branches, lam: float, mu: float) -> list[float]:
    """Cells P(Shat = 0 | X = x) of the branch minimizers at multipliers (lam, mu):
    branch y = (s, c, w) pays (k0, k1) = (nu - lam, nu + lam), nu = min(nu0_y(lam), mu)."""
    cells = []
    for s, c, _ in branches:
        k0 = _zero_perception_cost(s, lam)
        if k0 + lam > mu:
            k0 = mu - lam
        cells += _branch_argmin(c, s, k0, k0 + 2.0 * lam)
    return cells


def _branch_map(s: float, d: float, p: float) -> tuple[float, float, float, float]:
    """(z0, z1, 2**-lam, 2**-mu): the cells P(Shat = 0 | X = x) and the slopes
    lam = -dR/dd, mu = -dR/dp of the RDPF R (Blau & Michaeli 2019) of a
    Bernoulli(s) branch, 0 < s <= 1/2, c = 1 - s, at distortion d and
    perception p. Rate 0 from d = 2sc - (1 - 2s) min(p, s), at P(Shat = 0) =
    c + min(p, s); below, where the distortion-only perception d (1 - 2s) /
    (1 - 2d) is within p, mu = 0 and lam = log2((1 - d) / d) (Blahut 1972);
    else P(Shat = 0) = r = c + p, s z1 = (d + p) / 2, c (1 - z0) = (d - p) / 2,
    and z_x = r a_x / (r a_x + 1 - r) gives a_x = 2**-(mu -+ lam)."""
    c, spent = 1.0 - s, min(p, s)
    plus, minus = d + p, d - p  # 2 s z1 and 2 c (1 - z0) where perception binds
    if d >= 2.0 * s * c - (1.0 - 2.0 * s) * spent or d + spent >= 2.0 * s:  # z1 >= 1 in floats
        return c + spent, c + spent, 1.0, 1.0
    if minus <= 0.0 or d * (1.0 - 2.0 * s) <= p * (1.0 - 2.0 * d):
        r = (c - d) / (1.0 - 2.0 * d)
        return r * (1.0 - d) / c, r * d / s, d / (1.0 - d), 1.0
    odds1, odds0 = math.sqrt(plus / (2.0 * s - plus)), math.sqrt(minus / (2.0 * c - minus))
    return (1.0 - minus / (2.0 * c), plus / (2.0 * s), odds1 * odds0,
            (s - p) / (c + p) * odds1 / odds0)


def _falling_root(residual, lo: float, hi: float):
    """The value at the root of a residual that does not increase on [lo, hi],
    ``residual(x)`` = (h, value): an end already on the root's side, else the
    end with the smaller |h| once regula falsi (Illinois) closes in floats."""
    (h_lo, v_lo), (h_hi, v_hi) = residual(lo), residual(hi)
    f_lo, f_hi, side = h_lo, h_hi, 0
    while h_lo > 0.0 > h_hi:
        x = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < x < hi:
            break
        h, v = residual(x)
        if h >= 0.0:
            lo, h_lo, v_lo, f_lo = x, h, v, h
            f_hi *= 0.5 if side < 0 else 1.0
        else:
            hi, h_hi, v_hi, f_hi = x, h, v, h
            f_lo *= 0.5 if side > 0 else 1.0
        side = -1 if h >= 0.0 else 1
    return v_lo if h_lo <= -h_hi else v_hi


def _min2_solve(star, weight, aim: float, budget: float):
    """(per branch (d_y, p_y, _branch_map there), dual value) of the least
    sum_y w_y R_y(d_y, p_y), sum_y w_y d_y at ``aim``, sum_y w_y p_y <= ``budget``,
    where positive; equal posteriors s_y are one branch (s, 1 - s, w), a zero
    one drops at Shat = X. Branches share the slopes (lam, mu) of _branch_map,
    or one sits at a kink (p_y = 0 or s_y) that admits the other's: at
    _water_level if that meets the budget (mu = 0), else one at (aim / w,
    budget / w), or two by a root on p_0 in [0, budget / w_0] (ends: p_y = 0)
    for equal mu over one on d_0 for equal lam. The dual sum_y w_y (I_y + lam
    d_y + nu_y (m_y - c_y)) - lam aim - mu budget is at _min2_cells' cells."""
    kept = {s: sum(w for t, w in zip(star, weight) if t == s) for s in star if s > 0.0}
    branches = [(s, 1.0 - s, w) for s, w in kept.items()]
    level = _water_level(branches, aim)[0]
    split = [(d, d * (1.0 - 2.0 * s) / (1.0 - 2.0 * d) if s < 0.5 else 0.0)
             for s, d in ((s, min(level, s)) for s, _, _ in branches)]
    found = [(d, p, _branch_map(s, d, p)) for (s, _, _), (d, p) in zip(branches, split)]
    lam, mu = math.log2((1.0 - level) / level), 0.0
    if sum(w * p for (_, _, w), (_, p, _) in zip(branches, found)) > budget:
        if len(branches) == 1:
            (s, _, w), = branches
            found = [(aim / w, budget / w, _branch_map(s, aim / w, budget / w))]
        else:
            (s0, _, w0), (s1, _, w1) = branches

            def on_distortion(p0):  # lam_0 = lam_1 at perceptions (p0, p1)
                p1 = max((budget - w0 * p0) / w1, 0.0)

                def residual(d0):
                    d1 = max((aim - w0 * d0) / w1, 0.0)
                    m0, m1 = _branch_map(s0, d0, p0), _branch_map(s1, d1, p1)
                    return m1[2] - m0[2], [(d0, p0, m0), (d1, p1, m1)]
                at = _falling_root(residual, 0.0, aim / w0)
                return at[1][2][3] - at[0][2][3], at  # mu_0 = mu_1 at its root in p0
            found = (_falling_root(on_distortion, 0.0, budget / w0) if budget
                     else on_distortion(0.0)[1])  # P = 0: both at zero perception
        # each slope from the branch farthest from where it is not unique or resolved in floats:
        # the zero-rate edge for lam, also p_y = 0 and s_y for mu; at P = 0 every nu_y = nu0_y
        room = [(2.0 * s * c - (1.0 - 2.0 * s) * min(p, s) - d, min(p, s - p), m)
                for (s, c, _), (d, p, m) in zip(branches, found)]
        lam = -math.log2(max(room, key=lambda r: r[0])[2][2])
        mu = -math.log2(max(room, key=lambda r: min(r[:2]))[2][3]) if budget else math.inf
    cells = _min2_cells(branches, lam, mu)  # g is the Lagrangian at its minimizer
    # charged at the aims; mu budget is inf * 0 at P = 0 and 0 * inf at P = inf
    charge = lam * aim + (mu * budget if 0.0 < budget < math.inf else 0.0)
    dual = -charge
    for (s, c, w), z0, z1 in zip(branches, cells[::2], cells[1::2]):
        nu = min(_zero_perception_cost(s, lam) + lam, mu)
        m = c * z0 + s * z1  # P(Shat = 0) on the branch
        info = binary_entropy(m) - c * binary_entropy(z0) - s * binary_entropy(z1)
        dual += w * (info + lam * (c * (1.0 - z0) + s * z1) + nu * (m - c))
    dual -= 8.0 * sys.float_info.epsilon * (1.0 + charge)  # a few ulps a term
    return [dict(zip(kept, found)).get(s, (0.0, 0.0, (1.0, 0.0))) for s in star], dual


def solve_min2(model: SemanticModel, D: float, P: float,
               resolution: float | None = None) -> SolverResult:
    """Exact minimum of the branch-decomposed rate over per-branch
    (distortion, perception) allocations, within the 1e-12 tolerance on
    both budgets; deterministic. ``resolution`` is only validated. Raises
    InfeasibleError iff D < q.

    Rate 0 when the zero-rate knapsack over both branches meets D; otherwise
    _min2_solve's allocation, with ``dual_bound`` its dual value, and the
    rate sum_y w_y rdpf_piecewise(s_y, d_y, p_y) there, clipped at 0. With no
    distortion left to aim at (D within rounding of q - 1e-12), Shat = X at
    d_y = p_y = 0 is the only allocation, so its rate is the bound. ``argmin``
    decodes the allocation: branch 0's cells are (s0, t0) and branch 1's are
    flipped (b* = P(X = 0 | Y = 1)); achieved_P, the aligned budget p_a p_0 +
    p_b p_1, bounds its true total variation |p_a p_0 - p_b p_1|. The result
    can exceed the oracle near the zero-rate plateau, where only sign
    cancellation across branches reaches lower rates.
    """
    D, P = _validate_args(D, P, resolution)
    q = _min2_hypotheses(model)
    if D < q - _TOL:
        raise InfeasibleError(
            f"no branch allocation meets D <= {D}, P <= {P}; the semantic "
            f"distortion floor of this model is {q}"
        )
    star, weight = (min(model.a_star, 0.5), min(model.b_star, 0.5)), (model.p_a, model.p_b)
    scale = 1.0 - 2.0 * q  # semantic distortion (1 - 2q) d + q per branch
    aim = (min(max(D, q + _AIM), D + _TOL) - q) / scale
    allocation, rate, dual = _zero_rate_allocation(star, weight, P), 0.0, 0.0
    cells = [(1.0 - s + p,) * 2 for s, (_, p) in zip(star, allocation)]
    if sum(w * d for w, (d, _) in zip(weight, allocation)) > aim:
        allocation, cells = [(0.0, 0.0)] * 2, [(1.0, 0.0)] * 2  # Shat = X
        if aim > 0.0:
            found, dual = _min2_solve(star, weight, aim, P + _AIM if P > 0.0 else 0.0)
            allocation, cells = [(d, p) for d, p, _ in found], [m[:2] for _, _, m in found]
        rate = max(0.0, sum(w * rdpf_piecewise(s, d, p)
                            for s, w, (d, p) in zip(star, weight, allocation) if s > 0.0))
        dual = dual if aim > 0.0 else rate
    (d0, p0), (d1, p1) = allocation
    (s0, t0), (z0, z1) = cells
    return SolverResult(rate=rate, achieved_D=scale * (weight[0] * d0 + weight[1] * d1) + q,
                        achieved_P=weight[0] * p0 + weight[1] * p1,
                        argmin=DecoderLaw(s0, t0, 1.0 - z1, 1.0 - z0),
                        branch_allocation=(d0, d1, p0, p1), dual_bound=dual)
