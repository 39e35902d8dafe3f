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
  variation as a convex perception term (Blau & Michaeli 2019). Each
  answer carries the dual value, a certified lower bound.

- ``solve_min2``: the branch-decomposed program. It minimizes
  p_a R(a*)(d_0, p_0) + p_b R(b*)(d_1, p_1) over per-branch allocations of
  observation-domain distortion d_y and perception p_y, subject to the
  semantic-distortion budget p_a ((1-2q) d_0 + q) + p_b ((1-2q) d_1 + q) <= D
  and the aligned perception budget p_a p_0 + p_b p_1 <= P. The aligned
  sum upper-bounds the true total variation, so every allocation is
  realizable and solve_min2 never undercuts the oracle by more than grid
  slack; near the zero-rate plateau cancellation makes the oracle better.

``solve_min2`` searches a cached coarse grid of allocations on [0, 1/2]^4
and refines once at a tenth of the resolution around the incumbent. Both
passes run one kernel (``_PairSearch``), which returns what a scan of the
whole product returns, the lexicographically smallest minimizer, while
scoring few pairs: rows are visited best-bound first and stop at the first
row that cannot beat or win a tie with the incumbent. The refinement box
follows the incumbent, so rates across neighbouring budgets can wobble by
about a thousandth of a bit when adjacent targets settle in different
basins. The oracle's minimum is exact and does not wobble.
"""

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, HypothesisError, InfeasibleError
from .probability_core import (FiniteDistribution, JointDistribution, _as_probability,
                               _tv_of_masses, binary_entropy, conditional_mutual_information)
from .rdpf_closed_form import rdpf_piecewise_array
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
    argmin: DecoderLaw | None
    grid_resolution: float
    branch_allocation: tuple[float, float, float, float] | None = None
    dual_bound: float | None = None  # oracle only: a certified lower bound on the rate


def evaluate_decoder(model: SemanticModel, law: DecoderLaw) -> DecoderMetrics:
    """Exact (rate, distortion, perception) of a decoding rule.

    The rate is I(X; Shat | Y) computed by probability_core on the
    assembled four-variable joint; no shortcut formula is trusted here.
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
    # a marginal mass can round above 1 (pi = 0, or Shat constant); clip it
    # as a validated distribution would
    perception = _tv_of_masses(np.minimum(m4.sum(axis=(1, 2, 3)), 1.0),
                               np.minimum(m4.sum(axis=(0, 1, 2)), 1.0))
    return DecoderMetrics(rate=rate, distortion=distortion, perception=perception)


def shat_marginal(model: SemanticModel, law: DecoderLaw) -> FiniteDistribution:
    """Reconstruction marginal p(Shat) induced by a decoding rule."""
    p_xy = model.joint.masses.sum(axis=0)
    p0 = float((p_xy * law.prob_zero_table()).sum())
    return FiniteDistribution(np.array([p0, 1.0 - p0]))




# ---------------------------------------------------------------------------
# exact oracle
# ---------------------------------------------------------------------------

# The oracle aims at least this far above the distortion floor, within the
# 1e-12 tolerance, so its multipliers stay finite when D sits at the floor.
_AIM = 1e-13
_ROOT_TOL, _ROOT_WIDTH = 1e-15, 1e-12  # a bracket closes on its residual or width
_K_CAP = 1000.0  # a cell cost in bits past which 2**-k moves no cell off 0 or 1
_MULTIPLIER_CAP = 2.0 ** 20
_LN2 = math.log(2.0)


class _Unbounded(Exception):
    """A multiplier bracket grew past _MULTIPLIER_CAP."""


def _knapsack(p0: np.ndarray, p1: np.ndarray, target: float,
              P: float) -> tuple[float, np.ndarray]:
    """Least Hamming distortion, and a minimizer, over cells z = P(Shat = 0 |
    cell) in [0, 1] whose pooled P(Shat = 0) lies within P of ``target``,
    given p0, p1 = p(S = 0, cell), p(S = 1, cell). A fractional knapsack: the
    MAP rule reaches the Bayes error, and cells move its P(Shat = 0) to the
    nearer budget edge, least distortion per unit of P(Shat = 0) first."""
    weight, cost = p0 + p1, p1 - p0  # per cell: its mass and the distortion slope in z
    map_zero = cost < 0
    z = map_zero.astype(float)
    floor = float(np.minimum(p0, p1).sum())
    shift = float(weight[map_zero].sum()) - target
    excess = abs(shift) - P
    # only the cells the MAP rule decodes as 0 can lower P(Shat = 0); only the others raise it
    movable = np.flatnonzero((map_zero if shift > 0 else ~map_zero) & (weight > 0))
    for k in sorted(movable, key=lambda k: abs(cost[k]) / weight[k]):
        if excess <= 0:
            break
        step = min(excess, weight[k])
        floor += step * abs(cost[k]) / weight[k]
        z[k] += -step / weight[k] if shift > 0 else step / weight[k]
        excess -= step
    return floor, z


def _distortion_floor(model: SemanticModel, P: float,
                      merged: bool = False) -> tuple[float, DecoderLaw]:
    """(least distortion, a decoder reaching it) among decoders whose
    P(Shat = 0) lies within P of P(S = 0). ``merged`` restricts them to
    s_y = t_y, where Shat is independent of X given Y: rate 0."""
    p0, p1 = model.joint.masses  # p(S = s, x, y)
    if merged:
        floor, (z0, z1) = _knapsack(p0.sum(axis=0), p1.sum(axis=0), 1.0 - model.pi, P)
        return floor, DecoderLaw(z0, z0, z1, z1)
    floor, z = _knapsack(p0.ravel(), p1.ravel(), 1.0 - model.pi, P)  # cells in (x, y) order
    return floor, DecoderLaw(z[0], z[2], z[1], z[3])


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
    k0, k1 = (min(max(k, -_K_CAP), _K_CAP) for k in (k0, k1))
    # a_x - 1 through expm1, exact where a_x rounds to 1
    r = min(max(-px0 / math.expm1(-_LN2 * k1) - px1 / math.expm1(-_LN2 * k0), 0.0), 1.0)
    a0, a1 = 2.0 ** -k0, 2.0 ** -k1
    return r * a0 / (r * a0 + (1.0 - r)), r * a1 / (r * a1 + (1.0 - r))


def _bracketed_root(residual, step: float):
    """(cells, multipliers) at the root of a residual that does not increase
    in t >= 0; ``residual(t)`` returns (h, cells, multipliers), and h <= 0 is
    feasible. Unless t = 0 is feasible, the bracket [0, step] grows fourfold
    until its upper end is, and regula falsi (Illinois) closes it. h is
    linear in the cells, so the two ends mix to put h at 0, also across a
    jump where a branch minimizer is not unique; the multipliers are those
    of the end with the larger share."""
    lo = 0.0
    h_lo, z_lo, m_lo = residual(lo)
    if h_lo <= 0.0:
        return z_lo, m_lo
    hi = step
    h_hi, z_hi, m_hi = residual(hi)
    while h_hi > 0.0:
        if hi >= _MULTIPLIER_CAP:
            raise _Unbounded
        lo, h_lo, z_lo, m_lo = hi, h_hi, z_hi, m_hi
        hi *= 4.0
        h_hi, z_hi, m_hi = residual(hi)
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


def _dual_solve(model: SemanticModel, D: float, P: float, aim_d: float):
    """(cells in (s0, t0, s1, t1) order, dual value) where the minimum is
    positive, at a distortion ``aim_d`` within the tolerance of D.
    Multipliers lam >= 0 on distortion and nu on P(Shat = 0) charge the cell
    (x, y) k = lam (P(S = 1 | x, y) - P(S = 0 | x, y)) + nu bits per unit of
    P(x, y) P(Shat = 0 | x, y), and the dual is
    g = sum_y phi_y + lam (P(S = 0) - D) - nu P(S = 0) - |nu| P. At fixed nu
    the minimizer's distortion does not increase in lam: a root puts it on
    aim_d. Unless that meets P with nu = 0, P(Shat = 0) does not increase
    in nu (lam re-solved each time): a second root puts it on the nearer
    edge of the budget."""
    p0, p1 = model.joint.masses.reshape(2, 4)[:, [0, 2, 1, 3]]
    weight, cost = (p0 + p1).tolist(), (p1 - p0).tolist()
    slope = [c / w if w > 0 else 0.0 for c, w in zip(cost, weight)]
    branch = [weight[k & 2] + weight[k | 1] for k in range(4)]  # P(Y = y) per cell
    p_x = [w / b for w, b in zip(weight, branch)]  # p(x | y)
    base, source0 = float(p0.sum()), 1.0 - model.pi

    def argmin(lam, nu):
        k = [lam * s + nu for s in slope]
        return (*_branch_argmin(p_x[0], p_x[1], k[0], k[1]),
                *_branch_argmin(p_x[2], p_x[3], k[2], k[3]))

    def distortion(z):
        return base + sum(c * v for c, v in zip(cost, z))

    def mass0(z):
        return sum(w * v for w, v in zip(weight, z))

    def on_distortion(nu):
        def residual(lam):
            z = argmin(lam, nu)
            return distortion(z) - aim_d, z, (lam, nu)
        return _bracketed_root(residual, 1.0)

    z, (lam, nu) = on_distortion(0.0)
    sign = math.copysign(1.0, mass0(z) - source0)
    if sign * (mass0(z) - source0) > P + _ROOT_TOL:
        def residual(t):
            z_t, found = on_distortion(sign * t)
            return sign * (mass0(z_t) - source0) - P, z_t, found
        z, (lam, nu) = _bracketed_root(residual, 1.0)
    s = argmin(lam, nu)  # g is the Lagrangian at its minimizer
    rate = sum(branch[k] * binary_entropy(p_x[k] * s[k] + p_x[k + 1] * s[k + 1])
               - weight[k] * binary_entropy(s[k]) - weight[k + 1] * binary_entropy(s[k + 1])
               for k in (0, 2))
    dual = rate + lam * (distortion(s) - D) + nu * (mass0(s) - source0)
    return z, dual - abs(nu) * P if nu else dual  # |nu| P is 0 at nu = 0, also at P = inf


def oracle_min_rate(model: SemanticModel, D: float, P: float,
                    resolution: float | None = None) -> SolverResult:
    """Exact minimum of I(X; Shat | Y) over all decoding rules meeting the
    targets within 1e-12; deterministic. ``resolution`` is only validated
    (``grid_resolution`` reads 0). The rate is the argmin's as
    ``evaluate_decoder`` computes it, clipped at 0; ``dual_bound`` is the
    dual value at the returned multipliers, 0 at a zero rate. Where a
    multiplier would pass 2**20 (D within 1e-13 of the floor on a model
    with masses or posterior gaps near 0), the argmin is the knapsack's
    floor decoder and the bound is only 0. Raises InfeasibleError iff the
    exact distortion floor at P exceeds D."""
    D, P, _ = _validate_args(D, P, resolution)
    floor, floor_law = _distortion_floor(model, P)
    if floor > D + _TOL:
        raise InfeasibleError(
            f"D <= {D} and P <= {P} cannot both be met: the exact distortion floor "
            f"at this P is {floor:.6g} > D, so no decoder meets both targets"
        )
    aim_d = min(max(D, floor + _AIM), D + _TOL)
    zero_floor, law = _distortion_floor(model, P, merged=True)
    dual = 0.0  # the Lagrangian's minimum at zero multipliers is the zero rate
    if zero_floor > aim_d:
        try:
            cells, dual = _dual_solve(model, D, P, aim_d)
            law = DecoderLaw(*cells)
        except _Unbounded:
            law = floor_law
    exact = evaluate_decoder(model, law)
    return SolverResult(rate=max(0.0, exact.rate), achieved_D=exact.distortion,
                        achieved_P=exact.perception, argmin=law, grid_resolution=0.0,
                        dual_bound=dual)


# ---------------------------------------------------------------------------
# branch-decomposed program: grid axes, the pair-search kernel, the driver
# ---------------------------------------------------------------------------

def _axis_grid(resolution: float, upper: float) -> np.ndarray:
    steps = int(math.floor(upper / resolution + 1e-9))
    pts = np.round(np.arange(steps + 1) * resolution, 12)
    if pts[-1] < upper - 1e-12:
        pts = np.append(pts, upper)
    return pts


def _refine_axis(center: float, resolution: float, upper: float) -> np.ndarray:
    pts = center + np.arange(-10, 11) * (resolution / 10.0)
    return np.unique(np.clip(np.round(pts, 12), 0.0, upper))


# Widening of the bound relaxations. Every table entry is a probability or
# a rate of at most one bit, so float rounding in the constraint sums is
# below 1e-15 and can never push a feasible pair outside the relaxation.
_SLACK = 1e-9
_FIRST_CHUNK, _MAX_CHUNK = 16, 256


def _best_first(bound: np.ndarray, score) -> tuple[float, int, int]:
    """Lexicographically smallest (score, i, j) over all pairs, or
    (inf, -1, -1) when no score is finite.

    ``score(rows)`` returns the score matrix of those rows over every
    column, and ``bound[i]`` must not exceed any score in row i. The row
    with the least (bound, index) is scored first; it usually holds the
    minimum. A row is live while (bound[i], i) is below (incumbent value,
    incumbent row); any other row can at best tie the incumbent with a
    larger index and lose. The live rows are sorted by (bound, index) and
    scored in chunks that double in size, and the visit stops at the first
    dead one: liveness only shrinks, so every later row is dead too.
    """
    best = (math.inf, -1, -1)
    first = int(np.argmin(bound))
    if not bound[first] < math.inf:
        return best
    # the first row can hold no finite score, and (inf, -1, -1) must then stay
    best = min(best, _least_in_rows(np.array([first]), score))
    index = np.arange(bound.size)
    live_rows = (bound < best[0]) | ((bound == best[0]) & (index < best[1]))
    live_rows[first] = False
    order = np.flatnonzero(live_rows)
    order = order[np.argsort(bound[order], kind="stable")]
    start, size = 0, _FIRST_CHUNK
    while start < order.size:
        rows = order[start:start + size]
        low = bound[rows]
        live = np.count_nonzero((low < best[0]) | ((low == best[0]) & (rows < best[1])))
        if live == 0:
            break
        best = min(best, _least_in_rows(rows[:live], score))
        start += size
        size = min(2 * size, _MAX_CHUNK)
    return best


def _least_in_rows(rows: np.ndarray, score) -> tuple[float, int, int]:
    """Lexicographically smallest (score, i, j) with i among ``rows``."""
    scores = score(rows)
    cols = scores.argmin(axis=1)
    vals = scores[np.arange(rows.size), cols]
    k = int(np.lexsort((rows, vals))[0])
    return float(vals[k]), int(rows[k]), int(cols[k])


class _PairSearch:
    """Exact minimum of a_i + b_j over the pairs (i, j) with
    d_i + e_j <= D + tol and m_i + n_j <= P + tol, where the row arrays
    (a, d, m) belong to one branch and the column arrays (b, e, n) to the
    other. Every pair is scored with the float expressions of a full
    product scan, and ties resolve to the smallest (i, j), so the answer
    is the full scan's. Row bounds come from prefix minima of b in e order
    and in n order, which serve every (D, P) query.
    """

    def __init__(self, a, d, m, b, e, n):
        self.a, self.d, self.m = a, d, m
        self.b, self.e, self.n = b, e, n
        by_e = np.argsort(e, kind="stable")
        self.e_sorted = e[by_e]
        # b_min_by_e[k] = least b among the k smallest e (inf for k = 0)
        self.b_min_by_e = np.r_[np.inf, np.minimum.accumulate(b[by_e])]
        by_n = np.argsort(n, kind="stable")
        self.n_sorted = n[by_n]
        self.b_min_by_n = np.r_[np.inf, np.minimum.accumulate(b[by_n])]

    def rate_bound(self, D: float, P: float) -> np.ndarray:
        """Per row, a lower bound on a_i + b_j over the row's feasible
        pairs (inf where it has none): each constraint alone, widened by
        the slack, bounds the least b the row reaches. At P = inf the P
        bound is the least b, never above the D bound."""
        low_d = self.b_min_by_e[
            np.searchsorted(self.e_sorted, D + _TOL + _SLACK - self.d, side="right")
        ]
        if P == math.inf:
            return self.a + low_d
        low_p = self.b_min_by_n[
            np.searchsorted(self.n_sorted, P + _TOL + _SLACK - self.m, side="right")
        ]
        return self.a + np.maximum(low_d, low_p)

    def argmin(self, D: float, P: float) -> tuple[float, int, int]:
        """(value, i, j) of the lexicographically smallest minimizer, or
        (inf, -1, -1) when no pair is feasible."""

        def score(rows):
            feasible = (self.d[rows, None] + self.e[None, :] <= D + _TOL) & (
                self.m[rows, None] + self.n[None, :] <= P + _TOL
            )
            return np.where(feasible, self.a[rows, None] + self.b[None, :], np.inf)

        return _best_first(self.rate_bound(D, P), score)


# Coarse solve_min2 searches keyed by (model parameters, resolution).
_TABLE_CACHE: dict[tuple, object] = {}
_TABLE_LOCK = threading.Lock()


def _cached(key: tuple, build):
    """The cache entry for ``key``, built by ``build()`` on a miss. The
    build runs under the lock, so threads that miss together build once."""
    with _TABLE_LOCK:
        entry = _TABLE_CACHE.get(key)
        if entry is None:
            if len(_TABLE_CACHE) > 8:
                _TABLE_CACHE.pop(next(iter(_TABLE_CACHE)))
            entry = _TABLE_CACHE[key] = build()
        return entry


def _validate_args(D: float, P: float, resolution: float | None):
    if resolution is not None:
        resolution = float(resolution)
        if not _RES_MIN <= resolution <= _RES_MAX:
            raise DomainError(f"resolution must lie in [{_RES_MIN}, {_RES_MAX}], got {resolution}")
    P = float(P)
    if math.isnan(P) or P < -_TOL:
        raise DomainError(f"perception budget must be non-negative, got {P}")
    D = float(D)
    if math.isnan(D):
        raise DomainError("distortion target D must be a number, got nan")
    return D, max(P, 0.0), resolution  # a budget within the tolerance below 0 reads 0


def _min2_hypotheses(model: SemanticModel) -> float:
    if abs(model.pi - 0.5) > _TOL or model.q1 != model.q2:
        raise HypothesisError(
            "the branch decomposition needs a uniform (S, X) pair with a "
            "common observation crossover; the distortion conversion and the "
            "source/observation marginal identity both rely on it"
        )
    if model.a_star > 0.5 + _TOL or model.b_star > 0.5 + _TOL:
        raise HypothesisError(
            f"branch posteriors must not exceed 1/2, got a*={model.a_star}, "
            f"b*={model.b_star}"
        )
    return model.q1


def _min2_search(model: SemanticModel, q: float,
                 d0_vals, p0_vals, d1_vals, p1_vals) -> _PairSearch:
    """Pair search over branch allocations: rate, semantic distortion and
    aligned perception."""
    p_a, p_b = model.p_a, model.p_b
    star0, star1 = min(model.a_star, 0.5), min(model.b_star, 0.5)
    r0 = rdpf_piecewise_array(star0, d0_vals[:, None], p0_vals[None, :])
    same = np.array_equal(d0_vals, d1_vals) and np.array_equal(p0_vals, p1_vals)
    if star0 == star1 and same:
        r1 = r0  # exact test: a DSBS model's a* and b* can differ in the last bit
    else:
        r1 = rdpf_piecewise_array(star1, d1_vals[:, None], p1_vals[None, :])
    sem0 = (1.0 - 2.0 * q) * d0_vals + q
    sem1 = (1.0 - 2.0 * q) * d1_vals + q
    obj0 = (p_a * r0).ravel()
    obj1 = (p_b * r1).ravel()
    dsem0 = (p_a * np.broadcast_to(sem0[:, None], r0.shape)).ravel()
    dsem1 = (p_b * np.broadcast_to(sem1[:, None], r1.shape)).ravel()
    per0 = (p_a * np.broadcast_to(p0_vals[None, :], r0.shape)).ravel()
    per1 = (p_b * np.broadcast_to(p1_vals[None, :], r1.shape)).ravel()
    return _PairSearch(obj0, dsem0, per0, obj1, dsem1, per1)


def solve_min2(model: SemanticModel, D: float, P: float,
               resolution: float) -> SolverResult:
    """Minimize the branch-decomposed rate over per-branch (distortion,
    perception) allocations on [0, 1/2]^4: a coarse grid search, built once
    per model and resolution, then one pass over a box of ten steps of
    resolution / 10 around each coarse value, whose pair wins only when
    strictly better.

    achieved_P reports the aligned budget p_a p_0 + p_b p_1, an upper bound
    on the true total variation of any decoder realizing the allocation.
    The result can exceed the oracle near the zero-rate plateau, where only
    sign cancellation across branches reaches lower rates.
    """
    D, P, resolution = _validate_args(D, P, resolution)
    q = _min2_hypotheses(model)

    def build():
        grid = _axis_grid(resolution, 0.5)
        return grid, _min2_search(model, q, grid, grid, grid, grid)

    def decode(axes, i, j):
        d0, p0, d1, p1 = axes
        return (float(d0[i // p0.size]), float(p0[i % p0.size]),
                float(d1[j // p1.size]), float(p1[j % p1.size]))

    grid, coarse = _cached((model.params, resolution), build)
    rate, i, j = coarse.argmin(D, P)
    if not math.isfinite(rate):
        raise InfeasibleError(
            f"no branch allocation meets D <= {D}, P <= {P}; the semantic "
            f"distortion floor of this model is {q}"
        )
    point = decode((grid,) * 4, i, j)
    axes = tuple(_refine_axis(v, resolution, 0.5) for v in point)
    fine, fi, fj = _min2_search(model, q, *axes).argmin(D, P)
    if fine < rate:
        rate, point = fine, decode(axes, fi, fj)
    d0, p0, d1, p1 = point
    achieved_d = model.p_a * ((1 - 2 * q) * d0 + q) + model.p_b * ((1 - 2 * q) * d1 + q)
    achieved_p = model.p_a * p0 + model.p_b * p1
    return SolverResult(rate=float(rate), achieved_D=float(achieved_d),
                        achieved_P=float(achieved_p), argmin=None, grid_resolution=resolution,
                        branch_allocation=(d0, d1, p0, p1))
