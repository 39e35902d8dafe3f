"""Numerical minimization of the conditional rate under distortion and
perception constraints.

Two independent routes are provided on purpose:

- ``oracle_min_rate``: exhaustive grid search over every stochastic
  decoding rule p(Shat | X, Y), scoring each candidate by its exact
  conditional mutual information I(X; Shat | Y), exact expected Hamming
  distortion against the hidden bit, and exact total variation between
  the source and reconstruction marginals. This is the ground truth the
  closed forms are checked against; it is free to exploit decoders whose
  per-branch marginal deviations cancel, which the branch-decomposed
  program below cannot.

- ``solve_min2``: the branch-decomposed program. Per side-information
  branch y it charges the Bernoulli rate-distortion-perception value of
  an (observation-domain distortion d_y, branch perception p_y)
  allocation and minimizes

      p_a * R(a*)(d_0, p_0) + p_b * R(b*)(d_1, p_1)

  subject to the semantic-distortion budget
  p_a ((1-2q) d_0 + q) + p_b ((1-2q) d_1 + q) <= D and the aligned
  perception budget p_a p_0 + p_b p_1 <= P. The aligned sum upper-bounds
  the true total variation, so every allocation is realizable and
  solve_min2 can never undercut the oracle by more than grid slack; the
  converse does not hold near the zero-rate plateau, where cancellation
  makes the oracle strictly better.

Both searches run one grid driver (``_grid_argmin``): a cached coarse
grid, then one refinement pass at a tenth of the resolution around the
incumbent. They differ only in the box builder they pass it, over decoder
cells on [0, 1] or branch allocations on [0, 1/2]. Each pass minimizes
a_i + b_j over the product of two branch tables, subject to a distortion
sum and a perception deviation, and one kernel (``_PairSearch``) serves
both programs. The kernel is still exhaustive in its result: it returns
the pair a scan of the whole product returns, the lexicographically
smallest minimizer. It scores few of the pairs. Each row gets a lower
bound on its best feasible value from the other branch (a prefix minimum
in distortion order, a range minimum over the perception interval). The
row with the least (bound, row) is scored first, and it usually holds the
minimum. Only the rows still live after it, those whose (bound, row) is
lexicographically below (incumbent value, incumbent row), are then sorted
and scored in that order until the next one is dead. Pruning cannot change
the minimizer, for two reasons. The relaxations are widened by a slack far
above float rounding, so a bound never exceeds a value the scan computes.
And candidates compare as (value, i, j) tuples: a row whose bound ties the
incumbent can at best tie it, so it is scored only when its smaller index
would win the tie, as the lexicographic scan resolves it. Every row left
unscored is therefore dead against the final incumbent.

One caveat of the single-incumbent refinement: coarse-pass minima are
exactly monotone in the distortion and perception budgets (feasible sets
nest), but the refinement box follows the incumbent, so final rates across
neighbouring budgets can wobble by roughly a thousandth of a bit at coarse
resolutions when adjacent targets settle in different basins.
"""

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, HypothesisError, InfeasibleError
from .probability_core import (
    FiniteDistribution,
    JointDistribution,
    _as_probability,
    _tv_of_masses,
    binary_entropy_array,
    conditional_mutual_information,
)
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
# grid axes and decoder tables
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


def _branch_columns(model: SemanticModel, y: int, s_vals: np.ndarray,
                    t_vals: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rate, distortion and P(Shat = 0) of branch y, weighted by P(Y = y),
    over the (s, t) product grid flattened in lexicographic (s-major)
    order. The rate is clipped at 0."""
    p_y = model.p_a if y == 0 else model.p_b
    cells = model.joint.masses[:, :, y] / p_y  # p(S, X | Y = y)
    px0 = float(cells[0, 0] + cells[1, 0])
    px1 = float(cells[0, 1] + cells[1, 1])
    s = s_vals[:, None]
    t = t_vals[None, :]
    marg0 = px0 * s + px1 * t
    info = (
        binary_entropy_array(marg0)
        - px0 * binary_entropy_array(s)
        - px1 * binary_entropy_array(t)
    )
    dist = (
        cells[0, 0] * (1.0 - s)
        + cells[0, 1] * (1.0 - t)
        + cells[1, 0] * s
        + cells[1, 1] * t
    )
    return p_y * np.maximum(info, 0.0).ravel(), p_y * dist.ravel(), p_y * marg0.ravel()


# ---------------------------------------------------------------------------
# pair search: the one product-scan kernel, and the grid driver of both routes
# ---------------------------------------------------------------------------

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
    with the least (bound, index), found by argmin, is scored first; it
    usually holds the minimum. A row is live while (bound[i], i) is below
    (incumbent value, incumbent row); any other row scores worse than the
    incumbent, or at best ties it with a larger index and loses the tie.
    Only the rows live after the first are sorted, by (bound, index), and
    scored in chunks that double in size. Liveness only shrinks as the
    incumbent improves, and the dead rows form a suffix of that order, so
    the visit stops at the first of them: every row left unscored is dead
    against the final incumbent. A row whose bound is inf holds no finite
    score.
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


def _sparse_table(values: np.ndarray) -> np.ndarray:
    """table[k, x] = min(values[x : x + 2**k]) wherever that slice is full."""
    n = values.size
    table = np.full((max(n.bit_length(), 1), n), np.inf)
    table[0] = values
    for k in range(1, table.shape[0]):
        half = 1 << (k - 1)
        stop = n - 2 * half + 1
        table[k, :stop] = np.minimum(table[k - 1, :stop], table[k - 1, half:half + stop])
    return table


class _PairSearch:
    """Exact minimum of a_i + b_j over the pairs (i, j) with
    d_i + e_j <= D + tol and |m_i + n_j - c| <= P + tol, where the row
    arrays (a, d, m) belong to one branch and the column arrays (b, e, n)
    to the other.

    Every pair is scored with the same float expressions a full product
    scan would use, and ties resolve to the smallest (i, j), so the answer
    is the full scan's. The columns are indexed twice for lower bounds: by
    e with prefix minima of b (the D constraint), and by n with a sparse
    table of range minima of b (the P interval). Both depend on the tables
    alone and serve every (D, P) query.
    """

    def __init__(self, a, d, m, b, e, n, c: float):
        self.a, self.d, self.m = a, d, m
        self.b, self.e, self.n = b, e, n
        self.c = c
        by_e = np.argsort(e, kind="stable")
        self.e_sorted = e[by_e]
        # b_prefix_min[k] = least b among the k smallest e (inf for k = 0)
        self.b_prefix_min = np.r_[np.inf, np.minimum.accumulate(b[by_e])]
        by_n = np.argsort(n, kind="stable")
        self.n_sorted = n[by_n]
        self.b_range_min = _sparse_table(b[by_n])

    def _range_min(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """min of b over the n-sorted columns lo..hi-1; inf where empty."""
        last = self.n_sorted.size - 1
        level = np.frexp(np.maximum(hi - lo, 1))[1] - 1
        left = np.minimum(lo, last)
        right = np.maximum(hi - (1 << level), 0)
        found = np.minimum(self.b_range_min[level, left], self.b_range_min[level, right])
        return np.where(hi > lo, found, np.inf)

    def rate_bound(self, D: float, P: float) -> np.ndarray:
        """Per row, a lower bound on a_i + b_j over the row's feasible
        pairs; inf where the row has none. Each constraint alone, widened
        by the slack, bounds the least b reachable from the row. At
        P = inf every column is in reach, so the P bound is the least b,
        which never exceeds the D bound."""
        low_d = self.b_prefix_min[
            np.searchsorted(self.e_sorted, D + _TOL + _SLACK - self.d, side="right")
        ]
        if P == math.inf:
            return self.a + low_d
        reach = P + _TOL + _SLACK
        centre = self.c - self.m
        low_p = self._range_min(
            np.searchsorted(self.n_sorted, centre - reach, side="left"),
            np.searchsorted(self.n_sorted, centre + reach, side="right"),
        )
        return self.a + np.maximum(low_d, low_p)

    def argmin(self, D: float, P: float) -> tuple[float, int, int]:
        """(value, i, j) of the lexicographically smallest minimizer, or
        (inf, -1, -1) when no pair is feasible."""

        def score(rows):
            feasible = (self.d[rows, None] + self.e[None, :] <= D + _TOL) & (
                np.abs(self.m[rows, None] + self.n[None, :] - self.c) <= P + _TOL
            )
            return np.where(feasible, self.a[rows, None] + self.b[None, :], np.inf)

        return _best_first(self.rate_bound(D, P), score)


# Coarse searches keyed by (route, model parameters, resolution).
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


def _grid_argmin(key: tuple, resolution: float, upper: float, box, D: float, P: float,
                 rate_floor: float = -math.inf):
    """Grid minimum (value, (u0, v0, u1, v1)) at (D, P), or None when no
    coarse pair is feasible.

    ``box(u0, v0, u1, v1)`` builds the pair search over the major and minor
    axis of each branch; the coarse search over ``_axis_grid(resolution,
    upper)`` is built once per ``key``. The refinement box spans ten steps
    of resolution / 10 around each coarse axis value, and a refined pair
    wins only when strictly better. It is skipped when the coarse value is
    already at ``rate_floor``, which no entry of a box undercuts."""
    def build():
        grid = _axis_grid(resolution, upper)
        return grid, box(grid, grid, grid, grid)

    def decode(axes, i, j):
        u0, v0, u1, v1 = axes
        return (float(u0[i // v0.size]), float(v0[i % v0.size]),
                float(u1[j // v1.size]), float(v1[j % v1.size]))

    grid, coarse = _cached(key, build)
    value, i, j = coarse.argmin(D, P)
    if not math.isfinite(value):
        return None
    point = decode((grid,) * 4, i, j)
    if value > rate_floor:
        axes = tuple(_refine_axis(v, resolution, upper) for v in point)
        f_value, fi, fj = box(*axes).argmin(D, P)
        if f_value < value:
            value, point = f_value, decode(axes, fi, fj)
    return value, point


def _validate_oracle_args(D: float, P: float, resolution: float) -> tuple[float, float, float]:
    resolution = float(resolution)
    if not _RES_MIN <= resolution <= _RES_MAX:
        raise DomainError(
            f"resolution must lie in [{_RES_MIN}, {_RES_MAX}], got {resolution}"
        )
    P = float(P)
    if math.isnan(P) or P < -_TOL:
        raise DomainError(f"perception budget must be non-negative, got {P}")
    D = float(D)
    if math.isnan(D):
        raise DomainError("distortion target D must be a number, got nan")
    return D, P, resolution


# ---------------------------------------------------------------------------
# exhaustive oracle
# ---------------------------------------------------------------------------

def _oracle_search(model: SemanticModel, s0: np.ndarray, t0: np.ndarray,
                   s1: np.ndarray, t1: np.ndarray) -> _PairSearch:
    """Pair search over decoder pairs: rate, distortion and the signed
    deviation of the pooled P(Shat = 0) from P(S = 0)."""
    return _PairSearch(*_branch_columns(model, 0, s0, t0),
                       *_branch_columns(model, 1, s1, t1), 1.0 - model.pi)


def _distortion_floor(model: SemanticModel, P: float) -> float:
    """Least expected Hamming distortion of any decoder whose P(Shat = 0)
    lies within P of P(S = 0). Both are linear in the cells
    z = P(Shat = 0 | x, y), so this is a fractional knapsack: the MAP rule
    reaches the Bayes error, and when its P(Shat = 0) lies outside the
    budget the cells move it to the nearer edge, those that cost the least
    distortion per unit of P(Shat = 0) first."""
    p0, p1 = model.joint.masses.reshape(2, 4)  # p(S = s, x, y), cells in (x, y) order
    weight, cost = p0 + p1, p1 - p0  # per cell: P(x, y) and the distortion slope in z
    map_zero = cost < 0
    floor = float(np.minimum(p0, p1).sum())
    shift = float(weight[map_zero].sum()) - (1.0 - model.pi)
    excess = abs(shift) - P
    # only the cells the MAP rule decodes as 0 can lower P(Shat = 0); only the others raise it
    movable = np.flatnonzero((map_zero if shift > 0 else ~map_zero) & (weight > 0))
    for k in sorted(movable, key=lambda k: abs(cost[k]) / weight[k]):
        if excess <= 0:
            break
        step = min(excess, weight[k])
        floor += step * abs(cost[k]) / weight[k]
        excess -= step
    return floor


def oracle_min_rate(model: SemanticModel, D: float, P: float,
                    resolution: float) -> SolverResult:
    """Exhaustive minimum of I(X; Shat | Y) over all decoding rules meeting
    the distortion and perception targets; deterministic for fixed inputs.
    The rate is clipped at 0, just as the grid tables clip I(X; Shat | Y),
    so a zero-rate optimum never reads as a rounding-negative rate.

    The grid passes skip rows whose lower bound exceeds the incumbent, yet
    return the minimizer a full scan of every grid candidate returns: the
    bounds are float-safe and ties break on (value, i, j) (see the module
    docstring).

    Raises InfeasibleError when no grid candidate satisfies both
    constraints. Its message gives the exact distortion floor at P, the
    least distortion of any decoder, on the grid or off it, within the
    perception budget. A floor at or below D means that decoders off the
    grid meet both targets.
    """
    D, P, resolution = _validate_oracle_args(D, P, resolution)
    # every table rate is clipped at 0, so no refined pair beats a coarse 0
    found = _grid_argmin(("oracle", model.params, resolution), resolution, 1.0,
                         lambda *axes: _oracle_search(model, *axes), D, P, rate_floor=0.0)
    if found is None:
        floor = _distortion_floor(model, P)
        verdict = ("<= D, so decoders off the grid meet both targets" if floor <= D
                   else "> D, so no decoder meets both targets")
        raise InfeasibleError(
            f"no decoder on the grid of resolution {resolution} meets D <= {D}, "
            f"P <= {P}; the exact distortion floor at this P is {floor:.6g} {verdict}"
        )
    law = DecoderLaw(*found[1])
    exact = evaluate_decoder(model, law)
    return SolverResult(
        rate=max(0.0, exact.rate),
        achieved_D=exact.distortion,
        achieved_P=exact.perception,
        argmin=law,
        grid_resolution=resolution,
    )


# ---------------------------------------------------------------------------
# branch-decomposed program
# ---------------------------------------------------------------------------

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
    aligned perception. With c = 0 the P test |m_i + n_j| <= P + tol is the
    one-sided m_i + n_j <= P + tol, since both terms are non-negative."""
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
    return _PairSearch(obj0, dsem0, per0, obj1, dsem1, per1, 0.0)


def solve_min2(model: SemanticModel, D: float, P: float,
               resolution: float) -> SolverResult:
    """Minimize the branch-decomposed rate over per-branch (distortion,
    perception) allocations on [0, 1/2]^4 with one refinement pass.

    achieved_P reports the aligned budget p_a p_0 + p_b p_1, an upper bound
    on the true total variation of any decoder realizing the allocation.
    The result can exceed the exhaustive oracle near the zero-rate plateau,
    where only sign cancellation across branches reaches lower rates.
    """
    D, P, resolution = _validate_oracle_args(D, P, resolution)
    q = _min2_hypotheses(model)
    # no rate floor: rounding can leave table entries below 0, so a coarse 0 can lose
    found = _grid_argmin(("min2", model.params, resolution), resolution, 0.5,
                         lambda *axes: _min2_search(model, q, *axes), D, P)
    if found is None:
        raise InfeasibleError(
            f"no branch allocation meets D <= {D}, P <= {P}; the semantic "
            f"distortion floor of this model is {q}"
        )
    rate, (d0, p0, d1, p1) = found
    achieved_d = model.p_a * ((1 - 2 * q) * d0 + q) + model.p_b * ((1 - 2 * q) * d1 + q)
    achieved_p = model.p_a * p0 + model.p_b * p1
    return SolverResult(
        rate=float(rate),
        achieved_D=float(achieved_d),
        achieved_P=float(achieved_p),
        argmin=None,
        grid_resolution=resolution,
        branch_allocation=(d0, d1, p0, p1),
    )
