"""Test-only grid reference for the branch-decomposed program.

``grid_min2`` is the allocation grid search ``solve_min2`` ran before it
became an exact solve: a coarse grid on [0, 1/2]^4, then one pass over a
box of ten steps of resolution / 10 around each coarse value, whose pair
wins only when strictly better. Its value is an upper bound on the exact
minimum, up to the 1e-12 tolerance both grant. Both passes run one kernel,
``_PairSearch``, which returns what a scan of the whole product returns,
the lexicographically smallest minimizer, while scoring few pairs: rows
are visited best-bound first and stop at the first row that cannot beat
or win a tie with the incumbent.
"""

import math

import numpy as np

from semrdp import rdpf_solver as solver
from semrdp.rdpf_closed_form import rdpf_piecewise_array

_TOL = 1e-12
# Widening of the bound relaxations. Every table entry is a probability or
# a rate of at most one bit, so float rounding in the constraint sums is
# below 1e-15 and can never push a feasible pair outside the relaxation.
_SLACK = 1e-9
_FIRST_CHUNK, _MAX_CHUNK = 16, 256


def _axis_grid(resolution: float, upper: float) -> np.ndarray:
    steps = int(math.floor(upper / resolution + 1e-9))
    pts = np.round(np.arange(steps + 1) * resolution, 12)
    if pts[-1] < upper - 1e-12:
        pts = np.append(pts, upper)
    return pts


def _refine_axis(center: float, resolution: float, upper: float) -> np.ndarray:
    pts = center + np.arange(-10, 11) * (resolution / 10.0)
    return np.unique(np.clip(np.round(pts, 12), 0.0, upper))


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


def _min2_search(model, q: float, d0_vals, p0_vals, d1_vals, p1_vals) -> _PairSearch:
    """Pair search over branch allocations: rate, semantic distortion and
    aligned perception. ``rdpf_piecewise_array`` is looked up on this
    module at call time, so a test can swap the table kernel."""
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


def grid_min2(model, D: float, P: float, resolution: float):
    """(rate, (d0, d1, p0, p1)) of the grid search, or None where no grid
    allocation meets the targets within the tolerance. Checks the model
    and the arguments as ``solve_min2`` does."""
    D, P, resolution = solver._validate_args(D, P, resolution)
    q = solver._min2_hypotheses(model)

    def decode(axes, i, j):
        d0, p0, d1, p1 = axes
        return (float(d0[i // p0.size]), float(p0[i % p0.size]),
                float(d1[j // p1.size]), float(p1[j % p1.size]))

    grid = _axis_grid(resolution, 0.5)
    rate, i, j = _min2_search(model, q, grid, grid, grid, grid).argmin(D, P)
    if not math.isfinite(rate):
        return None
    point = decode((grid,) * 4, i, j)
    axes = tuple(_refine_axis(v, resolution, 0.5) for v in point)
    fine, fi, fj = _min2_search(model, q, *axes).argmin(D, P)
    if fine < rate:
        rate, point = fine, decode(axes, fi, fj)
    d0, p0, d1, p1 = point
    return float(rate), (d0, d1, p0, p1)
