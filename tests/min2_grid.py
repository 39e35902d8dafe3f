"""Test-only grid reference for the branch-decomposed program.

``grid_min2`` is the allocation grid search ``solve_min2`` ran before it
became an exact solve: a coarse grid on [0, 1/2]^4, then one pass over a
box of ten steps of resolution / 10 around each coarse value, whose pair
wins only when strictly better. Its value is an upper bound on the exact
minimum, up to the 1e-12 tolerance both grant. Each pass scores the whole
product of the two branches' (distortion, perception) tables with NumPy
and takes the first least score in C order, which is the
lexicographically smallest minimizer. The branch tables come from
``_rdpf_table``, a vectorised ``rdpf_piecewise``.
"""

import math

import numpy as np

from semrdp import rdpf_solver as solver
from semrdp.probability_core import binary_entropy
from semrdp.rdpf_closed_form import perception_band

_TOL = 1e-12


def _entropy(*masses):
    """Entropy in bits of distributions given by broadcasting mass arrays,
    summed in the order of the scalar ``ternary_entropy``."""
    total = 0.0
    for v in masses:
        total = total - v * np.log2(np.where(v > 0.0, v, 1.0))
    return total


def _binary_entropy(p):
    """``binary_entropy`` over an array of probabilities; like the scalar,
    it takes the logs of the larger mass and its complement."""
    hi = np.maximum(p, 1.0 - p)
    return _entropy(hi, 1.0 - hi)


def _ternary_entropy(x, y):
    """``ternary_entropy`` over arrays that form distributions (x, y, 1 - x - y)."""
    return _entropy(x, y, np.maximum(1.0 - x - y, 0.0))


def _rdpf_table(p: float, D, P) -> np.ndarray:
    """``rdpf_piecewise`` broadcast over float arrays of distortions D >= 0
    and budgets P >= 0 (inf allowed), with the scalar's dispatch and float
    expressions; entries agree with it up to the last bits of numpy's log2."""
    D, P = np.broadcast_arrays(D, P)
    rate = np.where(D >= p, 0.0, binary_entropy(p) - _binary_entropy(np.clip(D, 0.0, 1.0)))
    if p == 0.5:
        return rate
    band = P < p
    Pb = np.minimum(np.where(band, P, 0.0), p)
    d1, d2 = perception_band(p, Pb)
    above = band & (D > d1)
    mid = above & (D < d2)
    rate[above] = 0.0
    Dm, Pm = D[mid], Pb[mid]
    rate[mid] = (2.0 * binary_entropy(p) + _binary_entropy(p - Pm)
                 - _ternary_entropy(np.maximum((Dm - Pm) / 2.0, 0.0), p)
                 - _ternary_entropy((Dm + Pm) / 2.0, 1.0 - p))
    return rate


def _axis_grid(resolution: float, upper: float) -> np.ndarray:
    steps = int(math.floor(upper / resolution + 1e-9))
    pts = np.round(np.arange(steps + 1) * resolution, 12)
    if pts[-1] < upper - 1e-12:
        pts = np.append(pts, upper)
    return pts


def _refine_axis(center: float, resolution: float, upper: float) -> np.ndarray:
    pts = center + np.arange(-10, 11) * (resolution / 10.0)
    return np.unique(np.clip(np.round(pts, 12), 0.0, upper))


def _min2_tables(model, q: float, d0_vals, p0_vals, d1_vals, p1_vals):
    """Per branch, its weighted rate, semantic distortion and aligned
    perception over its (d, p) grid, flattened d-major: (a, d, m) for
    branch 0 and (b, e, n) for branch 1."""
    tables = []
    for star, w, d_vals, p_vals in ((model.a_star, model.p_a, d0_vals, p0_vals),
                                    (model.b_star, model.p_b, d1_vals, p1_vals)):
        rate = _rdpf_table(min(star, 0.5), d_vals[:, None], p_vals[None, :])
        sem = (1.0 - 2.0 * q) * d_vals + q
        tables += [(w * rate).ravel(), (w * np.broadcast_to(sem[:, None], rate.shape)).ravel(),
                   (w * np.broadcast_to(p_vals[None, :], rate.shape)).ravel()]
    return tables


def _argmin(tables, D: float, P: float) -> tuple[float, int, int]:
    """(a_i + b_j, i, j) of the lexicographically smallest minimizer over
    the pairs with d_i + e_j <= D + tol and m_i + n_j <= P + tol; the
    value is inf where no pair meets both."""
    a, d, m, b, e, n = tables
    feasible = (d[:, None] + e[None, :] <= D + _TOL) & (m[:, None] + n[None, :] <= P + _TOL)
    scores = np.where(feasible, a[:, None] + b[None, :], np.inf)
    i, j = divmod(int(scores.argmin()), b.size)
    return float(scores[i, j]), i, j


def grid_min2(model, D: float, P: float, resolution: float):
    """(rate, (d0, d1, p0, p1)) of the grid search, or None where no grid
    allocation meets the targets within the tolerance. Checks the model
    and the arguments as ``solve_min2`` does."""
    D, P = solver._validate_args(D, P, resolution)
    q = solver._min2_hypotheses(model)

    def decode(axes, i, j):
        d0, p0, d1, p1 = axes
        return (float(d0[i // p0.size]), float(p0[i % p0.size]),
                float(d1[j // p1.size]), float(p1[j % p1.size]))

    grid = _axis_grid(resolution, 0.5)
    rate, i, j = _argmin(_min2_tables(model, q, grid, grid, grid, grid), D, P)
    if not math.isfinite(rate):
        return None
    point = decode((grid,) * 4, i, j)
    axes = tuple(_refine_axis(v, resolution, 0.5) for v in point)
    fine, fi, fj = _argmin(_min2_tables(model, q, *axes), D, P)
    if fine < rate:
        rate, point = fine, decode(axes, fi, fj)
    d0, p0, d1, p1 = point
    return float(rate), (d0, d1, p0, p1)
