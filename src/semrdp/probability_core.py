"""Exact information measures on small finite alphabets.

All quantities are in bits (log base 2) and are computed directly from
explicit mass arrays; nothing here is estimated. Conventions:

- 0 * log2(0) = 0, enforced by an explicit branch rather than left to
  floating-point accident, so deterministic distributions contribute
  exactly zero entropy.
- ``binary_entropy`` reduces its argument to the larger of (p, 1-p)
  before taking logs. Because 1-p is exact for p in [1/2, 1], this makes
  binary_entropy(p) == binary_entropy(1-p) bit-identical for every float
  p in [0, 1].

Joint distributions carry axis labels (e.g. ("S", "X", "Y")) and the
conditional measures are evaluated through marginal entropies of label
subsets:

    H(T | G)      = H(T, G) - H(G)
    I(A ; B | G)  = H(A, G) + H(B, G) - H(G) - H(A, B, G)

which keeps every operation a finite sum over the joint's cells.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, LabelError

__all__ = [
    "ChainRuleTerms",
    "JointDistribution",
    "binary_entropy",
    "chain_rule_decomposition",
    "conditional_entropy",
    "conditional_mutual_information",
    "random_joint",
    "ternary_entropy",
]

_PROB_SLACK = 1e-12
_NORM_TOL = 1e-9


def _as_probability(p, name: str) -> float:
    """Validate a scalar probability, allowing 1e-12 excursions which are clipped."""
    p = float(p)
    if not math.isfinite(p):
        raise DomainError(f"{name} must be finite, got {p!r}")
    if p < -_PROB_SLACK or p > 1.0 + _PROB_SLACK:
        raise DomainError(f"{name} must lie in [0, 1], got {p}")
    return min(1.0, max(0.0, p))


def binary_entropy(p: float) -> float:
    """Entropy of a Bernoulli(p) variable in bits.

    The complement is computed from the larger mass so the result is
    bit-identical under p -> 1-p.
    """
    p = _as_probability(p, "p")
    hi = p if p >= 0.5 else 1.0 - p
    lo = 1.0 - hi
    if lo == 0.0:
        return 0.0
    return -(lo * math.log2(lo) + hi * math.log2(hi))


def ternary_entropy(x: float, y: float) -> float:
    """Entropy in bits of the distribution (x, y, 1 - x - y)."""
    x = _as_probability(x, "x")
    y = _as_probability(y, "y")
    if x + y > 1.0 + _PROB_SLACK:
        raise DomainError(f"x + y must not exceed 1, got {x + y}")
    z = max(0.0, 1.0 - x - y)
    total = 0.0
    for v in (x, y, z):
        if v > 0.0:
            total -= v * math.log2(v)
    return total


def _entropy_of(m: np.ndarray) -> float:
    mm = m[m > 0.0]
    return float(-(mm * np.log2(mm)).sum())


@dataclass(frozen=True)
class JointDistribution:
    """A labelled multi-dimensional probability array.

    ``labels`` names the axes in storage order; every information measure
    below addresses axes through these labels.
    """

    masses: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        arr = np.asarray(self.masses, dtype=float)
        labels = tuple(self.labels)
        if arr.ndim != len(labels):
            raise LabelError(
                f"{len(labels)} labels for a {arr.ndim}-dimensional array"
            )
        if len(set(labels)) != len(labels):
            raise LabelError(f"duplicate axis labels in {labels}")
        if not np.all(np.isfinite(arr)):
            raise DomainError("masses must be finite")
        if arr.min() < -_PROB_SLACK:
            raise DomainError("every mass must be non-negative")
        if abs(arr.sum() - 1.0) > _NORM_TOL:
            raise DomainError(f"joint masses sum to {arr.sum()}, not 1")
        arr = np.asarray(np.clip(arr, 0.0, None))  # clip makes 0-d input a scalar
        arr.flags.writeable = False
        object.__setattr__(self, "masses", arr)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def _trusted(cls, arr: np.ndarray, labels: tuple[str, ...]) -> "JointDistribution":
        """A joint of masses known valid: sums or products of validated
        probabilities (a NumPy scalar if every axis was summed). No re-check, no clip."""
        arr = np.asarray(arr)
        arr.flags.writeable = False
        joint = object.__new__(cls)
        joint.__dict__.update(masses=arr, labels=labels)
        return joint

    def axes_of(self, labels) -> tuple[int, ...]:
        labels = _as_label_tuple(labels)
        missing = [l for l in labels if l not in self.labels]
        if missing:
            raise LabelError(f"unknown labels {missing}; have {self.labels}")
        return tuple(self.labels.index(l) for l in labels)

    def marginal(self, keep) -> "JointDistribution":
        """Marginal over the given labels, axes kept in original order."""
        keep = _as_label_tuple(keep)
        self.axes_of(keep)  # validate
        drop = tuple(i for i, l in enumerate(self.labels) if l not in keep)
        kept_labels = tuple(l for l in self.labels if l in keep)
        return JointDistribution._trusted(self.masses.sum(axis=drop), kept_labels)


def _as_label_tuple(labels) -> tuple[str, ...]:
    if isinstance(labels, str):
        return (labels,)
    return tuple(labels)


def _subset_entropy(joint: JointDistribution, labels) -> float:
    labels = _as_label_tuple(labels)
    if not labels:
        return 0.0
    return _entropy_of(joint.marginal(labels).masses.ravel())


def conditional_entropy(joint: JointDistribution, targets, given=()) -> float:
    """H(targets | given) in bits, computed exactly from the joint."""
    targets = _as_label_tuple(targets)
    given = _as_label_tuple(given)
    if not targets:
        raise LabelError("need at least one target label")
    if set(targets) & set(given):
        raise LabelError(f"target and conditioning labels overlap: {targets} / {given}")
    joint.axes_of(targets + given)
    return _subset_entropy(joint, targets + given) - _subset_entropy(joint, given)


def conditional_mutual_information(joint: JointDistribution, a, b, given=()) -> float:
    """I(a ; b | given) in bits.

    Evaluated as H(a,g) + H(b,g) - H(g) - H(a,b,g), which is symmetric in
    (a, b) down to the last bit because float addition commutes.
    """
    a = _as_label_tuple(a)
    b = _as_label_tuple(b)
    given = _as_label_tuple(given)
    groups = [a, b, given]
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            if set(groups[i]) & set(groups[j]):
                raise LabelError(f"label groups overlap: {groups[i]} / {groups[j]}")
    if not a or not b:
        raise LabelError("both variable groups must be non-empty")
    joint.axes_of(a + b + given)
    return (
        _subset_entropy(joint, a + given)
        + _subset_entropy(joint, b + given)
        - _subset_entropy(joint, given)
        - _subset_entropy(joint, a + b + given)
    )


@dataclass(frozen=True)
class ChainRuleTerms:
    """Named information terms of a four-variable joint over (S, X, Y, Z).

    The two decompositions of the conditional rate term,

        I(SX ; Z | Y) = I(SX ; ZY) - I(SX ; Y)
        I(SX ; Z | Y) = H(X|Y) + H(S|X,Y) + H(Z|Y) - H(S,X,Z|Y)

    hold exactly; every field here is computed independently so tests can
    check both identities as residuals.
    """

    mi_sx_z_given_y: float
    mi_sx_zy: float
    mi_sx_y: float
    h_x_given_y: float
    h_s_given_xy: float
    h_z_given_y: float
    h_sxz_given_y: float

    @property
    def residual_mutual_form(self) -> float:
        return self.mi_sx_z_given_y - (self.mi_sx_zy - self.mi_sx_y)

    @property
    def residual_entropy_form(self) -> float:
        rhs = (
            self.h_x_given_y
            + self.h_s_given_xy
            + self.h_z_given_y
            - self.h_sxz_given_y
        )
        return self.mi_sx_z_given_y - rhs


_CHAIN_LABELS = frozenset({"S", "X", "Y", "Z"})


def chain_rule_decomposition(joint: JointDistribution) -> ChainRuleTerms:
    """Decompose I(S,X ; Z | Y) of a joint labelled exactly (S, X, Y, Z)."""
    if set(joint.labels) != _CHAIN_LABELS:
        raise LabelError(f"expected axes labelled S, X, Y, Z; got {joint.labels}")
    return ChainRuleTerms(
        mi_sx_z_given_y=conditional_mutual_information(joint, ("S", "X"), "Z", "Y"),
        mi_sx_zy=conditional_mutual_information(joint, ("S", "X"), ("Z", "Y")),
        mi_sx_y=conditional_mutual_information(joint, ("S", "X"), "Y"),
        h_x_given_y=conditional_entropy(joint, "X", "Y"),
        h_s_given_xy=conditional_entropy(joint, "S", ("X", "Y")),
        h_z_given_y=conditional_entropy(joint, "Z", "Y"),
        h_sxz_given_y=conditional_entropy(joint, ("S", "X", "Z"), "Y"),
    )


def random_joint(rng: np.random.Generator, shape=(2, 2, 2, 2), labels=("S", "X", "Y", "Z"),
                 zero_fraction: float = 0.0) -> JointDistribution:
    """A random valid joint for property tests, deterministic under a seeded rng.

    ``zero_fraction`` optionally zeroes that share of cells before
    normalizing, to exercise the 0*log(0) paths.
    """
    masses = rng.random(shape)
    if zero_fraction > 0.0:
        mask = rng.random(shape) < zero_fraction
        masses[mask] = 0.0
        if masses.sum() == 0.0:
            masses.flat[0] = 1.0
    return JointDistribution(masses / masses.sum(), tuple(labels))
