"""The binary semantic source triple (S, X, Y) and its derived conditionals.

The hidden semantic bit S is observed indirectly as X through a binary
channel with crossovers (q1, q2); side information Y available to both
encoder and decoder is generated from X through a second binary channel
with crossovers (a, b). The joint law is assembled along the Markov chain
S -> X -> Y, so P(Y | S, X) = P(Y | X) holds by construction.

Every posterior the closed forms need is exposed as a plain attribute:

    p_a = P(Y = 0), p_b = P(Y = 1)
    a_star = P(X = 1 | Y = 0), b_star = P(X = 0 | Y = 1)
    u_star = P(S = 1 | Y = 0), v_star = P(S = 0 | Y = 1)

For the doubly symmetric construction (uniform S, q1 = q2 = q,
a = b = pi_x) these collapse to a_star = b_star = pi_x, bit for bit with
p_a == p_b, and u_star = v_star = pi_x_prime = (1 - 2q) * pi_x + q, which is
the distortion of decoding straight from the side information.
``SemanticModel.common_crossover`` checks its (S, X) half for every caller.
``pi_x`` is set only where a_star == b_star exactly.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateChannelError, DomainError, HypothesisError
from .probability_core import JointDistribution, _as_probability

_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SemanticModel:
    """Immutable container for the source triple and its derived quantities."""

    pi: float
    q1: float
    q2: float
    a: float
    b: float
    p_a: float
    p_b: float
    a_star: float
    b_star: float
    u_star: float
    v_star: float
    pi_x: float | None
    pi_x_prime: float | None
    flat_masses: tuple[float, ...]  # p(S = s, X = x, Y = y) in (s, x, y) order

    @cached_property
    def joint(self) -> JointDistribution:
        """The masses as a read-only (2, 2, 2) NumPy joint, built on first use."""
        return JointDistribution._trusted(np.reshape(self.flat_masses, (2, 2, 2)),
                                          ("S", "X", "Y"))

    @property
    def params(self) -> tuple[float, float, float, float, float]:
        """The five construction parameters, in build_model's argument order."""
        return (self.pi, self.q1, self.q2, self.a, self.b)

    def common_crossover(self) -> float:
        """q of a uniform (S, X) pair with q1 = q2 = q < 1/2, which both branch
        decompositions assume; raises HypothesisError otherwise."""
        if abs(self.pi - 0.5) > _SYMMETRY_TOL or self.q1 != self.q2 or self.q1 >= 0.5:
            raise HypothesisError(
                "the branch decomposition needs a uniform (S, X) pair with a common "
                "observation crossover q < 1/2 (the distortion conversion divides "
                f"by 1 - 2q); got {self!r}"
            )
        return self.q1

    def __repr__(self):
        return (
            f"SemanticModel(pi={self.pi}, q1={self.q1}, q2={self.q2}, "
            f"a={self.a}, b={self.b})"
        )


def build_model(pi: float, q1: float, q2: float, a: float, b: float) -> SemanticModel:
    """Compute the masses over (S, X, Y) and all conditionals in floats.

    Raises DegenerateChannelError when the side channel gives one Y value
    zero probability, since the posteriors given that value are undefined.
    """
    pi = _as_probability(pi, "pi")
    q1 = _as_probability(q1, "q1")
    q2 = _as_probability(q2, "q2")
    a = _as_probability(a, "a")
    b = _as_probability(b, "b")
    if pi > 0.5 + _SYMMETRY_TOL:
        raise DomainError(f"pi must not exceed 1/2, got {pi}")

    # p(s) p(x | s) p(y | x), multiplied in that order, in (s, x, y) order
    s00, s01, s10, s11 = (1.0 - pi) * (1.0 - q1), (1.0 - pi) * q1, pi * q2, pi * (1.0 - q2)
    m = (s00 * (1.0 - a), s00 * a, s01 * b, s01 * (1.0 - b),
         s10 * (1.0 - a), s10 * a, s11 * b, s11 * (1.0 - b))

    # P(Y) from P(X, Y) by two-term sums, which commute: a symmetric P(X, Y)
    # gives p_a == p_b and a_star == b_star bit for bit
    p_xy = (m[0] + m[4], m[1] + m[5], m[2] + m[6], m[3] + m[7])  # (x, y) order
    p_a, p_b = p_xy[0] + p_xy[2], p_xy[1] + p_xy[3]
    if p_a <= _SYMMETRY_TOL or p_b <= _SYMMETRY_TOL:
        raise DegenerateChannelError(
            f"side information takes value {'0' if p_b <= _SYMMETRY_TOL else '1'} "
            f"with probability ~1; posteriors for the other branch are undefined"
        )

    a_star, b_star = p_xy[2] / p_a, p_xy[1] / p_b
    # P(S = 1, Y = 0) and P(S = 0, Y = 1), summed over x
    u_star, v_star = (m[4] + m[6]) / p_a, (m[1] + m[3]) / p_b

    pi_x = a_star if a_star == b_star else None
    pi_x_prime = None
    if pi_x is not None and q1 == q2:
        pi_x_prime = (1.0 - 2.0 * q1) * pi_x + q1

    return SemanticModel(
        pi=pi, q1=q1, q2=q2, a=a, b=b,
        p_a=p_a, p_b=p_b, a_star=a_star, b_star=b_star,
        u_star=u_star, v_star=v_star, pi_x=pi_x, pi_x_prime=pi_x_prime,
        flat_masses=m,
    )


def dsbs_model(q: float, pi_x: float) -> SemanticModel:
    """Doubly symmetric construction: uniform S, q1 = q2 = q, a = b = pi_x.

    The resulting pair (S, X) is a DSBS with crossover q, the posterior
    crossovers collapse to a_star = b_star = pi_x, and
    u_star = v_star = (1 - 2q) * pi_x + q.
    """
    q = _as_probability(q, "q")
    pi_x = _as_probability(pi_x, "pi_x")
    if q >= 0.5:
        raise DomainError(
            f"q must be below 1/2 (the distortion transform divides by 1 - 2q), got {q}"
        )
    if not 0.0 < pi_x <= 0.5:
        raise DomainError(f"pi_x must lie in (0, 1/2], got {pi_x}")
    return build_model(0.5, q, q, pi_x, pi_x)
