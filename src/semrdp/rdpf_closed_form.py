"""Closed-form rate-distortion and rate-distortion-perception functions.

For a Bernoulli(pi) source under Hamming distortion the rate-distortion
function is

    R_pi(D) = H_b(pi) - H_b(D)            for D < pi, else 0,

and with a total-variation perception budget P the rate-distortion-
perception function is

    R_pi(D, P) = 2 H_b(pi) + H_b(pi - P)
                 - H_t((D - P) / 2, pi) - H_t((D + P) / 2, 1 - pi),

where H_b and H_t are the binary and ternary entropies. The perception
constraint only binds on a middle distortion band; the full function is
piecewise:

    R_pi(D)       on 0 <= D <= D1   (or everywhere when P >= pi or pi = 1/2)
    R_pi(D, P)    on D1 <= D <= D2
    0             on D >= D2

with D1 = P / (1 + 2P - 2 pi) and D2 = 2 pi (1 - pi) - (1 - 2 pi) P.
The pieces meet continuously at both ends: the unconstrained minimizer
hits total variation exactly P at D1, and the formula above vanishes at
D2.

``closed_form_rate`` lifts this to the indirect, side-informed source:
for a doubly symmetric model with observation crossover q and posterior
crossover pi_x, the semantic distortion D maps to the observation domain
as D_x = (D - q) / (1 - 2q), and the rate is the Bernoulli(pi_x) function
lifted: rdpf_piecewise(pi_x, D_x, P) below pi_x' = (1 - 2q) pi_x + q, whose
switch at D1 is the semantic D' = (1 - 2q) D1 + q, and 0 from pi_x' on.
Decoding straight from the side information achieves distortion pi_x' at
zero rate with a reconstruction law identical to the source law, which is
why the zero branch starts at pi_x' regardless of P.

A consequence worth knowing: for perception budgets below pi_x the middle
expression does not decay to zero as D approaches pi_x' (its left limit is
R_pix(pi_x, P) > 0), so this closed form has a genuine downward jump at
pi_x'. It is an achievable rate, not the lower convex envelope: the two
side-information branches can deviate in opposite directions so their
perception errors cancel, and the exact minimum over stochastic decoders
(rdpf_solver.oracle_min_rate) is R_pix(D_x) for every P.
"""

import math

from .errors import DomainError, HypothesisError, InfeasibleError
from .probability_core import _as_probability, binary_entropy, ternary_entropy
from .semantic_model import SemanticModel

_TOL = 1e-12


def rdf_pi(pi: float, D: float) -> float:
    """Rate-distortion function of a Bernoulli(pi) source, clamped to zero
    for D >= pi (the formula H_b(pi) - H_b(D) goes negative there)."""
    pi = _as_probability(pi, "pi")
    if pi > 0.5 + _TOL:
        raise DomainError(f"pi must not exceed 1/2, got {pi}")
    D = float(D)
    if not math.isfinite(D) or D < -_TOL:
        raise DomainError(f"distortion must be non-negative, got {D}")
    if D >= pi:
        return 0.0
    return binary_entropy(pi) - binary_entropy(D)


def rdpf_pi(pi: float, D: float, P: float) -> float:
    """Perception-constrained rate of a Bernoulli(pi) source.

    Valid where both ternary-entropy arguments form distributions, which
    requires P <= pi and P <= D <= 2 pi - P. Outside the binding band use
    rdpf_piecewise, which dispatches to the correct branch.
    """
    pi = _as_probability(pi, "pi")
    D = float(D)
    P = float(P)
    if not math.isfinite(P) or P < -_TOL:
        raise DomainError(f"perception budget must be non-negative, got {P}")
    if P > pi + _TOL:
        raise DomainError(f"P must not exceed pi for this branch, got P={P}, pi={pi}")
    if D < P - _TOL:
        raise DomainError(f"need D >= P, got D={D}, P={P}")
    if (D + P) / 2.0 > pi + _TOL:
        raise DomainError(
            f"need (D + P)/2 <= pi for a valid ternary argument, got D={D}, P={P}, pi={pi}"
        )
    P = min(P, pi)
    half_minus = max((D - P) / 2.0, 0.0)
    half_plus = (D + P) / 2.0
    return (
        2.0 * binary_entropy(pi)
        + binary_entropy(pi - P)
        - ternary_entropy(half_minus, pi)
        - ternary_entropy(half_plus, 1.0 - pi)
    )


def perception_band(p: float, P: float) -> tuple[float, float]:
    """The distortion band [D1, D2] on which a perception budget P < p binds."""
    d1 = P / (1.0 + 2.0 * P - 2.0 * p)
    d2 = 2.0 * p * (1.0 - p) - (1.0 - 2.0 * p) * P
    return d1, d2


def rdpf_piecewise(p: float, D: float, P: float) -> float:
    """Full piecewise rate-distortion-perception function of a Bernoulli(p)
    source. P may be math.inf for an unconstrained perception budget, which
    selects the plain rate-distortion branch."""
    p = _as_probability(p, "p")
    if not 0.0 < p <= 0.5:
        raise DomainError(f"p must lie in (0, 1/2], got {p}")
    D = float(D)
    if not math.isfinite(D) or D < -_TOL:
        raise DomainError(f"distortion must be non-negative, got {D}")
    P = float(P)
    if math.isnan(P) or P < -_TOL:
        raise DomainError(f"perception budget must be non-negative, got {P}")
    # p = 1/2: the R(D) reconstruction is uniform, so perception never binds
    if P >= p or p == 0.5:
        return rdf_pi(p, D)
    d1, d2 = perception_band(p, P)
    if D <= d1:
        return rdf_pi(p, D)
    if D >= d2:
        return 0.0
    return rdpf_pi(p, D, P)


def _require_doubly_symmetric(model: SemanticModel) -> tuple[float, float, float]:
    q = model.common_crossover()
    # pi_x < 1/2 is P(S=1 | Y=0) = q + (1 - 2q) pi_x < 1/2 in exact arithmetic
    if model.pi_x is None or model.pi_x >= 0.5:
        raise HypothesisError(
            "closed form requires a symmetric, informative side channel "
            f"(a_star == b_star < 1/2); got {model!r} with "
            f"a_star={model.a_star}, b_star={model.b_star}"
        )
    return q, model.pi_x, model.pi_x_prime


def closed_form_rate(model: SemanticModel, D: float, P: float) -> float:
    """Closed-form achievable rate for the indirect side-informed source.

    D is measured against the hidden semantic bit, so D >= q is required;
    the observation-domain distortion is D_x = (D - q) / (1 - 2q). P may be
    math.inf. Zero from pi_x_prime onward (decode from side information);
    below that, rdpf_piecewise(pi_x, D_x, P), with the perception budget
    untransformed, since the source and observation marginals coincide for
    this construction.
    """
    q, pi_x, pi_x_prime = _require_doubly_symmetric(model)
    D = float(D)
    P = float(P)
    if math.isnan(D):
        raise DomainError(f"distortion target D must be a number, got {D}")
    if math.isnan(P) or P < -_TOL:
        raise DomainError(f"perception budget must be non-negative, got {P}")
    if D < q - _TOL:
        raise InfeasibleError(
            f"semantic distortion {D} is below the observation noise floor q={q}"
        )
    D = max(D, q)  # within the tolerance below the floor reads as the floor
    if D >= pi_x_prime:
        return 0.0
    return rdpf_piecewise(pi_x, (D - q) / (1.0 - 2.0 * q), P)
