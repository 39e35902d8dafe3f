import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semrdp import (
    DecoderLaw,
    DegenerateChannelError,
    DomainError,
    HypothesisError,
    InfeasibleError,
    JointDistribution,
    SemRdpError,
    build_model,
    closed_form_rate,
    dsbs_model,
    evaluate_decoder,
    oracle_min_rate,
    solve_min2,
)
from semrdp.probability_core import _as_probability


def test_build_model_worked_example():
    m = build_model(0.5, 0.1, 0.1, 0.2, 0.2)
    assert m.p_a == pytest.approx(0.5, abs=1e-12)
    assert m.p_b == pytest.approx(0.5, abs=1e-12)
    assert m.a_star == pytest.approx(0.2, abs=1e-12)
    assert m.b_star == pytest.approx(0.2, abs=1e-12)
    # posterior crossover of S given Y composes the two channels:
    # (1 - 2q) * pi_x + q
    assert m.u_star == pytest.approx(0.26, abs=1e-12)
    assert m.v_star == pytest.approx(0.26, abs=1e-12)
    assert m.pi_x == pytest.approx(0.2, abs=1e-12)
    assert m.pi_x_prime == pytest.approx(0.26, abs=1e-12)


def test_noiseless_chain():
    m = build_model(0.5, 0.0, 0.0, 0.0, 0.0)
    assert m.a_star == 0.0
    assert m.b_star == 0.0
    assert m.u_star == 0.0
    assert m.p_a == pytest.approx(0.5, abs=1e-12)


def _markov_residual(m):
    joint = m.joint.masses
    p_sx = joint.sum(axis=2)
    p_y_given_x = np.array([[1 - m.a, m.a], [m.b, 1 - m.b]])
    worst = 0.0
    for s in range(2):
        for x in range(2):
            if p_sx[s, x] <= 0:
                continue
            for y in range(2):
                worst = max(
                    worst, abs(joint[s, x, y] / p_sx[s, x] - p_y_given_x[x, y])
                )
    return worst


def test_markov_property_holds_by_construction(rng):
    assert _markov_residual(build_model(0.5, 0.1, 0.1, 0.2, 0.2)) < 1e-12
    for _ in range(25):
        pi = float(rng.uniform(0.05, 0.5))
        q1, q2, a, b = (float(v) for v in rng.uniform(0.02, 0.45, 4))
        assert _markov_residual(build_model(pi, q1, q2, a, b)) < 1e-12


def test_side_channel_reconstruction(rng):
    for _ in range(25):
        pi = float(rng.uniform(0.05, 0.5))
        q1, q2, a, b = (float(v) for v in rng.uniform(0.02, 0.45, 4))
        m = build_model(pi, q1, q2, a, b)
        p_xy = m.joint.masses.sum(axis=0)
        p_x = p_xy.sum(axis=1)
        assert p_xy[0, 1] / p_x[0] == pytest.approx(a, abs=1e-9)
        assert p_xy[1, 0] / p_x[1] == pytest.approx(b, abs=1e-9)


def test_dsbs_marginals_uniform():
    m = dsbs_model(0.1, 0.2)
    p_s = m.joint.masses.sum(axis=(1, 2))
    p_x = m.joint.masses.sum(axis=(0, 2))
    assert 0.5 * np.abs(p_s - p_x).sum() <= 1e-15
    assert float(p_s[1]) == pytest.approx(0.5, abs=1e-15)
    assert float(p_x[1]) == pytest.approx(0.5, abs=1e-15)


def test_dsbs_examples():
    assert dsbs_model(0.1, 0.2).pi_x_prime == pytest.approx(0.26, abs=1e-12)
    assert dsbs_model(0.0, 0.2).pi_x_prime == pytest.approx(0.2, abs=1e-12)
    m = dsbs_model(0.2, 0.2)
    assert m.a_star == pytest.approx(0.2, abs=1e-12)
    assert m.b_star == pytest.approx(0.2, abs=1e-12)
    assert m.u_star == pytest.approx(0.32, abs=1e-12)
    assert m.v_star == pytest.approx(0.32, abs=1e-12)


def test_dsbs_posterior_composition(rng):
    for _ in range(25):
        q = float(rng.uniform(0.0, 0.49))
        pi_x = float(rng.uniform(0.02, 0.5))
        m = dsbs_model(q, pi_x)
        assert m.u_star == pytest.approx(q + pi_x - 2 * q * pi_x, abs=1e-9)
        assert m.common_crossover() == q


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(q=st.floats(0.0, 0.49), pi_x=st.floats(1e-6, 0.5))
def test_dsbs_branches_are_bit_equal(q, pi_x):
    # P(Y) sums a symmetric P(X, Y) two terms at a time, so both branches get
    # the same posterior and weight, not two an ulp apart
    m = dsbs_model(q, pi_x)
    assert m.a_star == m.b_star and m.p_a == m.p_b


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(q=st.floats(0.0, 1.0), a=st.floats(0.0, 1.0))
def test_symmetric_side_channels_keep_pi_x(q, a):
    # a uniform S through q1 = q2 and a = b gives a* == b* bit for bit, the
    # exact test build_model sets pi_x by
    m = build_model(0.5, q, q, a, a)
    assert m.pi_x == m.a_star


def test_near_symmetric_side_channel_has_no_pi_x():
    # a* - b* = 3e-10: two posteriors, so the closed form must not answer
    m = build_model(0.5, 0.1, 0.1, 0.2, 0.2 + 5e-10)
    assert m.a_star != m.b_star
    assert m.pi_x is None and m.pi_x_prime is None
    with pytest.raises(HypothesisError):
        closed_form_rate(m, 0.2, 0.05)


def test_model_domain_errors():
    with pytest.raises(DomainError):
        build_model(0.7, 0.1, 0.1, 0.2, 0.2)  # pi above 1/2
    with pytest.raises(DomainError):
        dsbs_model(0.5, 0.2)  # q = 1/2 makes the transform singular
    with pytest.raises(DomainError):
        dsbs_model(0.1, 0.0)
    with pytest.raises(DegenerateChannelError):
        build_model(0.5, 0.1, 0.1, 1.0, 0.0)  # Y is constant


def _build_in_numpy(pi, q1, q2, a, b):
    """build_model as it was before it ran in floats: the joint broadcast in
    NumPy and re-validated, its marginals summed by axis. Returns the
    attributes by name, and the joint's masses under "masses"."""
    pi, q1, q2, a, b = (_as_probability(v, name) for v, name in
                        zip((pi, q1, q2, a, b), ("pi", "q1", "q2", "a", "b")))
    if pi > 0.5 + 1e-12:
        raise DomainError(f"pi must not exceed 1/2, got {pi}")
    p_s = np.array([1.0 - pi, pi])
    p_x_given_s = np.array([[1.0 - q1, q1], [q2, 1.0 - q2]])
    p_y_given_x = np.array([[1.0 - a, a], [b, 1.0 - b]])
    masses = p_s[:, None, None] * p_x_given_s[:, :, None] * p_y_given_x[None, :, :]
    joint = JointDistribution(masses, ("S", "X", "Y"))
    p_xy = masses.sum(axis=0)
    p_y = p_xy.sum(axis=0)
    p_a, p_b = float(p_y[0]), float(p_y[1])
    if p_a <= 1e-12 or p_b <= 1e-12:
        raise DegenerateChannelError(
            f"side information takes value {'0' if p_b <= 1e-12 else '1'} "
            f"with probability ~1; posteriors for the other branch are undefined"
        )
    a_star, b_star = float(p_xy[1, 0] / p_a), float(p_xy[0, 1] / p_b)
    p_sy = masses.sum(axis=1)
    pi_x = a_star if a_star == b_star else None
    return {"pi": pi, "q1": q1, "q2": q2, "a": a, "b": b, "p_a": p_a, "p_b": p_b,
            "a_star": a_star, "b_star": b_star,
            "u_star": float(p_sy[1, 0] / p_a), "v_star": float(p_sy[0, 1] / p_b),
            "pi_x": pi_x,
            "pi_x_prime": (1.0 - 2.0 * q1) * pi_x + q1 if pi_x is not None and q1 == q2 else None,
            "flat_masses": tuple(joint.masses.ravel().tolist()), "masses": joint.masses}


def _outcome(build, params):
    try:
        return build(*params)
    except SemRdpError as error:  # compared by type and message
        return type(error), str(error)


_EDGE_OR_UNIFORM = st.one_of(st.sampled_from([0.0, 1e-9, 1.0 - 1e-9, 0.5, 1.0]),
                             st.floats(0.0, 1.0))


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(params=st.tuples(*[_EDGE_OR_UNIFORM] * 5))
@example(params=(0.7, 0.1, 0.1, 0.2, 0.2))  # pi above 1/2
@example(params=(0.5, 0.1, 0.1, 1.0, 0.0))  # Y is constant
@example(params=(0.5, math.nan, 0.1, 0.2, 0.2))
@example(params=(0.5, 0.1, 0.1, math.inf, 0.2))
def test_float_build_is_bit_equal_to_the_numpy_build(params):
    reference = _outcome(_build_in_numpy, params)
    model = _outcome(build_model, params)
    if isinstance(reference, tuple):  # both sides reject the parameters alike
        assert model == reference
        return
    for name, value in reference.items():
        if name != "masses":
            assert getattr(model, name) == value, name
    assert np.array_equal(model.joint.masses, reference["masses"])
    assert model.joint.masses.shape == (2, 2, 2) and model.joint.labels == ("S", "X", "Y")
    assert not model.joint.masses.flags.writeable


def test_solver_paths_never_build_the_joint():
    # the solvers read flat_masses and the posteriors; only the NumPy
    # callers build the joint, on first use
    model, dsbs = build_model(0.4, 0.1, 0.15, 0.2, 0.3), dsbs_model(0.1, 0.2)
    for D, P in ((0.22, 0.01), (0.25, 0.0), (0.31, 0.05)):  # nested roots, P = 0, rate 0
        oracle_min_rate(model, D, P)
    with pytest.raises(InfeasibleError):
        oracle_min_rate(model, 0.05, 0.05)
    for D, P in ((0.2, 0.05), (0.2, 0.0), (0.4, 0.05)):
        solve_min2(dsbs, D, P)
        closed_form_rate(dsbs, D, P)
    oracle_min_rate(dsbs, 0.2, 0.05)
    assert "joint" not in vars(model) and "joint" not in vars(dsbs)
    evaluate_decoder(model, DecoderLaw.from_side_information())
    assert "joint" in vars(model)
