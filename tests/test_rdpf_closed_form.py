import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semrdp import (
    DomainError,
    HypothesisError,
    InfeasibleError,
    build_model,
    closed_form_rate,
    dsbs_model,
    rdf_pi,
    rdpf_pi,
    rdpf_piecewise,
)
from semrdp.rdpf_closed_form import perception_band

INF = math.inf


def test_rdf_pi_examples():
    assert rdf_pi(0.2, 0.2) == 0.0
    assert rdf_pi(0.2, 0.05) == pytest.approx(0.435530, abs=1e-4)
    assert rdf_pi(0.2, 0.05) == pytest.approx(0.4355311378, abs=1e-9)
    assert rdf_pi(0.5, 0.0) == 1.0
    assert rdf_pi(0.2, 0.4) == 0.0  # clamped past the distortion where it vanishes


def test_rdf_pi_domain():
    with pytest.raises(DomainError):
        rdf_pi(0.2, -0.05)
    with pytest.raises(DomainError):
        rdf_pi(0.7, 0.1)


def test_rdpf_pi_examples():
    assert rdpf_pi(0.2, 0.1, 0.05) == pytest.approx(0.258456, abs=1e-4)
    assert rdpf_pi(0.2, 0.1, 0.05) == pytest.approx(0.2584556447, abs=1e-9)
    # the perception constraint can only raise the rate
    assert rdpf_pi(0.2, 0.1, 0.05) >= rdf_pi(0.2, 0.1) - 1e-12
    # zero-rate boundary of the piecewise structure: D2 = 0.29 at P = 0.05
    assert abs(rdpf_pi(0.2, 0.29, 0.05)) <= 1e-6


def test_rdpf_pi_dominates_rdf_on_valid_grid():
    for d in np.linspace(0.06, 0.28, 23):
        assert rdpf_pi(0.2, float(d), 0.05) >= rdf_pi(0.2, float(d)) - 1e-12


def test_rdpf_pi_domain_errors():
    with pytest.raises(DomainError):
        rdpf_pi(0.2, 0.1, 0.25)  # P above pi
    with pytest.raises(DomainError):
        rdpf_pi(0.2, 0.01, 0.05)  # D below P
    with pytest.raises(DomainError):
        rdpf_pi(0.2, 0.45, 0.05)  # (D + P)/2 above pi


def test_perception_band_values():
    d1, d2 = perception_band(0.2, 0.05)
    assert d1 == pytest.approx(0.0714286, abs=1e-6)
    assert d2 == pytest.approx(0.29, abs=1e-12)


def test_rdpf_piecewise_branches():
    assert rdpf_piecewise(0.2, 0.1, 0.05) == pytest.approx(0.258456, abs=1e-4)
    assert rdpf_piecewise(0.2, 0.3, 0.05) == 0.0
    assert rdpf_piecewise(0.2, 0.05, INF) == pytest.approx(0.435530, abs=1e-4)
    assert rdpf_piecewise(0.2, 0.05, 0.25) == pytest.approx(rdf_pi(0.2, 0.05), abs=1e-15)
    with pytest.raises(DomainError):
        rdpf_piecewise(0.0, 0.1, 0.05)
    with pytest.raises(DomainError):
        rdpf_piecewise(0.2, 0.1, -0.2)


def test_rdpf_piecewise_continuous_at_band_edges():
    eps = 1e-5
    for p, P in [(0.2, 0.05), (0.2, 0.02), (0.35, 0.1)]:
        d1, d2 = perception_band(p, P)
        assert abs(
            rdpf_piecewise(p, d1 - eps, P) - rdpf_piecewise(p, d1 + eps, P)
        ) <= 1e-3
        assert abs(
            rdpf_piecewise(p, d2 - eps, P) - rdpf_piecewise(p, d2 + eps, P)
        ) <= 1e-3


def test_rdpf_piecewise_uniform_source_ignores_perception():
    # p = 1/2: the band's denominator 1 + 2P - 2p vanishes at P = 0, yet the
    # R(D) reconstruction is already uniform, so every P gives rdf_pi
    for P in (0.0, 1e-20, 0.05, INF):
        for d in (0.0, 0.1, 0.3, 0.5, 0.7):
            assert rdpf_piecewise(0.5, d, P) == rdf_pi(0.5, d)


def _assert_branch_switch(model, P, d_prime, eps=1e-6):
    """closed_form_rate is rdf_pi just below D' and rdpf_pi just above it,
    where the two branches still differ by more than the comparison's 1e-13
    (by about 1.6e-11 at q = 0.1, pi_x = 0.2, P = 0.05)."""
    q, pi_x = model.q1, model.pi_x
    for D, binding in ((d_prime - eps, False), (d_prime + eps, True)):
        if D < q:
            continue  # below the noise floor: infeasible
        d_x = (D - q) / (1 - 2 * q)
        rdf, rdpf = rdf_pi(pi_x, d_x), rdpf_pi(pi_x, d_x, P)
        assert abs(rdf - rdpf) > 1e-12
        assert closed_form_rate(model, D, P) == pytest.approx(rdpf if binding else rdf, abs=1e-13)


def test_closed_form_rate_switches_branch_at_d_prime(model_q01):
    # D' = (1 - 2q) D1 + q maps the band's lower edge to the semantic domain
    d1, d2 = perception_band(0.2, 0.05)
    assert d1 == pytest.approx(0.0714286, abs=1e-6)
    assert d2 == pytest.approx(0.29, abs=1e-12)
    d_prime = 0.8 * d1 + 0.1
    assert d_prime == pytest.approx(0.157143, abs=1e-6)
    _assert_branch_switch(model_q01, 0.05, d_prime)
    # P = 0: D1 = 0, so D' = q and perception binds from the noise floor on
    assert perception_band(0.2, 0.0)[0] == 0.0
    _assert_branch_switch(model_q01, 0.0, 0.1)


def test_closed_form_rate_spot_values(model_q01):
    rate = closed_form_rate(model_q01, 0.2, 0.05)
    assert rate == pytest.approx(0.193705, abs=2e-4)
    assert rate == pytest.approx(0.1937237367, abs=1e-9)
    for p in (0.02, 0.05, 0.1, 0.2, INF):
        assert closed_form_rate(model_q01, 0.26, p) == 0.0
        assert closed_form_rate(model_q01, 0.4, p) == 0.0
    # Y tells X (pi_x = 0, so pi_x' = q): rate 0 from the floor, and within
    # the floor's tolerance below it
    knows_x = build_model(0.5, 0.1, 0.1, 0.0, 0.0)
    for p in (0.0, 0.05, INF):
        assert closed_form_rate(knows_x, 0.1 - 1e-13, p) == closed_form_rate(knows_x, 0.1, p) == 0.0


def test_closed_form_rate_errors(model_q01):
    with pytest.raises(InfeasibleError):
        closed_form_rate(model_q01, 0.05, 0.05)
    with pytest.raises(HypothesisError):
        closed_form_rate(build_model(0.5, 0.1, 0.1, 0.1, 0.3), 0.2, 0.05)
    with pytest.raises(HypothesisError):
        # pi_x = 1/2 leaves the side information uninformative
        closed_form_rate(dsbs_model(0.1, 0.5), 0.3, 0.05)
    # just below 1/2 it answers, also where P(S=1 | Y=0) rounds to 1/2
    for q in (0.1, 0.3):
        assert closed_form_rate(dsbs_model(q, math.nextafter(0.5, 0.0)), 0.31, 0.05) > 0.0


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(q=st.floats(0.0, 0.49), pi_x=st.floats(1e-6, 0.49))
def test_closed_form_rate_at_the_floor_without_perception_is_rdf(q, pi_x):
    # at P = 0, D1 = 0: D = q is the band's edge, where rdpf_piecewise answers
    # with R(0) = H_b(pi_x) itself
    model = dsbs_model(q, pi_x)
    assert closed_form_rate(model, q, 0.0) == rdf_pi(model.pi_x, 0.0)


def test_closed_form_rate_monotone_in_d_and_p(model_q01):
    d_grid = np.linspace(0.1, 0.6, 100)
    p_grid = np.linspace(0.0, 0.4, 100)
    rates = np.array(
        [[closed_form_rate(model_q01, float(d), float(p)) for d in d_grid] for p in p_grid]
    )
    assert (np.diff(rates, axis=1) <= 1e-9).all()  # non-increasing in D
    assert (np.diff(rates, axis=0) <= 1e-9).all()  # non-increasing in P


def test_closed_form_rate_perception_cases_agree_on_overlap(model_q01):
    # between pi_x and pi_x_prime the perception-binding band is empty, so
    # both case formulas coincide with the plain rate-distortion branch
    for p in (0.2, 0.22, 0.25, 0.2599):
        for d in np.linspace(0.1, 0.259, 12):
            assert closed_form_rate(model_q01, float(d), float(p)) == pytest.approx(
                rdf_pi(0.2, (float(d) - 0.1) / 0.8), abs=1e-12
            )


def test_direct_observation_reduction_where_band_applies():
    # with q = 0 the closed form matches the plain piecewise function
    # bit-exactly below the plateau and beyond the perception band
    model = dsbs_model(0.0, 0.2)
    for P in (0.02, 0.05, 0.1, INF):
        d2 = perception_band(0.2, P)[1] if math.isfinite(P) else 0.0
        for d in np.linspace(0.0, 0.45, 46):
            d = float(d)
            if d < 0.2 or P >= 0.2 or d >= d2:
                assert closed_form_rate(model, d, P) == rdpf_piecewise(0.2, d, P)


def test_plateau_beats_unconstrained_piecewise_at_q0():
    # on [pi_x, D2) the side information zeroes the rate while the
    # no-side-information piecewise function is still positive; this is the
    # one region where the two deliberately part ways
    model = dsbs_model(0.0, 0.2)
    for P in (0.02, 0.05, 0.1):
        d2 = perception_band(0.2, P)[1]
        for d in np.linspace(0.21, d2 - 1e-3, 5):
            assert closed_form_rate(model, float(d), P) == 0.0
            assert rdpf_piecewise(0.2, float(d), P) > 0.0


def test_continuity_at_d_prime(model_q01):
    eps = 1e-5
    for P in (0.02, 0.05, 0.1):
        d_prime = 0.8 * perception_band(0.2, P)[0] + 0.1
        left = closed_form_rate(model_q01, d_prime - eps, P)
        right = closed_form_rate(model_q01, d_prime + eps, P)
        assert abs(left - right) <= 1e-3


def test_continuity_at_plateau_for_loose_perception(model_q01):
    eps = 1e-5
    for P in (0.2, 0.3, INF):
        left = closed_form_rate(model_q01, 0.26 - eps, P)
        right = closed_form_rate(model_q01, 0.26 + eps, P)
        assert abs(left - right) <= 1e-3


def test_plateau_jump_for_binding_perception(model_q01):
    # for P below pi_x the middle expression does not decay to zero at the
    # plateau onset; the documented left limit is rdpf_pi(pi_x, pi_x, P)
    eps = 1e-7
    for P in (0.02, 0.05, 0.1):
        left = closed_form_rate(model_q01, 0.26 - eps, P)
        assert left == pytest.approx(rdpf_pi(0.2, 0.2, P), abs=1e-5)
        assert closed_form_rate(model_q01, 0.26, P) == 0.0


def test_q0_breakpoint_collapse():
    # q = 0: D' = (1 - 2q) D1 + q is D1 itself
    d_prime = perception_band(0.2, 0.05)[0]
    assert d_prime == pytest.approx(0.0714286, abs=1e-6)
    _assert_branch_switch(dsbs_model(0.0, 0.2), 0.05, d_prime)
