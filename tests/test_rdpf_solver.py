import itertools
import math
import random
import re
import statistics

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from semrdp import (
    DecoderLaw,
    DecoderMetrics,
    DegenerateChannelError,
    DomainError,
    HypothesisError,
    InfeasibleError,
    JointDistribution,
    TrialConfig,
    binary_entropy,
    build_model,
    closed_form_rate,
    conditional_mutual_information,
    dsbs_model,
    evaluate_decoder,
    oracle_min_rate,
    rdpf_piecewise,
    run_decoder_trials,
    solve_min2,
)
from semrdp import rdpf_solver as solver
from semrdp.rdpf_closed_form import perception_band

import min2_grid as grid_ref

INF = math.inf


def test_decoder_law_validation_and_helpers():
    with pytest.raises(DomainError):
        DecoderLaw(1.2, 0.0, 0.0, 0.0)
    assert DecoderLaw.copy_observation().as_tuple() == (1.0, 0.0, 1.0, 0.0)
    assert DecoderLaw.from_side_information().as_tuple() == (1.0, 1.0, 0.0, 0.0)
    assert DecoderLaw.uniform().as_tuple() == (0.5, 0.5, 0.5, 0.5)


def test_evaluate_decoder_copy_anchor(model_q01):
    m = evaluate_decoder(model_q01, DecoderLaw.copy_observation())
    assert m.rate == pytest.approx(binary_entropy(0.2), abs=1e-12)
    assert m.distortion == pytest.approx(0.1, abs=1e-12)
    assert m.perception <= 1e-12


def test_evaluate_decoder_side_information_anchor(model_q01):
    m = evaluate_decoder(model_q01, DecoderLaw.from_side_information())
    assert m.rate == 0.0
    assert m.distortion == pytest.approx(0.26, abs=1e-12)
    assert m.perception <= 1e-12


def test_evaluate_decoder_uniform_anchor(model_q01):
    m = evaluate_decoder(model_q01, DecoderLaw.uniform())
    assert abs(m.rate) <= 1e-12
    assert m.distortion == pytest.approx(0.5, abs=1e-12)
    assert m.perception <= 1e-12


def _branch_formula(model, law):
    """Independent route: per-branch mutual information and moments."""
    rate = dist = marg0 = 0.0
    for y, (p_y, s, t) in enumerate(
        [(model.p_a, law.s0, law.t0), (model.p_b, law.s1, law.t1)]
    ):
        cells = model.joint.masses[:, :, y] / p_y
        px0 = cells[0, 0] + cells[1, 0]
        px1 = cells[0, 1] + cells[1, 1]
        m0 = px0 * s + px1 * t
        info = binary_entropy(m0) - px0 * binary_entropy(s) - px1 * binary_entropy(t)
        rate += p_y * info
        dist += p_y * (
            cells[0, 0] * (1 - s) + cells[0, 1] * (1 - t) + cells[1, 0] * s + cells[1, 1] * t
        )
        marg0 += p_y * m0
    return rate, dist, abs(marg0 - (1 - model.pi))


def test_evaluate_decoder_agrees_with_branch_formula(model_q01, rng):
    asymmetric = build_model(0.4, 0.15, 0.05, 0.3, 0.1)
    for model in (model_q01, asymmetric):
        for _ in range(25):
            law = DecoderLaw(*rng.random(4))
            exact = evaluate_decoder(model, law)
            rate, dist, perc = _branch_formula(model, law)
            assert exact.rate == pytest.approx(rate, abs=1e-12)
            assert exact.distortion == pytest.approx(dist, abs=1e-12)
            assert exact.perception == pytest.approx(perc, abs=1e-12)


def _evaluate_decoder_validated(model, law):
    """evaluate_decoder as it was before it trusted its own joint: the
    joint re-validated, and the perception from two marginals each clipped
    into [0, 1]."""
    p3 = model.joint.masses
    p_zero = law.prob_zero_table()[None, :, :]
    m4 = np.empty(p3.shape + (2,))
    m4[..., 0] = p3 * p_zero
    m4[..., 1] = p3 * (1.0 - p_zero)
    joint4 = JointDistribution(m4, ("S", "X", "Y", "Shat"))
    rate = conditional_mutual_information(joint4, "X", "Shat", "Y")
    distortion = float(m4[0, :, :, 1].sum() + m4[1, :, :, 0].sum())
    p_s, p_shat = (np.clip(joint4.marginal(label).masses, 0.0, 1.0) for label in ("S", "Shat"))
    perception = float(0.5 * np.abs(p_s - p_shat).sum())
    return DecoderMetrics(rate=rate, distortion=distortion, perception=perception)


def _float_metrics(model, law):
    """The oracle's four-cell metrics of a law, clipped as the oracle reports them."""
    rate, distortion, perception = solver._cell_metrics(model, law.as_tuple())
    return DecoderMetrics(rate=max(0.0, rate), distortion=distortion, perception=perception)


def _assert_near_the_joint_route(result, exact):
    """The oracle's reported metrics agree with evaluate_decoder's ``exact``
    ones of its argmin, the independent route through the joint."""
    assert abs(result.rate - max(0.0, exact.rate)) <= 1e-14
    assert abs(result.achieved_D - exact.distortion) <= 1e-15
    assert abs(result.achieved_P - exact.perception) <= 1e-15


def _validated_pairs():
    """(model, law) pairs over pi = 0, 1/2 and uniform draws, with the 16
    corner laws on every 20th model."""
    rng = np.random.default_rng(17)
    corners = [DecoderLaw(*c) for c in np.ndindex(2, 2, 2, 2)]
    for k in range(1200):
        pi = (0.0, 0.5, rng.uniform(0.0, 0.5))[k % 3]
        model = build_model(pi, *rng.uniform(0.0, 1.0, 4))
        laws = corners if k % 20 == 0 else [DecoderLaw(*rng.uniform(0.0, 1.0, 4))]
        for law in laws:
            yield model, law


def test_evaluate_decoder_matches_the_validated_path():
    # pi = 0 and a constant Shat put a marginal mass at 1, where the sum can
    # round above 1 and the validated path clips it; deterministic laws are
    # the grid corners the oracle returns
    pairs = 0
    for model, law in _validated_pairs():
        assert evaluate_decoder(model, law) == _evaluate_decoder_validated(model, law)
        pairs += 1
    assert pairs == 1200 + 60 * 15


def test_float_metrics_match_evaluate_decoder():
    # the oracle reports the four-cell metrics in floats; evaluate_decoder
    # is the independent route through the 16-mass joint
    pairs = 0
    for model, law in _validated_pairs():
        rate, distortion, perception = solver._cell_metrics(model, law.as_tuple())
        exact = evaluate_decoder(model, law)
        assert abs(rate - exact.rate) <= 1e-14
        assert abs(distortion - exact.distortion) <= 1e-14
        assert abs(perception - exact.perception) <= 1e-14
        pairs += 1
    assert pairs == 1200 + 60 * 15


def test_oracle_zero_rate_plateau(model_q01):
    result = oracle_min_rate(model_q01, 0.26, 0.05, 0.02)
    assert result.rate <= 1e-3
    assert result.achieved_D <= 0.26 + 1e-9
    assert result.achieved_P <= 0.05 + 1e-9


def test_oracle_spot_agreement(model_q01):
    # the closed form is achievable, so the exact minimum sits at or below
    # it, and within the sandwich tolerance at this point
    result = oracle_min_rate(model_q01, 0.2, 0.05, 0.02)
    closed = closed_form_rate(model_q01, 0.2, 0.05)
    assert result.rate <= closed + 0.01
    assert abs(result.rate - closed) <= 0.02


def test_oracle_determinism(model_q01):
    a = oracle_min_rate(model_q01, 0.22, 0.05, 0.05)
    b = oracle_min_rate(model_q01, 0.22, 0.05, 0.05)
    assert a == b


def test_oracle_infeasible(model_q01):
    with pytest.raises(InfeasibleError, match=r"floor at this P is 0\.1 > D, so no decoder"):
        oracle_min_rate(model_q01, 0.05, 0.05, 0.05)


def test_oracle_infeasible_message_shows_the_violated_target():
    # the floor at P = 0 lies above D, and the error states both
    model = build_model(0.3869, 0.1484, 0.159, 0.3799, 0.309)
    with pytest.raises(InfeasibleError) as info:
        oracle_min_rate(model, 0.15, 0.0)
    message = str(info.value)
    assert message.startswith("D <= 0.15 and P <= 0.0 cannot both be met:")
    floor = re.search(r"distortion floor at this P is ([^ ]+) > D", message).group(1)
    assert floor == "0.16909"
    assert message.endswith("so no decoder meets both targets")


def _floor_by_vertices(model, P):
    """Least distortion over the vertices of the polytope of decoder cells
    z = P(Shat = 0 | x, y) in [0, 1]^4 with |sum p(x, y) z - P(S = 0)| <= P.
    Each vertex has three cells at 0 or 1, and the fourth at 0 or 1 too or
    on an edge of the budget."""
    p0, p1 = model.joint.masses[0].ravel(), model.joint.masses[1].ravel()
    weight, target = p0 + p1, 1.0 - model.pi
    edges = [e for e in (target - P, target + P) if math.isfinite(e)]
    best = INF
    for corner in itertools.product((0.0, 1.0), repeat=4):
        vertices = [np.array(corner)]
        for k, edge in itertools.product(range(4), edges):
            z = np.array(corner)
            z[k] = 0.0
            room = edge - weight @ z  # weight[k] * z[k] on the edge
            if 0.0 <= room <= weight[k] and weight[k] > 0:
                z[k] = room / weight[k]
                vertices.append(z)
        for z in vertices:
            if abs(weight @ z - target) <= P + 1e-12:
                best = min(best, float(p0 @ (1.0 - z) + p1 @ z))
    return best


def _bayes_error(model):
    return float(model.joint.masses.min(axis=0).sum())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pi=st.floats(0.0, 0.5), channels=st.tuples(*[st.floats(0.0, 1.0)] * 4),
       P=st.sampled_from([0.0, 1e-3, 0.05, 0.3, INF]))
def test_distortion_floor_matches_vertex_enumeration(pi, channels, P):
    try:
        model = build_model(pi, *channels)
    except DegenerateChannelError:
        assume(False)
    floor, cells = solver._distortion_floor(model, P)
    assert floor == pytest.approx(_floor_by_vertices(model, P), abs=1e-12)
    # the knapsack's decoder reaches the floor within the budget
    metrics = evaluate_decoder(model, DecoderLaw(*cells))
    assert metrics.distortion == pytest.approx(floor, abs=1e-12)
    assert metrics.perception <= P + 1e-12
    assert floor >= _bayes_error(model) - 1e-15


def test_distortion_floor_anchors():
    rng = np.random.default_rng(4)
    for _ in range(50):
        model = build_model(rng.uniform(0.0, 0.5), *rng.uniform(0.0, 1.0, 4))
        assert solver._distortion_floor(model, INF)[0] == pytest.approx(_bayes_error(model),
                                                                       abs=1e-15)
        # mirror averaging makes Shat uniform at no cost in distortion
        q, pi_x = rng.uniform(0.0, 0.49), rng.uniform(0.01, 0.5)
        for P in (0.0, 0.01, INF):
            assert solver._distortion_floor(dsbs_model(q, pi_x), P)[0] == pytest.approx(q,
                                                                                      abs=1e-15)


def _knapsack_in_numpy(p0, p1, target, P):
    """_knapsack as it was before it ran on float lists: NumPy arrays of the
    cells, the same tie order in the cost-to-weight sort."""
    weight, cost = p0 + p1, p1 - p0
    map_zero = cost < 0
    z = map_zero.astype(float)
    floor = float(np.minimum(p0, p1).sum())
    shift = float(weight[map_zero].sum()) - target
    excess = abs(shift) - P
    movable = np.flatnonzero((map_zero if shift > 0 else ~map_zero) & (weight > 0))
    for k in sorted(movable, key=lambda k: abs(cost[k]) / weight[k]):
        if excess <= 0:
            break
        step = min(excess, weight[k])
        floor += step * abs(cost[k]) / weight[k]
        z[k] += -step / weight[k] if shift > 0 else step / weight[k]
        excess -= step
    return floor, z


def test_float_knapsack_is_bit_equal_to_the_numpy_one():
    # channels at and next to the edges, where cells empty out, tie or sit
    # one ulp off the MAP rule; pi at 0, 1/2 or drawn; P at 0, tiny, drawn or inf
    rng = np.random.default_rng(22)
    edges = (0.0, 1e-9, 1.0 - 1e-9, 0.5, 1.0)
    draws = 0
    while draws < 1500:
        pi = (0.0, 0.5, rng.uniform(0.0, 0.5))[draws % 3]
        channels = [edges[k] if k < len(edges) else rng.uniform()
                    for k in rng.integers(0, len(edges) + 2, 4)]
        try:
            model = build_model(pi, *channels)
        except DegenerateChannelError:
            continue
        P = (0.0, 1e-3, 0.05, INF, rng.uniform())[draws % 5]
        merged = draws % 2 == 1
        p0, p1 = model.joint.masses
        if merged:
            floor, (z0, z1) = _knapsack_in_numpy(p0.sum(axis=0), p1.sum(axis=0),
                                                 1.0 - model.pi, P)
            cells = (z0, z0, z1, z1)
        else:
            floor, z = _knapsack_in_numpy(p0.ravel(), p1.ravel(), 1.0 - model.pi, P)
            cells = (z[0], z[2], z[1], z[3])
        assert solver._distortion_floor(model, P, merged) == (floor, cells)
        draws += 1


def _seeded_models(seed):
    rng = np.random.default_rng(seed)
    asymmetric = build_model(rng.uniform(0.2, 0.5), *rng.uniform(0.0, 0.25, 2),
                             *rng.uniform(0.05, 0.4, 2))
    return asymmetric, dsbs_model(rng.uniform(0.0, 0.2), rng.uniform(0.1, 0.4))


def test_oracle_respects_the_distortion_floor():
    # every answer is a decoder within P, so it sits at or above the floor;
    # a target below the floor raises and prints the floor
    asymmetric, dsbs = _seeded_models(9)
    for model in (asymmetric, dsbs):
        for P in (0.0, 0.02, INF):
            floor = solver._distortion_floor(model, P)[0]
            for D in (floor + 0.05, floor + 0.2):
                result = oracle_min_rate(model, D, P, 0.05)
                assert result.achieved_D >= floor - 1e-12
            with pytest.raises(InfeasibleError, match=f"is {floor:.6g} > D"):
                oracle_min_rate(model, floor - 0.01, P, 0.05)


def test_nan_distortion_target_names_D(model_q01):
    calls = [lambda: oracle_min_rate(model_q01, math.nan, 0.05, 0.02),
             lambda: oracle_min_rate(model_q01, math.nan, INF, 0.05),
             lambda: solve_min2(model_q01, math.nan, 0.05, 0.02),
             lambda: closed_form_rate(model_q01, math.nan, 0.05)]
    for call in calls:
        with pytest.raises(DomainError, match="distortion target D must be a number"):
            call()


def test_oracle_resolution_validation(model_q01):
    with pytest.raises(DomainError):
        oracle_min_rate(model_q01, 0.2, 0.05, 0.5)
    with pytest.raises(DomainError):
        oracle_min_rate(model_q01, 0.2, 0.05, 1e-5)


def test_oracle_feasible_set_monotonicity(model_q01):
    ds = [0.12, 0.16, 0.2, 0.24, 0.28]
    rates = [oracle_min_rate(model_q01, d, 0.05, 0.05).rate for d in ds]
    assert all(b <= a + 1e-9 for a, b in zip(rates, rates[1:]))
    loose = oracle_min_rate(model_q01, 0.2, 0.2, 0.05).rate
    tight = oracle_min_rate(model_q01, 0.2, 0.02, 0.05).rate
    assert loose <= tight + 1e-9


def test_oracle_result_consistency(model_q01):
    result = oracle_min_rate(model_q01, 0.18, 0.05, 0.05)
    again = _float_metrics(model_q01, result.argmin)
    assert again.rate == result.rate
    assert again.distortion == result.achieved_D
    assert again.perception == result.achieved_P
    _assert_near_the_joint_route(result, evaluate_decoder(model_q01, result.argmin))
    assert result.achieved_D <= 0.18 + 1e-9
    assert result.achieved_P <= 0.05 + 1e-9


def test_solve_min2_symmetric_optimum(model_q01):
    result = solve_min2(model_q01, 0.2, 0.05, 0.01)
    assert result.rate == pytest.approx(0.1937237367, abs=2e-3)
    d0, d1, p0, p1 = result.branch_allocation
    assert d0 == pytest.approx(0.125, abs=1e-9)
    assert d1 == pytest.approx(0.125, abs=1e-9)
    assert p0 == pytest.approx(0.05, abs=1e-9)
    assert p1 == pytest.approx(0.05, abs=1e-9)
    assert result.achieved_D <= 0.2 + 1e-9
    assert result.achieved_P <= 0.05 + 1e-9
    _assert_min2_certified(model_q01, 0.2, 0.05, result)


def test_solve_min2_unconstrained_perception(model_q01):
    result = solve_min2(model_q01, 0.2, INF, 0.01)
    assert result.rate == pytest.approx(closed_form_rate(model_q01, 0.2, INF), abs=2e-3)


def test_solve_min2_zero_rate(model_q01):
    # the aligned program reaches zero only once the distortion budget covers
    # the perception-shifted band edge, beyond the plateau onset
    result = solve_min2(model_q01, 0.34, 0.05, 0.01)
    assert abs(result.rate) <= 1e-9
    result = solve_min2(model_q01, 0.5, 0.02, 0.01)
    assert abs(result.rate) <= 1e-9


def test_solve_min2_infeasible_and_hypotheses(model_q01):
    with pytest.raises(InfeasibleError):
        solve_min2(model_q01, 0.05, 0.05, 0.01)
    with pytest.raises(HypothesisError):  # a branch posterior above 1/2
        solve_min2(build_model(0.5, 0.1, 0.1, 0.7, 0.7), 0.2, 0.05, 0.01)


@pytest.mark.parametrize("route", [closed_form_rate, solve_min2])
@pytest.mark.parametrize("params", [
    (0.4, 0.1, 0.1, 0.2, 0.2),  # pi != 1/2
    (0.5, 0.1, 0.2, 0.2, 0.2),  # q1 != q2
    (0.5, 0.6, 0.6, 0.2, 0.2),  # q >= 1/2
    (0.5, 0.5, 0.5, 0.2, 0.2),  # q = 1/2, where the conversion is singular
], ids=["pi", "q1-q2", "q-above-half", "q-half"])
def test_both_branch_decompositions_check_each_crossover_clause(route, params):
    # SemanticModel.common_crossover is the one check of all three clauses
    with pytest.raises(HypothesisError, match="uniform"):
        route(build_model(*params), 0.3, 0.05)


def test_solve_min2_uniform_branch_posterior():
    # pi_x = 1/2 gives both branches the posterior 1/2, where perception
    # never binds: the rate is R(D) of the uniform observation at every P
    model = dsbs_model(0.1, 0.5)
    for P in (0.0, 0.05):
        result = solve_min2(model, 0.3, P, 0.02)
        assert result.rate == pytest.approx(1.0 - binary_entropy(0.25), abs=1e-12)


def test_solve_min2_asymmetric_side_channel():
    # side-channel asymmetry is allowed; branches get different posteriors
    model = build_model(0.5, 0.1, 0.1, 0.15, 0.3)
    result = solve_min2(model, 0.25, 0.05, 0.02)
    assert result.rate >= 0.0
    assert result.achieved_D <= 0.25 + 1e-9


def test_min2_never_undercuts_oracle(model_q01):
    # every branch allocation is realizable by an explicit decoder, so the
    # exhaustive search can only be at or below the program's value
    for d, p in [(0.15, 0.05), (0.2, 0.05), (0.2, 0.02), (0.3, 0.1), (0.2, INF)]:
        oracle = oracle_min_rate(model_q01, d, p, 0.02).rate
        program = solve_min2(model_q01, d, p, 0.02).rate
        assert oracle <= program + 0.02


def test_min2_matches_oracle_when_perception_is_slack(model_q01):
    # below the binding band the two routes agree within grid slack
    for d in (0.12, 0.14):
        oracle = oracle_min_rate(model_q01, d, 0.05, 0.02).rate
        program = solve_min2(model_q01, d, 0.05, 0.02).rate
        assert abs(oracle - program) <= 0.02


# ---------------------------------------------------------------------------
# the exact branch-decomposed program against the grid, the oracle and its
# own certificate
# ---------------------------------------------------------------------------

def _assert_min2_certified(model, D, P, result):
    """Both budgets met within the tolerance, the rate is the branch RDPFs
    at the allocation, the dual value certifies it, and the decoder realizes
    it: its true total variation |p_a p_0 - p_b p_1| is at most the aligned
    sum."""
    assert result.achieved_D <= D + 1e-12 and result.achieved_P <= P + 1e-12
    d0, d1, p0, p1 = result.branch_allocation
    q = model.q1
    assert result.achieved_D == pytest.approx(
        model.p_a * ((1 - 2 * q) * d0 + q) + model.p_b * ((1 - 2 * q) * d1 + q), abs=1e-15)
    assert result.achieved_P == pytest.approx(model.p_a * p0 + model.p_b * p1, abs=1e-15)
    # a branch with posterior 0 knows X from Y: no rate, at d = p = 0
    rate = sum(w * rdpf_piecewise(min(star, 0.5), d, p) if star > 0.0 else 0.0
               for w, star, d, p in ((model.p_a, model.a_star, d0, p0),
                                     (model.p_b, model.b_star, d1, p1)))
    # a zero rate is exact; the RDPFs at the zero-rate allocation can round above 0
    assert result.rate == max(0.0, rate) or (result.rate == 0.0 and rate <= 1e-15)
    assert abs(result.rate - result.dual_bound) <= 1e-9
    exact = evaluate_decoder(model, result.argmin)
    assert abs(exact.rate - result.rate) <= 1e-12
    assert abs(exact.distortion - result.achieved_D) <= 1e-12
    assert exact.perception <= result.achieved_P + 1e-12


def _min2_model(q, a, b):
    """build_model(0.5, q, q, a, b) with both branch posteriors in (0, 1/2]:
    a* = b / (1 - a + b) and b* = a / (1 - b + a) stay at or below 1/2
    while a + b <= 1."""
    assume(a + b <= 1.0)
    return build_model(0.5, q, q, a, b)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(q=st.floats(0.0, 0.45), a=st.floats(1e-9, 1.0), b=st.floats(1e-9, 1.0),
       share=st.floats(0.0, 1.0), P=st.sampled_from([0.0, 1e-3, 0.05, INF]))
@example(q=0.1, a=0.2, b=0.2, share=0.4375, P=0.05)  # D = 0.275: the jump at lam = 0+
@example(q=0.0, a=0.0, b=0.5, share=0.5, P=1e-3)  # aim = sum_y w_y s_y: flat on (0, lam*]
def test_solve_min2_is_certified_between_the_oracle_and_the_grid(q, a, b, share, P):
    # every allocation is a decoder, so the oracle's certified lower bound
    # is below the program; the grid searches a subset of its allocations
    model = _min2_model(q, a, b)
    D = q + share * (0.5 - q)
    result = solve_min2(model, D, P)
    _assert_min2_certified(model, D, P, result)
    assert result.rate >= oracle_min_rate(model, D, P).dual_bound - 1e-9
    assert result.rate <= grid_ref.grid_min2(model, D, P, 0.05)[0] + 1e-9


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(q=st.floats(0.0, 0.45), pi_x=st.floats(0.01, 0.5), share=st.floats(0.0, 1.0),
       P=st.sampled_from([0.0, 1e-3, 0.05, INF]))
def test_solve_min2_reaches_the_branch_rdpf_on_dsbs_models(q, pi_x, share, P):
    # equal branch posteriors: the RDPF is convex in (d, p), so the equal
    # split is optimal and the program is R_pix(D_x, P) (Jensen); at rate 0
    # any split the zero-rate knapsack allows is optimal
    model = dsbs_model(q, pi_x)
    D = q + share * (0.5 - q)
    result = solve_min2(model, D, P)
    assert result.rate == pytest.approx(rdpf_piecewise(pi_x, (D - q) / (1 - 2 * q), P), abs=1e-9)
    _assert_min2_certified(model, D, P, result)
    if result.rate > 0.0:
        d0, d1, p0, p1 = result.branch_allocation
        assert d0 == pytest.approx(d1, abs=1e-9) and p0 == pytest.approx(p1, abs=1e-9)


def test_solve_min2_edge_cases():
    model = build_model(0.5, 0.1, 0.1, 0.15, 0.3)
    s, weight = (model.a_star, model.b_star), (model.p_a, model.p_b)
    # D = q: only Shat = X meets it, at the full branch entropies; a target
    # within the tolerance below q reads q, and one further below is infeasible
    for D in (0.1, 0.1 - 5e-13):
        for P in (0.0, 0.05, INF):
            result = solve_min2(model, D, P)
            _assert_min2_certified(model, D, P, result)
            assert result.rate == pytest.approx(sum(w * binary_entropy(v)
                                                    for w, v in zip(weight, s)), abs=1e-9)
    with pytest.raises(InfeasibleError, match="distortion floor of this model is 0.1"):
        solve_min2(model, 0.1 - 2e-12, 0.05)
    # at the tolerance's edge no distortion is left to aim at: Shat = X is the
    # only feasible allocation, so its rate is its own certificate
    edge = solve_min2(model, 0.1 - 1e-12, 0.05)
    _assert_min2_certified(model, 0.1 - 1e-12, 0.05, edge)
    assert edge.branch_allocation == (0.0, 0.0, 0.0, 0.0) and edge.dual_bound == edge.rate
    assert edge.achieved_D <= 0.1 and edge.rate == pytest.approx(
        sum(w * binary_entropy(v) for w, v in zip(weight, s)), abs=1e-12)
    # P = 0: mu = inf, both branches at zero perception
    result = solve_min2(model, 0.25, 0.0)
    _assert_min2_certified(model, 0.25, 0.0, result)
    # a budget far below the perception aim's 1e-13 past P still gets a
    # finite mu
    tiny = solve_min2(model, 0.25, 1e-300)
    _assert_min2_certified(model, 0.25, 1e-300, tiny)
    assert tiny.rate == pytest.approx(result.rate, abs=1e-9)
    # the zero-rate knapsack boundary: the least distortion at rate 0 spends
    # P on the branch with the smaller posterior first, where a unit of
    # perception cuts 1 - 2s, at most s per branch
    P = 0.05
    order = sorted(range(2), key=lambda y: s[y])
    spent = {order[0]: min(s[order[0]], P / weight[order[0]])}
    spent[order[1]] = min(s[order[1]], (P - weight[order[0]] * spent[order[0]]) / weight[order[1]])
    d_x = sum(w * (2 * v * (1 - v) - (1 - 2 * v) * spent[y])
              for y, (w, v) in enumerate(zip(weight, s)))
    zero_onset = (1 - 2 * 0.1) * d_x + 0.1
    assert solve_min2(model, zero_onset + 1e-12, P).rate == 0.0
    below = solve_min2(model, zero_onset - 1e-6, P)
    _assert_min2_certified(model, zero_onset - 1e-6, P, below)
    assert 0.0 < below.rate <= 1e-3
    # a branch posterior near 0 (b = 1e-9 gives a* ~ 1e-9)
    near = build_model(0.5, 0.05, 0.05, 0.3, 1e-9)
    assert near.a_star < 2e-9
    for D, P in ((0.1, 0.0), (0.1, 0.01), (0.2, 0.05), (0.2, INF)):
        result = solve_min2(near, D, P)
        _assert_min2_certified(near, D, P, result)
        assert result.rate >= oracle_min_rate(near, D, P).dual_bound - 1e-9
        assert result.rate <= grid_ref.grid_min2(near, D, P, 0.05)[0] + 1e-9


@pytest.mark.parametrize("a, b", [(0.0, 0.3), (0.3, 0.0)])
def test_solve_min2_drops_a_branch_that_knows_x_from_y(a, b):
    # a = 0 gives b* = 0 (and b = 0 gives a* = 0): given that Y, X is known,
    # so the branch costs no rate at d = p = 0 and only the other one is priced
    model = build_model(0.5, 0.1, 0.1, a, b)
    known = (model.a_star, model.b_star).index(0.0)
    for D, P in ((0.2, 0.05), (0.1, 0.0), (0.15, 0.02), (0.2, INF), (0.3, 0.01)):
        result = solve_min2(model, D, P)
        assert result.achieved_D <= D + 1e-12 and result.achieved_P <= P + 1e-12
        assert result.branch_allocation[known::2] == (0.0, 0.0)
        assert abs(result.rate - result.dual_bound) <= 1e-9
        assert result.rate >= oracle_min_rate(model, D, P).dual_bound - 1e-9
    # the oracle's answer at this target, where a zero posterior used to raise
    assert solve_min2(model, 0.2, 0.05).rate == pytest.approx(0.0634623, abs=1e-6)


def test_zero_perception_cost():
    # k0 = nu0 - lam keeps the branch minimizer at P(Shat = 0) = 1 - s, also
    # for posteriors and multipliers near 0, where nu0 - lam cancels; nu0 is
    # 0 at s = 1/2, where the R(D) reconstruction is already uniform
    for lam in (0.0, 0.3, 2.0, 40.0):
        assert solver._zero_perception_cost(0.5, lam) + lam == pytest.approx(0.0, abs=1e-15)
    for s in (1e-9, 1e-4, 0.2, 0.45):
        for lam in (1e-3, 0.3, 2.0, 10.0, 60.0):
            k0 = solver._zero_perception_cost(s, lam)
            assert -lam < k0 < 0.0
            # 2**-nu0 is the positive root of (1 - s) x**2 - (1 - 2s) 2**-lam x - s
            x = 2.0 ** -(k0 + lam)
            assert (1 - s) * x * x - (1 - 2 * s) * 2.0 ** -lam * x - s == pytest.approx(0.0,
                                                                                  abs=1e-15)
            z0, z1 = solver._branch_argmin(1 - s, s, k0, k0 + 2 * lam)
            # the minimizer's stationary r loses about 1e-16 / lam to cancellation
            assert (1 - s) * z0 + s * z1 - (1 - s) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# the exact oracle against a full decoder-grid scan and its own certificate
# ---------------------------------------------------------------------------

def _branch_columns(model, y, s_vals, t_vals):
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
    info = (grid_ref._binary_entropy(marg0) - px0 * grid_ref._binary_entropy(s)
            - px1 * grid_ref._binary_entropy(t))
    dist = cells[0, 0] * (1.0 - s) + cells[0, 1] * (1.0 - t) + cells[1, 0] * s + cells[1, 1] * t
    return p_y * np.maximum(info, 0.0).ravel(), p_y * dist.ravel(), p_y * marg0.ravel()


def _reference_scan(model, D, P, resolution=0.05):
    """Least rate over every decoder on the full (s0, t0, s1, t1) grid that
    meets D and |P(Shat = 0) - P(S = 0)| <= P, the search the grid oracle
    ran; inf when none does. Unlike that search it grants no tolerance: on
    a model whose masses are near 1e-12, a decoder 1e-12 past D can be
    far cheaper than any decoder that meets it."""
    grid = grid_ref._axis_grid(resolution, 1.0)
    rate0, dist0, marg0 = _branch_columns(model, 0, grid, grid)
    rate1, dist1, marg1 = _branch_columns(model, 1, grid, grid)
    feasible = (dist0[:, None] + dist1[None, :] <= D) & (
        np.abs(marg0[:, None] + marg1[None, :] - (1.0 - model.pi)) <= P)
    return float(np.where(feasible, rate0[:, None] + rate1[None, :], np.inf).min())


def _assert_certified(model, D, P, result):
    """The argmin meets both targets within the tolerance, re-evaluates to
    the reported metrics, and the dual bound certifies the rate."""
    exact = evaluate_decoder(model, result.argmin)
    assert exact.distortion <= D + 1e-12 and exact.perception <= P + 1e-12
    assert _float_metrics(model, result.argmin) == DecoderMetrics(
        result.rate, result.achieved_D, result.achieved_P)
    _assert_near_the_joint_route(result, exact)
    assert result.rate - 1e-9 <= result.dual_bound <= result.rate + 1e-9


@pytest.mark.parametrize("params, D, expected", [
    # the grid oracle raised InfeasibleError here at resolutions 0.02 and 0.01
    ((0.40953, 0.05840, 0.17423, 0.14638, 0.24663), 0.249914, 0.0219813),
    # the grid oracle overshot by 0.080 bits at resolution 0.02
    ((0.3, 0.1, 0.15, 0.2, 0.3), 0.25, 0.0452266),
    # zero rate, which the grid oracle called infeasible
    ((0.3869, 0.1484, 0.159, 0.3799, 0.309), 0.45, 0.0),
])
def test_oracle_is_exact_where_the_grid_missed_at_zero_perception(params, D, expected):
    model = build_model(*params)
    result = oracle_min_rate(model, D, 0.0)
    assert result.rate == pytest.approx(expected, abs=1e-6)
    _assert_certified(model, D, 0.0, result)


def _drawn_model(pi, channels):
    try:
        return build_model(pi, *channels)
    except DegenerateChannelError:
        assume(False)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(pi=st.floats(0.0, 0.5), channels=st.tuples(*[st.floats(0.0, 1.0)] * 4),
       share=st.floats(-0.1, 1.0), P=st.sampled_from([0.0, 1e-3, 0.05, INF]))
def test_oracle_is_certified_and_never_above_the_grid(pi, channels, share, P):
    # D runs from below the floor (share < 0) through the floor itself
    # (share = 0, where the distortion multiplier is unbounded) to 0.5
    model = _drawn_model(pi, channels)
    floor = solver._distortion_floor(model, P)[0]
    D = floor + share * (0.5 - floor) if share >= 0 else floor + share
    if floor > D + 1e-12:
        with pytest.raises(InfeasibleError):
            oracle_min_rate(model, D, P)
        return
    result = oracle_min_rate(model, D, P)
    _assert_certified(model, D, P, result)
    assert result.rate <= _reference_scan(model, D, P) + 1e-12


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(q=st.floats(0.0, 0.45), pi_x=st.floats(0.01, 0.49), share=st.floats(0.0, 1.0),
       P=st.sampled_from([0.0, 1e-3, 0.05, INF]))
def test_oracle_reaches_the_distortion_only_rate_on_dsbs_models(q, pi_x, share, P):
    # mirror averaging makes Shat uniform at no cost (check_sandwich), so
    # the minimum at every P is the closed form's distortion-only rate
    model = dsbs_model(q, pi_x)
    D = q + share * (0.5 - q)
    result = oracle_min_rate(model, D, P)
    assert result.rate == pytest.approx(closed_form_rate(model, D, INF), abs=1e-9)
    _assert_certified(model, D, P, result)


def test_oracle_edge_cases():
    model = build_model(0.3, 0.1, 0.15, 0.2, 0.3)
    for P in (0.0, 0.05, INF):
        floor, cells = solver._distortion_floor(model, P)
        law = DecoderLaw(*cells)
        # D exactly at the floor, where the knapsack's decoder is feasible
        result = oracle_min_rate(model, floor, P)
        _assert_certified(model, floor, P, result)
        assert result.rate <= evaluate_decoder(model, law).rate + 1e-12
    # P = inf: the perception term |nu| P is 0 * inf, which must read 0
    result = oracle_min_rate(model, 0.2, INF)
    _assert_certified(model, 0.2, INF, result)
    assert result.dual_bound == pytest.approx(result.rate, abs=1e-12)
    # zero-mass cells: X = Y with pi = 0, so S = 0 and every x != y has no mass
    lone = build_model(0.0, 0.3, 0.3, 0.0, 0.0)
    for D, P in ((0.0, 0.0), (0.0, INF), (0.5, 0.0)):
        result = oracle_min_rate(lone, D, P)
        assert result.rate == 0.0
        _assert_certified(lone, D, P, result)
    noisy = build_model(0.2, 0.1, 0.2, 0.0, 0.4)  # X = 0 never gives Y = 1: cell (0, 1) is empty
    for P in (0.0, 0.01, INF):
        D = solver._distortion_floor(noisy, P)[0] + 0.02
        result = oracle_min_rate(noisy, D, P)
        assert result.rate > 0.0
        _assert_certified(noisy, D, P, result)
        assert result.rate <= _reference_scan(noisy, D, P) + 1e-12


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(pi=st.floats(0.0, 0.5), channels=st.tuples(*[st.floats(0.0, 1.0)] * 4))
def test_oracle_reads_exactly_zero_on_the_zero_rate_boundary(pi, channels):
    # D0(P), the merged knapsack's floor, is the least distortion at rate 0:
    # there, and within the 1e-12 tolerance below it, the oracle answers with
    # a decoder that ignores X given Y, whose rate is 0 exactly; 1e-3 below
    # it the dual certifies a positive rate
    model = _drawn_model(pi, channels)
    for P in (0.0, 0.01, 0.05):
        zero = solver._distortion_floor(model, P, merged=True)[0]
        assert oracle_min_rate(model, zero, P).rate == 0.0
        assert oracle_min_rate(model, zero - 1e-13, P).rate == 0.0
        if zero - solver._distortion_floor(model, P)[0] >= 2e-3:
            assert oracle_min_rate(model, zero - 1e-3, P).dual_bound > 0.0


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(q=st.floats(0.0, 0.45), pi_x=st.floats(0.01, 0.5))
def test_zero_rate_boundary_is_pi_x_prime_on_dsbs_models(q, pi_x):
    # decoding Shat = Y costs pi_x' at no perception, and no perception
    # budget buys less distortion at rate 0
    model = dsbs_model(q, pi_x)
    for P in (0.0, 0.01, 0.05, 0.2, INF):
        zero = solver._distortion_floor(model, P, merged=True)[0]
        assert zero == pytest.approx(model.pi_x_prime, abs=1e-12)


def _min2_zero_rate_boundary(model, P):
    """The least D at which solve_min2 answers rate 0: q + (1 - 2q) sum_y w_y d_y
    of its zero-rate allocation."""
    q = model.common_crossover()
    weight = (model.p_a, model.p_b)
    allocation = solver._zero_rate_allocation((min(model.a_star, 0.5), min(model.b_star, 0.5)),
                                              weight, P)
    return q + (1.0 - 2.0 * q) * sum(w * d for w, (d, _) in zip(weight, allocation))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(q=st.floats(0.0, 0.45), a=st.floats(0.0, 0.5), b=st.floats(0.0, 0.5),
       P=st.one_of(st.sampled_from([0.0, 0.01, 0.05, 0.2, INF]), st.floats(0.0, 1.0)))
def test_min2_zero_rate_boundary_is_never_below_the_oracle_one(q, a, b, P):
    # solve_min2 never undercuts the oracle, so it turns 0 no earlier than
    # D0(P); on DSBS models the two meet once the budget covers pi_x
    assume(a + b < 1.0)  # both posteriors at most 1/2, Y not constant
    for model in (build_model(0.5, q, q, a, b), dsbs_model(q, max(a, 1e-6))):
        zero = solver._distortion_floor(model, P, merged=True)[0]
        boundary = _min2_zero_rate_boundary(model, P)
        assert boundary >= zero - 1e-12
        if model.pi_x_prime is not None and P >= model.pi_x:
            assert boundary == pytest.approx(zero, abs=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(q=st.floats(0.0, 0.45), a=st.floats(0.0, 0.5), b=st.floats(0.0, 0.5),
       P=st.one_of(st.sampled_from([0.01, 0.05, 0.2]), st.floats(0.0, 0.5)))
def test_min2_zero_rate_allocation_is_the_least_one(q, a, b, P):
    # at rate 0 each unit of perception spent on branch y cuts (1 - 2 s_y),
    # at most s_y per branch: a fractional knapsack with two vertices, one
    # per order in which the branches take the budget; the allocation's
    # distortion is the lesser of the two
    model = _min2_model(q, a, b)
    star, weight = (min(model.a_star, 0.5), min(model.b_star, 0.5)), (model.p_a, model.p_b)
    assume(star[0] != star[1])

    def vertex(order):
        left, total = P, 0.0
        for y in order:
            spent = min(star[y], left / weight[y])
            left -= weight[y] * spent
            total += weight[y] * (2 * star[y] * (1 - star[y]) - (1 - 2 * star[y]) * spent)
        return total
    allocation = solver._zero_rate_allocation(star, weight, P)
    least = min(vertex((0, 1)), vertex((1, 0)))
    assert sum(w * d for w, (d, _) in zip(weight, allocation)) == pytest.approx(least, abs=1e-15)


# ---------------------------------------------------------------------------
# the branch-decomposed solve in allocation space
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s", [0.03, 0.1, 0.2333, 0.35, 0.48, 0.5])
def test_branch_map_gives_the_slopes_and_the_minimizer_of_the_branch_rdpf(s):
    # lam = -dR/dd and mu = -dR/dp against central differences of
    # rdpf_piecewise, inside the distortion-only band (mu = 0), the band where
    # perception binds, and the zero-rate region; the cells realize (d, p) at
    # the rate R(d, p)
    rng, c, h = random.Random(round(1e4 * s)), 1.0 - s, 1e-7
    for _ in range(30):
        p = rng.uniform(0.0, s) * 0.9
        low, high = perception_band(s, p) if s < 0.5 else (0.5, 0.5)
        for d in (rng.uniform(0.05, 0.95) * low, low + rng.uniform(0.05, 0.95) * (high - low),
                  high + rng.uniform(0.01, 0.5) * (0.5 - high)):
            if not 0.0 < d < 0.5 or min(abs(d - low), abs(d - high)) < 1e-4 or p < 1e-4:
                continue
            z0, z1, t, u = solver._branch_map(s, d, p)
            lam, mu = -math.log2(t), -math.log2(u)
            slope_d = (rdpf_piecewise(s, d + h, p) - rdpf_piecewise(s, d - h, p)) / (2 * h)
            slope_p = (rdpf_piecewise(s, d, p + h) - rdpf_piecewise(s, d, p - h)) / (2 * h)
            assert lam == pytest.approx(-slope_d, abs=1e-6)
            assert mu == pytest.approx(-slope_p, abs=1e-6)
            m = c * z0 + s * z1  # P(Shat = 0)
            rate = binary_entropy(m) - c * binary_entropy(z0) - s * binary_entropy(z1)
            assert rate == pytest.approx(rdpf_piecewise(s, d, p), abs=1e-12)
            if d < high:  # below the zero-rate region the distortion binds
                assert c * (1.0 - z0) + s * z1 == pytest.approx(d, abs=1e-15)
            assert m - c == pytest.approx(min(p, d * (1 - 2 * s) / (1 - 2 * d)), abs=1e-15)
    # at d = 0 the branch decodes Shat = X with lam = inf (2**-lam = 0)
    assert solver._branch_map(s, 0.0, 0.0)[:3] == (1.0, 0.0, 0.0)


# (q, a, b, D, P) -> solve_min2's (rate, d0, d1, p0, p1, achieved_D, achieved_P)
# on build_model(0.5, q, q, a, b), as the nested multiplier roots it replaced
# answered them (a lam root inside a bracketed mu root, with warm starts and
# mixed cells). The draws are P-binding, positive-rate targets with a* != b*
# from random.Random(29): q in [0.02, 0.3], a and b in [0.05, 0.45], D at
# 0.3-0.95 of the way from q to the distortion at Shat = 0, P in {0.01, 0.02,
# 0.05}; interior answers have both p_y > 0 and corner answers one p_y = 0.
_NESTED_ROOT_ANSWERS = [
    # interior
    ((0.1735, 0.1883, 0.3879, 0.2652, 0.05),
     (0.278553070679121, 0.143770009473837, 0.135421135723822, 0.033796607202489,
      0.074284845077579, 0.2652, 0.0500000000001)),
    ((0.2796, 0.2072, 0.0575, 0.2983, 0.02),
     (0.295403765745072, 0.0375870794052563, 0.0459993401834686, 0.0300977294109284,
      0.0125318784744608, 0.2983, 0.0200000000001)),
    ((0.2026, 0.3712, 0.0842, 0.2871, 0.05),
     (0.170167228312789, 0.117082994491101, 0.155904385360879, 0.115997628282752,
      0.0134372113710937, 0.2871, 0.0500000000001)),
    ((0.1722, 0.219, 0.1613, 0.2704, 0.02),
     (0.14189014394485, 0.139530685173318, 0.158923272830053, 0.0377742354036895,
      0.00416501652576651, 0.2704, 0.0200000000000999)),
    ((0.2884, 0.239, 0.1075, 0.325, 0.02),
     (0.252885819344579, 0.0759027682758361, 0.0946056647340489, 0.0392197377453972,
      0.00524759855795176, 0.325, 0.0200000000001)),
    ((0.2247, 0.4059, 0.393, 0.3284, 0.05),
     (0.272869219967555, 0.188308661354968, 0.188370526060723, 0.0508092292384025,
      0.0492113829785497, 0.3284, 0.0500000000001)),
    ((0.1154, 0.0777, 0.2091, 0.1783, 0.05),
     (0.177208641242157, 0.0871013452400698, 0.0748331566394882, 0.0367223757424772,
      0.0672948469780813, 0.1783, 0.0500000000001)),
    ((0.1393, 0.1625, 0.297, 0.2058, 0.05),
     (0.329431326404428, 0.0934161543318687, 0.090563963129064, 0.0417886786423211,
      0.0607634247030466, 0.2058, 0.0500000000001)),
    ((0.265, 0.3296, 0.4369, 0.405, 0.05),
     (0.0904175479046214, 0.301292895407443, 0.293629503490986, 0.0305058235043777,
      0.0741804655918031, 0.405, 0.0500000000001)),
    ((0.0775, 0.1613, 0.4389, 0.1572, 0.02),
     (0.42345406775043, 0.0972558321965952, 0.0891265255261183, 0.00830991576839801,
      0.0406744900532875, 0.1572, 0.0200000000001001)),
    ((0.2749, 0.1044, 0.1103, 0.3182, 0.01),
     (0.104099598798972, 0.0979524627599649, 0.0943854434029053, 0.007683626751815,
      0.0123438686757361, 0.3182, 0.0100000000001)),
    ((0.1651, 0.0734, 0.0654, 0.2022, 0.01),
     (0.101761263814507, 0.0533215733656466, 0.0574249368420987, 0.0124820562065976,
      0.00755734151116583, 0.2022, 0.0100000000001)),
    ((0.0688, 0.2296, 0.1422, 0.1198, 0.01),
     (0.379569969622091, 0.055545111190996, 0.0621520269334136, 0.0166759141683267,
      0.00439724179711709, 0.1198, 0.0100000000001)),
    ((0.2014, 0.2013, 0.1393, 0.2454, 0.05),
     (0.277554380534789, 0.0729401548381576, 0.0743281119798102, 0.054422594743147,
      0.0460937910839246, 0.2454, 0.0500000000000999)),
    ((0.0882, 0.1834, 0.4026, 0.2801, 0.05),
     (0.106587696408886, 0.249167827121113, 0.207758067635603, 0.00196129554005675,
      0.12501125573484, 0.2801, 0.0500000000000999)),
    ((0.0523, 0.332, 0.1509, 0.1497, 0.02),
     (0.307763773537186, 0.0993865454763031, 0.115289778413374, 0.0425851689378686,
      0.00434087304798869, 0.1497, 0.0200000000001)),
    ((0.1007, 0.3195, 0.2239, 0.2191, 0.02),
     (0.25651306436799, 0.142830326134617, 0.152741110928266, 0.0340044458798461,
      0.0084395574538767, 0.2191, 0.0200000000001001)),
    ((0.0756, 0.2399, 0.0678, 0.1852, 0.05),
     (0.0800884377677584, 0.0818939485445102, 0.162483522610721, 0.0818939485445103,
      0.0274720586982339, 0.1852, 0.0500000000001)),
    ((0.1151, 0.1204, 0.431, 0.2416, 0.05),
     (0.195728395587875, 0.174366387170682, 0.145245440885647, 0.0157742055506643,
      0.115065747324484, 0.2416, 0.0500000000000999)),
    ((0.2816, 0.15, 0.2667, 0.3278, 0.02),
     (0.268173210232877, 0.112358047100884, 0.0974394094202468, 0.0066141539536515,
      0.0369228736331454, 0.3278, 0.0200000000001)),
    ((0.1036, 0.3136, 0.3438, 0.3107, 0.05),
     (0.104064270097861, 0.26324811316119, 0.259078018600639, 0.0426321085876706,
      0.0578267701930106, 0.3107, 0.0500000000001)),
    ((0.2348, 0.1775, 0.077, 0.2828, 0.05),
     (0.117844017879078, 0.0787924475797107, 0.100065123593978, 0.0712876977771785,
      0.0326003778733558, 0.2828, 0.0500000000001)),
    ((0.2471, 0.3331, 0.3729, 0.3869, 0.02),
     (0.1067588178288, 0.278725498227084, 0.273868871122085, 0.0113036291428683,
      0.029417294748433, 0.3869, 0.0200000000000999)),
    ((0.0545, 0.3239, 0.1654, 0.24, 0.05),
     (0.0949096288740799, 0.180884178673007, 0.22802938860545, 0.112891101529258,
      0.00431777131059907, 0.24, 0.0500000000001)),
    # corner
    ((0.1718, 0.3844, 0.1297, 0.3296, 0.01),
     (0.0772220686348078, 0.192089883684795, 0.269100021724937, 0.0268348316116996,
      2.22044604925031e-16, 0.3296, 0.0100000000001)),
    ((0.1415, 0.2132, 0.3671, 0.28, 0.01),
     (0.187462403900528, 0.201866130541287, 0.181300804398538, 1.11022302462516e-16,
      0.0236378678645548, 0.28, 0.0100000000001)),
    ((0.1844, 0.3081, 0.2089, 0.2989, 0.01),
     (0.17807564304706, 0.171610842519901, 0.189423186862965, 0.0222024866787299,
      1.11022302462516e-16, 0.2989, 0.0100000000001)),
    ((0.092, 0.0589, 0.128, 0.1516, 0.01),
     (0.117689016626242, 0.087610461484059, 0.0563047448704928, 1.11022302462516e-16,
      0.0214845848106133, 0.1516, 0.0100000000001)),
    ((0.2395, 0.0722, 0.1788, 0.2716, 0.01),
     (0.22928610158244, 0.0709319873917844, 0.0500685369268494, 1.11022302462516e-16,
      0.0223863890756659, 0.2716, 0.0100000000001)),
    ((0.2403, 0.0608, 0.18, 0.2646, 0.01),
     (0.262474737374599, 0.0535820265579387, 0.0381477056645803, 1.11022302462516e-16,
      0.0227066303362851, 0.2646, 0.0100000000001)),
    ((0.1164, 0.2383, 0.3084, 0.3154, 0.02),
     (0.0733731927363555, 0.270243961707157, 0.246888362397504, 0,
      0.0430153779978493, 0.3154, 0.0200000000001)),
    ((0.0855, 0.4185, 0.1195, 0.2464, 0.05),
     (0.131321209342453, 0.16097297292117, 0.211960334356941, 0.142653352354066,
      1.11022302462516e-16, 0.2464, 0.0500000000001001)),
    ((0.1736, 0.4386, 0.2355, 0.2842, 0.01),
     (0.275165325370904, 0.162091577019285, 0.174280825774265, 0.0250972518511733,
      0, 0.2842, 0.0100000000001)),
    ((0.0661, 0.1307, 0.3688, 0.1759, 0.02),
     (0.267253770280953, 0.136808154861542, 0.109819559620572, 0,
      0.0525003281273132, 0.1759, 0.0200000000001)),
    ((0.0225, 0.1979, 0.3772, 0.1457, 0.01),
     (0.32213624751086, 0.134639711214417, 0.120908809271385, 1.11022302462516e-16,
      0.0243694407215792, 0.1457, 0.0100000000001001)),
    ((0.0404, 0.1527, 0.4446, 0.2652, 0.01),
     (0.10690704601794, 0.26442851615889, 0.208312067130337, 1.11022302462516e-16,
      0.0282445982208726, 0.2652, 0.0100000000001)),
    ((0.0772, 0.0663, 0.4475, 0.2592, 0.02),
     (0.0863953227189899, 0.259689035215369, 0.116000453651377, 1.11022302462516e-16,
      0.0646412411121524, 0.2592, 0.0200000000001)),
    ((0.215, 0.1886, 0.4138, 0.3562, 0.01),
     (0.10855662057826, 0.262978880373762, 0.223589148499347, 2.22044604925031e-16,
      0.025813113061693, 0.3562, 0.0100000000001)),
    ((0.1638, 0.3816, 0.1306, 0.3207, 0.02),
     (0.0796497484904266, 0.182719353304887, 0.263652838135806, 0.0534045393861148,
      0, 0.3207, 0.0200000000001)),
    ((0.0912, 0.346, 0.1428, 0.1809, 0.01),
     (0.313364593201466, 0.0966844224705794, 0.118338225367791, 0.0251004016066765,
      1.11022302462516e-16, 0.1809, 0.0100000000001)),
    ((0.2674, 0.1767, 0.1106, 0.3075, 0.01),
     (0.207138734986219, 0.0774709594067664, 0.0938456422434548, 0.0214155691189634,
      0, 0.3075, 0.0100000000000999)),
    ((0.0207, 0.4487, 0.3221, 0.3011, 0.01),
     (0.103730188116741, 0.28777491794266, 0.29618072717961, 0.0228990153425692,
      0, 0.3011, 0.0100000000001)),
    ((0.0436, 0.3088, 0.0844, 0.199, 0.01),
     (0.10558573112636, 0.118011588064711, 0.203333069130204, 0.0257864878806084,
      1.11022302462516e-16, 0.199, 0.0100000000001)),
    ((0.1557, 0.293, 0.122, 0.2827, 0.05),
     (0.0797257269087414, 0.143910723231491, 0.213119020423296, 0.120627261761399,
      2.22044604925031e-16, 0.2827, 0.0500000000001)),
    ((0.031, 0.4219, 0.2927, 0.2926, 0.02),
     (0.104974991003869, 0.270848326010895, 0.285093689072958, 0.045934772623105,
      2.22044604925031e-16, 0.2926, 0.0200000000001)),
    ((0.2445, 0.3439, 0.1158, 0.3292, 0.01),
     (0.161576651168994, 0.132344676530309, 0.186751887876657, 0.0259100919810855,
      1.11022302462516e-16, 0.3292, 0.0100000000001)),
    ((0.0842, 0.4408, 0.2949, 0.3721, 0.01),
     (0.0443798558154837, 0.336553715993545, 0.35339005460346, 0.0234164617728599,
      2.22044604925031e-16, 0.3721, 0.0100000000001)),
    ((0.2908, 0.418, 0.2297, 0.3874, 0.02),
     (0.148181434755127, 0.217167045859653, 0.240246226620965, 0.0492792903784649,
      0, 0.3874, 0.0200000000001)),
]


@pytest.mark.parametrize("target, expected", _NESTED_ROOT_ANSWERS)
def test_min2_matches_the_nested_multiplier_roots_it_replaced(target, expected):
    q, a, b, D, P = target
    model = build_model(0.5, q, q, a, b)
    result = solve_min2(model, D, P)
    found = (result.rate, *result.branch_allocation, result.achieved_D, result.achieved_P)
    assert found == pytest.approx(expected, abs=1e-12)
    _assert_min2_certified(model, D, P, result)


@pytest.mark.parametrize("q, a, b, D, P", [
    # a posterior near 1e-9 whose branch ends at its zero-rate edge, where its
    # slopes are not resolved in floats: lam must come from the other branch
    (0.0162, 1e-9, 0.699, 0.1802, 1e-13),
    (1e-9, 1e-9, 0.81, 0.1065, 1e-13),
    (0.2147, 1e-9, 0.8509, 0.382, 1e-300),
    (0.0, 1e-9, 0.458, 0.089, 1e-300),
    # one branch at p_y = d_y = s_y, where it admits a range of slopes: both
    # come from the other branch
    (0.284, 0.8178, 0.0054, 0.345, 0.01),
    (0.3819, 0.0728, 0.485, 0.4342, 0.1),
    (0.3662, 0.0025, 0.9034, 0.4106, 0.01),
])
def test_min2_dual_takes_its_slopes_from_a_branch_off_its_kinks(q, a, b, D, P):
    model = build_model(0.5, q, q, a, b)
    result = solve_min2(model, D, P)
    _assert_min2_certified(model, D, P, result)
    assert result.rate >= oracle_min_rate(model, D, P).dual_bound - 1e-9


def test_min2_meets_the_perception_budget_at_uniform_branch_posteriors():
    # pi_x = 1/2 puts both branches at s = 1/2, where the distortion-only
    # reconstruction is already uniform: its excess perception is exactly 0,
    # also where lam is near 0 (D near 1/2), where the branch minimizers lose
    # about 1e-16 / lam; a perception read off those cells overshot P by 0.019
    result = solve_min2(dsbs_model(0.1, 0.5), 0.499999999999, 1e-12)
    assert result.achieved_P <= 2e-12
    _assert_min2_certified(dsbs_model(0.1, 0.5), 0.499999999999, 1e-12, result)
    rng = random.Random(12)
    for k in range(240):
        q = round(rng.uniform(0.0, 0.45), 4)
        D = 0.5 - 10.0 ** -(9 + k % 4) * rng.uniform(0.0, 1.0)
        P = (1e-9, 1e-12)[k // 4 % 2]
        result = solve_min2(dsbs_model(q, 0.5), D, P)
        assert result.achieved_P <= P + 1e-12
        _assert_min2_certified(dsbs_model(q, 0.5), D, P, result)


# ---------------------------------------------------------------------------
# the nested multiplier searches of the oracle
# ---------------------------------------------------------------------------

def _recorded_roots(monkeypatch):
    """(start, multipliers) of every _bracketed_root call, in order of return."""
    roots, real = [], solver._bracketed_root

    def recorded(residual, start=0.0, step=1.0, first=None):
        cells, multipliers = real(residual, start, step, first)
        roots.append((start, multipliers))
        return cells, multipliers
    monkeypatch.setattr(solver, "_bracketed_root", recorded)
    return roots


def _assert_no_warm_start_from_the_unconstrained_root(roots):
    # the lam root at nu = 0 (mu = 0) can sit at lam = 0+, where the branch
    # minimizers lose their precision; the roots at nu != 0 start elsewhere
    (unconstrained,) = [m[0] for _, m in roots if m[1] == 0.0]
    assert any(m[1] != 0.0 for _, m in roots)
    assert all(start != unconstrained for start, m in roots if m[1] != 0.0)
    return unconstrained


@pytest.mark.parametrize("q, pi_x, D, P", [
    (0.1, 0.2, 0.275, 0.05),  # the distortion-only split jumps at lam = 0+
    # two draws whose distortion-only lam is ~1e-11
    (0.0785, 0.2341, 0.2762, 0.05),
    (0.0328, 0.1689, 0.1972, 0.02),
    # a* != b*, the side channel (a, b) in place of pi_x: derandomized draws
    # whose distortion-only split jumps at lam = 0+ and whose perception binds
    pytest.param(0.1689, (0.3532, 0.2182), 0.363, 0.05, id="0.1689-0.3532-0.2182-0.363-0.05"),
    pytest.param(0.081, (0.3635, 0.1713), 0.3158, 0.02, id="0.081-0.3635-0.1713-0.3158-0.02"),
    pytest.param(0.1009, (0.1627, 0.3523), 0.3191, 0.05, id="0.1009-0.1627-0.3523-0.3191-0.05"),
])
def test_nested_roots_near_the_lam_jump_come_from_the_dual(q, pi_x, D, P):
    # solve_min2 answers from its branch maps, where branch minimizers at lam
    # near 0 would lose their precision; the oracle's nested roots stay
    # certified by their dual there
    two = isinstance(pi_x, tuple)
    model = build_model(0.5, q, q, *pi_x) if two else dsbs_model(q, pi_x)
    result = solve_min2(model, D, P)
    # the branch maps' allocation, not the capped multiplier's Shat = X
    _assert_min2_certified(model, D, P, result)
    assert result.branch_allocation != (0.0,) * 4 and result.dual_bound > 0.0
    assert abs(result.achieved_D - D) <= 1e-12 and abs(result.achieved_P - P) <= 1e-12
    oracle = oracle_min_rate(model, D, P)
    _assert_certified(model, D, P, oracle)
    assert result.rate >= oracle.dual_bound - 1e-9
    if not two:  # mirror averaging: the oracle reaches the distortion-only rate, here 0
        assert oracle.rate == pytest.approx(closed_form_rate(model, D, INF), abs=1e-9)


@pytest.mark.parametrize("q, pi_x, D, P", [
    (0.0785, 0.2341, 0.2762, 0.05),  # 22 evaluations from [0, 1] once
    (0.1, 0.2, 0.275, 0.05),  # 17 once
])
def test_min2_unconstrained_root_at_the_jump_takes_two_evaluations(q, pi_x, D, P, monkeypatch):
    # past sum_y w_y s_y the distortion-only split is the jump at lam = 0+,
    # where regula falsi from [0, 1] crawled; the branch maps answer there
    # with no multiplier root and at most two branch minimizations
    calls, evaluations, real = _recorded_evaluations(monkeypatch), [0], solver._branch_argmin

    def counted(*args):
        evaluations[0] += 1
        return real(*args)
    monkeypatch.setattr(solver, "_branch_argmin", counted)
    result = solve_min2(dsbs_model(q, pi_x), D, P)
    assert calls == [] and evaluations[0] <= 2
    _assert_min2_certified(dsbs_model(q, pi_x), D, P, result)
    assert abs(result.achieved_P - P) <= 1e-12


def test_oracle_nested_roots_never_warm_start_from_the_unconstrained_root(monkeypatch):
    model = build_model(0.4, 0.1, 0.15, 0.2, 0.3)
    roots = _recorded_roots(monkeypatch)
    result = oracle_min_rate(model, 0.22, 0.01)
    _assert_no_warm_start_from_the_unconstrained_root(roots)
    _assert_certified(model, 0.22, 0.01, result)
    exact = evaluate_decoder(model, result.argmin)
    assert abs(exact.distortion - 0.22) <= 1e-12 and abs(exact.perception - 0.01) <= 1e-12


def _min2_cells_priced_per_branch(branches, lam, mu):
    """_min2_cells with every branch priced on its own."""
    cells = []
    for s, c, w in branches:
        k0 = solver._zero_perception_cost(s, lam)
        if k0 + lam > mu:
            k0 = mu - lam
        cells += solver._branch_argmin(c, s, k0, k0 + 2.0 * lam)
    return cells


@pytest.mark.parametrize("params, D, priced", [
    ((0.5, 0.1, 0.1, 0.2, 0.2), 0.2, 1),  # dsbs_model(0.1, 0.2): a* = b*
    ((0.5, 0.1, 0.1, 0.15, 0.3), 0.25, 2),
    ((0.5, 0.0248, 0.0248, 0.2233, 0.2233), 0.15, 1),  # a* = b* bit for bit
])
def test_min2_prices_each_distinct_branch_posterior_once(params, D, priced, monkeypatch):
    model = build_model(*params)
    counts = {"_branch_argmin": 0, "_zero_perception_cost": 0}
    for name in counts:
        def counted(*args, real=getattr(solver, name), name=name):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(solver, name, counted)
    per_call, cells = [], solver._min2_cells

    def recorded(branches, lam, mu):
        before = dict(counts)
        found = cells(branches, lam, mu)
        per_call.append(tuple(counts[name] - before[name] for name in counts))
        assert found == _min2_cells_priced_per_branch(branches, lam, mu)  # bit-equal
        return found
    monkeypatch.setattr(solver, "_min2_cells", recorded)
    # a positive-rate query prices its branches once, for its dual value,
    # whether perception binds or sits at 0
    assert abs(solve_min2(model, D, 0.05).achieved_P - 0.05) <= 1e-12
    assert solve_min2(model, D, 0.0).achieved_P <= 1e-12
    assert len(per_call) == 2 and set(per_call) == {(priced, priced)}
    # only bit-equal posteriors share a pricing: one ulp apart is two
    s = model.a_star
    branches = [(s, 1.0 - s, 0.5), (math.nextafter(s, 1.0), 1.0 - s, 0.5)]
    per_call.clear()
    solver._min2_cells(branches, 1.5, 0.1)
    assert per_call == [(2, 2)]


def _recorded_evaluations(mp):
    """[start, residual evaluations, multipliers] of every _bracketed_root
    call, in order of call."""
    calls, real = [], solver._bracketed_root

    def recorded(residual, start=0.0, step=1.0, first=None):
        call = [start, 0, None]
        calls.append(call)

        def counted(t):
            call[1] += 1
            return residual(t)
        cells, call[2] = real(counted, start, step, first)
        return cells, call[2]
    mp.setattr(solver, "_bracketed_root", recorded)
    return calls


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(q=st.floats(0.0, 0.45), pi_x=st.none() | st.floats(0.01, 0.5),
       a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0), share=st.floats(0.0, 1.0),
       P=st.sampled_from([0.0, 1e-3, 0.02, 0.05, INF]))
@example(q=0.1, pi_x=None, a=0.7, b=0.6, share=0.2, P=0.02)  # a*, b* > 1/2: s = 1 - a*
@example(q=0.1, pi_x=None, a=0.0, b=0.3, share=0.1, P=0.05)  # b* = 0: that branch dropped
@example(q=0.1, pi_x=None, a=0.1, b=0.3, share=0.3, P=0.02)  # the nu root runs after it
@example(q=0.25, pi_x=None, a=0.0, b=0.5, share=0.5, P=0.0)  # the jump at lam = 0+
def test_oracle_unconstrained_root_opens_at_its_exact_multiplier(q, pi_x, a, b, share, P):
    # with a uniform S and a common crossover every cell costs -+(1 - 2q) per
    # unit of lam, so the nu = 0 root is X's rate-distortion given Y in closed
    # form; the cold root from lam = 0, with the opening switched off, is the
    # reference
    model = dsbs_model(q, pi_x) if pi_x is not None else _drawn_model(0.5, (q, q, a, b))
    floor = solver._distortion_floor(model, P)[0] + 1e-9
    D = floor + share * (0.5 - floor)
    with pytest.MonkeyPatch.context() as mp:
        calls = _recorded_evaluations(mp)
        opened = oracle_min_rate(model, D, P)
        first = calls[:1]
        mp.setattr(solver, "_oracle_opening", lambda *args: (0.0, 1.0))
        cold = oracle_min_rate(model, D, P)
    for result in (opened, cold):
        _assert_certified(model, D, P, result)
    assert opened.rate == pytest.approx(cold.rate, abs=1e-12)
    assert opened.achieved_D == pytest.approx(cold.achieved_D, abs=1e-12)
    assert opened.achieved_P == pytest.approx(cold.achieved_P, abs=1e-12)
    if opened.rate > 0.0:  # the first root is the one at nu = 0
        _, evaluations, (_, nu) = first[0]
        assert nu == 0.0 and evaluations <= 2


def test_p_binding_queries_stay_within_their_evaluation_budget(monkeypatch):
    # the count is deterministic, so a slower multiplier search fails here;
    # the medians of _branch_argmin calls per P-binding query were 138
    # (solve_min2) and 240 (oracle) before the exact mu bracket, the warm
    # starts and the reused nu = 0 root, and 100 and 98 with them;
    # solve_min2's fell to 43 once it priced equal posteriors once and
    # opened its mu = 0 root at the exact multiplier, and to 41.5 (p90 74 to
    # 48) once build_model made DSBS posteriors bit-equal; one posterior with
    # both budgets binding then took 3 calls (p90 3) and two posteriors 82
    # (p90 100) in nested multiplier roots. In allocation space _branch_argmin
    # runs only in the dual's one pricing, once per distinct posterior: 1 and
    # 2 calls; the two-posterior roots take a median of 210 _branch_map
    # evaluations (p90 282); the oracle on positive-rate DSBS queries, whose
    # nu root never runs, took 26 (p90 32) from the cold lam root and 6 (p90
    # 6) once it opened at the exact multiplier
    calls = [0]
    real = solver._branch_argmin

    def counted(*args):
        calls[0] += 1
        return real(*args)
    monkeypatch.setattr(solver, "_branch_argmin", counted)
    maps, real_map = [0], solver._branch_map

    def mapped(*args):
        maps[0] += 1
        return real_map(*args)
    monkeypatch.setattr(solver, "_branch_map", mapped)
    rng = random.Random(15)
    min2, oracle, dsbs = [], [], []
    for k in range(40):
        q, pi_x = round(rng.uniform(0.02, 0.2), 4), round(rng.uniform(0.1, 0.4), 4)
        D, P = q + rng.uniform(0.4, 0.9) * (1 - 2 * q) * pi_x, (0.02, 0.05)[k % 2]
        calls[0] = 0
        if abs(solve_min2(dsbs_model(q, pi_x), D, P).achieved_P - P) <= 1e-12:
            min2.append(calls[0])
    draw = random.Random(15)
    for k in range(40):
        q, pi_x = round(draw.uniform(0.02, 0.2), 4), round(draw.uniform(0.1, 0.4), 4)
        D, P = q + draw.uniform(0.05, 0.95) * (1 - 2 * q) * pi_x, (0.02, 0.05, INF)[k % 3]
        calls[0] = 0
        if oracle_min_rate(dsbs_model(q, pi_x), D, P).rate > 0.0:
            dsbs.append(calls[0])
    two_posterior, evaluations = [], []
    two = random.Random(16)
    for k in range(40):
        q, a, b = (round(two.uniform(lo, hi), 4)
                   for lo, hi in ((0.02, 0.2), (0.1, 0.4), (0.1, 0.4)))
        model = build_model(0.5, q, q, a, b)
        s = model.p_a * model.a_star + model.p_b * model.b_star
        D, P = q + two.uniform(0.4, 0.9) * (1 - 2 * q) * s, (0.02, 0.05)[k % 2]
        calls[0] = maps[0] = 0
        if abs(solve_min2(model, D, P).achieved_P - P) <= 1e-12:
            two_posterior.append(calls[0])
            evaluations.append(maps[0])
    for _ in range(20):
        model = build_model(*(round(rng.uniform(lo, hi), 4) for lo, hi in (
            (0.25, 0.5), (0.05, 0.2), (0.05, 0.2), (0.1, 0.35), (0.1, 0.35))))
        floor = solver._distortion_floor(model, 0.01)[0]
        D = floor + rng.uniform(0.02, 0.25) * (0.5 - floor)
        calls[0] = 0
        result = oracle_min_rate(model, D, 0.01)
        if result.rate > 0.0 and abs(evaluate_decoder(model, result.argmin).perception
                                     - 0.01) <= 1e-12:
            oracle.append(calls[0])
    assert len(min2) >= 35 and len(two_posterior) >= 35 and len(oracle) >= 15 and len(dsbs) >= 35
    assert statistics.median(min2) <= 1 and statistics.quantiles(min2, n=10)[-1] <= 1
    assert statistics.median(two_posterior) <= 2
    assert statistics.quantiles(two_posterior, n=10)[-1] <= 2
    assert statistics.median(evaluations) <= 210
    assert statistics.quantiles(evaluations, n=10)[-1] <= 282
    assert statistics.median(oracle) <= 108
    assert statistics.median(dsbs) <= 6 and statistics.quantiles(dsbs, n=10)[-1] <= 6


# ---------------------------------------------------------------------------
# invariants of both exact solvers across targets
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("route", ["oracle", "min2"])
@settings(max_examples=75, deadline=None, derandomize=True, database=None)
@given(pi=st.floats(0.0, 0.5), channels=st.tuples(*[st.floats(0.0, 1.0)] * 4),
       shares=st.tuples(st.floats(1e-3, 1.0), st.floats(0.0, 0.1)),
       P=st.sampled_from([0.0, 1e-3, 0.05]), widen=st.sampled_from([0.0, 1e-3, 0.05, INF]))
def test_rates_do_not_increase_as_the_budgets_loosen(route, pi, channels, shares, P, widen):
    # every decoder meeting (D, P) meets a looser (D', P'), so the minimum
    # does not rise: the rate u' at (D', P') stays within its gap u' - l' of
    # the rate u at (D, P), that is l' <= u, up to the 1e-12 tolerance of
    # the targets. D stays off the floor, where the solvers aim 1e-13 above
    # it and an unbounded multiplier scales that into the dual value; the
    # looser target stays near, where a wrong rate or bound shows
    if route == "min2":
        q, _, a, b = channels
        assume(a + b <= 1.0)
        q *= 0.45
        model, solve, floor = _drawn_model(0.5, (q, q, a, b)), solve_min2, q
    else:
        model, solve = _drawn_model(pi, channels), oracle_min_rate
        floor = solver._distortion_floor(model, P)[0]
    D = floor + shares[0] * (0.5 - floor)
    looser = solve(model, D + shares[1] * (0.5 - D), P + widen)
    assert looser.rate <= solve(model, D, P).rate + (looser.rate - looser.dual_bound) + 1e-12




@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(pi=st.floats(0.0, 0.5), channels=st.tuples(*[st.floats(0.0, 1.0)] * 4),
       shares=st.tuples(st.floats(1e-3, 1.0), st.floats(1e-3, 1.0)),
       budgets=st.tuples(*[st.sampled_from([0.0, 1e-3, 0.05]) | st.floats(0.0, 0.5)] * 2),
       theta=st.floats(0.0, 1.0))
def test_oracle_rate_is_convex_in_the_targets(pi, channels, shares, budgets, theta):
    # the minimum is convex in (D, P) (Blau & Michaeli 2019, Thm. 1): on a
    # chord, the rate u at the midpoint stays within its gap u - l of the
    # chord, up to the 1e-12 tolerance of the targets. Both ends sit off
    # their floors, and the floor is convex in P, so the midpoint does too
    model = _drawn_model(pi, channels)
    ends = []
    for share, P in zip(shares, budgets):
        floor = solver._distortion_floor(model, P)[0]
        ends.append((floor + share * (0.5 - floor), P))
    (D1, P1), (D2, P2) = ends
    mid = oracle_min_rate(model, theta * D1 + (1 - theta) * D2, theta * P1 + (1 - theta) * P2)
    chord = (theta * oracle_min_rate(model, D1, P1).rate
             + (1 - theta) * oracle_min_rate(model, D2, P2).rate)
    assert mid.rate <= chord + (mid.rate - mid.dual_bound) + 1e-12


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(q=st.floats(0.0, 0.45), pi_x=st.floats(0.01, 0.49), share=st.floats(0.0, 1.0),
       P=st.floats(0.0, 0.5))
def test_closed_form_is_never_below_the_oracle_certificate(q, pi_x, share, P):
    # the closed form is an achievable rate, so no certified lower bound on
    # the minimum lies above it, whatever the perception budget
    model = dsbs_model(q, pi_x)
    D = q + share * (0.5 - q)
    for budget in (0.0, P, INF):
        bound = oracle_min_rate(model, D, budget).dual_bound
        assert closed_form_rate(model, D, budget) >= bound - 1e-9


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(pi=st.floats(0.0, 0.5), channels=st.tuples(*[st.floats(0.0, 1.0)] * 4),
       share=st.floats(0.0, 1.0), P=st.sampled_from([0.0, 1e-3, 0.05, INF]))
def test_simulated_metrics_match_the_exact_ones_at_the_oracle_argmin(pi, channels, share, P):
    # 10^5 symbols decoded by the argmin, on one fixed seed, land within 4
    # standard errors of its exact distortion d and perception p. The errors
    # come from d and p, not from the sample: a symbol's mismatch is
    # Bernoulli(d), and its 1{Shat = 0} - 1{S = 0} has mean +-p and second
    # moment d
    model = _drawn_model(pi, channels)
    floor = solver._distortion_floor(model, P)[0]
    law = oracle_min_rate(model, floor + share * (0.5 - floor), P).argmin
    exact = evaluate_decoder(model, law)
    d, p, n = exact.distortion, exact.perception, 100_000
    report = run_decoder_trials(model, law, TrialConfig(n=n, trials=1, seed=20250808))
    assert abs(report.empirical_D - d) <= 4 * math.sqrt(max(d * (1 - d), 0.0) / n)
    assert abs(abs(report.empirical_P_signed) - p) <= 4 * math.sqrt(max(d - p * p, 0.0) / n)


@pytest.mark.parametrize("solve", [oracle_min_rate, solve_min2], ids=["oracle", "min2"])
def test_dual_bound_stays_below_the_rate_at_the_distortion_floor(solve):
    # D = 0 is this model's floor, and both solvers aim 1e-13 above it,
    # where the distortion multiplier is large: the dual must be charged at
    # that aim, since charged at D it sits about lam * 1e-13 above the rate
    result = solve(build_model(0.5, 0.0, 0.0, 0.0, 0.5), 0.0, 0.0)
    assert result.dual_bound <= result.rate


@pytest.mark.parametrize("above_floor", [0.0, 1e-13])
def test_oracle_falls_back_to_the_floor_decoder_past_the_multiplier_cap(above_floor,
                                                                       monkeypatch):
    # a posterior gap of 1e-9 puts the distortion multiplier at the floor
    # past _MULTIPLIER_CAP: the oracle answers with the knapsack's floor
    # decoder and only the bound 0, which need not be the minimum when the
    # floor's LP face holds several decoders, so minimality is not pinned
    raised = []

    def spied(*args):
        try:
            return dual_solve(*args)
        except solver._Unbounded:
            raised.append(args)
            raise

    dual_solve = solver._dual_solve
    monkeypatch.setattr(solver, "_dual_solve", spied)
    model, P = build_model(0.5, 1e-9, 1.0, 0.0, 0.5), 0.0
    D = solver._distortion_floor(model, P)[0] + above_floor
    result = oracle_min_rate(model, D, P)
    assert len(raised) == 1
    assert result.dual_bound == 0.0 and result.rate > 0.0
    assert abs(result.achieved_D - D) <= 1e-12 and result.achieved_P <= P + 1e-12
    exact = evaluate_decoder(model, result.argmin)
    assert abs(exact.rate - result.rate) <= 1e-12
    assert abs(exact.distortion - result.achieved_D) <= 1e-12
    assert abs(exact.perception - result.achieved_P) <= 1e-12


# ---------------------------------------------------------------------------
# the grid reference's branch tables
# ---------------------------------------------------------------------------

@st.composite
def _piecewise_grids(draw):
    """A Bernoulli parameter p, budgets from [0, 1/2] with some at or above
    p and inf, and distortions from [0, 1/2] plus every band edge D1, D2 of
    the binding budgets and their float neighbours."""
    p = draw(st.one_of(st.just(0.5), st.floats(0.0, 0.5, exclude_min=True)))
    budgets = draw(st.lists(st.one_of(st.just(0.0), st.just(INF), st.floats(0.0, 0.5),
                                      st.floats(p, 0.5)), min_size=1, max_size=4))
    distortions = draw(st.lists(st.floats(0.0, 0.5), min_size=1, max_size=8))
    for P in budgets:
        if P < p < 0.5:
            for edge in perception_band(p, P):
                distortions += [edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0)]
    return p, np.array(distortions), np.array(budgets)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_piecewise_grids())
def test_grid_rdpf_table_matches_scalar(grid):
    # equal dispatch and float expressions; numpy's log2 may differ from
    # math.log2 in the last bit, which moves a rate of at most ~3 bits by
    # one or two ulps (4.4e-16 each)
    p, d_vals, p_vals = grid
    table = grid_ref._rdpf_table(p, d_vals[:, None], p_vals[None, :])
    assert table.shape == (d_vals.size, p_vals.size)
    for (i, j), value in np.ndenumerate(table):
        assert abs(value - rdpf_piecewise(p, float(d_vals[i]), float(p_vals[j]))) <= 1e-15


def test_min2_search_tables_follow_each_branch_posterior():
    # each branch's table comes from its own posterior, also where both
    # branches share their axes
    grid = grid_ref._axis_grid(0.05, 0.5)
    for model in (build_model(0.5, 0.1, 0.1, 0.1, 0.3), dsbs_model(0.1, 0.2)):
        a, _, _, b, _, _ = grid_ref._min2_tables(model, 0.1, grid, grid, grid, grid)
        for star, p_y, obj in ((model.a_star, model.p_a, a), (model.b_star, model.p_b, b)):
            table = grid_ref._rdpf_table(min(star, 0.5), grid[:, None], grid[None, :])
            assert np.array_equal(obj, (p_y * table).ravel())
