"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each. All nine criteria pass.

Criteria 1-3 compare the paper's closed form with what it promises. The
closed form is an achievable rate everywhere, and it is exact wherever the
perception constraint is slack. Inside the perception-binding band the
exhaustive decoder search finds lower rates: it lets the per-branch
marginal deviations cancel, and on the doubly symmetric construction it
reaches the distortion-only rate closed(D, inf) for every P. So criterion 1
sandwiches the oracle between closed(D, P) from above and closed(D, inf)
on both sides. Criterion 3 does the same at the spot point. Criterion 2
takes the q = 0 reduction to the plain Bernoulli function up to the
plateau onset pi_x' and zero from there on, as the side-information
decoder certifies. Criteria 1 and 3 print the closed form's measured gap
rather than hiding it.
"""

import math

import pytest

from semrdp import (
    DecoderLaw,
    closed_form_rate,
    dsbs_model,
    evaluate_decoder,
)
from semrdp.rdpf_solver import _distortion_floor
from semrdp.verification import (CRITERIA, ZERO_RATE_WIDTH, VerificationConfig, _sandwich_data,
                                 zero_rate_threshold)

INF = math.inf


@pytest.fixture(scope="module")
def acceptance_config():
    return VerificationConfig()


@pytest.fixture(scope="module")
def sandwich_data(acceptance_config):
    # the expensive part: oracle sweeps over every (q, P) pair of the grid
    return _sandwich_data(acceptance_config)


def _check(number, cfg, data):
    """Run row ``number`` of the criteria table and print its pass/fail line."""
    key, title, check = CRITERIA[number - 1]
    assert key == f"criterion-{number}"
    passed, detail = check(cfg, data)
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {title}: {detail}")
    return passed, detail


def test_criterion_1_sandwich(acceptance_config, sandwich_data):
    passed, detail = _check(1, acceptance_config, sandwich_data)
    assert passed, detail


def test_criterion_2_direct_observation_reduction(acceptance_config, sandwich_data):
    passed, detail = _check(2, acceptance_config, sandwich_data)
    assert passed, detail


def test_criterion_3_spot_values(acceptance_config, sandwich_data):
    model = dsbs_model(0.1, 0.2)
    spot = closed_form_rate(model, 0.2, 0.05)
    assert spot == pytest.approx(0.1937, abs=2e-4)
    for p in (0.02, 0.05, 0.1, INF):
        assert closed_form_rate(model, 0.26, p) == 0.0
    passed, detail = _check(3, acceptance_config, sandwich_data)
    assert passed, detail


def test_criterion_4_zero_rate_threshold(acceptance_config, sandwich_data):
    model = dsbs_model(0.1, 0.2)
    anchor = evaluate_decoder(model, DecoderLaw.from_side_information())
    assert anchor.rate == 0.0
    assert anchor.distortion == pytest.approx(0.26, abs=1e-12)
    assert anchor.perception == pytest.approx(0.0, abs=1e-12)
    passed, detail = _check(4, acceptance_config, sandwich_data)
    assert passed, detail
    threshold = zero_rate_threshold(model, 0.05)
    assert threshold == pytest.approx(0.26, abs=0.01)
    # the bisection brackets D0(0.05), the merged knapsack's exact boundary
    zero = _distortion_floor(model, 0.05, merged=True)[0]
    assert zero == pytest.approx(0.26, abs=1e-12)
    assert abs(threshold - zero) <= ZERO_RATE_WIDTH


def test_criterion_5_distortion_transform(acceptance_config, sandwich_data):
    passed, detail = _check(5, acceptance_config, sandwich_data)
    assert passed, detail


def test_criterion_6_monotonicity_and_ordering(acceptance_config, sandwich_data):
    passed, detail = _check(6, acceptance_config, sandwich_data)
    assert passed, detail
    assert detail.startswith("0 monotonicity/ordering violations")


def test_criterion_7_simulation_consistency(acceptance_config, sandwich_data):
    passed, detail = _check(7, acceptance_config, sandwich_data)
    assert passed, detail


def test_criterion_8_binning_trend(acceptance_config, sandwich_data):
    passed, detail = _check(8, acceptance_config, sandwich_data)
    assert passed, detail


def test_criterion_9_chain_rule_identities(acceptance_config, sandwich_data):
    passed, detail = _check(9, acceptance_config, sandwich_data)
    assert passed, detail
