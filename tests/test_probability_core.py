import math

import numpy as np
import pytest

from semrdp import (
    DomainError,
    JointDistribution,
    LabelError,
    binary_entropy,
    chain_rule_decomposition,
    conditional_entropy,
    conditional_mutual_information,
    ternary_entropy,
)
from semrdp.probability_core import random_joint


def test_binary_entropy_examples():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.2) == pytest.approx(0.721928, abs=1e-5)


def test_binary_entropy_symmetry_is_exact(rng):
    # bit-identical under complement, not just approximately equal
    samples = list(rng.random(200)) + [0.0, 1.0, 0.5, 0.3, 0.7, 1e-17, 1 - 1e-16]
    for p in samples:
        assert binary_entropy(p) == binary_entropy(1.0 - p)


def test_binary_entropy_domain():
    with pytest.raises(DomainError):
        binary_entropy(-0.01)
    with pytest.raises(DomainError):
        binary_entropy(1.01)
    # excursions within the 1e-12 slack are clipped, not rejected
    assert binary_entropy(1.0 + 5e-13) == 0.0
    assert binary_entropy(-5e-13) == 0.0


def test_ternary_entropy_examples():
    assert ternary_entropy(1 / 3, 1 / 3) == pytest.approx(1.584963, abs=1e-5)
    assert ternary_entropy(0.0, 0.5) == 1.0
    assert ternary_entropy(0.025, 0.2) == pytest.approx(0.882426, abs=1e-4)


def test_ternary_entropy_domain():
    with pytest.raises(DomainError):
        ternary_entropy(0.6, 0.6)
    with pytest.raises(DomainError):
        ternary_entropy(-0.01, 0.5)
    assert ternary_entropy(0.5, 0.5) == 1.0  # boundary: z = 0


def test_entropy_bounds(rng):
    for _ in range(200):
        size = int(rng.integers(2, 6))
        raw = rng.random(size)
        h = conditional_entropy(JointDistribution(raw / raw.sum(), ("A",)), "A")
        assert -1e-12 <= h <= math.log2(size) + 1e-12


def _independent_bits():
    return JointDistribution(np.full((2, 2), 0.25), ("A", "B"))


def _copied_bit():
    return JointDistribution(np.array([[0.5, 0.0], [0.0, 0.5]]), ("A", "B"))


def _dsbs_pair(q):
    m = np.array([[(1 - q) / 2, q / 2], [q / 2, (1 - q) / 2]])
    return JointDistribution(m, ("S", "X"))


def test_conditional_entropy_examples():
    assert conditional_entropy(_independent_bits(), "A", "B") == pytest.approx(1.0, abs=1e-12)
    assert conditional_entropy(_copied_bit(), "A", "B") == pytest.approx(0.0, abs=1e-12)
    assert conditional_entropy(_dsbs_pair(0.1), "S", "X") == pytest.approx(0.468996, abs=1e-5)


def test_conditional_entropy_label_errors():
    j = _independent_bits()
    with pytest.raises(LabelError):
        conditional_entropy(j, "A", "A")
    with pytest.raises(LabelError):
        conditional_entropy(j, "C", "B")


def test_conditional_mutual_information_examples():
    triple = JointDistribution(np.full((2, 2, 2), 0.125), ("A", "B", "C"))
    assert conditional_mutual_information(triple, "A", "B", "C") == pytest.approx(0.0, abs=1e-12)
    # self-information through an exact copy axis
    assert conditional_mutual_information(_copied_bit(), "A", "B") == pytest.approx(1.0, abs=1e-12)
    assert conditional_mutual_information(_dsbs_pair(0.1), "S", "X") == pytest.approx(
        0.531004, abs=1e-5
    )


def test_conditional_mutual_information_symmetry_and_identity(rng):
    for _ in range(50):
        j = random_joint(rng)
        ab = conditional_mutual_information(j, "S", "X", ("Y", "Z"))
        ba = conditional_mutual_information(j, "X", "S", ("Y", "Z"))
        assert ab == ba  # symmetric formula, bit-identical
        via_entropies = conditional_entropy(j, "S", ("Y", "Z")) - conditional_entropy(
            j, "S", ("X", "Y", "Z")
        )
        assert ab == pytest.approx(via_entropies, abs=1e-12)


def test_conditional_mutual_information_nonnegative(rng):
    for i in range(1000):
        j = random_joint(rng, zero_fraction=0.15 if i % 4 == 0 else 0.0)
        assert conditional_mutual_information(j, "S", "Z", ("X", "Y")) >= -1e-12


def test_cmi_label_errors(rng):
    j = random_joint(rng)
    with pytest.raises(LabelError):
        conditional_mutual_information(j, "S", "S", "Y")
    with pytest.raises(LabelError):
        conditional_mutual_information(j, "S", "Q", "Y")


def test_chain_rule_trivial_cases():
    independent = JointDistribution(np.full((2, 2, 2, 2), 1 / 16), ("S", "X", "Y", "Z"))
    t = chain_rule_decomposition(independent)
    assert t.mi_sx_z_given_y == pytest.approx(0.0, abs=1e-12)
    assert t.mi_sx_zy == pytest.approx(0.0, abs=1e-12)
    assert t.mi_sx_y == pytest.approx(0.0, abs=1e-12)

    copy = np.zeros((2, 2, 2, 2))
    for s in range(2):
        for x in range(2):
            for y in range(2):
                copy[s, x, y, x] = 0.125  # Z mirrors X, everything else uniform
    t = chain_rule_decomposition(JointDistribution(copy, ("S", "X", "Y", "Z")))
    assert t.mi_sx_z_given_y == pytest.approx(1.0, abs=1e-12)


def test_chain_rule_identities_on_random_joints(rng):
    worst = 0.0
    for i in range(1000):
        j = random_joint(rng, zero_fraction=0.1 if i % 5 == 0 else 0.0)
        t = chain_rule_decomposition(j)
        worst = max(worst, abs(t.residual_mutual_form), abs(t.residual_entropy_form))
    assert worst < 1e-9


def test_chain_rule_arity():
    with pytest.raises(LabelError):
        chain_rule_decomposition(_independent_bits())


def test_joint_marginals_are_valid(rng):
    for _ in range(50):
        j = random_joint(rng, zero_fraction=0.2)
        for label in j.labels:
            JointDistribution(j.marginal(label).masses, (label,))  # construction validates


def test_joint_marginals_are_read_only_sums(rng):
    j = random_joint(rng, zero_fraction=0.2)
    m = j.marginal(("S", "Y"))
    assert m.labels == ("S", "Y")
    assert np.array_equal(m.masses, j.masses.sum(axis=(1, 3)))
    assert not m.masses.flags.writeable
    flat = JointDistribution(m.masses.ravel(), ("SY",))
    assert conditional_entropy(j, ("S", "Y")) == conditional_entropy(flat, "SY")
    total = j.marginal(())
    assert total.labels == () and total.masses.shape == ()
    assert abs(float(total.masses) - 1.0) < 1e-12
    assert not total.masses.flags.writeable
    assert JointDistribution(1.0, ()).masses.shape == ()


def test_joint_validation_errors():
    with pytest.raises(LabelError):
        JointDistribution(np.full((2, 2), 0.25), ("A",))
    with pytest.raises(LabelError):
        JointDistribution(np.full((2, 2), 0.25), ("A", "A"))
    with pytest.raises(DomainError):
        JointDistribution(np.full((2, 2), 0.3), ("A", "B"))
