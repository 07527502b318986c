import itertools

import numpy as np
import pytest

from qmarginal.classical import (
    EpsilonTooLargeError,
    JointDistribution,
    alternating_deviation,
    classical_marginal,
    counterexample_pair,
)
from qmarginal.tensor import SeededRng


class TestJointDistribution:
    def test_uniform(self):
        p = JointDistribution.uniform(3, 2)
        assert p.probabilities.shape == (2, 2, 2)
        assert p.probabilities.sum() == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="sum"):
            JointDistribution((2, 2), np.full((2, 2), 0.3))
        with pytest.raises(ValueError, match="negative"):
            JointDistribution((2,), np.array([1.5, -0.5]))
        with pytest.raises(ValueError, match=">= 2"):
            JointDistribution((1, 2), np.full((1, 2), 0.5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            JointDistribution((2,), np.array([bad, 0.5]))

    def test_random_strictly_positive(self):
        p = JointDistribution.random(3, 2, SeededRng(4))
        assert p.probabilities.min() > 0


class TestClassicalMarginal:
    def test_product_distribution(self):
        a = np.array([0.3, 0.7])
        b = np.array([0.2, 0.5, 0.3])
        joint = JointDistribution((2, 3), np.multiply.outer(a, b))
        assert np.allclose(classical_marginal(joint, [0]).probabilities, a)
        assert np.allclose(classical_marginal(joint, [1]).probabilities, b)

    def test_uniform_marginals_uniform(self):
        p = JointDistribution.uniform(3, 2)
        m = classical_marginal(p, [0, 2])
        assert np.allclose(m.probabilities, np.full((2, 2), 0.25))

    def test_nested_sums_consistent(self):
        p = JointDistribution.random(4, 2, SeededRng(5))
        via = classical_marginal(classical_marginal(p, [0, 1, 3]), [0, 2])
        direct = classical_marginal(p, [0, 3])
        assert np.allclose(via.probabilities, direct.probabilities, atol=1e-15)

    def test_empty_keep_rejected(self):
        p = JointDistribution.uniform(2, 2)
        with pytest.raises(ValueError, match="non-empty"):
            classical_marginal(p, [])


class TestAlternatingDeviation:
    def test_two_by_two(self):
        delta = alternating_deviation(2, 2)
        assert np.array_equal(delta, np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert np.abs(delta.sum(axis=0)).max() == 0.0
        assert np.abs(delta.sum(axis=1)).max() == 0.0

    def test_three_qubit_signs(self):
        delta = alternating_deviation(3, 2)
        for idx in itertools.product(range(2), repeat=3):
            assert delta[idx] == (-1.0) ** sum(idx)
        for pair in itertools.combinations(range(3), 2):
            drop = tuple(i for i in range(3) if i not in pair)
            assert np.abs(delta.sum(axis=drop)).max() == 0.0

    def test_d3_row_column_sums(self):
        delta = alternating_deviation(2, 3)
        assert delta.shape == (3, 3)
        assert np.abs(delta.sum(axis=0)).max() == 0.0
        assert np.abs(delta.sum(axis=1)).max() == 0.0

    def test_every_single_axis_sum_vanishes(self):
        delta = alternating_deviation(4, 3)
        for axis in range(4):
            assert np.abs(delta.sum(axis=axis)).max() == 0.0


class TestCounterexamplePair:
    def test_uniform_base(self):
        p, q = counterexample_pair(3, 2, 0.05, SeededRng(6),
                                   base=JointDistribution.uniform(3, 2))
        worst = 0.0
        for keep in itertools.combinations(range(3), 2):
            diff = classical_marginal(p, keep).probabilities - \
                classical_marginal(q, keep).probabilities
            worst = max(worst, np.abs(diff).max())
        assert worst < 1e-14
        l1 = np.abs(p.probabilities - q.probabilities).sum()
        assert l1 == pytest.approx(0.05 * 8)

    @pytest.mark.parametrize("epsilon", [np.inf, np.nan])
    def test_non_finite_epsilon_rejected(self, epsilon):
        with pytest.raises(ValueError, match="finite"):
            counterexample_pair(3, 2, epsilon, SeededRng(7))

    def test_single_variable_rejected(self):
        # One variable has no (n-1)-variable marginal to hold fixed.
        with pytest.raises(ValueError, match="n >= 2"):
            counterexample_pair(1, 2, 0.01, SeededRng(7))

    def test_zero_epsilon_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            counterexample_pair(3, 2, 0.0, SeededRng(7))

    def test_too_large_epsilon_reports_maximum(self):
        with pytest.raises(EpsilonTooLargeError) as err:
            counterexample_pair(3, 2, 0.5, SeededRng(8),
                                base=JointDistribution.uniform(3, 2))
        assert err.value.max_admissible == pytest.approx(0.125)

    def test_boundary_base_admits_nothing(self):
        # A zero entry on a negative deviation cell forces epsilon = 0.
        table = np.full((2, 2), 0.25)
        table[0, 1] = 0.0
        table[0, 0] = 0.5
        base = JointDistribution((2, 2), table)
        with pytest.raises(EpsilonTooLargeError) as err:
            counterexample_pair(2, 2, 1e-6, SeededRng(9), base=base)
        assert err.value.max_admissible == 0.0

    def test_random_pairs_property(self):
        # Marginal equality at machine precision, L1 growth exactly linear.
        for trial in range(10):
            rng = SeededRng(1000 + trial)
            p = JointDistribution.random(3, 2, rng)
            delta = alternating_deviation(3, 2)
            eps = 0.5 * float(p.probabilities[delta < 0].min())
            p2, q = counterexample_pair(3, 2, eps, rng, base=p)
            for keep in itertools.combinations(range(3), 2):
                diff = classical_marginal(p2, keep).probabilities - \
                    classical_marginal(q, keep).probabilities
                assert np.abs(diff).max() < 1e-14
            l1 = np.abs(p2.probabilities - q.probabilities).sum()
            assert l1 >= eps * np.abs(delta).sum() * (1 - 1e-12)
