import itertools
import math

import pytest

from qmarginal.bounds import (
    alpha_upper_table,
    binary_entropy,
    bounds_rows,
    count_reduced_params,
    finite_n_lower_fraction,
    pure_param_count,
    solve_alpha_lower,
)
from fractions import Fraction


def geometric_bound(n: int, alpha: float, d: int = 2) -> float:
    """Closed-form upper bound on ``count_reduced_params`` at k = floor(n*alpha),
    an independent oracle for the exact sum.

    Bounds the sum by a geometric series: with q = d^2 - 1 the term ratio is
    at most alpha / (q (1 - alpha)), so the sum is below
    ``C(n, k) q^k * q(1-alpha) / (q(1-alpha) - alpha)``. Requires
    ``alpha < q / (q+1)`` for the series to converge (3/4 for qubits).
    """
    q = d * d - 1
    if not 0.0 < alpha < q / (q + 1.0):
        raise ValueError(f"alpha must be in (0, {q/(q+1.0)}) for d={d}, got {alpha}")
    k = math.floor(n * alpha)
    if k == 0:
        return 0.0
    tail = q * (1.0 - alpha) / (q * (1.0 - alpha) - alpha)
    return float(math.comb(n, k) * q ** k) * tail


def brute_count(n: int, k: int, d: int) -> int:
    """The reduced-parameter count summed term by term with ``math.comb``."""
    return sum(math.comb(n, r) * (d * d - 1) ** r for r in range(1, k + 1))


def brute_minimal_k(n: int, d: int) -> int:
    target = 2 * d ** n - 2
    return next(k for k in range(1, n + 1) if brute_count(n, k, d) >= target)


# Frozen from direct evaluation (bisection residuals ~1e-15).
ALPHA_QUBIT = 0.189290
ALPHA_QUTRIT = 0.255188
ALPHA_D1000 = 0.450188


class TestCountReducedParams:
    def test_three_qubits_two_party(self):
        # 3*3 + 3*9
        assert count_reduced_params(3, 2, 2) == 36

    def test_three_qubits_full_equals_bloch_enumeration(self):
        # Oracle: enumerate label tuples with support size in 1..k.
        def enumerate_terms(n, k, d):
            total = 0
            for labels in itertools.product(range(d * d), repeat=n):
                support = sum(1 for l in labels if l != 0)
                if 1 <= support <= k:
                    total += 1
            return total

        assert count_reduced_params(3, 3, 2) == enumerate_terms(3, 3, 2) == 63
        assert count_reduced_params(3, 2, 2) == enumerate_terms(3, 2, 2)
        assert count_reduced_params(4, 2, 2) == enumerate_terms(4, 2, 2)
        assert count_reduced_params(2, 2, 3) == enumerate_terms(2, 2, 3)

    def test_single_qubit(self):
        assert count_reduced_params(1, 1, 2) == 3

    def test_binomial_identity(self):
        # sum_{r=0}^{n} C(n,r) (d^2-1)^r = d^{2n}, exactly.
        for n in range(1, 21):
            for d in range(2, 6):
                assert count_reduced_params(n, n, d) + 1 == d ** (2 * n)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            count_reduced_params(3, 0, 2)
        with pytest.raises(ValueError):
            count_reduced_params(3, 4, 2)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_running_sum_matches_brute_force_everywhere(self, d):
        # Every k of every n <= 60, through all three entry points.
        for n in range(1, 61):
            target = 2 * d ** n - 2
            for k in range(1, n + 1):
                assert count_reduced_params(n, k, d) == brute_count(n, k, d), (n, k)
            rows = bounds_rows(n, d, k_max=n)
            assert [(r.k, r.reduced_param_count, r.pure_param_count) for r in rows] == \
                [(k, brute_count(n, k, d), target) for k in range(1, n + 1)]
            k_min = brute_minimal_k(n, d)
            assert finite_n_lower_fraction(n, d) == (k_min, k_min / n)
            assert [r.k for r in bounds_rows(n, d)] == list(range(1, k_min + 1))


class TestPureParamCount:
    def test_examples(self):
        assert pure_param_count(3, 2) == 14
        assert pure_param_count(1, 2) == 2
        assert pure_param_count(2, 3) == 16

    def test_huge_n_exact(self):
        assert pure_param_count(300, 2) == 2 * 2 ** 300 - 2


class TestGeometricBound:
    """The test-local geometric series bound dominates the exact count."""

    def test_rejects_alpha_at_three_quarters(self):
        with pytest.raises(ValueError, match="alpha"):
            geometric_bound(20, 0.75, 2)

    def test_dominates_exact_sum(self):
        assert geometric_bound(20, 0.2, 2) >= count_reduced_params(20, 4, 2)

    def test_zero_at_vanishing_alpha(self):
        assert geometric_bound(20, 0.01, 2) == 0.0

    def test_dominates_on_grid(self):
        for n in (10, 25, 40):
            for d in (2, 3):
                q = d * d - 1
                for alpha in (0.1, 0.25, 0.4, 0.6):
                    if alpha >= q / (q + 1.0):
                        continue
                    k = math.floor(n * alpha)
                    if k == 0:
                        continue
                    assert geometric_bound(n, alpha, d) >= count_reduced_params(n, k, d)


class TestBinaryEntropy:
    def test_half_is_ln2(self):
        assert binary_entropy(0.5) == pytest.approx(math.log(2), abs=1e-15)

    def test_boundary_continuity(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_symmetry(self):
        for x in (0.1, 0.3, 0.42):
            assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x), abs=1e-15)

    def test_value_used_in_root_residual(self):
        # Direct evaluation: -0.189 ln 0.189 - 0.811 ln 0.811.
        assert binary_entropy(0.189) == pytest.approx(0.4847697012482648, abs=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)


class TestSolveAlphaLower:
    def test_qubit_root(self):
        sol = solve_alpha_lower(2)
        assert 0.1885 <= sol.alpha <= 0.1895
        assert sol.alpha == pytest.approx(ALPHA_QUBIT, abs=5e-6)
        assert sol.residual < 1e-12
        assert sol.bracket[0] < sol.alpha < sol.bracket[1]

    def test_qutrit_root_with_sign_change_bracket(self):
        # Oracle: the condition function changes sign between 0.25 and 0.26.
        f = lambda a: binary_entropy(a) + a * math.log(8) - math.log(3)
        assert f(0.25) < 0 < f(0.26)
        assert solve_alpha_lower(3).alpha == pytest.approx(ALPHA_QUTRIT, abs=5e-6)

    def test_large_d_value(self):
        # The root approaches 1/2 only logarithmically in d; at d=1000 it
        # sits near 0.45 (see the acceptance suite for the related check).
        sol = solve_alpha_lower(1000)
        assert sol.alpha == pytest.approx(ALPHA_D1000, abs=5e-6)
        assert sol.residual < 1e-12

    def test_monotone_in_d(self):
        alphas = [solve_alpha_lower(d).alpha for d in range(2, 51)]
        assert all(b >= a for a, b in zip(alphas, alphas[1:]))

    def test_d_one_rejected(self):
        with pytest.raises(ValueError):
            solve_alpha_lower(1)


class TestFiniteNLowerFraction:
    def test_three_qubits(self):
        k, frac = finite_n_lower_fraction(3, 2)
        assert k == 2
        assert frac == pytest.approx(2 / 3)

    def test_single_party(self):
        assert finite_n_lower_fraction(1, 2)[0] == 1

    def test_n30_close_to_asymptotic_root(self):
        _, frac = finite_n_lower_fraction(30, 2)
        assert abs(frac - 0.189) < 0.08

    def test_sequence_decreases_toward_root(self):
        # Frozen thresholds from the exact integer scan.
        expected = {10: 3, 20: 5, 40: 9, 80: 17}
        fracs = []
        for n, k_expected in expected.items():
            k, frac = finite_n_lower_fraction(n, 2)
            assert k == k_expected
            fracs.append(frac)
        assert all(b <= a for a, b in zip(fracs, fracs[1:]))
        assert fracs[-1] == pytest.approx(17 / 80)

    @pytest.mark.parametrize("n, d", [(900, 2), (1300, 3)])
    def test_large_n_matches_brute_force_minimal_k(self, n, d):
        k_min = brute_minimal_k(n, d)
        assert finite_n_lower_fraction(n, d) == (k_min, k_min / n)


class TestBoundsRows:
    def test_three_qubit_transition(self):
        rows = bounds_rows(3, 2)
        assert [(r.k, r.reduced_param_count, r.sufficient_by_count) for r in rows] == \
            [(1, 9, False), (2, 36, True)]
        assert rows[0].pure_param_count == 14

    def test_k_max_beyond_n_rejected(self):
        with pytest.raises(ValueError, match="k_max"):
            bounds_rows(3, 2, k_max=4)


class TestAlphaUpperTable:
    def test_first_entry(self):
        rows = alpha_upper_table(1)
        assert rows[0]["fraction"] == Fraction(3, 4)

    def test_m10_value(self):
        rows = alpha_upper_table(10)
        assert rows[9]["fraction"] == Fraction(21, 31)

    def test_strictly_decreasing_to_limit(self):
        rows = alpha_upper_table(5)
        fracs = [r["fraction"] for r in rows if r["m"] is not None]
        assert all(a > b for a, b in zip(fracs, fracs[1:]))
        assert all(f > Fraction(2, 3) for f in fracs)
        assert rows[-1]["fraction"] == Fraction(2, 3)

    def test_m_max_validation(self):
        with pytest.raises(ValueError):
            alpha_upper_table(0)
