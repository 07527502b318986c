import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmarginal.tensor import (
    NORM_ATOL,
    AmplitudeTensor,
    DensityMatrix,
    PartySignature,
    SeededRng,
    _check_density,
    _unit_basis,
    coarse_grain,
    gell_mann_basis,
    haar_random_state,
    partial_trace_matrix,
    rank_and_nullspace,
    to_density,
    trace_distance,
)

from qmarginal.uniqueness import DEFAULT_RANK_RTOL, build_consistency_matrix

from conftest import (PAULI, ghz_state, hs_products, kron_all, partial_trace, product_operators,
                      purity, random_density, random_hermitian, slow_partial_trace)

# Mean single-party purity of Haar 3-qubit states, computed by brute-force
# Monte Carlo with an independent generator (RandomState Mersenne stream,
# explicit-loop partial traces, 2000 samples); the analytic value is 2/3.
HAAR_PURITY_REFERENCE = 0.66844


class TestPartySignature:
    def test_valid(self):
        sig = PartySignature([4, 2, 2])
        assert sig.total_dim == 16
        assert sig.n_parties == 3
        assert sig.subsystem([0, 2]).dims == (4, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one party"):
            PartySignature([])

    def test_dim_one_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            PartySignature([2, 1, 2])


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = SeededRng(99).complex_normal(16)
        b = SeededRng(99).complex_normal(16)
        assert np.array_equal(a, b)

    def test_spawn_deterministic_and_distinct(self):
        a = SeededRng(99).spawn(3).complex_normal(8)
        b = SeededRng(99).spawn(3).complex_normal(8)
        c = SeededRng(99).spawn(4).complex_normal(8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_streams_are_pinned(self):
        # A stream is a function of its seed and path alone: these draws must
        # not move when how or when the generator is built changes.
        assert SeededRng(7).complex_normal(2).tolist() == [
            0.0012301533574825742 - 0.2741378553622176j,
            0.2987455375084699 - 0.8905918387572742j]
        assert SeededRng(7).spawn(2).spawn(5).complex_normal(2).tolist() == [
            -0.4689786377090978 + 0.5295634858330021j,
            -0.7501669601504666 - 0.5019199704747488j]
        state = haar_random_state(PartySignature([2, 2, 2]), SeededRng(61))
        assert state.vector()[:2].tolist() == [
            -0.11668130104171431 - 0.1163861941734855j,
            -0.21751999116967313 + 0.5722705169120162j]

    def test_spawn_builds_no_generator(self):
        parent = SeededRng(7)
        child = parent.spawn(2).spawn(5)
        assert "generator" not in vars(parent) and "generator" not in vars(child)
        child.complex_normal(1)
        assert "generator" in vars(child) and "generator" not in vars(parent)

    @pytest.mark.parametrize("make,error", [
        (lambda: SeededRng(-1), ValueError),
        (lambda: SeededRng(1.5), TypeError),
        (lambda: SeededRng(3).spawn(-2), ValueError),
        (lambda: SeededRng(3).spawn(2.0), TypeError),
    ], ids=["negative-seed", "float-seed", "negative-index", "float-index"])
    def test_seed_and_index_checked_at_construction(self, make, error):
        with pytest.raises(error):
            make()

    def test_numpy_integers_are_seeds(self):
        a = SeededRng(np.int64(5)).spawn(np.uint8(1)).complex_normal(3)
        assert np.array_equal(a, SeededRng(5).spawn(1).complex_normal(3))


class TestHaarRandomState:
    def test_normalized(self):
        state = haar_random_state(PartySignature([3, 2, 2]), SeededRng(1))
        assert abs(np.linalg.norm(state.vector()) - 1.0) < 1e-12

    def test_bitwise_determinism(self):
        s1 = haar_random_state(PartySignature([2, 2, 2]), SeededRng(7))
        s2 = haar_random_state(PartySignature([2, 2, 2]), SeededRng(7))
        assert np.array_equal(s1.amplitudes, s2.amplitudes)

    def test_single_party_purity_matches_monte_carlo_reference(self):
        # 1000 samples x 3 single-party marginals; standard error ~2e-3.
        sig = PartySignature([2, 2, 2])
        rng = SeededRng(2024)
        purities = []
        for trial in range(1000):
            rho = to_density(haar_random_state(sig, rng.spawn(trial)))
            for party in range(3):
                purities.append(purity(partial_trace(rho, [party])))
        assert abs(np.mean(purities) - HAAR_PURITY_REFERENCE) < 0.012


class TestToDensity:
    def test_basis_state(self):
        state = AmplitudeTensor.from_vector([1, 0], [2])
        assert np.allclose(to_density(state).matrix, np.diag([1.0, 0.0]))

    def test_bell_corners(self):
        bell = AmplitudeTensor.from_vector(np.array([1, 0, 0, 1]) / np.sqrt(2), [2, 2])
        rho = to_density(bell).matrix
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
        assert np.allclose(rho, expected)

    def test_rank_one_spectrum(self, np_rng):
        state = haar_random_state(PartySignature([2, 3]), SeededRng(5))
        vals = np.linalg.eigvalsh(to_density(state).matrix)
        assert abs(vals[-1] - 1.0) < 1e-10
        assert np.abs(vals[:-1]).max() < 1e-10

    @settings(max_examples=60)
    @given(dims=st.lists(st.sampled_from([2, 3]), min_size=1, max_size=4),
           seed=st.integers(0, 10 ** 6), side=st.sampled_from([-1, 1]))
    def test_unchecked_density_passes_the_checks(self, dims, seed, side):
        # to_density skips DensityMatrix's checks; psi psi^+ of a state at
        # the edge of the norm tolerance still passes every one of them.
        vec = SeededRng(seed).complex_normal(int(np.prod(dims)))
        vec *= (1 + side * 0.9 * NORM_ATOL) / np.linalg.norm(vec)
        rho = to_density(AmplitudeTensor.from_vector(vec, dims))
        assert np.array_equal(rho.matrix, np.outer(vec, vec.conj()))
        assert not rho.matrix.flags.writeable
        _check_density(rho.matrix, np.linalg.eigvalsh(rho.matrix))


class TestPartialTrace:
    def test_product_state(self, np_rng):
        rho_a = random_density(np_rng, 2)
        rho_b = random_density(np_rng, 3)
        joint = DensityMatrix(PartySignature([2, 3]), np.kron(rho_a, rho_b))
        assert np.allclose(partial_trace(joint, [0]).matrix, rho_a, atol=1e-12)
        assert np.allclose(partial_trace(joint, [1]).matrix, rho_b, atol=1e-12)

    def test_bell_reduction_maximally_mixed(self):
        bell = AmplitudeTensor.from_vector(np.array([1, 0, 0, 1]) / np.sqrt(2), [2, 2])
        for party in (0, 1):
            red = partial_trace(to_density(bell), [party])
            assert np.allclose(red.matrix, np.eye(2) / 2, atol=1e-12)

    def test_ghz_pairs_match_loop_oracle(self):
        rho = to_density(ghz_state(3))
        expected = np.diag([0.5, 0.0, 0.0, 0.5])
        for pair in [(0, 1), (0, 2), (1, 2)]:
            fast = partial_trace(rho, pair).matrix
            slow = slow_partial_trace(rho.matrix, (2, 2, 2), pair)
            assert np.allclose(fast, slow, atol=1e-13)
            assert np.allclose(fast, expected, atol=1e-13)

    def test_matches_loop_oracle_on_mixed_dims(self, np_rng):
        dims = (2, 3, 2)
        rho = random_density(np_rng, 12)
        for keep in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]:
            fast = partial_trace_matrix(rho, dims, keep)
            slow = slow_partial_trace(rho, dims, keep)
            assert np.allclose(fast, slow, atol=1e-12)

    def test_linearity(self, np_rng):
        x = random_hermitian(np_rng, 8)
        y = random_hermitian(np_rng, 8)
        a, b = 0.7, -1.3
        left = partial_trace_matrix(a * x + b * y, (2, 2, 2), (0, 2))
        right = a * partial_trace_matrix(x, (2, 2, 2), (0, 2)) + \
            b * partial_trace_matrix(y, (2, 2, 2), (0, 2))
        assert np.abs(left - right).max() < 1e-12

    def test_trace_preserved(self, np_rng):
        x = random_hermitian(np_rng, 12)
        reduced = partial_trace_matrix(x, (2, 3, 2), (1,))
        assert abs(np.trace(reduced) - np.trace(x)) < 1e-12

    def test_nested_traces_consistent(self, np_rng):
        rho = random_density(np_rng, 16)
        dims = (2, 2, 2, 2)
        via = partial_trace_matrix(partial_trace_matrix(rho, dims, (0, 1, 3)),
                                   (2, 2, 2), (0, 2))
        direct = partial_trace_matrix(rho, dims, (0, 3))
        assert np.abs(via - direct).max() < 1e-12

    def test_errors(self):
        rho = to_density(ghz_state(3))
        with pytest.raises(ValueError, match="non-empty"):
            partial_trace(rho, [])
        with pytest.raises(ValueError, match="out of range"):
            partial_trace(rho, [3])


class TestGellMannBasis:
    def test_d2_is_pauli(self):
        basis = gell_mann_basis(2)
        for i in range(4):
            assert np.allclose(basis[i], PAULI[i])

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_orthogonality_and_tracelessness(self, d):
        basis = gell_mann_basis(d)
        assert basis.shape == (d * d, d, d)
        for i in range(1, d * d):
            assert abs(np.trace(basis[i])) < 1e-14
            for j in range(1, d * d):
                expect = 2.0 if i == j else 0.0
                assert abs(np.trace(basis[i] @ basis[j]) - expect) < 1e-13

    def test_one_level_refused_but_unit_basis_is_the_identity(self):
        # A one-dimensional face has Herm(1) = span{1}, and no party has d = 1.
        with pytest.raises(ValueError, match=">= 2"):
            gell_mann_basis(1)
        assert np.array_equal(_unit_basis(1), np.ones((1, 1, 1)))
        assert np.array_equal(product_operators((1,), [(0,)]), np.ones((1, 1, 1)))


def all_labels(dims):
    return list(itertools.product(*(range(d * d) for d in dims)))


def expand(rho, dims):
    """Coefficients Tr(rho P_l) over every product operator P_l, and the stack."""
    ops = product_operators(dims, all_labels(dims))
    return hs_products(ops, rho), ops


class TestBloch:
    """The state expanded over the orthonormal product-operator basis.

    For qubits each product operator is a Pauli product scaled by
    ``2**(-n/2)``, so ``2**(n/2)`` times a coefficient is the Bloch
    coefficient ``Tr(rho sigma_l1 x ... x sigma_ln)``.
    """

    def test_maximally_mixed_three_qubits(self):
        coeffs, _ = expand(np.eye(8, dtype=complex) / 8, (2, 2, 2))
        assert coeffs[0] == pytest.approx(8 ** -0.5)
        assert np.abs(coeffs[1:]).max() < 1e-12

    def test_single_qubit_z(self):
        coeffs, _ = expand(np.diag([1.0, 0.0]).astype(complex), (2,))
        assert np.sqrt(2) * coeffs == pytest.approx([1.0, 0.0, 0.0, 1.0])

    def test_ghz_seven_terms_match_trace_oracle(self):
        # Oracle: direct trace inner products against explicit Pauli products.
        rho = to_density(ghz_state(3))
        oracle = {}
        for labels in itertools.product(range(4), repeat=3):
            op = kron_all([PAULI[l] for l in labels])
            c = float(np.trace(rho.matrix @ op).real)
            if labels != (0, 0, 0) and abs(c) > 1e-12:
                oracle[labels] = c
        expected = {
            (0, 3, 3): 1.0, (3, 0, 3): 1.0, (3, 3, 0): 1.0,
            (1, 1, 1): 1.0, (1, 2, 2): -1.0, (2, 1, 2): -1.0, (2, 2, 1): -1.0,
        }
        assert {t: round(v, 9) for t, v in oracle.items()} == expected
        coeffs, _ = expand(rho.matrix, (2, 2, 2))
        got = {labels: c * 2 ** 1.5 for labels, c in zip(all_labels((2, 2, 2)), coeffs)
               if labels != (0, 0, 0) and abs(c) > 1e-10}
        assert set(got) == set(expected)
        for labels, value in expected.items():
            assert got[labels] == pytest.approx(value, abs=1e-10)

    def test_roundtrip_qutrit_pair(self):
        rho = to_density(haar_random_state(PartySignature([3, 3]), SeededRng(31))).matrix
        coeffs, ops = expand(rho, (3, 3))
        assert np.abs(np.tensordot(coeffs, ops, axes=1) - rho).max() < 1e-10

    def test_roundtrip_random_mixed_density(self, np_rng):
        rho = random_density(np_rng, 8)
        coeffs, ops = expand(rho, (2, 2, 2))
        assert np.abs(np.tensordot(coeffs, ops, axes=1) - rho).max() < 1e-10

    def test_roundtrip_mixed_dims(self, np_rng):
        rho = random_density(np_rng, 16)
        coeffs, ops = expand(rho, (4, 2, 2))
        assert np.abs(np.tensordot(coeffs, ops, axes=1) - rho).max() < 1e-10

    @pytest.mark.parametrize("dims", [(2,), (3, 3), (2, 3), (4, 2, 2)])
    def test_orthonormal_hermitian_basis(self, dims):
        ops = product_operators(dims, all_labels(dims))
        t = int(np.prod(dims))
        assert ops.shape == (t * t, t, t)
        assert np.abs(ops - np.swapaxes(ops.conj(), 1, 2)).max() < 1e-14
        gram = np.einsum("kij,lji->kl", ops, ops)
        assert np.abs(gram - np.eye(t * t)).max() < 1e-13

    def test_qubit_operators_are_scaled_pauli_products(self):
        labels = [(0, 0), (3, 0), (1, 2), (2, 3)]
        ops = product_operators((2, 2), labels)
        for op, lab in zip(ops, labels):
            assert np.abs(op - kron_all([PAULI[l] for l in lab]) / 2).max() < 1e-15


class TestRankAndNullspace:
    def test_zero_matrix(self):
        rank, basis = rank_and_nullspace(np.zeros((3, 5)))
        assert rank == 0
        assert basis.shape == (5, 5)

    def test_identity(self):
        rank, basis = rank_and_nullspace(np.eye(4))
        assert rank == 4
        assert basis.shape == (4, 0)

    def test_tiny_singular_value_below_default_threshold(self, np_rng):
        u, _ = np.linalg.qr(np_rng.standard_normal((2, 2)))
        v, _ = np.linalg.qr(np_rng.standard_normal((2, 2)))
        m = u @ np.diag([1.0, 1e-20]) @ v.T
        rank, basis = rank_and_nullspace(m)
        assert rank == 1
        assert basis.shape == (2, 1)
        assert np.linalg.norm(m @ basis) < 1e-14

    def test_null_basis_orthonormal(self, np_rng):
        m = np_rng.standard_normal((3, 6))
        rank, basis = rank_and_nullspace(m)
        assert rank == 3
        assert np.allclose(basis.conj().T @ basis, np.eye(3), atol=1e-12)
        assert np.abs(m @ basis).max() < 1e-12

    @pytest.mark.parametrize("rtol", [np.nan, 0.0, -1.0, 1.0, np.inf])
    def test_rtol_outside_the_unit_interval_rejected(self, rtol):
        with pytest.raises(ValueError, match="rtol"):
            rank_and_nullspace(np.eye(3), rtol=rtol)


def full_svd_reference(m, rtol=None):
    """Rank and kernel from the full SVD (rows x rows ``U``), the same thresholds."""
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    threshold = (rtol if rtol is not None else max(m.shape) * np.finfo(float).eps) * s[0]
    rank = int(np.sum(s > threshold))
    return rank, vh[rank:].conj().T


def kernel_projector(basis):
    return basis @ np.linalg.pinv(basis)


class TestRankAndNullspaceThinSvd:
    """The thin SVD gives the full SVD's rank and kernel on tall matrices; a
    wide matrix still gets its whole kernel."""

    def assert_matches_reference(self, m, rtol=None):
        rank, basis = rank_and_nullspace(m, rtol=rtol)
        ref_rank, ref_basis = full_svd_reference(m, rtol=rtol)
        assert rank == ref_rank
        assert basis.shape == ref_basis.shape == (m.shape[1], m.shape[1] - rank)
        assert np.abs(basis.conj().T @ basis - np.eye(basis.shape[1])).max() < 1e-12
        assert np.abs(kernel_projector(basis) - kernel_projector(ref_basis)).max() < 1e-12
        return rank

    def test_haar_27x9x9_consistency_matrix(self):
        state = haar_random_state(PartySignature([27, 9, 9]), SeededRng(61))
        m = build_consistency_matrix(state).matrix
        assert m.shape == (2187, 162)
        assert self.assert_matches_reference(m, rtol=DEFAULT_RANK_RTOL) == 161

    @pytest.mark.parametrize("rows, cols, rank", [(40, 12, 7), (30, 30, 11), (64, 9, 1),
                                                  (20, 16, 15)])
    def test_random_rank_deficient_tall(self, np_rng, rows, cols, rank):
        left = np_rng.standard_normal((rows, rank)) + 1j * np_rng.standard_normal((rows, rank))
        right = np_rng.standard_normal((rank, cols)) + 1j * np_rng.standard_normal((rank, cols))
        assert self.assert_matches_reference(left @ right) == rank

    def test_wide_rank_deficient_returns_whole_kernel(self, np_rng):
        # A thin SVD's V has only `rows` rows here, too few for a 13-dim kernel.
        m = np_rng.standard_normal((6, 4)) @ np_rng.standard_normal((4, 17))
        rank, basis = rank_and_nullspace(m)
        assert rank == 4
        assert basis.shape == (17, 13)
        assert np.abs(m @ basis).max() < 1e-12
        assert self.assert_matches_reference(m) == 4


class TestCoarseGrain:
    def test_four_qubits_to_tripartite(self):
        state = haar_random_state(PartySignature([2] * 4), SeededRng(3))
        tri = coarse_grain(state, (2, 1, 1))
        assert tri.signature.dims == (4, 2, 2)
        assert np.array_equal(tri.vector(), state.vector())

    def test_bad_groups_rejected(self):
        state = haar_random_state(PartySignature([2] * 4), SeededRng(3))
        with pytest.raises(ValueError, match="partition"):
            coarse_grain(state, (2, 1))


class TestStateAndDensityValidation:
    def test_unnormalized_state_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            AmplitudeTensor.from_vector([1.0, 1.0], [2])

    def test_non_hermitian_density_rejected(self):
        mat = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(PartySignature([2]), mat)

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(PartySignature([2]), np.eye(2, dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_amplitudes_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            AmplitudeTensor.from_vector([bad, 0.0], [2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_density_rejected(self, bad):
        mat = np.diag([1.0, 0.0]).astype(complex)
        mat[0, 1] = mat[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(PartySignature([2]), mat)

    def test_negative_eigenvalue_rejected(self):
        mat = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(PartySignature([2]), mat)

    def test_trace_distance_symmetry(self, np_rng):
        a = random_density(np_rng, 4)
        b = random_density(np_rng, 4)
        assert trace_distance(a, b) == pytest.approx(trace_distance(b, a))
        assert trace_distance(a, a) < 1e-14
