import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmarginal import uniqueness
from qmarginal.tensor import (AmplitudeTensor, PartySignature, SeededRng, haar_random_state,
                              rank_and_nullspace)
from qmarginal.uniqueness import (
    DEFAULT_RANK_RTOL,
    DEGENERATE,
    UNIQUE_LINEAR,
    RankDeficientBlockError,
    TripartiteShape,
    build_consistency_matrix,
    check_linear_uniqueness,
    identity_pattern_vector,
    sequential_elimination_trace,
)

import conftest
from conftest import (column_of, dense_kernel, ghz_state, haar_unitary, party_split,
                      reference_elimination_steps)


def haar(shape, seed):
    return haar_random_state(PartySignature(shape), SeededRng(seed))


def ghz_type(shape):
    """a[0,0,0] = a[1,1,1] = 1/sqrt(2) embedded in the given shape."""
    amps = np.zeros(shape, dtype=complex)
    amps[0, 0, 0] = amps[1, 1, 1] = 1 / np.sqrt(2)
    return AmplitudeTensor(PartySignature(shape), amps)


def product_state(shape):
    """|000> embedded in the given shape."""
    amps = np.zeros(shape, dtype=complex)
    amps[0, 0, 0] = 1.0
    return AmplitudeTensor(PartySignature(shape), amps)


class TestConsistencyMatrix:
    def test_shape_422(self):
        cm = build_consistency_matrix(haar((4, 2, 2), 0))
        assert cm.matrix.shape == (16, 8)
        assert cm.shape.n_equations == 16
        assert cm.shape.n_unknowns == 8

    def test_entries_match_definition(self):
        # Rebuild every row from scratch off the column-index map.
        state = haar((3, 2, 2), 1)
        a = state.amplitudes
        cm = build_consistency_matrix(state)
        m, n, p = 3, 2, 2
        for i in range(m):
            for j in range(n):
                for k in range(p):
                    row = cm.matrix[(i * n + j) * p + k]
                    expected = np.zeros(p * p + n * n, dtype=complex)
                    for l in range(p):
                        expected[column_of(cm.shape, "e", l, k)] += a[i, j, l]
                    for r in range(n):
                        expected[column_of(cm.shape, "f", r, j)] -= a[i, r, k]
                    assert np.array_equal(row, expected)

    def test_identity_vector_always_in_kernel(self):
        shapes = [(4, 2, 2), (2, 2, 2), (5, 3, 2), (3, 3, 3), (8, 4, 4)]
        for idx, shape in enumerate(shapes):
            state = haar(shape, 100 + idx)
            cm = build_consistency_matrix(state)
            v = identity_pattern_vector(cm.shape)
            knorm = np.linalg.norm(cm.matrix)
            assert np.linalg.norm(cm.matrix @ v) <= 1e-12 * knorm

    def test_ghz_kernel_grows(self):
        # Explicit SVD: the degenerate family has at least a 2-dim kernel.
        cm = build_consistency_matrix(ghz_type((2, 2, 2)))
        s = np.linalg.svd(cm.matrix, compute_uv=False)
        null_dim = int(np.sum(s < 1e-8 * s[0]))
        assert null_dim > 1

    def test_non_tripartite_rejected(self):
        state = haar_random_state(PartySignature([2, 2, 2, 2]), SeededRng(9))
        with pytest.raises(ValueError, match="tripartite"):
            build_consistency_matrix(state)


class TestIdentityPatternVector:
    def test_shape_422_positions(self):
        v = identity_pattern_vector(TripartiteShape(4, 2, 2))
        expected = np.zeros(8)
        expected[[0, 3, 4, 7]] = 0.5  # e(0,0), e(1,1), f(0,0), f(1,1)
        assert np.allclose(v, expected)

    def test_degenerate_shape_m11(self):
        v = identity_pattern_vector(TripartiteShape(5, 1, 1))
        assert v.shape == (2,)
        assert np.allclose(v, [1 / np.sqrt(2)] * 2)

    def test_unit_norm(self):
        v = identity_pattern_vector(TripartiteShape(3, 3, 2))
        assert abs(np.linalg.norm(v) - 1.0) < 1e-14


class TestCheckLinearUniqueness:
    def test_haar_422_unique(self):
        verdict = check_linear_uniqueness(haar((4, 2, 2), 11))
        assert verdict.verdict == UNIQUE_LINEAR
        assert verdict.null_dim == 1
        assert verdict.identity_pattern_match
        assert verdict.residual < 1e-8

    def test_ghz_222_degenerate(self):
        verdict = check_linear_uniqueness(ghz_type((2, 2, 2)))
        assert verdict.verdict == DEGENERATE
        assert verdict.null_dim > 1
        assert verdict.kernel.shape[1] == verdict.null_dim

    def test_haar_222_verdict_recorded(self):
        # M < N + P - 1: no genericity claim; just a well-formed verdict.
        verdict = check_linear_uniqueness(haar((2, 2, 2), 12))
        assert verdict.verdict in (UNIQUE_LINEAR, DEGENERATE)
        assert verdict.null_dim >= 1

    def test_local_unitary_invariance_on_first_party(self):
        state = haar((4, 2, 2), 13)
        rng = np.random.default_rng(77)
        base_dim = check_linear_uniqueness(state).null_dim
        for _ in range(3):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            u, _ = np.linalg.qr(g)
            rotated = np.einsum("ai,ijk->ajk", u, state.amplitudes)
            rotated_state = AmplitudeTensor(PartySignature([4, 2, 2]), rotated)
            assert check_linear_uniqueness(rotated_state).null_dim == base_dim

    def test_genericity_smoke(self):
        # 50-sample smoke version; the 200-sample run lives in acceptance.
        hits = sum(
            check_linear_uniqueness(haar((4, 2, 2), 1000 + t)).verdict == UNIQUE_LINEAR
            for t in range(50)
        )
        assert hits == 50


def assert_matches_dense_k(state):
    """The R factor's rank, kernel projector and singular values are K's."""
    dense = build_consistency_matrix(state).matrix
    dense_rank, dense_kernel = rank_and_nullspace(dense, rtol=DEFAULT_RANK_RTOL)
    r_factor = uniqueness._consistency_r_factor(state.amplitudes)
    rank, _ = rank_and_nullspace(r_factor, rtol=DEFAULT_RANK_RTOL)
    verdict = check_linear_uniqueness(state)
    assert rank == dense_rank
    assert verdict.null_dim == dense_kernel.shape[1] == verdict.kernel.shape[1]
    assert verdict.kernel.shape[0] == dense.shape[1]
    projector = verdict.kernel @ verdict.kernel.conj().T
    assert np.abs(projector - dense_kernel @ dense_kernel.conj().T).max() < 1e-12
    s_dense = np.linalg.svd(dense, compute_uv=False)
    s_factor = np.linalg.svd(r_factor, compute_uv=False)
    # A wide R factor has fewer singular values; the missing ones are K's zeros.
    s_factor = np.pad(s_factor, (0, s_dense.size - s_factor.size))
    assert np.abs(s_dense - s_factor).max() <= 1e-13 * s_dense[0]


class TestRFactorMatchesDenseK:
    """``check_linear_uniqueness`` reads the kernel off an R factor of K
    assembled from the amplitudes; it must see what a dense SVD of K sees."""

    @pytest.mark.parametrize("shape", [
        (2, 2, 2), (3, 2, 2), (4, 2, 2), (5, 3, 2), (8, 4, 4), (9, 3, 3), (27, 9, 9),
        (2, 2, 4),   # M*N == P: no remainder rows
        (2, 2, 5),   # M*N < P
        (2, 4, 2),   # remainder stack wider than tall
    ])
    @pytest.mark.parametrize("family", ["haar", "ghz", "product"])
    def test_rank_kernel_and_singular_values(self, shape, family):
        states = {"haar": haar(shape, sum(shape)), "ghz": ghz_type(shape),
                  "product": product_state(shape)}
        assert_matches_dense_k(states[family])

    @settings(max_examples=25, deadline=None)
    @given(shape=st.tuples(st.integers(2, 8), st.integers(2, 5), st.integers(2, 5)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_property_haar(self, shape, seed):
        assert_matches_dense_k(haar(shape, seed))

    def test_never_builds_k(self, monkeypatch):
        def refuse(_):
            raise AssertionError("the verdict path built K")
        monkeypatch.setattr(uniqueness, "build_consistency_matrix", refuse)
        assert check_linear_uniqueness(haar((27, 9, 9), 5)).verdict == UNIQUE_LINEAR
        four_party = haar_random_state(PartySignature([2, 2, 2, 2]), SeededRng(9))
        with pytest.raises(ValueError, match="tripartite"):
            check_linear_uniqueness(four_party)

    def test_rank_rtol_below_rounding_floor_raises(self):
        # K annihilates the identity pattern exactly, so an empty kernel can
        # only mean that the tolerance lies below the singular values' noise.
        with pytest.raises(ValueError, match="rank_rtol=1e-20 is below the rounding floor"):
            check_linear_uniqueness(haar((4, 2, 2), 2), rank_rtol=1e-20)


def zero_prefix(shape, seed, rows=3):
    """A Haar state with its first ``rows`` rows of party A set to zero."""
    amps = np.array(haar(shape, seed).amplitudes)
    amps[:rows] = 0
    return AmplitudeTensor(PartySignature(shape), amps / np.linalg.norm(amps))


class TestKernelCertificate:
    """The prefix certificate proves K's kernel a line from rows i < M' of
    party A; when it refuses, the R-factor SVD decides as before."""

    @pytest.mark.parametrize("shape", [(8, 4, 4), (16, 8, 8), (27, 9, 9)])
    def test_certifies_haar_without_the_r_factor(self, shape, monkeypatch):
        def refuse(_):
            raise AssertionError("the SVD path ran")
        monkeypatch.setattr(uniqueness, "_consistency_r_factor", refuse)
        verdict = check_linear_uniqueness(haar(shape, 7))
        assert verdict.verdict == UNIQUE_LINEAR and verdict.null_dim == 1
        assert verdict.decided_by == "certificate" and verdict.certificate_gap > 1e-8
        assert verdict.residual < 1e-14

    @pytest.mark.parametrize("shape", [(3, 2, 2), (4, 2, 2), (5, 3, 2), (9, 3, 3), (16, 8, 8),
                                       (27, 9, 9)])
    def test_gap_is_a_lower_bound_on_the_prefix(self, shape):
        # The bound holds for K_pre, the rows i < M' of K, and so for K.
        state = haar(shape, 8)
        dense = build_consistency_matrix(state).matrix
        m_pre = uniqueness._prefix_rows(*shape)
        s_pre = np.linalg.svd(dense[:m_pre * shape[1] * shape[2]], compute_uv=False)
        s = np.linalg.svd(dense, compute_uv=False)
        verdict = check_linear_uniqueness(state)
        assert verdict.decided_by == "certificate"
        assert verdict.certificate_gap * np.linalg.norm(dense) <= s_pre[-2] <= s[-2]

    @pytest.mark.parametrize("shape", [(8, 4, 4), (27, 9, 9)])
    def test_zero_prefix_falls_back(self, shape):
        state = zero_prefix(shape, 9)
        assert uniqueness._kernel_certificate(state.amplitudes, DEFAULT_RANK_RTOL) is None
        verdict = check_linear_uniqueness(state)
        assert verdict.verdict == UNIQUE_LINEAR
        assert (verdict.decided_by, verdict.certificate_gap) == ("svd", None)
        assert_matches_dense_k(state)

    @pytest.mark.parametrize("shape", [(2, 2, 2), (3, 2, 2), (4, 2, 2), (5, 3, 2), (8, 4, 4),
                                       (9, 3, 3), (2, 2, 4), (2, 4, 2)])
    @pytest.mark.parametrize("family", [ghz_type, product_state])
    def test_degenerate_families_never_certified(self, shape, family):
        verdict = check_linear_uniqueness(family(shape))
        assert verdict.decided_by == "svd" and verdict.certificate_gap is None
        assert verdict.verdict == DEGENERATE

    def test_coarse_rank_cut_refuses(self, monkeypatch):
        state = haar((8, 4, 4), 10)
        verdict = check_linear_uniqueness(state, rank_rtol=0.5)
        monkeypatch.setattr(uniqueness, "_kernel_certificate", lambda *_: None)
        fallback = check_linear_uniqueness(state, rank_rtol=0.5)
        assert verdict.decided_by == "svd"
        assert (verdict.verdict, verdict.null_dim, verdict.residual) == \
            (fallback.verdict, fallback.null_dim, fallback.residual)
        assert np.array_equal(verdict.kernel, fallback.kernel)

    @pytest.mark.parametrize("shape", [(4, 2, 2), (27, 9, 9)])
    def test_rank_rtol_below_rounding_floor_refuses(self, shape):
        state = haar(shape, 2)
        assert uniqueness._kernel_certificate(state.amplitudes, 1e-20) is None
        with pytest.raises(ValueError, match="below the rounding floor"):
            check_linear_uniqueness(state, rank_rtol=1e-20)

    @pytest.mark.parametrize("shape, rows", [
        ((4, 2, 2), 3), ((27, 9, 9), 3), ((32, 16, 16), 3),
        ((3, 2, 2), 3),    # capped at M
        ((9, 2, 8), 5),    # M'N >= P needs 4 rows, M'NP - P^2 >= N^2 - 1 needs 5
        ((2, 2, 5), 2),    # capped, and then refused: M'N < P
    ])
    def test_prefix_rows_from_shape(self, shape, rows):
        assert uniqueness._prefix_rows(*shape) == rows


# The paper's (m+1, m, m) groupings of 3m+1 parties, d = 2, m = 1..4 and
# d = 3, m = 1..3, then a wide R_S (24 x 25) and a prefix of 5 rows. The
# certificate decides every one of them.
CERTIFIED_SHAPES = [(4, 2, 2), (8, 4, 4), (16, 8, 8), (32, 16, 16), (9, 3, 3), (27, 9, 9),
                    (81, 27, 27), (5, 5, 24), (9, 2, 8)]


class TestCertificateKernel:
    """The certificate reads R_S's singular values without vectors and
    finds its kernel vector by one triangular solve."""

    @pytest.mark.parametrize("shape", CERTIFIED_SHAPES)
    def test_kernel_matches_the_dense_kernel(self, shape):
        state = haar(shape, 3)
        verdict = check_linear_uniqueness(state)
        assert verdict.decided_by == "certificate" and verdict.verdict == UNIQUE_LINEAR
        if shape == (81, 27, 27):
            # Its dense K would take 1.4 GB; a generic state's kernel is the
            # identity-pattern line exactly.
            reference = identity_pattern_vector(TripartiteShape(*shape))[:, None]
        else:
            reference = dense_kernel(state)
        assert reference.shape[1] == 1
        assert abs(np.vdot(reference[:, 0], verdict.kernel[:, 0])) >= 1 - 1e-12

    @pytest.mark.parametrize("shape", [(4, 2, 2), (27, 9, 9), (5, 5, 24)])
    def test_no_singular_vectors(self, shape, linalg_calls):
        linalg_calls.record("svd", "solve")
        verdict = check_linear_uniqueness(haar(shape, 4))
        assert verdict.decided_by == "certificate"
        svds = [call for call in linalg_calls.calls if call[0] == "svd"]
        # sigma_min(R1) and R_S's values, then the kernel's solve and the lift.
        assert len(svds) == 2 and all(call[2] is False for call in svds)
        assert linalg_calls.count("solve") == 2

    @pytest.mark.parametrize("size, rows, zero", [(9, 9, 8), (9, 9, 4), (16, 15, None),
                                                  (25, 24, 0)])
    def test_zero_pivot_gives_a_kernel_vector(self, size, rows, zero):
        # An upper-triangular R_S with an exactly zero diagonal entry, or
        # wide (rows < size), whose padded row is a zero pivot.
        rng = np.random.default_rng(size + rows)
        r_s = np.triu(rng.standard_normal((rows, size)) + 1j * rng.standard_normal((rows, size)))
        if zero is not None:
            r_s[zero, zero] = 0
        s = np.linalg.svd(r_s, compute_uv=False)
        f = uniqueness._inverse_iteration(r_s, size, s[0])
        assert f.shape == (size,) and np.all(np.isfinite(f))
        f = f / np.linalg.norm(f)
        assert np.linalg.norm(r_s @ f) <= size * np.finfo(float).eps * s[0]


class TestLocalUnitaryInvariance:
    """Verdict and kernel dimension are properties of the local-unitary orbit."""

    @settings(max_examples=30)
    @given(shape=st.sampled_from([(4, 2, 2), (8, 4, 4)]),
           state_seed=st.integers(0, 2 ** 32 - 1),
           unitary_seed=st.integers(0, 2 ** 32 - 1),
           degenerate=st.booleans())
    def test_verdict_and_null_dim_invariant(self, shape, state_seed, unitary_seed, degenerate):
        state = ghz_type(shape) if degenerate else haar(shape, state_seed)
        rng = np.random.default_rng(unitary_seed)
        u_a, u_b, u_c = (haar_unitary(rng, d) for d in shape)
        rotated = np.einsum("ai,bj,ck,ijk->abc", u_a, u_b, u_c, state.amplitudes)
        rotated = rotated / np.linalg.norm(rotated)
        before = check_linear_uniqueness(state)
        after = check_linear_uniqueness(AmplitudeTensor(PartySignature(shape), rotated))
        assert before.verdict == (DEGENERATE if degenerate else UNIQUE_LINEAR)
        assert (after.verdict, after.null_dim) == (before.verdict, before.null_dim)


class TestSequentialElimination:
    def test_haar_422_trace(self):
        report = sequential_elimination_trace(haar((4, 2, 2), 21))
        assert report.verdict == UNIQUE_LINEAR
        # First block: 4 equations, 3 unknowns beyond the pinned direction.
        first = report.steps[0]
        assert first.n_rows == 4
        assert len(first.unknowns) == 3
        assert first.rank == 3
        # Final pattern: diagonal unknowns 1, everything else 0.
        assert report.max_deviation < 1e-10

    def test_agreement_with_kernel_method(self):
        for idx, shape in enumerate([(4, 2, 2), (3, 2, 2), (5, 3, 2), (6, 3, 3)]):
            for t in range(5):
                state = haar(shape, 300 + 10 * idx + t)
                report = sequential_elimination_trace(state)
                verdict = check_linear_uniqueness(state)
                assert report.verdict == verdict.verdict == UNIQUE_LINEAR

    def test_ghz_aborts_rank_deficient(self):
        with pytest.raises(RankDeficientBlockError) as err:
            sequential_elimination_trace(ghz_type((4, 2, 2)))
        assert err.value.step == 1

    def test_square_case_m_equals_bound(self):
        # M = N + P - 1 exactly: the first block is square and generic.
        report = sequential_elimination_trace(haar((3, 2, 2), 23))
        first = report.steps[0]
        assert first.n_rows == 3
        assert len(first.unknowns) == 3
        assert report.verdict == UNIQUE_LINEAR

    @pytest.mark.parametrize("shape", [(3, 2, 2), (4, 2, 2), (5, 3, 2), (6, 3, 3), (8, 4, 4),
                                       (9, 3, 3), (16, 8, 8), (27, 9, 9)])
    def test_matches_per_block_reference(self, shape):
        # Factoring each shared block once changes no step, only the work.
        state = haar(shape, sum(shape))
        report = sequential_elimination_trace(state)
        ref_steps, ref_solution = reference_elimination_steps(state.amplitudes)
        assert len(report.steps) == len(ref_steps) == shape[1] + shape[2] - 1
        for step, ref in zip(report.steps, ref_steps):
            assert (step.index, step.label, step.n_rows, step.unknowns, step.rank) == \
                (ref.index, ref.label, ref.n_rows, ref.unknowns, ref.rank)
            assert list(step.values) == list(ref.values)
            assert max(abs(step.values[k] - ref.values[k]) for k in ref.values) < 1e-13
            assert step.residual < 1e-13 and ref.residual < 1e-13
        assert np.abs(report.solution - ref_solution).max() < 1e-13

    def test_rank_deficient_step_matches_reference(self):
        state = ghz_type((4, 2, 2))
        with pytest.raises(RankDeficientBlockError) as ref:
            reference_elimination_steps(state.amplitudes)
        with pytest.raises(RankDeficientBlockError) as err:
            sequential_elimination_trace(state)
        assert (err.value.step, err.value.label, err.value.rank, err.value.needed) == \
            (ref.value.step, ref.value.label, ref.value.rank, ref.value.needed)

    def test_below_bound_rejected(self):
        with pytest.raises(ValueError, match="M >= N \\+ P - 1"):
            sequential_elimination_trace(haar((2, 2, 2), 24))


class TestPartySplit:
    def test_m1_d2(self):
        split = party_split(1, 2)
        assert split.shape == TripartiteShape(4, 2, 2)
        assert split.marginal_party_count == 3
        assert split.total_parties == 4
        assert split.shape.satisfies_bound

    def test_m2_d2(self):
        split = party_split(2, 2)
        assert split.shape == TripartiteShape(8, 4, 4)
        assert split.marginal_party_count == 5
        assert split.total_parties == 7

    def test_fraction_decreases_to_two_thirds(self, monkeypatch):
        monkeypatch.setattr(conftest, "_MAX_SPLIT_DIM", 1 << 40)
        fracs = [party_split(m, 2).fraction for m in range(1, 12)]
        assert all(a > b for a, b in zip(fracs, fracs[1:]))
        assert all(f > 2 / 3 for f in fracs)
        assert fracs[-1] == pytest.approx(2 / 3, abs=0.02)

    def test_overflow_cap(self):
        with pytest.raises(ValueError, match="exceeds the cap"):
            party_split(4, 2)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            party_split(0, 2)
        with pytest.raises(ValueError):
            party_split(1, 1)
