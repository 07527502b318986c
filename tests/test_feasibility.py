import dataclasses
import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmarginal import feasibility, tensor
from qmarginal.feasibility import (
    _DISTINCTNESS_TOL,
    _GAP_MIN,
    _GAP_ZERO,
    _PERTURBATION_SCALE,
    INCONCLUSIVE,
    NON_UNIQUE,
    UNIQUE,
    ConstraintOperator,
    MarginalConstraintSet,
    ProjectionConfig,
    _add_on_parties,
    _dykstra_batch,
    _exit_parameter,
    _face_certificate,
    _parent_hamiltonian,
    _restricted_map,
    _support_sum,
    _verify_witness,
    genericity_survey,
    project_psd,
    uniqueness_probe,
)
from qmarginal.tensor import (
    PSD_ATOL,
    AmplitudeTensor,
    DensityMatrix,
    PartySignature,
    SeededRng,
    haar_random_state,
    partial_trace_matrix,
    to_density,
    trace_distance,
)
from qmarginal.uniqueness import UNIQUE_LINEAR, check_linear_uniqueness

from conftest import (PAULI, DenseConstraintOperator, constraint_nullspace, ghz_state,
                      haar_unitary, hs_products, kron_all, random_density, random_hermitian,
                      reference_constraint_fields, slow_partial_trace)

PAIRS3 = [(0, 1), (0, 2), (1, 2)]
PAIRS4 = list(itertools.combinations(range(4), 2))
TRIPLES5 = list(itertools.combinations(range(5), 3))
ABAC = [(0, 1), (0, 2)]
RING4 = [(0, 1), (1, 2), (2, 3), (0, 3)]


def haar(dims, seed):
    return haar_random_state(PartySignature(dims), SeededRng(seed))


def dykstra_run(start, cs):
    """One Dykstra run from ``start`` with the default config: its last
    PSD-side iterate, stop flag and cycle count, the iterate's Frobenius
    distance from the affine set, the negative part of its smallest
    eigenvalue and its largest marginal error."""
    op = ConstraintOperator(cs)
    config = ProjectionConfig()
    outs, iters, conv = _dykstra_batch(np.asarray(start, dtype=complex)[None], op,
                                       config.max_iterations, config.convergence_tol)
    y = outs[0]
    return SimpleNamespace(
        matrix=y, converged=bool(conv[0]), iterations=int(iters[0]),
        affine_residual=float(np.linalg.norm(op.project(y) - y)),
        psd_residual=max(0.0, -float(np.linalg.eigvalsh(y)[0])),
        marginal_residual=cs.marginal_residual(y))


def bloch_kernel_count(n, d, subsets):
    """Count product-basis terms whose support is in no constrained subset."""
    count = 0
    subsets = [set(s) for s in subsets]
    for labels in itertools.product(range(d * d), repeat=n):
        support = {p for p, l in enumerate(labels) if l != 0}
        if not support:
            continue
        if not any(support <= s for s in subsets):
            count += 1
    return count


class TestConstraintNullspace:
    def test_three_qubit_pairs_dimension(self):
        basis = constraint_nullspace(PartySignature([2, 2, 2]), PAIRS3)
        assert basis.shape == (27, 8, 8)

    def test_two_qubit_singletons_dimension(self):
        basis = constraint_nullspace(PartySignature([2, 2]), [(0,), (1,)])
        assert basis.shape[0] == 9

    def test_all_parties_pinned(self):
        basis = constraint_nullspace(PartySignature([2, 2, 2]), [(0, 1, 2)])
        assert basis.shape[0] == 0

    @pytest.mark.parametrize("dims,subsets", [
        ((2, 2, 2), PAIRS3),
        ((2, 2), [(0,), (1,)]),
        ((2, 2, 2), [(0, 1)]),
        ((2, 2, 2, 2), [(0, 1, 2), (0, 1, 3)]),
    ])
    def test_dimension_matches_bloch_term_count(self, dims, subsets):
        basis = constraint_nullspace(PartySignature(dims), subsets)
        expected = bloch_kernel_count(len(dims), dims[0], subsets)
        assert basis.shape[0] == expected
        # The pinned operators are the rest of an orthonormal basis.
        cs = MarginalConstraintSet.from_state(haar(dims, 45), subsets)
        t = int(np.prod(dims))
        assert len(ConstraintOperator(cs).labels) == t * t - expected
        ops = DenseConstraintOperator(cs).ops
        assert np.abs(hs_products(ops, ops) - np.eye(len(ops))).max() < 1e-13

    @pytest.mark.parametrize("subsets", [[(7,)], [()], [(0, 0)]])
    def test_invalid_subset_rejected(self, subsets):
        with pytest.raises(ValueError):
            constraint_nullspace(PartySignature([2, 2]), subsets)

    def test_basis_elements_traceless_orthonormal_zero_marginals(self):
        sig = PartySignature([2, 2, 2])
        basis = constraint_nullspace(sig, PAIRS3)
        for i, b in enumerate(basis):
            assert np.abs(b - b.conj().T).max() < 1e-12
            assert abs(np.trace(b)) < 1e-12
            for subset in PAIRS3:
                assert np.abs(partial_trace_matrix(b, (2, 2, 2), subset)).max() < 1e-12
            for j in range(i, len(basis)):
                expect = 1.0 if i == j else 0.0
                assert abs(np.trace(basis[i] @ basis[j]).real - expect) < 1e-10


class TestProjectAffine:
    def test_point_in_set_unchanged(self):
        state = haar([2, 2, 2], 40)
        op = ConstraintOperator(MarginalConstraintSet.from_state(state, PAIRS3))
        rho = to_density(state).matrix
        assert np.abs(op.project(rho) - rho).max() < 1e-12

    def test_idempotent(self, np_rng):
        state = haar([2, 2, 2], 41)
        op = ConstraintOperator(MarginalConstraintSet.from_state(state, PAIRS3))
        x = random_hermitian(np_rng, 8)
        once = op.project(x)
        twice = op.project(once)
        assert np.abs(once - twice).max() < 1e-12

    @pytest.mark.parametrize("pinned", [
        [((0,), 42), ((1,), 42)],
        [((0,), 42), ((0, 1), 142)],
    ], ids=["consistent", "inconsistent"])
    def test_min_norm_solution_matches_pseudoinverse_oracle(self, pinned):
        # Independent oracle at 2 qubits: build the constraint map explicitly
        # over a hand-rolled Hermitian basis with loop-based partial traces,
        # then take the pseudo-inverse solution from the zero matrix. Targets
        # taken from two different states have no common solution; the
        # oracle is then the least-squares point.
        sig = PartySignature([2, 2])
        targets = {s: slow_partial_trace(to_density(haar([2, 2], seed)).matrix, (2, 2), s)
                   for s, seed in pinned}
        cs = MarginalConstraintSet(sig, [(s, DensityMatrix(sig.subsystem(s), m))
                                         for s, m in targets.items()])

        basis = []
        for i in range(4):
            m = np.zeros((4, 4), dtype=complex)
            m[i, i] = 1.0
            basis.append(m)
        for i in range(4):
            for j in range(i + 1, 4):
                m = np.zeros((4, 4), dtype=complex)
                m[i, j] = m[j, i] = 1 / np.sqrt(2)
                basis.append(m)
                m = np.zeros((4, 4), dtype=complex)
                m[i, j] = -1j / np.sqrt(2)
                m[j, i] = 1j / np.sqrt(2)
                basis.append(m)

        rows = []
        rhs = []
        for subset, target in targets.items():
            for a in range(len(target)):
                for b in range(len(target)):
                    row = [slow_partial_trace(m, (2, 2), subset)[a, b] for m in basis]
                    rows.append([x.real for x in row])
                    rhs.append(target[a, b].real)
                    rows.append([x.imag for x in row])
                    rhs.append(target[a, b].imag)
        rows.append([np.trace(m).real for m in basis])
        rhs.append(1.0)
        coeffs = np.linalg.pinv(np.array(rows)) @ np.array(rhs)
        oracle = sum(c * m for c, m in zip(coeffs, basis))

        ours = ConstraintOperator(cs).project(np.zeros((4, 4), dtype=complex))
        assert np.abs(ours - oracle).max() < 1e-10

    def test_linear_part_self_adjoint(self, np_rng):
        state = haar([2, 2, 2], 43)
        op = ConstraintOperator(MarginalConstraintSet.from_state(state, PAIRS3))
        offset = op.project(np.zeros((8, 8), dtype=complex))
        for _ in range(5):
            x = random_hermitian(np_rng, 8)
            y = random_hermitian(np_rng, 8)
            px = op.project(x) - offset
            py = op.project(y) - offset
            lhs = np.trace(px @ y).real
            rhs = np.trace(x @ py).real
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))

    def test_output_displacement_in_constraint_rows(self, np_rng):
        # x - P(x) is orthogonal to the constraint kernel.
        sig = PartySignature([2, 2, 2])
        state = haar([2, 2, 2], 44)
        op = ConstraintOperator(MarginalConstraintSet.from_state(state, PAIRS3))
        kernel = constraint_nullspace(sig, PAIRS3)
        x = random_hermitian(np_rng, 8)
        moved = x - op.project(x)
        for b in kernel:
            assert abs(np.trace(moved @ b).real) < 1e-10


class TestProjectPsd:
    def test_psd_unchanged(self, np_rng):
        g = np_rng.standard_normal((5, 5)) + 1j * np_rng.standard_normal((5, 5))
        psd = g @ g.conj().T
        assert np.abs(project_psd(psd) - psd).max() < 1e-12

    def test_clamps_negative(self):
        assert np.allclose(project_psd(np.diag([1.0, -1.0])), np.diag([1.0, 0.0]))

    def test_random_output_psd(self, np_rng):
        x = random_hermitian(np_rng, 8)
        out = project_psd(x)
        assert np.linalg.eigvalsh(out)[0] >= -1e-12


class TestDykstraSolve:
    def test_fixed_point_returns_immediately(self):
        state = haar([2, 2, 2], 50)
        cs = MarginalConstraintSet.from_state(state, PAIRS3)
        rho = to_density(state).matrix
        res = dykstra_run(rho, cs)
        assert res.converged
        assert res.iterations == 1
        assert res.affine_residual < 1e-12
        assert res.psd_residual < 1e-12
        assert np.abs(res.matrix - rho).max() < 1e-12

    def test_perturbed_start_returns_to_unique_state(self):
        state = haar([2, 2, 2], 51)
        cs = MarginalConstraintSet.from_state(state, PAIRS3)
        op = ConstraintOperator(cs)
        rho = to_density(state).matrix
        g = SeededRng(52).complex_normal((8, 8))
        g = g + g.conj().T
        kdir = op.project_kernel(g)
        kdir /= np.linalg.norm(kdir)
        res = dykstra_run(rho + 0.1 * kdir, cs)
        assert trace_distance(res.matrix, rho) < 1e-4
        assert res.converged
        assert res.psd_residual < 1e-10
        assert res.affine_residual < 1e-9

    def test_ghz_mixture_segment_is_fixed(self):
        # Points between the pure state and the classical mixture satisfy
        # every pair marginal, so the solver accepts them as they are.
        state = ghz_state(3)
        cs = MarginalConstraintSet.from_state(state, PAIRS3)
        rho = to_density(state).matrix
        mix = np.zeros((8, 8), dtype=complex)
        mix[0, 0] = mix[7, 7] = 0.5
        start = 0.5 * rho + 0.5 * mix
        res = dykstra_run(start, cs)
        assert res.converged
        assert res.marginal_residual < 1e-9
        assert trace_distance(res.matrix, rho) > 0.2
        assert np.abs(res.matrix - start).max() < 1e-9

    def test_batch_equals_its_runs_one_by_one(self):
        # Feasible starts that stop at cycle 1, runs that converge after
        # 274-624 cycles, and runs that the cap of 650 stops (667 and 1002
        # uncapped), interleaved so that runs finish around live ones.
        state = haar([2, 2, 2], 51)
        op = ConstraintOperator(MarginalConstraintSet.from_state(state, PAIRS3))
        rho = to_density(state).matrix
        starts = [rho]
        for r, scale in enumerate([0.02, 0.05, 0.1, 0.2, 0.3, 0.5]):
            g = SeededRng(52).spawn(r).complex_normal((8, 8))
            kdir = op.project_kernel(g + g.conj().T)
            starts.append(rho + scale * kdir / np.linalg.norm(kdir))
        starts.insert(4, rho)
        outs, iters, conv = _dykstra_batch(np.array(starts), op, 650, 1e-9)
        assert iters.tolist() == [1, 274, 623, 650, 1, 624, 532, 650]
        assert conv.tolist() == [True, True, True, False, True, True, True, False]
        for i, start in enumerate(starts):
            out, it, ok = _dykstra_batch(start[None], op, 650, 1e-9)
            assert np.array_equal(outs[i], out[0])
            assert np.array_equal(iters[i], it[0]) and np.array_equal(conv[i], ok[0])


class TestUniquenessProbe:
    def test_haar_three_qubit_pairs_unique(self):
        state = haar([2, 2, 2], 60)
        verdict = uniqueness_probe(state, PAIRS3, rng=SeededRng(1))
        assert verdict.verdict == UNIQUE
        assert all(r.outcome == "returned_reference" for r in verdict.runs)
        assert all(r.distance <= 1e-4 for r in verdict.runs)

    def test_ghz_pairs_non_unique_with_verified_witness(self):
        state = ghz_state(3)
        verdict = uniqueness_probe(state, PAIRS3, rng=SeededRng(1))
        assert verdict.verdict == NON_UNIQUE
        assert not verdict.certified and verdict.decided_by == "dykstra"
        assert verdict.certificate_gap < _GAP_MIN
        assert verdict.face_dim == 2
        assert len(verdict.witnesses) >= 2
        rho = verdict.witnesses[0]
        witness = verdict.witnesses[1]
        # Verified directly: density invariants held at construction.
        assert trace_distance(witness, rho) > 1e-4
        assert verdict.max_marginal_residual < 1e-9
        for subset in PAIRS3:
            diff = partial_trace_matrix(witness.matrix, (2, 2, 2), subset) - \
                partial_trace_matrix(rho.matrix, (2, 2, 2), subset)
            assert np.linalg.norm(diff) < 1e-9

    def test_ghz_mixture_matches_marginals_analytically(self):
        rho = to_density(ghz_state(3)).matrix
        mix = np.zeros((8, 8), dtype=complex)
        mix[0, 0] = mix[7, 7] = 0.5
        for subset in PAIRS3:
            diff = slow_partial_trace(rho, (2, 2, 2), subset) - \
                slow_partial_trace(mix, (2, 2, 2), subset)
            assert np.abs(diff).max() < 1e-12

    def test_full_subset_trivially_unique(self):
        state = haar([2, 2, 2], 61)
        verdict = uniqueness_probe(state, [(0, 1, 2)], rng=SeededRng(1))
        assert verdict.verdict == UNIQUE

    def test_uncovered_party_immediate_non_unique(self):
        state = haar([2, 2, 2], 62)
        verdict = uniqueness_probe(state, [(0, 1)], rng=SeededRng(1))
        assert verdict.verdict == NON_UNIQUE
        assert verdict.max_marginal_residual < 1e-12
        assert verdict.pairwise_distances[0] > 1e-4
        assert verdict.decided_by == "uncovered_party"
        assert not verdict.certified and verdict.certificate_gap is None
        assert verdict.face_dim is None

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_uncovered_party_on_a_basis_vector_is_moved_by_the_shift(self, d):
        # The clock phase leaves the party's basis vector where it is; the
        # cyclic shift moves it to an orthogonal one.
        rest = haar([2, 2], 65).vector()
        for k in range(d):
            vec = np.kron(rest, np.eye(d)[k])
            state = AmplitudeTensor.from_vector(vec, [2, 2, d])
            verdict = uniqueness_probe(state, [(0, 1)], rng=SeededRng(1))
            assert verdict.verdict == NON_UNIQUE
            assert verdict.decided_by == "uncovered_party"
            assert verdict.pairwise_distances[0] == pytest.approx(1.0, abs=1e-12)
            assert verdict.max_marginal_residual < 1e-12

    def test_non_unique_verdict_invariant(self):
        verdict = uniqueness_probe(ghz_state(3), PAIRS3, rng=SeededRng(2))
        assert verdict.verdict == NON_UNIQUE
        assert len(verdict.witnesses) >= 2
        assert all(d > 1e-4 for d in verdict.pairwise_distances)
        assert verdict.max_marginal_residual < 1e-9
        for w in verdict.witnesses:
            assert abs(np.trace(w.matrix).real - 1.0) < 1e-10
            assert np.linalg.eigvalsh(w.matrix)[0] >= -1e-10

    @pytest.mark.parametrize("a", [None, 0.3, 0.55, 0.8])
    def test_ghz_family_restarts_run_on_the_face(self, a):
        # K = span{|000>, |111>}: the restarts run on 2 x 2 matrices, and the
        # lifted witness is checked here in the full space, from partial
        # traces computed by loops.
        state = ghz_state(3, a)
        verdict = uniqueness_probe(state, PAIRS3, rng=SeededRng(4))
        assert verdict.verdict == NON_UNIQUE and verdict.face_dim == 2
        rho, witness = verdict.witnesses[0].matrix, verdict.witnesses[1].matrix
        assert witness.shape == (8, 8)
        for subset in PAIRS3:
            diff = slow_partial_trace(witness, (2, 2, 2), subset) - \
                slow_partial_trace(rho, (2, 2, 2), subset)
            assert np.linalg.norm(diff) < 1e-9
        assert abs(np.trace(witness) - 1.0) <= 1e-9
        assert np.abs(witness - witness.conj().T).max() <= 1e-9
        assert np.linalg.eigvalsh(witness)[0] >= -1e-9
        assert trace_distance(witness, rho) > 1e-4

    def test_capped_restart_is_not_a_return(self, monkeypatch):
        # A restart stopped by the iteration cap at the reference says
        # nothing; the uncertified probe must not call that UNIQUE.
        state = ambiguous_state()
        config = ProjectionConfig(restarts=2, max_iterations=300)

        def capped(starts, op, max_iterations, tol):
            reference = to_density(state).matrix
            n = len(starts)
            return (np.array([reference] * n), np.full(n, max_iterations),
                    np.zeros(n, dtype=bool))

        monkeypatch.setattr(feasibility, "_dykstra_batch", capped)
        verdict = uniqueness_probe(state, PAIRS3, config, rng=SeededRng(1))
        assert not verdict.certified
        assert [r.outcome for r in verdict.runs] == ["not_converged"] * 2
        assert verdict.verdict == INCONCLUSIVE

    def test_witness_stable_under_one_ulp_jacobian_change(self, monkeypatch):
        base = uniqueness_probe(ghz_state(3), PAIRS3, rng=SeededRng(3)).witnesses[1].matrix
        lstsq = np.linalg.lstsq

        def scaled(a, b, rcond=None):
            return lstsq(a * (1 + 2.0 ** -52), b, rcond=rcond)

        monkeypatch.setattr(np.linalg, "lstsq", scaled)
        moved = uniqueness_probe(ghz_state(3), PAIRS3, rng=SeededRng(3)).witnesses[1].matrix
        assert np.abs(moved - base).max() <= 1e-12


def random_unit(rng, t):
    v = rng.standard_normal(t) + 1j * rng.standard_normal(t)
    return v / np.linalg.norm(v)


def on_ray(psi, w, t):
    r = np.outer(psi, psi.conj())
    return r + t * (w - r)


class TestExitParameter:
    @pytest.mark.parametrize("t", [2, 8, 16])
    def test_ray_leaves_the_psd_cone_at_the_exit(self, np_rng, t):
        for _ in range(5):
            w, psi = random_density(np_rng, t), random_unit(np_rng, t)
            exit_t = _exit_parameter(psi, w)
            assert 1 < exit_t < np.inf
            assert np.linalg.eigvalsh(on_ray(psi, w, exit_t * (1 - 1e-9)))[0] >= -1e-12
            assert np.linalg.eigvalsh(on_ray(psi, w, 1.001 * exit_t))[0] < 0

    @pytest.mark.parametrize("t", [2, 8, 16])
    def test_reference_outside_the_range_exits_at_the_witness(self, np_rng, t):
        psi = random_unit(np_rng, t)
        perp = np.eye(t) - np.outer(psi, psi.conj())
        w = perp @ random_density(np_rng, t) @ perp
        assert _exit_parameter(psi, w / np.trace(w).real) == 1.0

    @pytest.mark.parametrize("a", [None, 0.3, 0.55, 0.8])
    def test_chord_ends_on_a_pure_state_of_the_ghz_face(self, a):
        state = ghz_state(3, a)
        cs = MarginalConstraintSet.from_state(state, PAIRS3)
        face = _face_certificate(cs, ConstraintOperator(cs), _DISTINCTNESS_TOL)[2]
        assert face.shape == (8, 2)
        rho = to_density(state).matrix
        psi = face.conj().T @ state.vector()
        witness = uniqueness_probe(state, PAIRS3, rng=SeededRng(4)).witnesses[1]
        # The probe's witness and the dephased mixture, on the face.
        mix = np.diag(np.diag(rho))
        for w in (witness.matrix, mix):
            w_face = face.conj().T @ w @ face
            end = on_ray(psi, w_face, _exit_parameter(psi, w_face))
            vals = np.linalg.eigvalsh(end)
            assert abs(vals[0]) <= 1e-9 and abs(vals[1] - 1) <= 1e-9
            lifted = face @ end @ face.conj().T
            for subset in PAIRS3:
                diff = slow_partial_trace(lifted, (2, 2, 2), subset) - \
                    slow_partial_trace(rho, (2, 2, 2), subset)
                assert np.abs(diff).max() <= 1e-9
        # diag(a^2, b^2) = (R + R') / 2, R' the GHZ state with its sign flipped.
        mix_face = face.conj().T @ mix @ face
        assert abs(_exit_parameter(psi, mix_face) - 2) <= 1e-9


@pytest.fixture
def probe_calls(monkeypatch):
    """Counts the calls of the witness pursuit and of Gauss-Newton
    certification (the pursuit's own calls included)."""
    counts = {"_pursue_far": 0, "_certify": 0}
    for name in counts:
        def counted(*args, _real=getattr(feasibility, name), _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(feasibility, name, counted)
    return counts


class TestFaceOperator:
    def test_restricted_map_built_once_per_probe(self, monkeypatch):
        # The face certificate and the face restarts share one restricted map.
        calls = []
        real = feasibility._restricted_map

        def counted(op, basis):
            calls.append(basis.shape)
            return real(op, basis)

        monkeypatch.setattr(feasibility, "_restricted_map", counted)
        verdict = uniqueness_probe(ghz_state(3), PAIRS3, rng=SeededRng(1))
        assert verdict.verdict == NON_UNIQUE and verdict.face_dim == 2
        assert calls == [(8, 2)]


TEN_QUBIT_HALVES = [(0, 1, 2, 3, 4, 5, 6), (0, 1, 2, 3, 7, 8, 9)]

LAYOUT_CASES = {
    "3-qubit pairs": ((2, 2, 2), PAIRS3),
    "4x2x2 AB/AC": ((4, 2, 2), ABAC),
    "5-qubit triples": ((2,) * 5, TRIPLES5),
    "4-qubit pairs": ((2,) * 4, PAIRS4),
    "332 unsorted subset": ((3, 3, 2), [(1, 0), (1, 2)]),
    "repeated subset": ((2, 2, 2), [(0, 1), (1, 2), (0, 1)]),
    "232 AB/BC, one 6x6 stack of two party shapes": ((2, 3, 2), [(0, 1), (1, 2)]),
}


def mixed_constraints(dims, subsets, seed):
    """Each subset's target from its own Haar state, so a label that
    several subsets pin gets disagreeing values to average."""
    signature = PartySignature(dims)
    return MarginalConstraintSet(signature, [
        (s, DensityMatrix(signature.subsystem(sorted(s)), partial_trace_matrix(
            to_density(haar(dims, seed + i)).matrix, dims, sorted(s))))
        for i, s in enumerate(subsets)])


class TestConstraintLayout:
    @pytest.mark.parametrize("dims, subsets", LAYOUT_CASES.values(), ids=LAYOUT_CASES)
    def test_fields_equal_the_label_by_label_build(self, dims, subsets):
        feasibility._constraint_layout.cache_clear()
        for seed in (10, 20):       # a cold layout, then the cached one
            cs = mixed_constraints(dims, subsets, seed)
            op = ConstraintOperator(cs)
            labels, _, target, weights = reference_constraint_fields(cs)
            grid = [d * d for d in dims]
            assert list(zip(*np.unravel_index(op.labels, grid))) == labels
            # The transform and the Hilbert-Schmidt products round apart.
            assert np.abs(op.target - target).max() <= 2 * np.finfo(float).eps
            assert np.array_equal(op.weights, weights)

    def test_no_build_calls_product_operators(self):
        # The dense stack is the tests' reference (conftest), not the library's.
        assert not hasattr(feasibility, "product_operators")
        assert not hasattr(tensor, "product_operators")
        for dims, subsets in LAYOUT_CASES.values():
            feasibility._constraint_layout.cache_clear()
            for seed in (1, 2):     # a cold layout, then the cached one
                ConstraintOperator(mixed_constraints(dims, subsets, seed))

    def test_ten_qubit_halves_build_stays_small(self):
        # The paper's (4, 3, 3) grouping of 10 qubits: two 7-qubit marginals,
        # 32512 pinned labels. A subset's own d_S^4 coordinate matrix alone
        # would take 2 GB.
        feasibility._constraint_layout.cache_clear()
        state = haar((2,) * 10, 1)
        tracemalloc.start()
        try:
            op = ConstraintOperator(MarginalConstraintSet.from_state(state, TEN_QUBIT_HALVES))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        feasibility._constraint_layout.cache_clear()
        assert len(op.labels) == 2 * 4 ** 7 - 4 ** 4
        assert peak < 100 * 2 ** 20

    def test_shared_layout_is_read_only(self):
        op = ConstraintOperator(mixed_constraints((2, 2, 2), PAIRS3, 1))
        other = ConstraintOperator(mixed_constraints((2, 2, 2), PAIRS3, 2))
        assert other.labels is op.labels and other.weights is op.weights
        with pytest.raises(ValueError):
            op.labels[0] = 1
        with pytest.raises(ValueError):
            op.weights[0] = 1.0


PARITY_CASES = {**LAYOUT_CASES,
                "333 pairs": ((3, 3, 3), PAIRS3),
                "234 AB/BC": ((2, 3, 4), [(0, 1), (1, 2)])}


def unit_hermitian(np_rng, t, batch=()):
    """Hermitian matrices of unit Frobenius norm."""
    x = np.stack([random_hermitian(np_rng, t) for _ in range(int(np.prod(batch)))])
    x /= np.linalg.norm(x, axis=(1, 2))[:, None, None]
    return x.reshape(tuple(batch) + (t, t))


def assert_matches_dense_reference(cs, np_rng):
    """Projection, kernel projection, pinned coefficients, restricted map and
    the products ``B_l V`` of the party-by-party transform agree with the
    dense operator stack."""
    op, ref = ConstraintOperator(cs), DenseConstraintOperator(cs)
    t = op.total_dim
    x = unit_hermitian(np_rng, t)
    xs = unit_hermitian(np_rng, t, (3,))
    assert np.abs(op.project(x) - ref.project(x)).max() < 1e-13
    assert np.abs(op.project(xs) - ref.project(xs)).max() < 1e-13
    assert np.abs(op.project_kernel(x) - ref.project_kernel(x)).max() < 1e-13
    assert np.abs(op.coefficients(xs) - ref.coefficients(xs)).max() < 1e-13
    for k in (1, min(3, t)):
        basis, _ = np.linalg.qr(np_rng.standard_normal((t, k))
                                + 1j * np_rng.standard_normal((t, k)))
        assert np.abs(_restricted_map(op, basis) - ref.restricted_map(basis)).max() < 1e-13
    for r in (1, 3):
        v = np_rng.standard_normal((t, r)) + 1j * np_rng.standard_normal((t, r))
        assert np.abs(op.operators_on(v) - ref.ops @ v).max() < 1e-13


class TestTransformParity:
    @pytest.mark.parametrize("dims, subsets", PARITY_CASES.values(), ids=PARITY_CASES)
    def test_matches_the_dense_rows(self, dims, subsets, np_rng):
        assert_matches_dense_reference(mixed_constraints(dims, subsets, 30), np_rng)

    @settings(max_examples=25)
    @given(st.data())
    def test_matches_the_dense_rows_on_random_shapes(self, data):
        dims = tuple(data.draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=4)))
        parties = st.sets(st.integers(0, len(dims) - 1), min_size=1)
        subsets = [sorted(s) for s in data.draw(st.lists(parties, min_size=1, max_size=3))]
        seed = data.draw(st.integers(0, 1000))
        cs = mixed_constraints(dims, subsets, seed)
        t = int(np.prod(dims))
        # Keep the dense reference, T^2 complex entries per pinned label, small.
        assume(len(ConstraintOperator(cs).labels) * t * t <= 2_000_000)
        assert_matches_dense_reference(cs, np.random.default_rng(seed))

    @pytest.mark.parametrize("dims, subsets, seed", [
        ((2, 2, 2), PAIRS3, 70), ((4, 2, 2), ABAC, 73), ((2,) * 5, TRIPLES5, 75),
        ((2,) * 4, PAIRS4, 80), ((3, 3, 2), [(0, 1), (1, 2)], 81)])
    def test_support_sum_equals_the_kron_build(self, dims, subsets, seed):
        # One eigh per marginal, and P_S (x) I by np.kron, bit for bit.
        cs = MarginalConstraintSet.from_state(haar(dims, seed), subsets)
        t = int(np.prod(dims))
        want, gaps, eta = np.zeros((t, t), dtype=complex), [], 0.0
        for subset, target in cs.constraints:
            vals, vecs = np.linalg.eigh(target.matrix)
            zero = vals <= _GAP_ZERO
            gaps.append(float(vals[~zero].min()))
            eta += float(np.abs(vals[zero]).sum())
            kernel = vecs[:, zero]
            want += kron_on_parties(kernel @ kernel.conj().T, dims, subset)
        got = _support_sum(cs)
        assert np.array_equal(got[0], want)
        assert got[1:] == (gaps, eta)


def kron_on_parties(local, dims, subset):
    """``local`` on ``subset`` and the identity elsewhere, by ``np.kron``."""
    n = len(dims)
    rest = [p for p in range(n) if p not in subset]
    order = list(subset) + rest
    full = np.kron(local, np.eye(int(np.prod([dims[p] for p in rest]))))
    back = list(np.argsort(order))
    t = int(np.prod(dims))
    return full.reshape([dims[p] for p in order] * 2).transpose(
        back + [n + i for i in back]).reshape(t, t)


SEVEN_QUBIT_HALVES = [(0, 1, 2, 3, 4), (0, 1, 2, 5, 6)]


class TestRowsFree:
    def test_warm_probes_build_no_product_operators(self):
        # No library module has the dense stack any more; the conftest copy
        # is the tests' reference.
        assert not hasattr(feasibility, "product_operators")
        assert not hasattr(tensor, "product_operators")
        triples, ghz, pairs = haar((2,) * 5, 75), ghz_state(3), haar((2,) * 4, 3)
        assert uniqueness_probe(triples, TRIPLES5, rng=SeededRng(1)).decided_by == "certificate"
        verdict = uniqueness_probe(ghz, PAIRS3, rng=SeededRng(1))
        assert verdict.verdict == NON_UNIQUE and verdict.face_dim == 2
        verdict = uniqueness_probe(pairs, PAIRS4, rng=SeededRng(1))
        assert verdict.verdict == UNIQUE and verdict.decided_by == "parent_hamiltonian"

    def test_seven_qubit_parent_hamiltonian_stays_small(self):
        # Haar 7-qubit triples: no marginal has a kernel, 1156 pinned labels.
        # A dense stack of their 128 x 128 operators alone would take 300 MB.
        state = haar((2,) * 7, 1)
        op = ConstraintOperator(MarginalConstraintSet.from_state(
            state, list(itertools.combinations(range(7), 3))))
        tracemalloc.start()
        try:
            held, gap, _ = _parent_hamiltonian(state.vector(), op, _DISTINCTNESS_TOL)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held and gap >= _GAP_MIN
        assert peak < 12 * 2 ** 20

    def test_seven_qubit_certified_probe_stays_small(self):
        # A dense matrix of the 1984 pinned rows alone would take 260 MB.
        feasibility._constraint_layout.cache_clear()
        state = haar((2,) * 7, 1)
        tracemalloc.start()
        try:
            verdict = uniqueness_probe(state, SEVEN_QUBIT_HALVES, rng=SeededRng(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdict.verdict == UNIQUE and verdict.decided_by == "certificate"
        assert peak < 100 * 2 ** 20


class TestOnePass:
    def test_certified_probe_checks_and_decomposes_each_marginal_once(self, monkeypatch,
                                                                      linalg_calls):
        state = haar((2,) * 5, 75)
        uniqueness_probe(state, TRIPLES5, rng=SeededRng(1))        # warm the layout
        calls = {}

        def count(owner, name):
            real = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)

        count(tensor, "_validate_subset")
        count(feasibility, "_validate_subset")
        count(DensityMatrix, "__post_init__")
        linalg_calls.record("eigh", "eigvalsh")
        verdict = uniqueness_probe(state, TRIPLES5, rng=SeededRng(1))
        assert verdict.decided_by == "certificate"
        # One validation per key, no validating constructor (rho is formed
        # from the checked state), one eigh each for the marginal stack, the
        # support sum and the PSD step of the cross-check, and one eigvalsh,
        # for the run's distance.
        assert calls == {"_validate_subset": len(TRIPLES5)}
        assert (linalg_calls.count("eigh"), linalg_calls.count("eigvalsh")) == (3, 1)

    def test_witness_path_decomposes_and_evaluates_each_point_once(self, monkeypatch,
                                                                   linalg_calls):
        linalg_calls.record("eigh", "eigvalsh", "lstsq")
        faces = []
        per_certify = []

        def certify(candidate, op, _real=feasibility._certify):
            before = len(linalg_calls.calls)
            out = _real(candidate, op)
            per_certify.append((linalg_calls.count("eigh", before),
                                linalg_calls.count("eigvalsh", before)))
            return out

        face_op = feasibility._FaceOperator
        points, stacks = [], []

        def init(self, *args, _real=face_op.__init__):
            faces.append(self)
            _real(self, *args)

        def weighted_residual(self, e_mat, _real=face_op.weighted_residual):
            points.append(np.ascontiguousarray(e_mat).tobytes())
            return _real(self, e_mat)

        def weighted_products(self, a, _real=face_op.weighted_products):
            stacks.append(self._weighted_ops)
            return _real(self, a)

        monkeypatch.setattr(feasibility, "_certify", certify)
        monkeypatch.setattr(face_op, "__init__", init)
        monkeypatch.setattr(face_op, "weighted_residual", weighted_residual)
        monkeypatch.setattr(face_op, "weighted_products", weighted_products)
        verdict = uniqueness_probe(ghz_state(3), PAIRS3, rng=SeededRng(1))
        assert verdict.verdict == NON_UNIQUE and verdict.face_dim == 2
        # One call for the stack of 8 restarts and one for each of the 7
        # pursuit candidates, one eigh each and no eigvalsh; one face
        # operator, whose one weighted stack each of the 22 Gauss-Newton
        # steps reads; 37 points evaluated, none of them twice.
        assert per_certify == [(1, 0)] * 8
        assert len(faces) == 1 and linalg_calls.count("lstsq") == len(stacks) == 22
        assert all(stack is stacks[0] for stack in stacks)
        assert len(points) == len(set(points)) == 37

    @settings(max_examples=40)
    @given(st.data())
    def test_batched_marginals_equal_the_one_by_one_build(self, data):
        dims = tuple(data.draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=4)))
        party = st.integers(0, len(dims) - 1)
        # Unsorted keys, and the same subset more than once.
        subsets = data.draw(st.lists(st.lists(party, min_size=1, max_size=len(dims),
                                              unique=True), min_size=1, max_size=4))
        subsets += data.draw(st.lists(st.sampled_from(subsets), max_size=2))
        state = haar(dims, data.draw(st.integers(0, 1000)))
        rho = to_density(state)
        cs = MarginalConstraintSet._from_density(rho, subsets)
        assert [key for key, _ in cs.constraints] == [tuple(sorted(s)) for s in subsets]
        for subset, target in cs.constraints:
            assert np.array_equal(target.matrix,
                                  partial_trace_matrix(rho.matrix, dims, subset))
        for members, stack, vals, vecs in cs._stacks:
            want = np.linalg.eigh(np.stack([cs.constraints[i][1].matrix for i in members]))
            assert np.array_equal(vals, want[0]) and np.array_equal(vecs, want[1])
        assert sorted(i for members, *_ in cs._stacks for i in members) == \
            list(range(len(subsets)))

    @settings(max_examples=20)
    @given(st.data())
    def test_negative_marginal_is_refused(self, data):
        # rho's eigenvalues reach down to -0.9 PSD_ATOL, which its own check
        # allows; a marginal sums d_rest >= 2 of them on its first diagonal
        # entry, below -PSD_ATOL.
        dims = tuple(data.draw(st.lists(st.sampled_from([2, 3]), min_size=2, max_size=4)))
        n = len(dims)
        subset = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1,
                                    unique=True))
        diag = np.zeros(dims)
        first = tuple(0 if p in subset else slice(None) for p in range(n))
        diag[first] = -0.9 * PSD_ATOL
        diag[(1,) * n] = 1 - diag.sum()
        rho = DensityMatrix(PartySignature(dims), np.diag(diag.reshape(-1)).astype(complex))
        with pytest.raises(ValueError, match="matrix has negative eigenvalue"):
            MarginalConstraintSet._from_density(rho, [subset])


def leaky_ghz_state(eps=9e-7):
    """The 4-qubit GHZ state plus an amplitude ``eps`` on |0101>. Each ring
    marginal gains the eigenvalue eps^2 = 8.1e-13 on a vector that the GHZ
    state's environment never meets, below ``_GAP_ZERO``: K stays
    span{|0000>, |1111>} while psi has weight eps^2 outside it."""
    vec = np.zeros(16, dtype=complex)
    vec[0] = vec[15] = np.sqrt((1 - eps ** 2) / 2)
    vec[5] = eps
    return AmplitudeTensor.from_vector(vec, [2] * 4)


def parity_ghz_state(seed):
    """The ``ghz_pairs`` states of ``tests/test_probe_parity.py``."""
    rng = np.random.default_rng(300 + seed)
    a = float(np.sqrt(rng.uniform(0.2, 0.8)))
    u = np.kron(np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2)), haar_unitary(rng, 2))
    return AmplitudeTensor.from_vector(u @ ghz_state(3, a).vector(), [2, 2, 2])


FACE_CASES = {f"ghz_pairs-{seed}": (parity_ghz_state(seed), PAIRS3, False)
              for seed in range(5)}
FACE_CASES["leaky-ghz4-ring"] = (leaky_ghz_state(), RING4, True)


class TestFaceMeasures:
    @pytest.mark.parametrize("state, subsets, leaks", FACE_CASES.values(), ids=FACE_CASES)
    def test_distances_equal_the_lifted_trace_distance(self, monkeypatch, state, subsets,
                                                       leaks):
        # Every distance the probe measures (runs, witnesses, the pursuit's
        # candidates) is taken in span(V, psi); each must equal the T x T
        # trace distance of the lifted matrix from rho.
        faces, measured, pursuit = [], [], []
        real_face, real_distances = feasibility._face_certificate, feasibility._distances

        def face_certificate(*args):
            out = real_face(*args)
            faces.append(out[2])
            return out

        def distances(x, block):
            out = real_distances(x, block)
            measured.append((x.copy(), out))
            return out

        def pursue_far(*args, _real=feasibility._pursue_far):
            start = len(measured)
            out = _real(*args)
            pursuit.append((start, len(measured)))
            return out

        monkeypatch.setattr(feasibility, "_face_certificate", face_certificate)
        monkeypatch.setattr(feasibility, "_distances", distances)
        monkeypatch.setattr(feasibility, "_pursue_far", pursue_far)
        verdict = uniqueness_probe(state, subsets, rng=SeededRng(1))
        assert verdict.verdict == NON_UNIQUE and verdict.face_dim == 2
        [face] = faces
        rho = to_density(state).matrix
        outside = np.linalg.norm(state.vector() - face @ (face.conj().T @ state.vector()))
        assert (outside > 1e-8) == leaks
        assert [r.distance for r in verdict.runs] == list(measured[0][1])
        [(lo, hi)] = pursuit
        assert hi > lo
        missed = np.zeros(len(measured))
        for i, (stack, got) in enumerate(measured):
            for x, d in zip(stack, got):
                assert abs(d - trace_distance(face @ x @ face.conj().T, rho)) <= 1e-12
                missed[i] = max(missed[i],
                                abs(d - trace_distance(x, face.conj().T @ rho @ face)))
        assert abs(verdict.pairwise_distances[0] -
                   trace_distance(verdict.witnesses[1].matrix, rho)) <= 1e-12
        # Off the face, the bare k x k difference against V^+ rho V misses
        # the weight of psi outside K, in the probe's measurements and in the
        # pursuit's alike.
        assert (missed.max() > 1e-12) == leaks
        assert (missed[lo:hi].max() > 1e-12) == leaks

    def test_seven_qubit_ghz_ring_decomposes_no_whole_space_matrix_but_the_support_sum(
            self, monkeypatch, linalg_calls):
        n, t = 7, 2 ** 7
        ring = [(i, (i + 1) % n) for i in range(n)]
        uniqueness_probe(ghz_state(n), ring, rng=SeededRng(1))      # warm the layout
        linalg_calls.record("eigh", "eigvalsh")
        transforms = []
        built = []
        for name in ("_product_coefficients", "_product_combination"):
            def transform(*args, _real=getattr(feasibility, name), _name=name):
                if built:
                    transforms.append(_name)
                return _real(*args)
            monkeypatch.setattr(feasibility, name, transform)

        def init(self, *args, _real=feasibility._FaceOperator.__init__):
            _real(self, *args)
            built.append(self)

        monkeypatch.setattr(feasibility._FaceOperator, "__init__", init)
        verdict = uniqueness_probe(ghz_state(n), ring, rng=SeededRng(1))
        assert verdict.verdict == NON_UNIQUE and verdict.face_dim == 2
        # The support sum's eigh is the only T x T decomposition, and once
        # the face operator is built no product-operator transform runs.
        assert [call[:2] for call in linalg_calls.calls if call[1][-1] == t] == [("eigh", (t, t))]
        assert len(built) == 1 and transforms == []


@pytest.fixture
def dykstra_starts(monkeypatch):
    """The starting points of every ``_dykstra_batch`` call, one array per call."""
    calls = []
    real = feasibility._dykstra_batch

    def recorded(starts, *args):
        calls.append(starts.copy())
        return real(starts, *args)

    monkeypatch.setattr(feasibility, "_dykstra_batch", recorded)
    return calls


class TestCertifiedCrossCheck:
    @pytest.mark.parametrize("state, subsets, decided_by", [
        (haar([2, 2, 2], 60), PAIRS3, "certificate"),
        (haar([2, 2, 2, 2], 1003), PAIRS4, "parent_hamiltonian"),
    ], ids=["face", "parent_hamiltonian"])
    def test_one_run_stands_for_every_restart(self, dykstra_starts, state, subsets,
                                               decided_by):
        config = ProjectionConfig()
        verdict = uniqueness_probe(state, subsets, config, rng=SeededRng(1))
        assert verdict.certified and verdict.decided_by == decided_by
        assert [len(starts) for starts in dykstra_starts] == [1]
        assert np.array_equal(dykstra_starts[0][0], to_density(state).matrix)
        assert len(verdict.runs) == config.restarts
        assert len(set(verdict.runs)) == 1

    def test_uncertified_probe_runs_distinct_starts(self, dykstra_starts):
        config = ProjectionConfig()
        verdict = uniqueness_probe(ghz_state(3), PAIRS3, config, rng=SeededRng(1))
        assert not verdict.certified
        [starts] = dykstra_starts
        assert len({s.tobytes() for s in starts}) == config.restarts
        assert len(verdict.runs) == config.restarts


class TestWitnessPursuit:
    def test_non_unique_probe_pursues_one_witness(self, probe_calls):
        verdict = uniqueness_probe(ghz_state(3), PAIRS3, rng=SeededRng(1))
        assert verdict.verdict == NON_UNIQUE
        assert sum(r.outcome == "witness" for r in verdict.runs) > 1
        assert probe_calls["_pursue_far"] == 1

    def test_certified_probe_neither_certifies_nor_pursues(self, probe_calls):
        verdict = uniqueness_probe(haar([2, 2, 2], 60), PAIRS3, rng=SeededRng(1))
        assert verdict.certified
        assert probe_calls == {"_pursue_far": 0, "_certify": 0}

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_reported_witness_is_the_farthest(self, seed):
        verdict = uniqueness_probe(ghz_state(3, 0.55), PAIRS3, rng=SeededRng(seed))
        reported = verdict.pairwise_distances[0]
        witness_runs = [r for r in verdict.runs if r.outcome == "witness"]
        assert witness_runs
        assert all(reported >= r.distance for r in witness_runs)


class TestWholeSpacePolish:
    @pytest.mark.parametrize("n, subsets", [(3, PAIRS3), (4, RING4)],
                             ids=["ghz3-pairs", "ghz4-ring"])
    def test_certify_polishes_to_a_distinct_witness(self, n, subsets, np_rng):
        # A probe of these states polishes on the face K; here the polish
        # runs on the whole-space operator, the path of states whose
        # marginals have no kernel, from the GHZ mixture plus noise.
        state = ghz_state(n)
        op = ConstraintOperator(MarginalConstraintSet.from_state(state, subsets))
        t = 2 ** n
        start = np.zeros((t, t), dtype=complex)
        start[0, 0] = start[-1, -1] = 0.5
        noise = random_hermitian(np_rng, t)
        start += 0.02 * noise / np.linalg.norm(noise)
        [w] = feasibility._certify(start[None], op)
        assert w is not None
        verified, residuals, _ = _verify_witness(w[None], None, op, ProjectionConfig())
        assert verified[0] and residuals[0] == op.constraints.marginal_residual(w)
        assert op.constraints.marginal_residual(w) < 1e-13
        assert abs(trace_distance(w, to_density(state).matrix) - 0.5) < 0.01


def rotate_parties(state, unitaries):
    """``(U_1 (x) ... (x) U_n) psi``, one factor per party axis."""
    amps = state.amplitudes
    for party, u in enumerate(unitaries):
        amps = np.moveaxis(np.tensordot(u, amps, axes=([1], [party])), 0, party)
    return AmplitudeTensor(state.signature, amps)


def permute_parties(state, subsets, perm):
    """New party j is old party ``perm[j]``; each subset is renamed to match."""
    where = np.argsort(perm)
    amps = np.transpose(state.amplitudes, perm)
    renamed = [tuple(sorted(int(where[p]) for p in s)) for s in subsets]
    return AmplitudeTensor(PartySignature(amps.shape), amps), renamed


ORACLE_CASES = {
    # name: (dims, subsets, expected verdict, expected decided_by)
    "haar3-pairs": ((2, 2, 2), PAIRS3, UNIQUE, "certificate"),
    "haar4x2x2-abac": ((4, 2, 2), ABAC, UNIQUE, "certificate"),
    "ghz-family": ((2, 2, 2), PAIRS3, NON_UNIQUE, "dykstra"),
    "haar4-pairs": ((2, 2, 2, 2), PAIRS4, UNIQUE, "parent_hamiltonian"),
}


class TestOracleInvariance:
    """Verdict, deciding path, certification and face dimension are
    properties of the local-unitary orbit and do not depend on how the
    parties are numbered."""

    @settings(max_examples=50)
    @given(case=st.sampled_from(sorted(ORACLE_CASES)),
           state_seed=st.integers(0, 2 ** 32 - 1),
           unitary_seed=st.integers(0, 2 ** 32 - 1),
           a2=st.floats(0.3, 0.7),
           data=st.data())
    def test_probe_invariant_under_local_unitaries_and_party_relabelling(
            self, case, state_seed, unitary_seed, a2, data):
        dims, subsets, verdict, decided_by = ORACLE_CASES[case]
        state = ghz_state(3, np.sqrt(a2)) if case == "ghz-family" else haar(dims, state_seed)
        rng = np.random.default_rng(unitary_seed)
        rotated = rotate_parties(state, [haar_unitary(rng, d) for d in dims])
        perm = data.draw(st.permutations(range(len(dims))))
        relabelled, renamed = permute_parties(state, subsets, perm)
        restarts = SeededRng(1)

        def summary(v):
            return v.verdict, v.decided_by, v.certified, v.face_dim

        before = summary(uniqueness_probe(state, subsets, rng=restarts))
        assert before[:2] == (verdict, decided_by)
        assert summary(uniqueness_probe(rotated, subsets, rng=restarts)) == before
        assert summary(uniqueness_probe(relabelled, renamed, rng=restarts)) == before


class TestOracleProperties:
    @settings(max_examples=40)
    @given(a2=st.floats(0.2, 0.8),
           unitary_seed=st.integers(0, 2 ** 32 - 1),
           restart_seed=st.integers(0, 2 ** 32 - 1))
    def test_every_non_unique_witness_passes_fresh_verification(
            self, a2, unitary_seed, restart_seed):
        rng = np.random.default_rng(unitary_seed)
        state = rotate_parties(ghz_state(3, np.sqrt(a2)),
                               [haar_unitary(rng, 2) for _ in range(3)])
        verdict = uniqueness_probe(state, PAIRS3, rng=SeededRng(restart_seed))
        assert verdict.verdict == NON_UNIQUE
        rho, witness = verdict.witnesses[0].matrix, verdict.witnesses[1].matrix
        for subset in PAIRS3:
            diff = slow_partial_trace(witness, (2, 2, 2), subset) - \
                slow_partial_trace(rho, (2, 2, 2), subset)
            assert np.abs(diff).max() <= 1e-9
        assert abs(np.trace(witness) - 1) <= 1e-9
        assert np.abs(witness - witness.conj().T).max() <= 1e-9
        assert np.linalg.eigvalsh(witness)[0] >= -1e-10
        dist = trace_distance(witness, rho)
        assert dist > 1e-4
        assert abs(dist - verdict.pairwise_distances[0]) <= 1e-12

    @settings(max_examples=40)
    @given(case=st.sampled_from(sorted(c for c in ORACLE_CASES if c.startswith("haar"))),
           state_seed=st.integers(0, 2 ** 32 - 1),
           restart_seed=st.integers(0, 2 ** 32 - 1))
    def test_certificate_implies_unique(self, case, state_seed, restart_seed):
        dims, subsets, _, _ = ORACLE_CASES[case]
        verdict = uniqueness_probe(haar(dims, state_seed), subsets, rng=SeededRng(restart_seed))
        if verdict.certified:
            assert verdict.verdict == UNIQUE
            assert all(r.outcome == "returned_reference" and r.distance <= _DISTINCTNESS_TOL
                       for r in verdict.runs)

class TestProjectionConfig:
    def test_defaults(self):
        config = ProjectionConfig()
        assert config.max_iterations == 5000
        assert config.convergence_tol == 1e-9
        assert _DISTINCTNESS_TOL == 1e-4
        assert config.restarts == 8
        assert _PERTURBATION_SCALE == 0.1
        assert [f.name for f in dataclasses.fields(config)] == \
            ["max_iterations", "convergence_tol", "restarts"]

    def test_validation(self):
        with pytest.raises(ValueError):
            ProjectionConfig(max_iterations=0)
        with pytest.raises(ValueError):
            ProjectionConfig(convergence_tol=1e-3)
        with pytest.raises(ValueError):
            ProjectionConfig(convergence_tol=0.0)


class TestMarginalConstraintSet:
    def test_mismatched_target_rejected(self):
        sig = PartySignature([2, 2, 2])
        wrong = DensityMatrix(PartySignature([2]), np.eye(2, dtype=complex) / 2)
        with pytest.raises(ValueError, match="does not match"):
            MarginalConstraintSet(sig, [((0, 1), wrong)])

    def test_empty_subset_rejected(self):
        sig = PartySignature([2, 2])
        target = DensityMatrix(PartySignature([2]), np.eye(2, dtype=complex) / 2)
        with pytest.raises(ValueError, match="non-empty"):
            MarginalConstraintSet(sig, [((), target)])

    def test_covered_parties(self):
        state = haar([2, 2, 2], 63)
        cs = MarginalConstraintSet.from_state(state, [(0, 1), (1, 2)])
        assert cs.covered_parties() == {0, 1, 2}

    def test_marginal_residual_matches_loop_partial_traces(self, np_rng):
        state = haar([2, 2, 2], 64)
        cs = MarginalConstraintSet.from_state(state, [(0, 1), (1, 2)])
        assert cs.marginal_residual(to_density(state).matrix) < 1e-14
        other = random_hermitian(np_rng, 8)
        expected = max(np.linalg.norm(slow_partial_trace(other, (2, 2, 2), s) - t.matrix)
                       for s, t in cs.constraints)
        assert abs(cs.marginal_residual(other) - expected) < 1e-12


class TestGenericitySurvey:
    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            next(genericity_survey(PartySignature([2, 2, 2]), PAIRS3, 0, SeededRng(5)))

    def test_deterministic_and_unique_on_small_run(self):
        sig = PartySignature([2, 2, 2])
        a = [v.verdict for _, v in genericity_survey(sig, PAIRS3, 5, SeededRng(5))]
        b = [v.verdict for _, v in genericity_survey(sig, PAIRS3, 5, SeededRng(5))]
        assert a == b and len(a) == 5
        assert a.count(UNIQUE) >= 4

    def test_trial_draws_from_its_substreams(self):
        sig = PartySignature([2, 2, 2, 2])
        subsets = [(0, 1, 2), (0, 1, 3)]
        rng = SeededRng(6).spawn(2)
        trials = list(genericity_survey(sig, subsets, 3, rng))
        assert len(trials) == 3
        for t, (state, verdict) in enumerate(trials):
            expected = haar_random_state(sig, rng.spawn(t).spawn(0))
            assert np.array_equal(state.amplitudes, expected.amplitudes)
            alone = uniqueness_probe(expected, subsets, rng=rng.spawn(t).spawn(1))
            assert (verdict.verdict, verdict.decided_by, verdict.runs) == \
                (alone.verdict, alone.decided_by, alone.runs)
            # The (m=1) split seen at party granularity: subsets {ABC, ABD}.
            assert verdict.verdict == UNIQUE


def certificate(state, subsets, tol=1e-4):
    """``(holds, gap)`` of the face certificate."""
    cs = MarginalConstraintSet.from_state(state, subsets)
    return _face_certificate(cs, ConstraintOperator(cs), tol)[:2]


def ambiguous_state(eps=1e-6):
    """Schmidt weights (1 - eps, eps) across AB|C put eps in the spectrum of
    the AB marginal, inside the band that reads neither as zero nor as
    support."""
    q, _ = np.linalg.qr(SeededRng(99).complex_normal((4, 4)))
    vec = np.sqrt(1 - eps) * np.kron(q[:, 0], [1, 0]) + \
        np.sqrt(eps) * np.kron(q[:, 1], [0, 1])
    return AmplitudeTensor.from_vector(vec, [2, 2, 2])


class TestFaceCertificate:
    def test_on_parties_matches_kron(self, np_rng):
        x, z = PAULI[1], PAULI[3]
        got = np.zeros((8, 8), dtype=complex)
        _add_on_parties(got, np.kron(x, z), (2, 2, 2), (0, 2))
        assert np.array_equal(got, kron_all([x, np.eye(2), z]))
        h = random_hermitian(np_rng, 3)
        got = np.zeros((12, 12), dtype=complex)
        _add_on_parties(got, np.kron(h, z), (3, 2, 2), (0, 2))
        assert np.array_equal(got, kron_all([h, np.eye(2), z]))

    @pytest.mark.parametrize("dims,subsets,seed", [
        ((2, 2, 2), PAIRS3, 70), ((2, 2, 2), PAIRS3, 71), ((2, 2, 2), PAIRS3, 72),
        ((4, 2, 2), ABAC, 73), ((4, 2, 2), ABAC, 74),
        ((2,) * 5, TRIPLES5, 75),
    ], ids=["3q-pairs-70", "3q-pairs-71", "3q-pairs-72", "4x2x2-abac-73",
            "4x2x2-abac-74", "5q-triples-75"])
    def test_certified_unique_agrees_with_full_dykstra_path(self, dims, subsets, seed):
        state = haar(dims, seed)
        config = ProjectionConfig()
        verdict = uniqueness_probe(state, subsets, config, rng=SeededRng(1))
        assert verdict.verdict == UNIQUE
        assert verdict.certified and verdict.decided_by == "certificate"
        assert verdict.certificate_gap >= _GAP_MIN
        assert verdict.face_dim == int(np.prod(dims))
        # The restarts start at the reference and cross-check in one step.
        assert [r.iterations for r in verdict.runs] == [1] * config.restarts
        # The full path: starts pushed along the constraint kernel all come back.
        rho = to_density(state).matrix
        op = ConstraintOperator(MarginalConstraintSet.from_state(state, subsets))
        starts = []
        for r in range(4):
            g = SeededRng(seed).spawn(r).complex_normal(rho.shape)
            kdir = op.project_kernel(g + g.conj().T)
            starts.append(rho + _PERTURBATION_SCALE * kdir / np.linalg.norm(kdir))
        outs, iters, _ = _dykstra_batch(np.array(starts), op, config.max_iterations,
                                        config.convergence_tol)
        assert min(iters) > 1
        for out in outs:
            assert trace_distance(out, rho) <= _DISTINCTNESS_TOL

    def test_product_state_certified_on_a_one_dimensional_face(self):
        # K is spanned by |000>: the restricted map has one column, on the
        # 1 x 1 identity, and the gap is its norm, sqrt(7/8). |000><000| has
        # weight 1/8 on each of IZ's 8 label tuples, and pairs pin all but ZZZ.
        state = AmplitudeTensor.from_vector(np.eye(8)[0], (2, 2, 2))
        verdict = uniqueness_probe(state, PAIRS3, rng=SeededRng(1))
        assert verdict.verdict == UNIQUE and verdict.decided_by == "certificate"
        assert verdict.certificate_gap == pytest.approx(0.9354143466934852, rel=1e-12)

    @pytest.mark.parametrize("a", [None, 0.3, 0.55, 0.8])
    def test_ghz_family_never_certified(self, a):
        holds, gap = certificate(ghz_state(3, a), PAIRS3)
        assert not holds and gap < _GAP_MIN

    @pytest.mark.parametrize("seed", [80, 81, 82])
    def test_four_qubit_pairs_never_certified(self, seed):
        # Every pair marginal has full rank: K is the whole space.
        holds, gap = certificate(haar([2, 2, 2, 2], seed), PAIRS4)
        assert not holds and gap == 0.0

    @pytest.mark.parametrize("seed", range(90, 98))
    def test_agrees_with_linear_test_on_4x2x2(self, seed):
        state = haar([4, 2, 2], seed)
        holds, _ = certificate(state, ABAC)
        assert holds
        assert check_linear_uniqueness(state).verdict == UNIQUE_LINEAR

    def test_ghz_inside_4x2x2_fails_both(self):
        vec = np.zeros(16)
        vec[0] = vec[15] = 2 ** -0.5
        state = AmplitudeTensor.from_vector(vec, [4, 2, 2])
        holds, _ = certificate(state, ABAC)
        assert not holds
        assert check_linear_uniqueness(state).verdict != UNIQUE_LINEAR

    def test_ambiguous_marginal_eigenvalue_falls_back_to_dykstra(self):
        eps = 1e-6
        assert _GAP_ZERO < eps < _GAP_MIN
        state = ambiguous_state(eps)
        holds, gap = certificate(state, PAIRS3)
        assert not holds and abs(gap - eps) < 1e-9
        config = ProjectionConfig(restarts=2, max_iterations=300)
        verdict = uniqueness_probe(state, PAIRS3, config, rng=SeededRng(1))
        assert not verdict.certified and verdict.decided_by == "dykstra"
        assert verdict.certificate_gap == gap
        # The whole-space path: an ambiguous value forbids the face.
        assert verdict.face_dim == 8
        assert all(r.iterations > 1 for r in verdict.runs)


def parent_hamiltonian(state, subsets, tol=1e-4):
    cs = MarginalConstraintSet.from_state(state, subsets)
    return _parent_hamiltonian(state.vector(), ConstraintOperator(cs), tol)


class TestParentHamiltonian:
    @pytest.mark.parametrize("seed", [1000, 1001, 1002])
    def test_certificate_is_a_local_gapped_parent_hamiltonian(self, seed):
        state = haar([2, 2, 2, 2], seed)
        holds, gap, h = parent_hamiltonian(state, PAIRS4)
        assert holds
        # Local: orthogonal to every operator no pair marginal sees.
        for x in constraint_nullspace(PartySignature([2] * 4), PAIRS4):
            assert abs(np.trace(h @ x)) < 1e-12
        psi = state.vector()
        energy = psi.conj() @ h @ psi
        assert np.abs(h @ psi - energy * psi).max() < 1e-12
        vals = np.linalg.eigvalsh(h)
        assert abs(vals[0] - energy.real) < 1e-12
        assert (vals[1] - vals[0]) / (vals[-1] - vals[0]) >= _GAP_MIN
        assert gap >= _GAP_MIN

    def test_probe_certifies_four_qubit_pairs(self):
        config = ProjectionConfig()
        verdict = uniqueness_probe(haar([2, 2, 2, 2], 1003), PAIRS4, config, rng=SeededRng(1))
        assert verdict.verdict == UNIQUE and verdict.certified
        assert verdict.decided_by == "parent_hamiltonian"
        assert verdict.certificate_gap >= _GAP_MIN
        assert verdict.face_dim == 16
        assert [r.iterations for r in verdict.runs] == [1] * config.restarts

    def test_certifies_almost_every_haar_state(self):
        held = sum(parent_hamiltonian(haar([2, 2, 2, 2], seed), PAIRS4)[0]
                   for seed in range(1000, 1040))
        assert held >= 38

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("a", [None, 0.3, 0.55, 0.8])
    def test_ghz_family_never_certified(self, a, n):
        holds, gap, _ = parent_hamiltonian(ghz_state(n, a),
                                           list(itertools.combinations(range(n), 2)))
        assert not holds and gap < _GAP_MIN
