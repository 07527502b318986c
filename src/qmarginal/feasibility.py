"""Uniqueness oracle over all density matrices via convex feasibility.

The states consistent with a set of prescribed marginals form the
intersection of an affine set (Hermitian, unit trace, matching partial
traces) with the positive-semidefinite cone. The affine set is written in
the orthonormal generalized Gell-Mann product-operator basis: the marginal
on a subset S fixes exactly the coefficients of the operators whose
support lies inside S, so the affine projection resets those coefficients
and the remaining operators span the null space of the marginal map. The
projection reads and writes those coefficients one party at a time, never
through a matrix of the operators themselves.
This module decides whether a pure state is the *only* point of that
intersection by multi-start Dykstra-corrected alternating projections,
with starting points biased along that null space (the only directions
in which a second consistent state can differ). A run that ends away from
the reference state is only accepted as a counterexample after an exact
certification step: the candidate is polished in factorized form
``W = A A^+`` (positive semidefinite by construction) with Gauss-Newton on
the marginal equations and verified directly against every constraint, so
NON_UNIQUE is constructive. Of the verified witnesses, the one whose
straight chord from the reference runs farthest through the feasible set
(an eigenvalue formula) is pushed outward to a well-separated point, and
the farthest verified point is reported.

UNIQUE is proved, where the marginals allow it, by one of two
certificates. The first is facial reduction (Borwein & Wolkowicz 1981)
with the support argument of Ticozzi & Viola 2012. Let ``P_S`` project onto
the kernel of the marginal ``rho_S``. A state with the same marginals has
``Tr(rho' P_S (x) I) = Tr(rho_S P_S) = 0`` for every S, so it lives on
``K = ker sum_S P_S (x) I``, the intersection of the marginal supports.
If the marginal map restricted to ``Herm(K)`` is injective, the reference
state is the only such state. When no marginal has a kernel, ``K`` is the
whole space and the second certificate is a parent Hamiltonian (Chen, Ji,
Zeng & Zhou 2012): a combination ``H`` of the product operators the
marginals pin, with the state as its ground state and a spectral gap. Every
state with the same marginals has the same energy ``Tr(H rho')``, so the
gap confines it to the ground space; Haar 4-qubit states are certified from
their pair marginals this way (the case of Wyderka, Huber & Guehne 2017).
Each certificate reads every eigenvalue and singular value it decides on
against two module thresholds, and holds only when none of them is
ambiguous and the rounding it admits stays within the distinctness
tolerance. Otherwise UNIQUE is the empirical verdict of the restarts, which
then run on Herm(K) when ``K`` is a proper subspace read without ambiguity
(a k x k problem, k = 2 for GHZ-type states), and on the whole space
otherwise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .tensor import (
    AmplitudeTensor,
    DensityMatrix,
    PartySignature,
    SeededRng,
    _check_density,
    _freeze,
    _partial_trace,
    _product_coefficients,
    _product_combination,
    _unit_basis,
    _validate_subset,
    haar_random_state,
    product_operators,
    to_density,
    trace_distance,
    trace_norm,
)

__all__ = [
    "UNIQUE",
    "NON_UNIQUE",
    "INCONCLUSIVE",
    "MarginalConstraintSet",
    "ProjectionConfig",
    "ConstraintOperator",
    "RunRecord",
    "FeasibilityVerdict",
    "constraint_nullspace",
    "project_psd",
    "uniqueness_probe",
    "genericity_survey",
]

UNIQUE = "UNIQUE"
NON_UNIQUE = "NON_UNIQUE"
INCONCLUSIVE = "INCONCLUSIVE"

RETURNED_REFERENCE = "returned_reference"
WITNESS = "witness"
RUN_INCONCLUSIVE = "inconclusive"
RUN_NOT_CONVERGED = "not_converged"

DECIDED_BY_CERTIFICATE = "certificate"
DECIDED_BY_PARENT_HAMILTONIAN = "parent_hamiltonian"
DECIDED_BY_DYKSTRA = "dykstra"
DECIDED_BY_UNCOVERED = "uncovered_party"

# Trace distance beyond which a consistent state counts as distinct from the
# reference, and the length of the kernel step that moves each restart's start.
_DISTINCTNESS_TOL = 1e-4
_PERTURBATION_SCALE = 0.1
_CERT_TOL = 1e-11          # Gauss-Newton residual needed to accept a witness
_PSD_VERIFY_ATOL = 1e-10   # witness eigenvalue floor at verification
# Face certificate: a marginal or support-sum eigenvalue at or below
# _GAP_ZERO is read as zero. Every value read as nonzero, and every
# singular value of the restricted marginal map, must reach _GAP_MIN;
# anything in between is ambiguous and leaves the verdict to Dykstra.
_GAP_ZERO = 1e-12
_GAP_MIN = 1e-3
# Parent-Hamiltonian ascent step cap. Of 460 Haar 4-qubit pair states most
# hold at the starting point, and none needed more than 12 steps.
_DUAL_STEPS = 60
# Gauss-Newton steps per polish, and extrapolation rounds per witness pursuit.
_POLISH_STEPS = 30
_PURSUIT_ROUNDS = 40
# Shapes (dims and subsets) whose constraint layout stays cached. A layout
# holds an integer and a float per pinned label and an integer per subset
# label: 0.75 MB for two 7-qubit subsets of 10 qubits (32512 labels).
_LAYOUT_CACHE_SIZE = 8


@dataclass(frozen=True)
class MarginalConstraintSet:
    """Affine constraints: one target reduced state per party subset.

    Each subset key is validated once, on the way in. The targets are also
    kept stacked by the local dimensions of their parties, with their
    spectra (``_stacks``, from :func:`_stacks_by_shape`): one ``eigh`` per
    stack, read by the face certificate's support sum, and one
    product-operator transform per stack, read by the
    :class:`ConstraintOperator` target. A set built from a state
    (:meth:`from_state`) traces each marginal once and runs the checks of
    :class:`DensityMatrix` on each stack, reading those eigenvalues, rather
    than one ``eigvalsh`` per marginal.
    """

    signature: PartySignature
    constraints: tuple[tuple[tuple[int, ...], DensityMatrix], ...]

    def __init__(self, signature: PartySignature,
                 constraints: Sequence[tuple[Sequence[int], DensityMatrix]]):
        keys, targets = [], []
        for subset, target in constraints:
            key = _validate_subset(subset, signature.n_parties)
            if target.dims != tuple(signature.dims[p] for p in key):
                raise ValueError(
                    f"target signature {target.dims} does not match subset {key}"
                )
            keys.append(key)
            targets.append(target)
        self._fill(signature, keys, targets, _stacks_by_shape(
            [target.matrix for target in targets], [target.dims for target in targets]))

    @classmethod
    def from_state(cls, state: AmplitudeTensor,
                   subsets: Sequence[Sequence[int]]) -> "MarginalConstraintSet":
        """Constraints whose targets are the reduced states of a pure state."""
        return cls._from_density(to_density(state), subsets)

    @classmethod
    def _from_density(cls, rho: DensityMatrix,
                      subsets: Sequence[Sequence[int]]) -> "MarginalConstraintSet":
        """Constraints whose targets are the reduced states of ``rho``."""
        signature = rho.signature
        dims = signature.dims
        keys = [_validate_subset(subset, signature.n_parties) for subset in subsets]
        sub_dims = [tuple(dims[p] for p in key) for key in keys]
        stacks = _stacks_by_shape([_partial_trace(rho.matrix, dims, key) for key in keys],
                                  sub_dims)
        targets = [None] * len(keys)
        for members, stack, vals, _ in stacks:
            _check_density(stack, vals)
            for j, i in enumerate(members):
                targets[i] = DensityMatrix._checked(PartySignature(sub_dims[i]), stack[j])
        self = cls.__new__(cls)
        self._fill(signature, keys, targets, stacks)
        return self

    def _fill(self, signature, keys, targets, stacks):
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "constraints", tuple(zip(keys, targets)))
        object.__setattr__(self, "_stacks", stacks)

    def covered_parties(self) -> set[int]:
        return set(p for s, _ in self.constraints for p in s)

    def marginal_residual(self, x_mat: np.ndarray) -> float:
        """Max Frobenius distance of constrained partial traces from targets."""
        worst = 0.0
        for subset, target in self.constraints:
            diff = _partial_trace(x_mat, self.signature.dims, subset) - target.matrix
            worst = max(worst, float(np.linalg.norm(diff)))
        return worst


def _stacks_by_shape(matrices: Sequence[np.ndarray], sub_dims: Sequence[tuple[int, ...]]):
    """Per distinct party shape ``(members, stack, vals, vecs)``: the
    indices of the matrices on parties of local dimensions ``sub_dims[i]``,
    the read-only stack of them and its ``np.linalg.eigh``. (2, 3) and
    (3, 2) marginals are both 6 x 6, but their product operators differ."""
    stacks = []
    for shape in dict.fromkeys(sub_dims):
        members = tuple(i for i, d in enumerate(sub_dims) if d == shape)
        stack = _freeze(np.stack([matrices[i] for i in members]))
        vals, vecs = np.linalg.eigh(stack)
        stacks.append((members, stack, vals, vecs))
    return tuple(stacks)


@dataclass(frozen=True)
class ProjectionConfig:
    """Knobs of the alternating-projection search.

    ``max_iterations`` caps each restart's Dykstra cycles, ``convergence_tol``
    is the trace-norm step at which a restart stops (and the marginal
    residual a witness must reach) and ``restarts`` is the number of starting
    points. Their randomness is the ``rng`` the caller passes to
    :func:`uniqueness_probe`. The distinctness tolerance and the length of
    the starting kernel step are the module constants ``_DISTINCTNESS_TOL``
    and ``_PERTURBATION_SCALE``.
    """

    max_iterations: int = 5000
    convergence_tol: float = 1e-9
    restarts: int = 8

    def __post_init__(self):
        if self.max_iterations < 1 or self.restarts < 1:
            raise ValueError("max_iterations and restarts must be positive")
        if not 0 < self.convergence_tol < _DISTINCTNESS_TOL:
            raise ValueError(f"convergence_tol must lie in (0, {_DISTINCTNESS_TOL:g})")


class ConstraintOperator:
    """The marginal-constraint map in orthonormal product-operator coordinates.

    Fixing the reduced state on a subset S fixes exactly the coefficients of
    the product operators (see :func:`product_operators`) whose support lies
    inside S. ``labels`` lists every such pinned operator over all
    constrained subsets, sorted, as a flat row-major index into the
    ``d_1^2 x ... x d_n^2`` grid of label tuples; the operators are
    orthonormal, so ``X - sum_l (Tr(X B_l) - target_l) B_l`` is the
    orthogonal projection onto the affine set. ``target`` holds the
    prescribed coefficients: a label pinned by several subsets takes the
    average of their values weighted by the dimension of each subset's
    complement (``weights`` holds the sum of those dimensions), which is the
    least-squares compromise when the targets disagree. Unit trace is the
    marginal on the empty subset, whose complement is the whole system.

    The coefficients are computed party by party, with no T^2-column matrix
    of the operators; only :meth:`operators` builds the operators, for the
    two readers that need them. ``labels`` and ``weights`` depend only on
    the dimensions and the subsets, so they come from
    :func:`_constraint_layout`, built once per shape and shared, read-only,
    by every operator of that shape; only ``target`` is computed per state.
    """

    def __init__(self, constraints: MarginalConstraintSet):
        self.constraints = constraints
        dims = constraints.signature.dims
        t = constraints.signature.total_dim
        self.dims = dims
        self.total_dim = t
        self.labels, self.weights, pinned = _constraint_layout(
            dims, tuple(subset for subset, _ in constraints.constraints))
        # Sum of weight * value per label, then divided by the summed weights.
        # Unit trace is the marginal on the empty subset: weight T, value
        # 1/sqrt(T), on the identity label, which sorts first.
        acc = np.zeros(len(self.weights))
        acc[0] = np.sqrt(t)
        for members, stack, _, _ in constraints._stacks:
            sub_dims = constraints.constraints[members[0]][1].dims
            for i, v in zip(members, _product_coefficients(stack, sub_dims)):
                idx, d_rest = pinned[i]
                # Tr(X (B_S x I/sqrt(d_rest))) = Tr(X_S B_S) / sqrt(d_rest)
                acc[idx] += d_rest * (v / np.sqrt(d_rest))
        self.target = acc / self.weights
        self._weighted_ops = None

    def coefficients(self, x_mat: np.ndarray) -> np.ndarray:
        """``Tr(X B_l)`` for every pinned label, over the last two axes."""
        return _product_coefficients(x_mat, self.dims)[..., self.labels]

    def _combination(self, c: np.ndarray) -> np.ndarray:
        """``sum_l c_l B_l`` over the pinned labels (batchable)."""
        full = np.zeros(c.shape[:-1] + (self.total_dim ** 2,))
        full[..., self.labels] = c
        return _product_combination(full, self.dims)

    def project(self, x_mat: np.ndarray) -> np.ndarray:
        """Orthogonal projection of Hermitian matrices onto the affine set."""
        return x_mat - self._combination(self.coefficients(x_mat) - self.target)

    def project_kernel(self, g_mat: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto the homogeneous kernel of the map."""
        return g_mat - self._combination(self.coefficients(g_mat))

    def operators(self) -> np.ndarray:
        """The pinned product operators, ``(len(labels), T, T)``."""
        grid = [d * d for d in self.dims]
        return product_operators(self.dims, np.stack(np.unravel_index(self.labels, grid), 1))

    def weighted_operators(self) -> np.ndarray:
        """The pinned operators scaled by the square roots of the weights,
        ``(len(labels), T, T)``; built on the first call and kept, since
        every whole-space polish of a probe reads the same stack."""
        if self._weighted_ops is None:
            self._weighted_ops = _freeze(self.operators() * np.sqrt(self.weights)[:, None, None])
        return self._weighted_ops

    def weighted_residual(self, x_mat: np.ndarray) -> np.ndarray:
        """``sqrt(w_l) (Tr(X B_l) - target_l)`` per pinned label: its norm is
        the root sum of squares of every constrained partial trace's
        Frobenius error and of the trace error."""
        return np.sqrt(self.weights) * (self.coefficients(x_mat) - self.target)


def _labels_within(dims: Sequence[int], subset: Sequence[int]):
    """Product-operator labels whose support lies inside ``subset``."""
    return itertools.product(*(range(d * d) if p in subset else (0,)
                               for p, d in enumerate(dims)))


@lru_cache(maxsize=_LAYOUT_CACHE_SIZE)
def _constraint_layout(dims: tuple[int, ...], subsets: tuple[tuple[int, ...], ...]):
    """The part of :class:`ConstraintOperator` that depends only on the shape.

    ``subsets`` are normalized subset keys in constraint order. Returns
    ``(labels, weights, pinned)``: ``labels`` and ``weights`` as on the
    operator, and per subset ``(idx, d_rest)``, where ``idx`` places the
    subset's labels in ``labels`` and ``d_rest`` is the dimension of the
    subset's complement. The subset's labels run in the order of
    :func:`tensor._product_coefficients` on the subset's own dims, so
    ``idx`` places that transform of its marginal directly. Every operator
    of the shape shares these arrays, so they are read-only.
    """
    t = math.prod(dims)
    weights = {(0,) * len(dims): float(t)}
    terms = []
    for subset in subsets:
        d_rest = t // math.prod(dims[p] for p in subset)
        labels = list(_labels_within(dims, subset))
        for lab in labels:
            weights[lab] = weights.get(lab, 0.0) + d_rest
        terms.append((labels, d_rest))
    order = sorted(weights)
    index = {lab: i for i, lab in enumerate(order)}
    pinned = tuple((_freeze(np.array([index[lab] for lab in labels])), d_rest)
                   for labels, d_rest in terms)
    flat = np.ravel_multi_index(np.array(order).T, [d * d for d in dims])
    return (_freeze(flat), _freeze(np.array([weights[lab] for lab in order])), pinned)


def constraint_nullspace(signature: PartySignature,
                         subsets: Sequence[Sequence[int]]) -> np.ndarray:
    """Orthonormal basis of traceless Hermitian deviations with vanishing
    partial trace on every constrained subset.

    Returns a stack of shape ``(k, T, T)``; orthonormality is in the
    Hilbert-Schmidt inner product. Any two states consistent with the same
    marginals differ by an element of this space. Its basis is the product
    operators whose support is not contained in any constrained subset.
    """
    dims = signature.dims
    pinned = {(0,) * len(dims)}
    for subset in subsets:
        pinned.update(_labels_within(dims, _validate_subset(subset, len(dims))))
    free = [lab for lab in _labels_within(dims, range(len(dims))) if lab not in pinned]
    return product_operators(dims, free)


def _project_psd_batch(x: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(x)
    vals = np.maximum(vals, 0.0)
    return (vecs * vals[..., None, :]) @ np.swapaxes(vecs.conj(), -2, -1)


def project_psd(x_mat: np.ndarray) -> np.ndarray:
    """Nearest positive-semidefinite matrix in Frobenius norm (eigenvalue clip)."""
    x = np.asarray(x_mat, dtype=complex)
    return _project_psd_batch((x + x.conj().T) / 2)


def _dykstra_batch(starts: np.ndarray, op: ConstraintOperator,
                   max_iterations: int, tol: float):
    """Dykstra-corrected alternating projections, one row per starting point.

    The step size is the larger trace-norm change across the two half-steps
    of a cycle; a run stops when it drops below ``tol``. Returns the
    PSD-side iterates, per-run iteration counts and convergence flags.

    The working arrays hold only the runs still active, in start order
    (``ids`` maps them back): a cycle on them is the same per-matrix
    arithmetic as a cycle on every run, since the batched ``eigh`` and the
    affine projection treat each matrix on its own, so each run's result
    equals a batch of that run alone. A cycle in which runs finish writes
    their results and drops them from the working arrays.
    """
    n_runs, t, _ = starts.shape
    sq_t = np.sqrt(t)
    x = (starts + np.swapaxes(starts.conj(), -2, -1)) / 2
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    out = np.empty_like(x)
    iterations = np.zeros(n_runs, dtype=int)
    converged = np.zeros(n_runs, dtype=bool)
    ids = np.arange(n_runs)
    y = x
    for it in range(1, max_iterations + 1):
        if not len(ids):
            break
        y = _project_psd_batch(x + p)
        p = x + p - y
        x_new = op.project(y + q)
        q = y + q - x_new
        d1 = y - x
        d2 = x_new - y
        x = x_new
        fro = np.maximum(
            np.sqrt(np.sum(np.abs(d1) ** 2, axis=(1, 2))),
            np.sqrt(np.sum(np.abs(d2) ** 2, axis=(1, 2))),
        )
        # ||.||_F <= ||.||_tr <= sqrt(T) ||.||_F: only the in-between band
        # needs the exact trace norm.
        done = sq_t * fro < tol
        unsure = np.flatnonzero(~done & (fro < tol))
        for i in unsure:
            done[i] = max(trace_norm(d1[i]), trace_norm(d2[i])) < tol
        if done.any():
            finished = ids[done]
            out[finished] = y[done]
            iterations[finished] = it
            converged[finished] = True
            live = ~done
            ids, x, p, q, y = ids[live], x[live], p[live], q[live], y[live]
    # The runs the cap stopped, at their last PSD-side iterate.
    out[ids] = y
    iterations[ids] = max_iterations
    return out, iterations, converged


# ---------------------------------------------------------------------------
# Face certificate
# ---------------------------------------------------------------------------

def _add_on_parties(out: np.ndarray, local: np.ndarray, dims: Sequence[int],
                    subset: Sequence[int]) -> None:
    """``out += local (x) I``: ``local`` on the parties in ``subset``, the
    identity on the rest, for a C-contiguous T x T ``out``.

    The identity's zeros change no entry, so only the others are written:
    through a view of ``out`` with one row and one column axis per party in
    ``subset`` and one axis per other party that steps along the diagonal
    where its row and column digits agree.
    """
    t = out.shape[0]
    step = [math.prod(dims[p + 1:]) * out.itemsize for p in range(len(dims))]
    rest = [p for p in range(len(dims)) if p not in subset]
    sub = [dims[p] for p in subset]
    view = np.ndarray(sub * 2 + [dims[p] for p in rest], out.dtype, out,
                      strides=[t * step[p] for p in subset] + [step[p] for p in subset]
                      + [(t + 1) * step[p] for p in rest])
    view += local.reshape(sub * 2 + [1] * len(rest))


def _restricted_map(op: ConstraintOperator, basis: np.ndarray) -> np.ndarray:
    """The marginal map on ``Herm(K)``: the pinned coefficients of
    ``V E V^+`` (``V = basis``, T x k), one column per ``E`` of the unit
    Gell-Mann basis of ``Herm(k)`` (``tensor._unit_basis(k)``, the 1 x 1
    identity at k = 1), in its order."""
    k = basis.shape[1]
    lifted = basis @ _unit_basis(k) @ basis.conj().T
    return op.coefficients(lifted).T


def _support_sum(constraints: MarginalConstraintSet) -> tuple[np.ndarray, list[float], float]:
    """``(H, gaps, eta)``: ``H = sum_S P_S (x) I`` with ``P_S`` the kernel of
    the marginal on S, cut from its spectrum at ``_GAP_ZERO``; per marginal
    the smallest eigenvalue read as nonzero; and the sum of the eigenvalues
    read as zero. The spectra are the ones the constraint set took, one
    ``eigh`` per marginal shape. Ascending, they put the kernel first, so
    the projectors of the marginals of one shape and kernel dimension come
    from one batched product; each is then added to ``H`` in subset order.
    """
    signature = constraints.signature
    spectra = [None] * len(constraints.constraints)
    for members, _, vals, vecs in constraints._stacks:
        zeros = np.sum(vals <= _GAP_ZERO, axis=-1)
        for k in dict.fromkeys(zeros.tolist()):
            same = np.flatnonzero(zeros == k)
            kernels = np.ascontiguousarray(vecs[same, :, :k])
            projectors = kernels @ np.swapaxes(kernels.conj(), -2, -1)
            for j, projector in zip(same, projectors):
                spectra[members[j]] = (vals[j], k, projector)
    t = signature.total_dim
    support_sum = np.zeros((t, t), dtype=complex)
    gaps = []
    eta = 0.0
    for (subset, _), (vals, k, projector) in zip(constraints.constraints, spectra):
        gaps.append(float(vals[k:].min()))
        eta += float(np.abs(vals[:k]).sum())
        if k:
            _add_on_parties(support_sum, projector, signature.dims, subset)
    return support_sum, gaps, eta


def _face_certificate(constraints: MarginalConstraintSet, op: ConstraintOperator,
                      tol: float) -> tuple[bool, float, np.ndarray, np.ndarray | None, bool]:
    """Prove that every state with the prescribed marginals lies within
    trace distance ``tol`` of the reference.

    ``K`` is the kernel of the support sum ``H = sum_S P_S (x) I`` of
    :func:`_support_sum`, cut at ``_GAP_ZERO`` like each marginal's kernel
    ``P_S``, with orthonormal basis ``V`` (T x k); the restricted map is
    :func:`_restricted_map`. Returns ``(holds, gap, V, restricted, clear)``:
    ``restricted`` is that map, None when ``K`` is empty or the whole space;
    ``gap`` is the smallest value compared against ``_GAP_MIN`` (the
    smallest marginal or ``H`` eigenvalue read as nonzero, or the smallest
    singular value ``s`` of the restricted map, which is 0 when the map has
    more columns than rows, and 0 when ``K`` is empty or the whole space);
    ``clear`` says that ``K`` is a proper, non-empty subspace and that every
    marginal and ``H`` eigenvalue and every singular value of the restricted
    map is either at most ``_GAP_ZERO`` or at least ``_GAP_MIN``.

    The certificate holds when the gap reaches ``_GAP_MIN`` and the rounding
    bound below is at most ``tol``. The eigenvalues cut as zero sum to
    ``eta``, so a consistent state puts weight at most ``eta / g`` outside
    ``K`` (``g``: the smallest nonzero ``H`` eigenvalue); by the gentle
    measurement lemma and the injectivity of the restricted map, its trace
    distance from the reference is at most
    ``2 sqrt(eta / g) (1 + sqrt(k) / s)``.
    """
    t = op.total_dim
    support_sum, gaps, eta = _support_sum(constraints)
    vals, vecs = np.linalg.eigh(support_sum)
    zero = vals <= _GAP_ZERO
    g = float(vals[~zero].min()) if not zero.all() else np.inf
    face = vecs[:, zero]
    k = face.shape[1]
    if k in (0, t):
        return False, 0.0, face, None, False
    restricted = _restricted_map(op, face)
    svals = np.linalg.svd(restricted, compute_uv=False)
    s = float(svals[-1]) if k * k <= len(op.labels) else 0.0
    gap = min(gaps + [g, s])
    clear = min(gaps + [g]) >= _GAP_MIN and \
        bool(np.all((svals <= _GAP_ZERO) | (svals >= _GAP_MIN)))
    if gap < _GAP_MIN:
        return False, gap, face, restricted, clear
    holds = bool(2 * np.sqrt(eta / g) * (1 + np.sqrt(k) / s) <= tol)
    return holds, gap, face, restricted, clear


def _parent_hamiltonian(psi: np.ndarray, op: ConstraintOperator,
                        tol: float) -> tuple[bool, float, np.ndarray | None]:
    """Prove uniqueness with a gapped parent Hamiltonian of ``psi``.

    ``H = sum_l c_l B_l`` ranges over the traceless operators ``B_l`` that
    the marginals pin (the labels of ``op`` after the identity, the first of
    the sorted labels), restricted to the null space of
    ``c -> (I - psi psi^+) H psi`` so that ``psi`` is an eigenvector. Any
    state with the prescribed marginals has energy ``e = psi^+ H psi``.
    With ``H``'s eigenvalues ``l0 <= l1 <= ... <= lmax`` it puts weight at
    most ``(e - l0) / (l1 - l0)`` off the ground vector, so its trace
    distance from the reference is at most
    ``2 sqrt((e - l0 + r) / (l1 - l0))``; ``r = T eps max(|l0|, |lmax|)``
    is the float allowance for ``eigvalsh`` rounding. The certificate holds
    when the relative gap ``(l1 - l0) / (lmax - l0)`` reaches ``_GAP_MIN``
    and that bound is at most ``tol``.

    ``c`` starts at minus the pinned part of ``psi psi^+`` projected onto
    the null space, and takes up to ``_DUAL_STEPS`` normalized steps of
    gradient ascent on the unit sphere for ``lambda_min(H on psi-perp) - e``
    (the minimum smoothed by softmin weights), stopping as soon as the
    certificate holds. Returns ``(holds, relative gap, H)``; ``H`` is None
    when no candidate exists.
    """
    t = len(psi)
    ops = op.operators()[1:]
    moved = ops @ psi
    off = moved - np.outer(moved @ psi.conj(), psi)       # (I - psi psi^+) B_l psi
    _, svals, vh = np.linalg.svd(np.concatenate([off.real, off.imag], axis=1).T)
    null = vh[int(np.sum(svals > _GAP_ZERO * svals[0])):]
    if len(null) == 0:
        return False, 0.0, None
    basis = np.tensordot(null, ops, axes=1)
    perp = np.linalg.svd(psi.conj()[None, :])[2][1:].conj().T
    basis_perp = perp.conj().T @ basis @ perp
    energy = np.einsum("i,nij,j->n", psi.conj(), basis, psi).real
    a = -(null @ op.coefficients(np.outer(psi, psi.conj()))[1:])
    a /= np.linalg.norm(a)
    for step in range(_DUAL_STEPS + 1):
        h = np.tensordot(a, basis, axes=1)
        vals = np.linalg.eigvalsh(h)
        l0, l1, lmax = vals[0], vals[1], vals[-1]
        rel = float((l1 - l0) / (lmax - l0))
        slack = t * np.finfo(float).eps * max(abs(l0), abs(lmax))
        excess = max(float(a @ energy) - l0, 0.0) + slack
        if rel >= _GAP_MIN and 2 * np.sqrt(excess / (l1 - l0)) <= tol:
            return True, rel, h
        if step == _DUAL_STEPS:
            break
        mu, w = np.linalg.eigh(np.tensordot(a, basis_perp, axes=1))
        weights = np.exp(-(mu - mu[0]) / (0.05 * max(mu[-1] - mu[0], 1e-12)))
        smoothed = (w * (weights / weights.sum())) @ w.conj().T
        grad = np.einsum("nij,ji->n", basis_perp, smoothed).real - energy
        grad -= (grad @ a) * a
        norm = float(np.linalg.norm(grad))
        if norm < 1e-15:
            break
        a = a + 0.5 * 0.9 ** step * grad / norm
        a /= np.linalg.norm(a)
    return False, rel, h


class _FaceOperator:
    """The marginal constraints on ``E`` for states ``V E V^+`` on ``K``.

    It has the projections and the weighted system of
    :class:`ConstraintOperator` over the k x k matrices ``E``, so the
    restarts and the polish run on it unchanged. Its constraints are the
    rows of ``rows``, orthonormal in the coefficients of ``E`` over the unit
    Gell-Mann basis of ``Herm(k)`` (the product-operator transform on dims
    ``(k,)``), with ``target`` and ``weights`` as on ``ConstraintOperator``. The
    restricted map (:func:`_restricted_map` of ``op`` on the T x k basis
    ``V``) is scaled by the square roots of the weights and
    factored as ``U S W^T``, keeping the singular values that reach
    ``_GAP_MIN``: ``rows = W^T``, ``target = S^-1 U^T (sqrt(w) c)`` and
    ``weights = S^2``, so the weighted residual of ``E`` is the one
    ``ConstraintOperator`` measures on ``V E V^+``. The weighted rows and
    target, and the weighted operators they combine into, are computed
    once here: every polish of the probe reads them.
    """

    def __init__(self, op: ConstraintOperator, basis: np.ndarray, restricted: np.ndarray):
        sqrt_w = np.sqrt(op.weights)
        u, s, wt = np.linalg.svd(sqrt_w[:, None] * restricted, full_matrices=False)
        keep = s >= _GAP_MIN
        self.total_dim = basis.shape[1]
        self.dims = (self.total_dim,)
        self.rows = wt[keep]
        self.target = u[:, keep].T @ (sqrt_w * op.target) / s[keep]
        self.weights = s[keep] ** 2
        face_sqrt_w = np.sqrt(self.weights)
        self._rows_w = self.rows * face_sqrt_w[:, None]
        self._target_w = self.target * face_sqrt_w
        self._weighted_ops = _freeze(_product_combination(self._rows_w, self.dims))

    def project(self, e_mat: np.ndarray) -> np.ndarray:
        e = _product_coefficients(e_mat, self.dims)
        return _product_combination(e - (e @ self.rows.T - self.target) @ self.rows, self.dims)

    def project_kernel(self, g_mat: np.ndarray) -> np.ndarray:
        g = _product_coefficients(g_mat, self.dims)
        return _product_combination(g - (g @ self.rows.T) @ self.rows, self.dims)

    def weighted_operators(self) -> np.ndarray:
        return self._weighted_ops

    def weighted_residual(self, e_mat: np.ndarray) -> np.ndarray:
        return self._rows_w @ _product_coefficients(e_mat, self.dims) - self._target_w


def _lift(x: np.ndarray, basis: np.ndarray | None) -> np.ndarray:
    """``V x V^+``; ``x`` itself when the restarts ran on the whole space."""
    return x if basis is None else basis @ x @ basis.conj().T


# ---------------------------------------------------------------------------
# Witness certification
# ---------------------------------------------------------------------------

def _gauss_newton_polish(a: np.ndarray, op: ConstraintOperator):
    """Fit ``W = A A^+``, starting from the T x r factor ``a``, to the
    affine constraints.

    Up to ``_POLISH_STEPS`` points, each after a Gauss-Newton step with
    backtracking on the norm of ``op.weighted_residual(W)``, which is the
    root sum of squares of every constrained partial trace's Frobenius
    error and of the trace error. Each point is evaluated once: the step
    that backtracking accepts is the next point, with its ``W`` and
    residual, and no step is taken after the last point. Only a step reads
    the weighted operators, which both operator classes build once. The
    outcome is PSD by construction, so only the affine residual needs
    verification. Returns the best point's ``(W, residual)``.
    """
    t, rank = a.shape
    w = a @ a.conj().T
    f = op.weighted_residual(w)
    best_w, best_res = w, np.inf
    for point in range(_POLISH_STEPS):
        res = float(np.linalg.norm(f))
        if res < best_res:
            best_w, best_res = w, res
        if res < 1e-14 or point == _POLISH_STEPS - 1:
            break
        ops = op.weighted_operators()
        # Row k, direction E = e_i e_j^T (or i times it): the change of
        # Tr(Q_k (E A^+ + A E^+)) is 2 Re (or -2 Im) of (A^+ Q_k)[j, i].
        g = a.conj().T @ ops
        jac = 2 * np.stack([g.real, -g.imag], axis=-1).reshape(len(ops), -1)
        step, *_ = np.linalg.lstsq(jac, -f, rcond=None)
        da = (step[0::2] + 1j * step[1::2]).reshape(rank, t).T
        # Halve the step until the residual drops; the 21st, smallest step
        # is taken unchecked.
        scale = 1.0
        for halvings in range(21):
            a_try = a + scale * da
            w = a_try @ a_try.conj().T
            f = op.weighted_residual(w)
            if halvings == 20 or float(np.linalg.norm(f)) < res:
                break
            scale /= 2
        a = a_try
    return best_w, best_res


def _certify(candidate: np.ndarray, op: ConstraintOperator):
    """Polish a candidate into an exactly PSD, constraint-consistent matrix.

    One ``eigh`` of the symmetrised candidate gives its numerical rank
    ``r0`` (eigenvalues above 1e-2 of the largest) and, for each rank
    tried (``r0``, ``r0 + 2``, then T), the starting factor of
    :func:`_gauss_newton_polish`: the leading eigenvectors scaled by the
    square roots of their eigenvalues, clipped at 1e-30. Returns the first polished
    matrix whose residual is below ``_CERT_TOL``, or None.
    """
    t = candidate.shape[0]
    vals, vecs = np.linalg.eigh((candidate + candidate.conj().T) / 2)
    r0 = int(np.sum(vals > 1e-2 * max(vals.max(), 1e-30)))
    order = np.argsort(vals)[::-1]
    for rank in dict.fromkeys([max(r0, 1), min(max(r0, 1) + 2, t), t]):
        top = order[:rank]
        a = vecs[:, top] * np.sqrt(np.maximum(vals[top], 1e-30))
        w, res = _gauss_newton_polish(a, op)
        if res < _CERT_TOL:
            return w
    return None


def _exit_parameter(psi: np.ndarray, w: np.ndarray) -> float:
    """Where the ray ``R + t (W - R)`` from ``R = psi psi^+`` through a PSD
    ``W`` leaves the PSD cone.

    For ``t > 1`` the point is ``t W - (t - 1) psi psi^+``, which is PSD
    exactly when ``psi`` lies in the range of ``W`` and ``t <= m / (m - 1)``
    with ``m = psi^+ W^+ psi``; when ``psi`` has weight outside that range
    the ray leaves at ``t = 1``. Trace distance from ``R`` grows linearly
    along the ray, so the feasible chord through ``W`` reaches ``t D(W, R)``.
    """
    vals, vecs = np.linalg.eigh((w + w.conj().T) / 2)
    weight = np.abs(vecs.conj().T @ psi) ** 2
    zero = vals <= _GAP_ZERO
    if weight[zero].sum() > _GAP_ZERO:
        return 1.0
    m = float(np.sum(weight[~zero] / vals[~zero]))
    return m / (m - 1) if m > 1 else np.inf


def _pursue_far(reference: np.ndarray, witness: np.ndarray,
                op: ConstraintOperator) -> np.ndarray:
    """Push a certified witness outward through the feasible set.

    For up to ``_PURSUIT_ROUNDS`` rounds, extrapolates past the current
    witness along its offset from the reference and re-certifies; keeps any
    verified point that is farther. Greatly separates witnesses that Dykstra
    leaves close to the reference (its projections find *nearest* feasible
    points).
    ``uniqueness_probe`` calls it once per probe, on the verified restart
    whose exit chord (:func:`_exit_parameter`) is longest.
    """
    current = witness
    dist = trace_distance(current, reference)
    for _ in range(_PURSUIT_ROUNDS):
        improved = False
        for step in (1.0, 0.5, 0.25):
            candidate = current + step * (current - reference)
            polished = _certify(candidate, op)
            if polished is None:
                continue
            d_new = trace_distance(polished, reference)
            if d_new > 1.02 * dist:
                current, dist = polished, d_new
                improved = True
                break
        if not improved:
            break
    return current


def _verify_witness(w: np.ndarray, op: ConstraintOperator,
                    config: ProjectionConfig) -> bool:
    if op.constraints.marginal_residual(w) > config.convergence_tol:
        return False
    if abs(float(np.trace(w).real) - 1.0) > 1e-9:
        return False
    return float(np.linalg.eigvalsh(w)[0]) >= -_PSD_VERIFY_ATOL


def _as_density(w: np.ndarray, signature: PartySignature) -> DensityMatrix:
    # Strip verification-level rounding so the strict type invariants hold.
    w = (w + w.conj().T) / 2
    w = w / np.trace(w).real
    return DensityMatrix(signature, w)


@dataclass(frozen=True)
class RunRecord:
    """Per-restart outcome of the multi-start probe.

    ``outcome`` is ``"returned_reference"`` (converged within the
    distinctness tolerance of the reference), ``"witness"`` (its polished
    point, lifted to the whole space, verified as a distinct consistent
    state), ``"not_converged"`` (stopped by the iteration cap without a
    witness) or ``"inconclusive"`` (converged away from the reference
    without a witness). ``converged`` and ``iterations`` are the
    Dykstra run's stop flag and cycle count; ``distance`` is the trace
    distance of its last PSD-side iterate, lifted to the whole space, from
    the reference.
    """

    outcome: str
    converged: bool
    iterations: int
    distance: float


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Multi-start probe verdict.

    For NON_UNIQUE, ``witnesses`` holds the reference state first and then
    the certified distinct state(s); every witness satisfies the constraints
    to within the convergence tolerance and the distinct ones are separated
    from the reference by more than the distinctness tolerance.

    ``decided_by`` names the path that decided: ``"certificate"`` (the
    face certificate), ``"parent_hamiltonian"`` (the parent-Hamiltonian
    certificate), ``"dykstra"`` (the restarts and, for NON_UNIQUE, a
    verified witness) or ``"uncovered_party"`` (a party outside every
    subset, rotated for an analytic witness). A certificate decides only
    a UNIQUE that its cross-check agreed with: one Dykstra run from the
    reference, which ``runs`` lists once per restart because every
    restart would have started there. ``certified``, derived from
    ``decided_by``, is True exactly when one of the two certificates
    decided. ``certificate_gap`` is the smallest spectral gap or singular
    value that the face certificate compared against its threshold, or on
    the parent-Hamiltonian path the relative gap ``(l1 - l0) / (lmax - l0)``
    of the Hamiltonian; it is None when no certificate was attempted (an
    uncovered party). ``face_dim`` is the dimension of the space the
    restarts ran in: k when they ran on the face ``K``, T when there was no
    reduction, None when no restart ran.
    """

    verdict: str
    witnesses: tuple[DensityMatrix, ...]
    max_marginal_residual: float
    pairwise_distances: tuple[float, ...]
    runs: tuple[RunRecord, ...] = ()
    decided_by: str = DECIDED_BY_DYKSTRA
    certificate_gap: float | None = None
    face_dim: int | None = None

    @property
    def certified(self) -> bool:
        return self.decided_by in (DECIDED_BY_CERTIFICATE, DECIDED_BY_PARENT_HAMILTONIAN)


def uniqueness_probe(pure_state: AmplitudeTensor,
                     subsets: Sequence[Sequence[int]],
                     config: ProjectionConfig = ProjectionConfig(), *,
                     rng: SeededRng) -> FeasibilityVerdict:
    """Decide whether the given marginals of a pure state pin it uniquely.

    The face certificate is tried first, and where no marginal has a
    kernel the parent-Hamiltonian certificate; when either proves UNIQUE
    there is no direction to perturb along, so every restart would start at
    the reference: one Dykstra run from the reference, a cheap cross-check
    of the proof, stands for every restart and its record is reported
    ``config.restarts`` times. Otherwise starting points are the reference
    state perturbed along random constraint-kernel directions (where any
    second consistent state must live), reprojected by the solver; when the
    face certificate read a proper subspace ``K`` without ambiguity, all of
    this runs on the k x k matrices of ``Herm(K)``, and each outcome is
    lifted back to the whole space before it is measured or verified.
    UNIQUE requires every
    restart to converge back to the reference within the distinctness
    tolerance; NON_UNIQUE requires a directly verified distinct witness,
    and only the verified witness with the longest exit chord is pushed
    outward before the farthest one is reported;
    everything else is INCONCLUSIVE. A party not covered by any subset
    makes uniqueness impossible: a local unitary there is an immediate
    analytic witness.

    ``rng`` is the only source of randomness: restart r draws its kernel
    direction from ``rng.spawn(r)``, which leaves ``rng`` itself unchanged,
    so one stream passed to several probes gives each the same restarts.
    The certified and uncovered-party paths draw nothing.
    """
    rho = to_density(pure_state)
    signature = pure_state.signature
    constraints = MarginalConstraintSet._from_density(rho, subsets)
    uncovered = set(range(signature.n_parties)) - constraints.covered_parties()
    if uncovered:
        return _uncovered_verdict(pure_state, rho, constraints, min(uncovered))

    op = ConstraintOperator(constraints)
    tol = _DISTINCTNESS_TOL
    proved, gap, face, restricted, clear = _face_certificate(constraints, op, tol)
    certified_by = DECIDED_BY_CERTIFICATE if proved else None
    # K is the whole space exactly when no marginal has a kernel.
    if not proved and face.shape[1] == op.total_dim:
        held, dual_gap, _ = _parent_hamiltonian(pure_state.vector(), op, tol)
        if held:
            gap, certified_by = dual_gap, DECIDED_BY_PARENT_HAMILTONIAN
    search, basis = op, None
    if certified_by is None and clear:
        search, basis = _FaceOperator(op, face, restricted), face
    reference = rho.matrix if basis is None else basis.conj().T @ rho.matrix @ basis

    if certified_by:
        starts = [reference]
    else:
        starts = [_kernel_start(reference, search, rng.spawn(r))
                  for r in range(config.restarts)]
    outs, iters, conv = _dykstra_batch(
        np.array(starts), search, config.max_iterations, config.convergence_tol)

    runs: list[RunRecord] = []
    found: list[tuple[float, np.ndarray, np.ndarray]] = []    # (distance, polished, lifted)
    for i in range(len(starts)):
        converged = bool(conv[i])
        dist = trace_distance(_lift(outs[i], basis), rho.matrix)
        # A restart stopped by the iteration cap proves nothing by where it
        # stopped; only a verified witness can come of it.
        if dist <= tol:
            outcome = RETURNED_REFERENCE if converged else RUN_NOT_CONVERGED
        else:
            outcome = RUN_INCONCLUSIVE if converged else RUN_NOT_CONVERGED
            polished = _certify(outs[i], search)
            if polished is not None:
                lifted = _lift(polished, basis)
                away = trace_distance(lifted, rho.matrix)
                if _verify_witness(lifted, op, config) and away > tol:
                    found.append((away, polished, lifted))
                    outcome = WITNESS
        runs.append(RunRecord(outcome, converged, int(iters[i]), dist))
    if certified_by:
        # Every restart would start at the reference, so the one run stands
        # for all of them.
        runs *= config.restarts

    face_dim = search.total_dim
    if found:
        # Push outward only the witness with the longest feasible chord
        # from the reference; report the farthest verified point.
        psi = pure_state.vector() if basis is None else basis.conj().T @ pure_state.vector()
        _, start, _ = max(found, key=lambda f: _exit_parameter(psi, f[1]) * f[0])
        far = _lift(_pursue_far(reference, start, search), basis)
        candidates = [(away, lifted) for away, _, lifted in found]
        if _verify_witness(far, op, config):
            candidates.append((trace_distance(far, rho.matrix), far))
        _, best = max(candidates, key=lambda c: c[0])
        listed = (rho, _as_density(best, signature))
        return _finish(NON_UNIQUE, listed, op, runs, gap, face_dim)
    if all(r.outcome == RETURNED_REFERENCE for r in runs):
        return _finish(UNIQUE, (rho,), op, runs, gap, face_dim, certified_by)
    return _finish(INCONCLUSIVE, (rho,), op, runs, gap, face_dim)


def _kernel_start(reference: np.ndarray, op: ConstraintOperator,
                  rng: SeededRng) -> np.ndarray:
    """The reference moved by ``_PERTURBATION_SCALE`` along a random
    direction of the constraint kernel."""
    t = reference.shape[0]
    g = rng.complex_normal((t, t))
    g = g + g.conj().T
    kdir = op.project_kernel(g)
    knorm = float(np.linalg.norm(kdir))
    if knorm < 1e-14:
        return reference.copy()
    return reference + _PERTURBATION_SCALE * kdir / knorm


def _finish(verdict: str, witnesses: tuple[DensityMatrix, ...],
            op: ConstraintOperator, runs: list[RunRecord], gap: float,
            face_dim: int, certified_by: str | None = None) -> FeasibilityVerdict:
    # The reference's residual is exactly 0: its targets are its own partial traces.
    residual = max([0.0] + [op.constraints.marginal_residual(w.matrix)
                            for w in witnesses[1:]])
    pairwise = tuple(
        trace_distance(witnesses[i].matrix, witnesses[j].matrix)
        for i in range(len(witnesses)) for j in range(i + 1, len(witnesses))
    )
    return FeasibilityVerdict(verdict, witnesses, residual, pairwise, tuple(runs),
                              certified_by or DECIDED_BY_DYKSTRA, gap, face_dim)


def _uncovered_verdict(state: AmplitudeTensor, rho: DensityMatrix,
                       constraints: MarginalConstraintSet, party: int) -> FeasibilityVerdict:
    """Analytic witness: rotate an unconstrained party.

    The clock phase ``diag(exp(2 pi i j / d))`` leaves the state within the
    distinctness tolerance only when the party sits on one basis vector,
    and the cyclic shift then moves it to an orthogonal one, so one of the
    two always works; the ``RuntimeError`` only guards that argument.
    """
    d = state.signature.dims[party]
    for u in (np.diag(np.exp(2j * np.pi * np.arange(d) / d)), np.roll(np.eye(d), 1, axis=0)):
        rotated = np.tensordot(u, state.amplitudes, axes=([1], [party]))
        rotated = np.moveaxis(rotated, 0, party)
        other = to_density(AmplitudeTensor(state.signature, rotated))
        if trace_distance(other, rho) > _DISTINCTNESS_TOL:
            return FeasibilityVerdict(
                NON_UNIQUE, (rho, other), constraints.marginal_residual(other.matrix),
                (trace_distance(other, rho),), (), decided_by=DECIDED_BY_UNCOVERED)
    raise RuntimeError("could not rotate the uncovered party away from the state")


def genericity_survey(signature: PartySignature,
                      subsets: Sequence[Sequence[int]],
                      trials: int,
                      rng: SeededRng,
                      config: ProjectionConfig = ProjectionConfig(),
                      ) -> Iterator[tuple[AmplitudeTensor, FeasibilityVerdict]]:
    """Run the uniqueness probe on Haar-random states.

    Yields ``(state, verdict)`` for each of ``trials`` trials, in order.
    Trial t draws its state from ``rng.spawn(t).spawn(0)`` and its restarts
    from ``rng.spawn(t).spawn(1)``, so the run is deterministic for a fixed
    ``rng``. Iterating raises ``ValueError`` when ``trials < 1``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for trial in range(trials):
        stream = rng.spawn(trial)
        state = haar_random_state(signature, stream.spawn(0))
        yield state, uniqueness_probe(state, subsets, config, rng=stream.spawn(1))
