"""Shared fixtures, test-only helpers and independent reference
implementations.

The reference code here deliberately avoids the library's own vectorized
paths (explicit loops, legacy RandomState generator) so tests compare two
independent routes to the same numbers.

Every ``hypothesis`` test runs under one profile: derandomized, so tier-1
draws the same examples on every run, with no deadline (probe times vary
with the machine) and no example database.
"""

import itertools
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings

from qmarginal.claims import ghz_state  # noqa: F401  (re-exported for the tests)
from qmarginal.tensor import (DensityMatrix, _unit_basis, _validate_subset,
                              partial_trace_matrix, rank_and_nullspace)
from qmarginal.uniqueness import (DEFAULT_RANK_RTOL, EliminationStep, RankDeficientBlockError,
                                  TripartiteShape, build_consistency_matrix)

settings.register_profile("qmarginal", deadline=None, derandomize=True, database=None)
settings.load_profile("qmarginal")


PAULI = {
    0: np.eye(2, dtype=complex),
    1: np.array([[0, 1], [1, 0]], dtype=complex),
    2: np.array([[0, -1j], [1j, 0]], dtype=complex),
    3: np.array([[1, 0], [0, -1]], dtype=complex),
}


def random_hermitian(rng: np.random.Generator, t: int) -> np.ndarray:
    g = rng.standard_normal((t, t)) + 1j * rng.standard_normal((t, t))
    return g + g.conj().T


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """QR of a complex Ginibre matrix with the phases of R's diagonal divided out."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng: np.random.Generator, t: int) -> np.ndarray:
    g = rng.standard_normal((t, t)) + 1j * rng.standard_normal((t, t))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def slow_partial_trace(mat: np.ndarray, dims, keep) -> np.ndarray:
    """Element-by-element partial trace; quadratic loops, no einsum."""
    dims = list(dims)
    n = len(dims)
    keep = sorted(keep)
    drop = [p for p in range(n) if p not in keep]
    keep_dims = [dims[p] for p in keep]
    drop_dims = [dims[p] for p in drop]
    dk = int(np.prod(keep_dims))
    out = np.zeros((dk, dk), dtype=complex)
    strides = np.cumprod([1] + dims[::-1])[::-1][1:]  # row-major strides

    def flat(idx):
        return int(sum(i * s for i, s in zip(idx, strides)))

    for ridx, row_keep in enumerate(itertools.product(*[range(d) for d in keep_dims])):
        for cidx, col_keep in enumerate(itertools.product(*[range(d) for d in keep_dims])):
            acc = 0.0 + 0.0j
            for shared in itertools.product(*[range(d) for d in drop_dims]):
                row = [0] * n
                col = [0] * n
                for p, v in zip(keep, row_keep):
                    row[p] = v
                for p, v in zip(keep, col_keep):
                    col[p] = v
                for p, v in zip(drop, shared):
                    row[p] = v
                    col[p] = v
                acc += mat[flat(row), flat(col)]
            out[ridx, cidx] = acc
    return out


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced density matrix on the parties in ``keep``."""
    reduced = partial_trace_matrix(rho.matrix, rho.dims, keep)
    return DensityMatrix(rho.signature.subsystem(keep), reduced)


def purity(rho: DensityMatrix) -> float:
    return float(np.trace(rho.matrix @ rho.matrix).real)


def product_operators(dims, labels) -> np.ndarray:
    """Hilbert-Schmidt-orthonormal product operators, one per label tuple.

    Label tuple ``(l_1, ..., l_n)`` maps to the Kronecker product over
    parties of ``gell_mann_basis(d_p)[l_p]`` scaled to unit Hilbert-Schmidt
    norm (identity by ``1/sqrt(d_p)``, the rest by ``1/sqrt(2)``). Local
    dimensions may differ. Returns a stack of shape ``(len(labels), T, T)``;
    over all labels it is an orthonormal basis of the Hermitian matrices.
    """
    dims = tuple(int(d) for d in dims)
    labels = np.asarray(labels, dtype=int).reshape(-1, len(dims))
    out = np.ones((len(labels), 1, 1), dtype=complex)
    for p, d in enumerate(dims):
        local = _unit_basis(d)[labels[:, p]]
        t = out.shape[-1]
        out = (out[:, :, None, :, None] * local[:, None, :, None, :]).reshape(
            len(labels), t * d, t * d)
    return out


def constraint_nullspace(signature, subsets) -> np.ndarray:
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
        key = _validate_subset(subset, len(dims))
        pinned.update(itertools.product(*(range(d * d) if p in key else (0,)
                                          for p, d in enumerate(dims))))
    free = [lab for lab in itertools.product(*(range(d * d) for d in dims))
            if lab not in pinned]
    return product_operators(dims, free)


def hs_products(ops: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``Tr(B_l X)`` for each Hermitian operator ``B_l`` of the stack ``ops``
    and each matrix ``X`` over the last two axes of ``x``: Hilbert-Schmidt
    products, real for Hermitian ``X``."""
    return np.einsum("lij,...ji->...l", ops, x).real


def reference_constraint_fields(constraints):
    """The pinned labels of a ``ConstraintOperator`` as sorted label tuples,
    the stack of their complex operators, and its ``target`` and
    ``weights``, built label by label from the constraints alone, with no
    shared layout."""
    dims = constraints.signature.dims
    t = constraints.signature.total_dim
    # label -> [sum of weight * value, sum of weights]
    sums = {(0,) * len(dims): [np.sqrt(t), float(t)]}
    for subset, target in constraints.constraints:
        pinned = list(itertools.product(*(range(d * d) if p in subset else (0,)
                                          for p, d in enumerate(dims))))
        local = product_operators(target.dims, [[lab[p] for p in subset] for lab in pinned])
        d_rest = t // target.signature.total_dim
        values = hs_products(local, target.matrix) / np.sqrt(d_rest)
        for lab, v in zip(pinned, values):
            acc = sums.setdefault(lab, [0.0, 0.0])
            acc[0] += d_rest * v
            acc[1] += d_rest
    labels = sorted(sums)
    ops = product_operators(dims, labels)
    target = np.array([sums[lab][0] / sums[lab][1] for lab in labels])
    weights = np.array([sums[lab][1] for lab in labels])
    return labels, ops, target, weights


class DenseConstraintOperator:
    """The constraint map through the dense stack of pinned operators, one
    T x T matrix per pinned label: the reference that the library's
    party-by-party transform is held to."""

    def __init__(self, constraints):
        _, self.ops, self.target, self.weights = reference_constraint_fields(constraints)

    def coefficients(self, x):
        return hs_products(self.ops, x)

    def project(self, x):
        return x - np.tensordot(self.coefficients(x) - self.target, self.ops, axes=1)

    def project_kernel(self, g):
        return g - np.tensordot(self.coefficients(g), self.ops, axes=1)

    def restricted_map(self, basis):
        """The pinned coefficients of ``V E V^+``, ``V = basis`` (T x k), one
        column per product operator ``E`` on one k-level party."""
        k = basis.shape[1]
        face = product_operators((k,), [(l,) for l in range(k * k)])
        return self.coefficients(basis @ face @ basis.conj().T).T


def column_of(shape, kind: str, a: int, b: int) -> int:
    """Column of unknown e(a,b) or f(a,b), 0-based, in the consistency
    matrix of a tripartite shape: all e(l,k), then all f(r,j)."""
    p, n = shape.P, shape.N
    return a * p + b if kind == "e" else p * p + a * n + b


# Largest total dimension that party_split will coarse-grain.
_MAX_SPLIT_DIM = 4096


@dataclass(frozen=True)
class PartySplit:
    """Canonical coarse graining of (3m+1) d-level parties into three groups."""

    shape: TripartiteShape
    marginal_party_count: int
    total_parties: int

    @property
    def fraction(self) -> float:
        return self.marginal_party_count / self.total_parties


def party_split(m: int, d: int) -> PartySplit:
    """Split 3m+1 d-level parties into groups of sizes (m+1, m, m).

    The coarse shape (d^(m+1), d^m, d^m) satisfies M >= N + P - 1, so two
    marginals covering 2m+1 of the 3m+1 parties suffice for generic states;
    the covered fraction (2m+1)/(3m+1) decreases toward 2/3. A total
    dimension d^(3m+1) above ``_MAX_SPLIT_DIM`` is rejected.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if d < 2:
        raise ValueError("d must be >= 2")
    total_dim = d ** (3 * m + 1)
    if total_dim > _MAX_SPLIT_DIM:
        raise ValueError(f"total dimension {total_dim} exceeds the cap {_MAX_SPLIT_DIM}")
    shape = TripartiteShape(d ** (m + 1), d ** m, d ** m)
    return PartySplit(shape, 2 * m + 1, 3 * m + 1)


def kron_all(mats):
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


@pytest.fixture
def np_rng():
    return np.random.default_rng(20260808)


class LinalgCalls:
    """Records the calls of chosen ``np.linalg`` functions, in order, as
    ``(name, trailing shape, compute_uv)``: the last two axes of the first
    argument (one axis for a vector), and ``compute_uv`` where the call
    passes it, else None."""

    def __init__(self, monkeypatch):
        self.calls = []
        self._monkeypatch = monkeypatch

    def record(self, *names: str) -> "LinalgCalls":
        for name in names:
            def recorded(x, *args, _real=getattr(np.linalg, name), _name=name, **kwargs):
                self.calls.append((_name, np.shape(x)[-2:], kwargs.get("compute_uv")))
                return _real(x, *args, **kwargs)
            self._monkeypatch.setattr(np.linalg, name, recorded)
        return self

    def count(self, name: str, since: int = 0) -> int:
        """Calls of ``name`` from the ``since``-th recorded call on."""
        return sum(call[0] == name for call in self.calls[since:])


@pytest.fixture
def linalg_calls(monkeypatch):
    """A :class:`LinalgCalls`; ``linalg_calls.record(*names)`` starts it."""
    return LinalgCalls(monkeypatch)


def dense_kernel(state) -> np.ndarray:
    """Orthonormal basis of the kernel of the dense consistency matrix K,
    from one SVD of K at the linear test's rank cut: the reference that the
    R-factor and certificate paths are held to."""
    _, kernel = rank_and_nullspace(build_consistency_matrix(state).matrix,
                                   rtol=DEFAULT_RANK_RTOL)
    return kernel


def reference_elimination_steps(amps: np.ndarray):
    """Steps of the sequential elimination, one ``rank_and_nullspace`` and
    one ``lstsq`` per step, each step solving its own block for its own
    right-hand side. Returns ``(steps, solution)``."""
    m, n, p = amps.shape
    e = np.full((p, p), np.nan + 0j)
    f = np.full((n, n), np.nan + 0j)
    e[0, 0] = 1.0
    steps = []

    def solve_block(index, label, block, rhs, labels):
        rank, _ = rank_and_nullspace(block, rtol=DEFAULT_RANK_RTOL)
        if rank < block.shape[1]:
            raise RankDeficientBlockError(index, label, rank, block.shape[1])
        sol = np.linalg.lstsq(block, rhs, rcond=None)[0]
        residual = float(np.linalg.norm(block @ sol - rhs))
        steps.append(EliminationStep(
            index, label, block.shape[0], tuple(labels), rank, residual,
            {lab: complex(val) for lab, val in zip(labels, sol)},
        ))
        return sol

    labels = [f"e({l},0)" for l in range(1, p)] + [f"f({r},0)" for r in range(n)]
    block = np.zeros((m, n + p - 1), dtype=complex)
    block[:, :p - 1] = amps[:, 0, 1:]
    block[:, p - 1:] = -amps[:, :, 0]
    sol = solve_block(1, "rows (i,0,0)", block, -amps[:, 0, 0] * e[0, 0], labels)
    e[1:, 0] = sol[:p - 1]
    f[:, 0] = sol[p - 1:]
    for k in range(1, p):
        labels = [f"e({l},{k})" for l in range(p)]
        e[:, k] = solve_block(len(steps) + 1, f"rows (i,0,{k})", amps[:, 0, :],
                              amps[:, :, k] @ f[:, 0], labels)
    for j in range(1, n):
        labels = [f"f({r},{j})" for r in range(n)]
        block = amps.transpose(0, 2, 1).reshape(m * p, n)
        f[:, j] = solve_block(len(steps) + 1, f"rows (i,{j},k)", block,
                              (amps[:, j, :] @ e).reshape(m * p), labels)
    return steps, np.concatenate([e.reshape(-1), f.reshape(-1)])
