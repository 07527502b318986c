"""Dense complex linear algebra substrate: multi-party pure states, density
matrices, partial traces, the orthonormal generalized Gell-Mann
product-operator basis, Haar sampling and SVD rank/null-space tools.

Conventions fixed here and relied on by every other module:

- Party ordering is row-major: the first party is the slowest-varying index
  of a flattened state vector or density-matrix row.
- The traceless Hermitian single-party basis is the generalized Gell-Mann
  set, ordered (symmetric, antisymmetric, diagonal) and normalized so that
  ``Tr(B_i B_j) = 2 delta_ij``; at local dimension 2 it reduces to the
  Pauli matrices in the order x, y, z.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "PartySignature",
    "SeededRng",
    "AmplitudeTensor",
    "DensityMatrix",
    "haar_random_state",
    "to_density",
    "partial_trace_matrix",
    "coarse_grain",
    "gell_mann_basis",
    "rank_and_nullspace",
    "trace_distance",
    "trace_norm",
]

HERMITICITY_ATOL = 1e-12
PSD_ATOL = 1e-10
NORM_ATOL = 1e-12
# Tr(psi psi^+) = ||psi||^2, so a state within NORM_ATOL of unit norm gives a
# density matrix, and marginals, within 2 NORM_ATOL + NORM_ATOL^2 of unit
# trace; the third NORM_ATOL is room for the rounding of the sums.
TRACE_ATOL = 3 * NORM_ATOL


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _stream_index(value, what: str) -> int:
    """A seed or spawn index: an integer (not a float that would truncate) >= 0."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"a {what} must be a non-negative integer, got {value}")
    return value


def _require_finite(arr: np.ndarray, what: str) -> None:
    """Reject NaN and infinite entries, which every tolerance check lets pass."""
    if np.isfinite(arr).all():
        return
    bad = np.argwhere(~np.isfinite(arr))
    first = tuple(int(i) for i in bad[0])
    raise ValueError(f"{what} has {len(bad)} non-finite value(s), "
                     f"first {arr[first]} at index {first}")


@dataclass(frozen=True)
class PartySignature:
    """Ordered local Hilbert-space dimensions of a multi-party system."""

    dims: tuple[int, ...]

    def __init__(self, dims: Iterable[int]):
        object.__setattr__(self, "dims", tuple(int(d) for d in dims))
        if not self.dims:
            raise ValueError("signature needs at least one party")
        if any(d < 2 for d in self.dims):
            raise ValueError(f"every local dimension must be >= 2, got {self.dims}")

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def subsystem(self, keep: Sequence[int]) -> "PartySignature":
        """Signature of the sub-list of parties in ``keep`` (original order)."""
        keep = _validate_subset(keep, self.n_parties)
        return PartySignature(self.dims[p] for p in keep)

    def is_uniform(self) -> bool:
        return len(set(self.dims)) == 1


class SeededRng:
    """Deterministic random stream with stable, independent substreams.

    Identical seed plus identical call sequence yields identical output.
    ``spawn(i)`` derives the i-th substream; substreams with different index
    paths are statistically independent and individually reproducible. A
    substream is only its path ``(seed, i, j, ...)``: its numpy generator is
    built on the first draw, so streams that are never drawn from cost
    nothing. The seed and every index must be non-negative integers.
    """

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        self.seed = _stream_index(seed, "seed")
        self._path = _path

    @cached_property
    def generator(self) -> np.random.Generator:
        return np.random.default_rng((self.seed, *self._path))

    def spawn(self, index: int) -> "SeededRng":
        return SeededRng(self.seed, (*self._path, _stream_index(index, "spawn index")))

    def complex_normal(self, shape) -> np.ndarray:
        """I.i.d. standard complex Gaussians, real and imaginary parts N(0,1)."""
        g = self.generator
        return g.standard_normal(shape) + 1j * g.standard_normal(shape)

    def __repr__(self) -> str:  # pragma: no cover
        return f"SeededRng(seed={self.seed}, path={self._path})"


@dataclass(frozen=True)
class AmplitudeTensor:
    """Normalized pure state as a complex array with one index per party."""

    signature: PartySignature
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if amps.shape != self.signature.dims:
            raise ValueError(
                f"amplitude shape {amps.shape} does not match signature {self.signature.dims}"
            )
        _require_finite(amps, "amplitude tensor")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm {norm!r} is not 1 within {NORM_ATOL}")
        object.__setattr__(self, "amplitudes", _freeze(amps))

    @classmethod
    def from_vector(cls, vec, dims: Iterable[int]) -> "AmplitudeTensor":
        sig = PartySignature(dims)
        return cls(sig, np.asarray(vec, dtype=complex).reshape(sig.dims))

    def vector(self) -> np.ndarray:
        """Flat state vector in the row-major index convention."""
        return self.amplitudes.reshape(-1)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator with a party signature."""

    signature: PartySignature
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        mat = np.ascontiguousarray(self.matrix, dtype=complex)
        t = self.signature.total_dim
        if mat.shape != (t, t):
            raise ValueError(f"matrix shape {mat.shape} does not match total dimension {t}")
        _check_density(mat, np.linalg.eigvalsh(mat))
        object.__setattr__(self, "matrix", _freeze(mat))

    @classmethod
    def _checked(cls, signature: PartySignature, matrix: np.ndarray) -> "DensityMatrix":
        """A density matrix whose complex, contiguous ``matrix`` already
        passed :func:`_check_density`; the checks do not run again."""
        self = object.__new__(cls)
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "matrix", _freeze(matrix))
        return self

    @property
    def dims(self) -> tuple[int, ...]:
        return self.signature.dims


def _check_density(mats: np.ndarray, eigvals: np.ndarray) -> None:
    """The checks of :class:`DensityMatrix` on a matrix or a stack of them,
    given their ascending eigenvalues: finite, Hermitian, unit trace, and
    no eigenvalue below ``-PSD_ATOL``."""
    _require_finite(mats, "density matrix")
    herm_err = np.abs(mats - np.swapaxes(mats.conj(), -2, -1)).max()
    if herm_err > HERMITICITY_ATOL:
        raise ValueError(f"matrix is not Hermitian (max deviation {herm_err:.3e})")
    tr = np.ravel(np.trace(mats, axis1=-2, axis2=-1))
    off = np.abs(tr - 1.0)
    if off.max() > TRACE_ATOL:
        raise ValueError(f"trace {tr[np.argmax(off)]!r} is not 1 within {TRACE_ATOL}")
    min_eig = float(eigvals[..., 0].min())
    if min_eig < -PSD_ATOL:
        raise ValueError(f"matrix has negative eigenvalue {min_eig:.3e}")


def haar_random_state(signature: PartySignature, rng: SeededRng) -> AmplitudeTensor:
    """Draw a Haar-distributed pure state on the given signature.

    Amplitudes are i.i.d. standard complex Gaussians normalized to unit norm,
    which is exactly the unitarily invariant distribution on the sphere.
    """
    amps = rng.complex_normal(signature.dims)
    amps /= np.linalg.norm(amps)
    return AmplitudeTensor(signature, amps)


def to_density(state: AmplitudeTensor) -> DensityMatrix:
    """Rank-one density matrix of a pure state.

    The checks of :class:`DensityMatrix` do not run again: ``AmplitudeTensor``
    has already found ``psi`` finite and of unit norm within ``NORM_ATOL``,
    and ``psi psi^+`` is then exactly Hermitian (entry ``(j, i)`` is the
    conjugate of entry ``(i, j)``, the same products), positive
    semidefinite of rank one, and of trace within ``TRACE_ATOL`` of 1 (see
    that constant).
    """
    v = state.vector()
    return DensityMatrix._checked(state.signature, np.outer(v, v.conj()))


def _validate_subset(keep: Sequence[int], n_parties: int) -> tuple[int, ...]:
    keep = tuple(sorted(int(p) for p in keep))
    if not keep:
        raise ValueError("subset of parties must be non-empty")
    if len(set(keep)) != len(keep):
        raise ValueError(f"subset has repeated parties: {keep}")
    if keep[0] < 0 or keep[-1] >= n_parties:
        raise ValueError(f"party index out of range in {keep} (n_parties={n_parties})")
    return keep


def partial_trace_matrix(mat: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Partial trace of a square matrix over all parties not in ``keep``.

    Works on any operator (not only density matrices); linear and
    trace-preserving. ``keep`` is returned in ascending party order.
    """
    dims = tuple(int(d) for d in dims)
    return _partial_trace(mat, dims, _validate_subset(keep, len(dims)))


def _partial_trace(mat: np.ndarray, dims: tuple[int, ...], keep: tuple[int, ...]) -> np.ndarray:
    """:func:`partial_trace_matrix` for integer ``dims`` and a ``keep``
    that :func:`_validate_subset` already returned, over the last two axes
    (batchable)."""
    n = len(dims)
    mat = np.asarray(mat, dtype=complex)
    lead = mat.shape[:-2]
    row = list(range(n))
    col = [n + p if p in keep else p for p in range(n)]
    out = [p for p in keep] + [n + p for p in keep]
    reduced = np.einsum(mat.reshape(lead + dims + dims), [...] + row + col, [...] + out)
    dk = math.prod(dims[p] for p in keep)
    return reduced.reshape(lead + (dk, dk))


def coarse_grain(state: AmplitudeTensor, group_sizes: Sequence[int]) -> AmplitudeTensor:
    """Merge consecutive parties into coarse parties of the given group sizes.

    The amplitudes are unchanged; only the indexing is regrouped, which is
    consistent because parties are row-major ordered.
    """
    sizes = [int(g) for g in group_sizes]
    if any(g < 1 for g in sizes) or sum(sizes) != state.signature.n_parties:
        raise ValueError(
            f"group sizes {sizes} do not partition {state.signature.n_parties} parties"
        )
    dims = state.signature.dims
    merged = []
    pos = 0
    for g in sizes:
        merged.append(int(np.prod(dims[pos:pos + g])))
        pos += g
    return AmplitudeTensor(PartySignature(merged), state.amplitudes.reshape(merged))


# ---------------------------------------------------------------------------
# Generalized Gell-Mann product-operator basis
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def gell_mann_basis(d: int) -> np.ndarray:
    """Single-party operator basis of shape ``(d*d, d, d)``.

    Index 0 is the identity; indices 1..d^2-1 are the traceless Hermitian
    generalized Gell-Mann matrices ordered (symmetric, antisymmetric,
    diagonal), normalized so ``Tr(B_i B_j) = 2 delta_ij``. For d=2 this is
    (I, sigma_x, sigma_y, sigma_z).
    """
    if d < 2:
        raise ValueError("local dimension must be >= 2")
    mats = [np.eye(d, dtype=complex)]
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = 1.0
            m[k, j] = 1.0
            mats.append(m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            mats.append(m)
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        m[np.arange(l), np.arange(l)] = 1.0
        m[l, l] = -float(l)
        m *= np.sqrt(2.0 / (l * (l + 1)))
        mats.append(m)
    return _freeze(np.stack(mats))


@lru_cache(maxsize=None)
def _unit_basis(d: int) -> np.ndarray:
    """:func:`gell_mann_basis` scaled to unit Hilbert-Schmidt norm; at
    ``d = 1``, the 1 x 1 identity, the basis of a one-dimensional face."""
    scale = np.full(d * d, 1 / np.sqrt(2.0))
    scale[0] = 1 / np.sqrt(d)
    basis = gell_mann_basis(d) if d > 1 else np.ones((1, 1, 1), dtype=complex)
    return _freeze(basis * scale[:, None, None])


@lru_cache(maxsize=None)
def _pair_to_label(d: int) -> np.ndarray:
    """``M^T`` for the matrix ``M`` below: rows ``i d + j``, columns ``l``."""
    return _freeze(np.ascontiguousarray(_unit_basis(d).conj().reshape(d * d, d * d).T))


# The coefficients Tr(X B_L) of a T x T matrix X over every product-operator
# label L = (l_1, ..., l_n), and back, one party at a time; B_L is the
# Kronecker product over parties of the unit-norm basis matrices b_{l_p}, an
# orthonormal basis of the Hermitian matrices over all L. X is read as a tensor with one
# (row, column) index pair per party; party p's pair (i, j) meets its label
# l through the d^2 x d^2 matrix M[l, i d + j] = conj(b_l[i, j]), b_l the
# unit-norm basis. Each step contracts one pair into its label, or one label
# into its pair, and moves the new axis last, so after every party the axes
# are back in party order. The labels come out flattened row-major, in
# the order of the sorted label tuples.

def _product_coefficients(x: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """``Tr(X B_L)`` for every label ``L``, over the last two axes of ``x``
    (batchable); the real part, which is all of it for Hermitian ``X``."""
    n, t = len(dims), x.shape[-1]
    a = x.reshape((-1,) + dims + dims)
    a = a.transpose([0] + [q for p in range(n) for q in (1 + p, 1 + n + p)])
    a = a.reshape(len(a), -1)
    for d in dims:
        a = np.matmul(a.reshape(len(a), d * d, -1).transpose(0, 2, 1), _pair_to_label(d))
    return a.real.reshape(x.shape[:-2] + (t * t,))


def _product_combination(c: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """``sum_L c_L B_L`` for real coefficients over every label (batchable):
    the inverse of :func:`_product_coefficients`."""
    n, t = len(dims), math.prod(dims)
    a = c.reshape(-1, t * t)
    for d in dims:
        a = np.matmul(a.reshape(len(a), d * d, -1).transpose(0, 2, 1),
                      _unit_basis(d).reshape(d * d, d * d))
    a = a.reshape((len(a),) + tuple(k for d in dims for k in (d, d)))
    a = a.transpose([0] + [1 + 2 * p for p in range(n)] + [2 + 2 * p for p in range(n)])
    return a.reshape(c.shape[:-1] + (t, t))


# ---------------------------------------------------------------------------
# Eigen / SVD utilities
# ---------------------------------------------------------------------------

def rank_and_nullspace(matrix: np.ndarray, rtol: float | None = None):
    """Numerical rank and an orthonormal null-space basis via SVD.

    A singular value counts as zero at or below ``rtol * sigma_max``; ``rtol``
    must lie in (0, 1), and without it the threshold is
    ``max(rows, cols) * eps * sigma_max``. Returns ``(rank, null_basis)``
    where the basis columns span the kernel.

    The kernel is read off ``V``, never ``U``. A tall or square matrix's thin
    SVD already holds all of ``V`` (cols x cols), so the rows x rows ``U`` of
    a full SVD is never built; only a wide matrix, whose thin ``V`` has just
    ``rows`` rows, takes the full ``V``.
    """
    if rtol is not None and not 0 < rtol < 1:
        raise ValueError(f"rtol must lie in (0, 1), got {rtol}")
    m = np.atleast_2d(np.asarray(matrix))
    if m.size == 0:
        raise ValueError("empty matrix")
    _, s, vh = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    smax = s[0] if s.size else 0.0
    if rtol is None:
        rtol = max(m.shape) * np.finfo(float).eps
    threshold = rtol * smax
    rank = int(np.sum(s > threshold))
    null_basis = vh[rank:].conj().T
    return rank, null_basis


def trace_distance(a, b) -> float:
    """Trace distance ``0.5 * ||a - b||_1`` between Hermitian matrices."""
    am = a.matrix if isinstance(a, DensityMatrix) else np.asarray(a)
    bm = b.matrix if isinstance(b, DensityMatrix) else np.asarray(b)
    return 0.5 * trace_norm(am - bm)


def trace_norm(x: np.ndarray) -> float:
    """Sum of singular values of a Hermitian matrix (sum of |eigenvalues|)."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(x))))
