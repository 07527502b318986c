"""Linear uniqueness test for tripartite pure states given two overlapping
two-party marginals.

Matching a tripartite state's AB and AC reduced states forces any
system-plus-environment purification into a rigid form. Writing the
purification's environment components as unknown vectors e(l,k) (from the
AB form) and f(r,j) (from the AC form), consistency of the two forms is a
homogeneous linear system whose scalar coefficient matrix depends only on
the state's amplitudes. The identity pattern e(l,k) = delta_lk * e,
f(r,j) = delta_rj * e always solves it; when it is the *only* solution the
purification is the original state tensored with an environment state, so
the state is uniquely determined by those two marginals among all density
matrices. This module defines the system, analyzes its kernel through an R
factor assembled from the amplitudes, and replays the block-by-block
elimination argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import AmplitudeTensor, rank_and_nullspace

__all__ = [
    "TripartiteShape",
    "ConsistencyMatrix",
    "UniquenessVerdict",
    "UNIQUE_LINEAR",
    "DEGENERATE",
    "RankDeficientBlockError",
    "EliminationStep",
    "EliminationReport",
    "build_consistency_matrix",
    "identity_pattern_vector",
    "check_linear_uniqueness",
    "sequential_elimination_trace",
]

UNIQUE_LINEAR = "UNIQUE_LINEAR"
DEGENERATE = "DEGENERATE"

DEFAULT_RANK_RTOL = 1e-8
# Largest distance from the identity pattern that still reads as a match.
_PATTERN_TOL = 1e-8
# Fewest rows of party A that the kernel certificate reads.
_PREFIX_FLOOR = 3
# Multiple of rows * cols * eps * ||K||_F by which the certificate moves
# each computed singular value and norm against itself to cover rounding.
_ROUNDING_ALLOWANCE = 10
_EPS = np.finfo(float).eps

DECIDED_BY_CERTIFICATE = "certificate"
DECIDED_BY_SVD = "svd"


@dataclass(frozen=True)
class TripartiteShape:
    """Dimensions (M, N, P) of the three coarse parties A, B, C."""

    M: int
    N: int
    P: int

    def __post_init__(self):
        if min(self.M, self.N, self.P) < 1:
            raise ValueError(f"dimensions must be >= 1, got {self}")

    @property
    def satisfies_bound(self) -> bool:
        """Whether M >= N + P - 1, the paper's sufficient condition for a
        generic state's kernel to be the identity-pattern line (the kernel
        can be a line below it too, e.g. at 3 x 3 x 3)."""
        return self.M >= self.N + self.P - 1

    @property
    def n_unknowns(self) -> int:
        return self.P * self.P + self.N * self.N

    @property
    def n_equations(self) -> int:
        return self.M * self.N * self.P


@dataclass(frozen=True)
class ConsistencyMatrix:
    """Coefficient matrix K of the homogeneous system in the environment
    unknowns, with row (i,j,k) encoding
    ``sum_l a[i,j,l] e(l,k) - sum_r a[i,r,k] f(r,j) = 0``.

    Columns are all e(l,k) in (l,k) lexicographic order followed by all
    f(r,j) in (r,j) lexicographic order (0-based indices).
    """

    shape: TripartiteShape
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        expect = (self.shape.n_equations, self.shape.n_unknowns)
        if self.matrix.shape != expect:
            raise ValueError(f"matrix shape {self.matrix.shape} != {expect}")
        self.matrix.setflags(write=False)


@dataclass(frozen=True)
class UniquenessVerdict:
    """Outcome of the kernel analysis of a consistency matrix.

    ``decided_by`` names the path that read the kernel: ``"certificate"``
    (the prefix bound of :func:`check_linear_uniqueness`) or ``"svd"`` (the
    SVD of K's R factor). ``certificate_gap`` is the certificate's lower
    bound on K's second-smallest singular value over ``||K||_F``, None when
    the SVD decided.
    """

    null_dim: int
    identity_pattern_match: bool
    residual: float
    verdict: str
    kernel: np.ndarray = field(repr=False)
    decided_by: str = DECIDED_BY_SVD
    certificate_gap: float | None = None

    def __post_init__(self):
        expected = UNIQUE_LINEAR if (self.null_dim == 1 and self.identity_pattern_match) else DEGENERATE
        if self.verdict != expected:
            raise ValueError("verdict inconsistent with null_dim / pattern match")


def _tripartite(a: AmplitudeTensor) -> TripartiteShape:
    if a.signature.n_parties != 3:
        raise ValueError(
            f"expected a tripartite state, got {a.signature.n_parties} parties"
        )
    m, n, p = a.signature.dims
    return TripartiteShape(m, n, p)


def build_consistency_matrix(a: AmplitudeTensor) -> ConsistencyMatrix:
    """Assemble K for a tripartite state with signature (M, N, P).

    K has M*N*P rows and P^2 + N^2 columns; the entry of row (i,j,k) at
    column e(l,k) is a[i,j,l] and at column f(r,j) is -a[i,r,k].

    This dense K is the reference definition of the system, for tests and
    measurements. No verdict is computed from it:
    :func:`check_linear_uniqueness` reads the kernel off an R factor of K
    that it builds from the amplitudes.
    """
    shape = _tripartite(a)
    m, n, p = shape.M, shape.N, shape.P
    amps = a.amplitudes
    k_mat = np.zeros((m * n * p, shape.n_unknowns), dtype=complex)
    kt = k_mat.reshape(m, n, p, shape.n_unknowns)
    for k in range(p):
        for l in range(p):
            kt[:, :, k, l * p + k] = amps[:, :, l]
    for j in range(n):
        for r in range(n):
            kt[:, j, :, p * p + r * n + j] -= amps[:, r, :]
    return ConsistencyMatrix(shape, k_mat)


def _identity_pattern(shape: TripartiteShape, value: float = 1.0) -> np.ndarray:
    """``value`` at every diagonal unknown e(l,l) and f(r,r), 0 elsewhere."""
    p, n = shape.P, shape.N
    v = np.zeros(p * p + n * n, dtype=complex)
    v[:p * p:p + 1] = value
    v[p * p::n + 1] = value
    return v


def identity_pattern_vector(shape: TripartiteShape) -> np.ndarray:
    """Unit vector along the identity pattern (1 at every e(l,l) and f(r,r)).

    It lies in the kernel of every consistency matrix because the two sums
    in each row then both reduce to the same amplitude.
    """
    return _identity_pattern(shape, 1 / math.sqrt(shape.N + shape.P))


def _rotated_blocks(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``R1`` and the stacked ``H_k`` of :func:`_consistency_r_factor`.

    ``h`` has rows (s, k), s the row of Q^H, and columns f(r, j).
    """
    m, n, p = amps.shape
    mn = m * n
    q, r1 = np.linalg.qr(amps.reshape(mn, p), mode="complete")
    # h[(s, k), (r, j)] = H_k[s, (r, j)] = sum_i conj(Q[(i, j), s]) a[i, r, k]
    h = (q.conj().reshape(m, n * mn).T @ amps.reshape(m, n * p)).reshape(n, mn, n, p)
    return r1, h.transpose(1, 3, 2, 0).reshape(mn * p, n * n)


def _consistency_r_factor(amps: np.ndarray) -> np.ndarray:
    """An R factor of K, assembled from the amplitudes without forming K.

    Grouped by k, K's rows form blocks ``[A1 on e(.,k) | -(a_k kron I_N)]``
    with ``A1 = a.reshape(M*N, P)``. One complete QR ``A1 = Q [R1; 0]``
    rotates every block to ``[R1 | -H_k]``, ``H_k = Q^H (a_k kron I_N)``.
    The first ``t = min(M*N, P)`` rows of each rotated block are kept; the
    rest touch only the f columns, and one more QR reduces their stack to
    ``R_S``. Both steps multiply K on the left by a unitary and drop zero
    rows, so the result has K's singular values and right singular vectors.
    Row order is free, so rows are indexed (s, k), s the row of Q^H.
    """
    m, n, p = amps.shape
    t = min(m * n, p)
    r1, h = _rotated_blocks(amps)
    r_s = np.linalg.qr(h[t * p:], mode="r")
    r = np.zeros((t * p + r_s.shape[0], p * p + n * n), dtype=complex)
    # R1[s, l] at row (s, k), column e(l, k) = l*P + k: kron(R1[:t], I_P).
    r[:t * p, :p * p] = (r1[:t, None, :, None] * np.eye(p)[:, None, :]).reshape(t * p, p * p)
    r[:t * p, p * p:] = -h[:t * p]
    r[t * p:, p * p:] = r_s
    return r


def _prefix_rows(m: int, n: int, p: int) -> int:
    """Rows M' of party A that :func:`_kernel_certificate` reads: the
    smallest M' >= 3 with M'N >= P (``R1`` square) and M'NP - P^2 >= N^2 - 1
    (``R_S`` can reach rank N^2 - 1), capped at M. The floor is 3 because
    a 2 x P x P state's kernel has dimension P, never a line."""
    need = max(_PREFIX_FLOOR, -(-p // n), -(-(p * p + n * n - 1) // (n * p)))
    return min(need, m)


def _inverse_iteration(r_s: np.ndarray, size: int, sigma_max: float) -> np.ndarray:
    """An approximate kernel vector of the upper-triangular ``r_s``, whose
    largest singular value is ``sigma_max``, by one step of inverse
    iteration (Ipsen, "Computing an eigenvector with inverse iteration",
    SIAM Review 39, 1997).

    ``r_s`` is padded with zero rows to ``size x size`` and every diagonal
    entry of magnitude below ``floor = eps * sigma_max`` is raised to
    ``floor``, so that no pivot is zero; one solve against ``floor`` times
    the last unit vector gives the vector. Where the kernel vector's last
    entry is nonzero, as the identity pattern's is, the last pivot is the
    small one: the solve is back substitution through the leading rows, and
    the vector's last entry is 1 when that pivot was raised. The vector is
    not normalized, and nothing here needs to be exact:
    :func:`_kernel_certificate` checks the vector it lifts on all of K.
    """
    tri = np.zeros((size, size), dtype=complex)
    tri[:r_s.shape[0]] = r_s
    diag = tri.reshape(-1)[::size + 1]
    floor = _EPS * sigma_max
    diag[np.abs(diag) < floor] = floor
    last = np.zeros(size)
    last[-1] = floor
    return np.linalg.solve(tri, last)


def _kernel_certificate(amps: np.ndarray, rank_rtol: float):
    """Prove from a prefix of party A that K's kernel is a line.

    Returns ``(x, gap)`` with x a unit kernel vector in K's column order and
    gap the proven lower bound on K's second-smallest singular value over
    ``||K||_F``, or None when the proof is refused.

    ``K_pre``, the K of ``a[:M']``, is K with rows deleted, so
    ``sigma_{n-1}(K) >= sigma_{n-1}(K_pre)``. Its R factor is
    ``[[R1 kron I, -H_top], [0, R_S]]``, and the factorization
    ``diag(R1 kron I, R_S) [[I, -R1^-1 H_top], [0, I]]`` gives
    ``sigma_{n-1}(K_pre) >= min(sigma_min(R1), sigma_{N^2-1}(R_S)) /
    (1 + ||H_top|| / sigma_min(R1))``. Householder QR and the SVD are
    backward stable, with an error below a small multiple of
    rows * cols * eps * ||K||_F (Higham, *Accuracy and Stability of
    Numerical Algorithms*, Thm 19.4), so each computed singular value is
    first lowered, and ``||H_top||``, bounded by its Frobenius norm, raised
    by ``_ROUNDING_ALLOWANCE`` times that. The bound must exceed
    ``rank_rtol * ||K||_F >= rank_rtol * sigma_max(K)``, so K has at least
    n - 1 singular values above the rank cut.

    The bound reads only singular values, so ``R_S``'s SVD computes no
    vectors. Its kernel vector f comes from one triangular solve, a step of
    inverse iteration (:func:`_inverse_iteration`), and is lifted to x
    through ``R1``; then ``||K x||`` is evaluated on all of K from the
    amplitudes. It must be at most ``rank_rtol * ||K||_F / sqrt(n) *
    ||x||``; since ``sigma_max(K) >= ||K||_F / sqrt(n)``, K's smallest
    singular value then lies at or below the cut. So K's numerical kernel
    is a line, and x lies within an angle ``asin(||K x|| / (bound *
    ||x||))`` of it. That argument uses only the bound and the residual of
    x, not how x was found: a solve that misses the kernel gives a large
    residual and a refused proof, never a wrong one.
    """
    m, n, p = amps.shape
    m_pre = _prefix_rows(m, n, p)
    if m_pre * n < p or (m_pre * n - p) * p < n * n - 1:
        return None
    n_cols = p * p + n * n
    k_norm = math.sqrt(n + p) * np.linalg.norm(amps)
    slack = _ROUNDING_ALLOWANCE * m_pre * n * p * n_cols * _EPS * k_norm
    r1, h = _rotated_blocks(amps[:m_pre])
    sigma_r1 = np.linalg.svd(r1[:p], compute_uv=False)[-1] - slack
    if sigma_r1 <= 0:
        return None
    r_s = np.linalg.qr(h[p * p:], mode="r")
    s = np.linalg.svd(r_s, compute_uv=False)
    h_norm = np.linalg.norm(h[:p * p]) + slack
    bound = min(sigma_r1, s[n * n - 2] - slack) / (1 + h_norm / sigma_r1)
    if not bound > rank_rtol * k_norm:
        return None
    f = _inverse_iteration(r_s, n * n, s[0])
    # Top rows of block k: R1 e(., k) = H_k[:P] f.
    e = np.linalg.solve(r1[:p], (h[:p * p] @ f).reshape(p, p))
    rows = (np.einsum("ijl,lk->ijk", amps, e)
            - np.einsum("irk,rj->ijk", amps, f.reshape(n, n)))
    x = np.concatenate([e.reshape(-1), f])
    x_norm = np.linalg.norm(x)
    if not np.linalg.norm(rows) <= rank_rtol * k_norm / math.sqrt(n_cols) * x_norm:
        return None
    return x / x_norm, float(bound / k_norm)


def check_linear_uniqueness(a: AmplitudeTensor,
                            rank_rtol: float = DEFAULT_RANK_RTOL) -> UniquenessVerdict:
    """Kernel analysis of the consistency matrix of a tripartite state.

    The verdict is UNIQUE_LINEAR iff the numerical kernel is one-dimensional
    and spanned by the identity-pattern vector (residual below
    ``_PATTERN_TOL``); any purification matching the AB and AC marginals is
    then the original state tensored with one environment state. Degenerate
    kernels are reported, never raised: non-generic states are a study
    target in their own right. A singular value counts as zero at or below
    ``rank_rtol * sigma_max(K)``.

    K itself is never formed. First a certificate tries to prove from the
    rows of a short prefix ``a[:M']`` of party A that K's kernel is a line
    (:func:`_kernel_certificate`): deleting rows only lowers singular values,
    so a lower bound on the prefix's second-smallest singular value,
    ``min(sigma_min(R1), sigma_{N^2-1}(R_S)) / (1 + ||H_top|| /
    sigma_min(R1))`` from its block R factor, holds for all of K; it must
    clear ``rank_rtol * ||K||_F``. The bound takes singular values only;
    the kernel vector comes from one triangular solve with ``R_S``, its
    small pivots raised to ``eps * sigma_max(R_S)`` (inverse iteration),
    lifted through ``R1``, and must solve all of K. That residual check is
    what makes the verdict a proof: x then lies within ``asin(||K x|| /
    (bound * ||x||))`` of K's kernel line however x was found. Then
    ``decided_by`` is ``"certificate"`` and
    ``certificate_gap`` is that bound over ``||K||_F``. Otherwise the rank
    and kernel are read off an R factor of K built block by block from the
    amplitudes (Chan's R-SVD; a matrix and its R factor share singular
    values and right singular vectors), ``decided_by`` is ``"svd"`` and
    ``certificate_gap`` is None. Either way the kernel is in K's column
    order.

    Raises ValueError when the kernel comes back empty: K annihilates the
    identity pattern exactly, so that only happens when ``rank_rtol`` lies
    below the rounding floor of the singular values.
    """
    shape = _tripartite(a)
    certificate = _kernel_certificate(a.amplitudes, rank_rtol)
    if certificate is not None:
        x, gap = certificate
        null_basis, decided_by = x[:, None], DECIDED_BY_CERTIFICATE
    else:
        _, null_basis = rank_and_nullspace(_consistency_r_factor(a.amplitudes), rtol=rank_rtol)
        gap, decided_by = None, DECIDED_BY_SVD
    null_dim = null_basis.shape[1]
    if null_dim == 0:
        raise ValueError(
            f"rank_rtol={rank_rtol:g} is below the rounding floor: the kernel came "
            "back empty, but the identity pattern solves the consistency system exactly")
    v_id = identity_pattern_vector(shape)
    # Distance from the identity pattern to its projection on the kernel.
    proj = null_basis @ (null_basis.conj().T @ v_id)
    residual = float(np.linalg.norm(v_id - proj))
    match = null_dim == 1 and residual < _PATTERN_TOL
    verdict = UNIQUE_LINEAR if match else DEGENERATE
    return UniquenessVerdict(null_dim, match, residual, verdict, null_basis, decided_by, gap)


class RankDeficientBlockError(Exception):
    """A block of the sequential elimination was rank deficient (non-generic
    input); carries the 1-based step index and the step label."""

    def __init__(self, step: int, label: str, rank: int, needed: int):
        self.step = step
        self.label = label
        self.rank = rank
        self.needed = needed
        super().__init__(
            f"step {step} ({label}): block rank {rank} < {needed}; "
            "input amplitudes are not generic"
        )


@dataclass(frozen=True)
class EliminationStep:
    """Per-block record of the sequential elimination."""

    index: int
    label: str
    n_rows: int
    unknowns: tuple[str, ...]
    rank: int
    residual: float
    values: dict[str, complex]


@dataclass(frozen=True)
class EliminationReport:
    steps: tuple[EliminationStep, ...]
    solution: np.ndarray = field(repr=False)
    max_deviation: float = 0.0
    verdict: str = UNIQUE_LINEAR


def sequential_elimination_trace(a: AmplitudeTensor) -> EliminationReport:
    """Replay the block elimination that solves the consistency system.

    Gauge: e(0,0) is pinned to 1 (the kernel's one free direction). The
    first block uses the rows (i, j=0, k=0) and solves the remaining e(.,0)
    and f(.,0); each following block k solves e(.,k) from rows (i, 0, k);
    finally each block j >= 1 solves f(.,j) from rows (i, j, .). Every block
    is solved by least squares on the current numeric values rather than by
    assuming previously solved unknowns are exactly zero, so rounding is
    tracked instead of compounded. The blocks k share one coefficient
    matrix, and so do the blocks j; each shared matrix is factored once and
    solved for all its right-hand sides together. A rank-deficient block
    aborts with :class:`RankDeficientBlockError`, naming the first step
    that uses it.

    Requires M >= N + P - 1; the final solution must agree with
    :func:`check_linear_uniqueness` on generic inputs.
    """
    shape = _tripartite(a)
    if not shape.satisfies_bound:
        raise ValueError(
            f"sequential elimination needs M >= N + P - 1, got {shape}"
        )
    m, n, p = shape.M, shape.N, shape.P
    amps = a.amplitudes
    e = np.full((p, p), np.nan + 0j)
    f = np.full((n, n), np.nan + 0j)
    e[0, 0] = 1.0  # gauge: the free direction is normalized here
    steps: list[EliminationStep] = []

    def solve_block(block, rhs, names):
        """Solve the block for each column c of ``rhs``, the step named
        ``names[c] = (label, unknowns)``. The block is factored once: the
        least-squares SVD also gives the rank, under the linear test's rule."""
        sol, _, _, s = np.linalg.lstsq(block, rhs, rcond=None)
        rank = int(np.sum(s > DEFAULT_RANK_RTOL * s[0]))
        if rank < block.shape[1]:
            raise RankDeficientBlockError(len(steps) + 1, names[0][0], rank, block.shape[1])
        residuals = np.linalg.norm(block @ sol - rhs, axis=0)
        for (label, unknowns), col, residual in zip(names, sol.T, residuals):
            steps.append(EliminationStep(
                len(steps) + 1, label, block.shape[0], unknowns, rank, float(residual),
                {lab: complex(val) for lab, val in zip(unknowns, col)},
            ))
        return sol

    # Block 1: rows (i, 0, 0); unknowns e(1..P-1, 0) and f(0..N-1, 0).
    labels = tuple(f"e({l},0)" for l in range(1, p)) + tuple(f"f({r},0)" for r in range(n))
    block = np.zeros((m, n + p - 1), dtype=complex)
    block[:, :p - 1] = amps[:, 0, 1:]            # e(l,0), l >= 1
    block[:, p - 1:] = -amps[:, :, 0]            # f(r,0)
    rhs = -amps[:, 0, 0] * e[0, 0]
    sol = solve_block(block, rhs[:, None], [("rows (i,0,0)", labels)])[:, 0]
    e[1:, 0] = sol[:p - 1]
    f[:, 0] = sol[p - 1:]

    # Blocks k = 1..P-1: rows (i, 0, k); unknowns e(., k). One block,
    # a[i,0,l] on e(l,k), with the known right-hand side of block k in column k-1.
    names = [(f"rows (i,0,{k})", tuple(f"e({l},{k})" for l in range(p))) for k in range(1, p)]
    e[:, 1:] = solve_block(amps[:, 0, :], f[:, 0] @ amps[:, :, 1:], names)

    # Blocks j = 1..N-1: rows (i, j, k) for all k; unknowns f(., j). One
    # block, a[i,r,k] on f(r,j), with sum_l a[i,j,l] e(l,k) in column j-1.
    names = [(f"rows (i,{j},k)", tuple(f"f({r},{j})" for r in range(n))) for j in range(1, n)]
    block = amps.transpose(0, 2, 1).reshape(m * p, n)
    rhs = (amps[:, 1:, :] @ e).transpose(0, 2, 1).reshape(m * p, n - 1)
    f[:, 1:] = solve_block(block, rhs, names)

    # Assemble the full unknown vector in consistency-matrix column order.
    solution = np.concatenate([e.reshape(-1), f.reshape(-1)])
    max_dev = float(np.abs(solution - _identity_pattern(shape)).max())
    verdict = UNIQUE_LINEAR if max_dev < np.sqrt(n + p) * _PATTERN_TOL * 10 else DEGENERATE
    return EliminationReport(tuple(steps), solution, max_dev, verdict)
