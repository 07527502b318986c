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
# Fraction of the RMS singular value of R_S at which the certificate first
# tries to bound R_S's second-smallest singular value from below.
_TAU_FRACTION = 0.125
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
    SVD of K's R factor). ``certificate_gap`` is the certificate's proven
    lower bound on K's second-smallest singular value over ``||K||_F``, None
    when the SVD decided.
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


def _kernel_certificate(amps: np.ndarray, rank_rtol: float) -> float | None:
    """Prove from a prefix of party A that K's kernel is a line.

    Returns the proven lower bound on K's second-smallest singular value
    over ``||K||_F``, or None when the proof is refused. No kernel vector is
    computed: K annihilates the identity pattern exactly, so once K's
    numerical kernel is proven at most a line, it is that pattern's line.

    ``K_pre``, the K of ``a[:M']``, is K with rows deleted, so
    ``sigma_{n-1}(K) >= sigma_{n-1}(K_pre)``. Its R factor is
    ``[[R1 kron I, -H_top], [0, R_S]]``, and the factorization
    ``diag(R1 kron I, R_S) [[I, -R1^-1 H_top], [0, I]]`` gives
    ``sigma_{n-1}(K_pre) >= min(sigma_min(R1), sigma_{N^2-1}(R_S)) /
    (1 + ||H_top|| / sigma_min(R1))``. Householder QR and the SVD are
    backward stable, with an error below a small multiple of
    rows * cols * eps * ||K||_F (Higham, *Accuracy and Stability of
    Numerical Algorithms*, Thm 19.4), so ``sigma_min(R1)`` and the proven
    tau are lowered, and ``||H_top||``, bounded by its Frobenius norm,
    raised, by ``slack``, ``_ROUNDING_ALLOWANCE`` times that. The bound must
    exceed the cut ``rank_rtol * ||K||_F >= rank_rtol * sigma_max(K)``, so K
    has at least n - 1 singular values above it; a cut within ``slack`` is
    refused, as rounding would decide its side.

    ``sigma_{N^2-1}(R_S) > tau`` is proven without forming ``R_S``. With the
    Gram ``G = H_S^H H_S`` of the rows below ``R1``, ``f = vec(I_N)`` and
    ``c = tr(G) / N``, Cauchy interlacing gives ``lambda_1(G + c f f^H) <=
    lambda_2(G) = sigma_{N^2-1}(R_S)^2``, so a Cholesky of
    ``G + c f f^H - (tau^2 + delta) I`` that runs to completion proves it.
    delta is twice the sum of three rounding bounds, in which ``gamma_k =
    k u / (1 - k u) <= k eps``, ``u = eps / 2``, becomes ``sqrt(2)
    gamma_{k+2}`` in complex arithmetic (Higham §3.6); doubling covers the
    second-order terms and the rounding of ``tr(G)``:

    - forming G from the r rows of ``H_S``: ``sqrt(2) gamma_{r+2} tr(G)``,
      since ``|dG| <= sqrt(2) gamma_{r+2} |H_S|^H |H_S|`` (Higham (3.13));
    - adding ``c f f^H`` and the shift: ``gamma_2 (2 tr(G) + tau^2)``;
    - the Cholesky: one that runs to completion factors the matrix plus a
      perturbation of norm ``sqrt(2) gamma_{N^2+3} ||R||_F^2 <= 2 sqrt(2)
      gamma_{N^2+3} tr(G)`` (Higham Thm 10.5; Rump, "Verification of
      positive definiteness", BIT 46, 2006).

    tau is tried at most twice, with no bisection: at ``_TAU_FRACTION`` of
    G's RMS singular value ``sqrt(tr(G) / N^2)``, then at twice ``tau_cut``,
    where the bound would meet the cut.
    """
    m, n, p = amps.shape
    m_pre = _prefix_rows(m, n, p)
    if m_pre * n < p or (m_pre * n - p) * p < n * n - 1:
        return None
    n_cols = p * p + n * n
    k_norm = math.sqrt(n + p) * np.linalg.norm(amps)
    slack = _ROUNDING_ALLOWANCE * m_pre * n * p * n_cols * _EPS * k_norm
    cut = rank_rtol * k_norm
    if cut <= slack:
        return None
    r1, h = _rotated_blocks(amps[:m_pre])
    sigma_r1 = np.linalg.svd(r1[:p], compute_uv=False)[-1] - slack
    if sigma_r1 <= 0:
        return None
    lift = 1 + (np.linalg.norm(h[:p * p]) + slack) / sigma_r1
    if sigma_r1 <= cut * lift:
        return None
    h_s = h[p * p:]
    gram = h_s.conj().T @ h_s
    tr_g = gram.trace().real
    ones = np.arange(n) * (n + 1)  # the entries f(r, r) of vec(I_N)
    gram[ones[:, None], ones] += tr_g / n
    # Half of delta, less its tau^2 term; each gamma_k is raised to k eps.
    rounding = (math.sqrt(2) * (h_s.shape[0] + 2 * n * n + 8) + 4) * _EPS * tr_g
    tau_cut = cut * lift + slack
    for tau in (_TAU_FRACTION * math.sqrt(tr_g) / n, 2 * tau_cut):
        if tau <= tau_cut:
            continue
        shifted = gram.copy()
        shifted.flat[::n * n + 1] -= tau * tau + 2 * (rounding + 2 * _EPS * tau * tau)
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            continue
        return float(min(sigma_r1, tau - slack) / lift / k_norm)
    return None


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

    K itself is never formed. First :func:`_kernel_certificate` tries to
    prove from a short prefix ``a[:M']`` of party A that K's kernel is a
    line: deleting rows only lowers singular values, and the prefix's block R
    factor bounds its second-smallest one by ``min(sigma_min(R1), tau) /
    (1 + ||H_top|| / sigma_min(R1))``, which must clear ``rank_rtol *
    ||K||_F``. One Cholesky of ``G + c f f^H - (tau^2 + delta) I``, ``G =
    H_S^H H_S``, ``f = vec(I_N)``, ``c = tr(G) / N``, proves
    ``sigma_{N^2-1}(R_S) > tau``, since Cauchy interlacing gives
    ``lambda_1(G + c f f^H) <= lambda_2(G) = sigma_{N^2-1}(R_S)^2``; delta
    bounds the rounding of G, of the update and of the Cholesky (Higham
    (3.13) and Thm 10.5; Rump 2006). tau is tried at ``_TAU_FRACTION`` of
    G's RMS singular value, then at twice the tau that meets the cut. The
    kernel is then the identity pattern, with residual 0, since K
    annihilates it exactly; ``decided_by`` is ``"certificate"`` and
    ``certificate_gap`` is the bound over ``||K||_F``. Otherwise the rank
    and kernel are read off an R factor of K built block by block from the
    amplitudes (Chan's R-SVD; a matrix and its R factor share singular
    values and right singular vectors), ``decided_by`` is ``"svd"`` and
    ``certificate_gap`` is None. Either way the kernel is in K's column
    order.

    Raises ValueError unless ``0 < rank_rtol < 1``, and when the kernel
    comes back empty: K annihilates the identity pattern exactly, so that
    only happens when ``rank_rtol`` lies below the rounding floor of the
    singular values.
    """
    if not 0 < rank_rtol < 1:
        raise ValueError(f"rank_rtol must lie in (0, 1), got {rank_rtol}")
    shape = _tripartite(a)
    v_id = identity_pattern_vector(shape)
    gap = _kernel_certificate(a.amplitudes, rank_rtol)
    if gap is not None:
        return UniquenessVerdict(1, True, 0.0, UNIQUE_LINEAR, v_id[:, None],
                                 DECIDED_BY_CERTIFICATE, gap)
    _, null_basis = rank_and_nullspace(_consistency_r_factor(a.amplitudes), rtol=rank_rtol)
    null_dim = null_basis.shape[1]
    if null_dim == 0:
        raise ValueError(
            f"rank_rtol={rank_rtol:g} is below the rounding floor: the kernel came "
            "back empty, but the identity pattern solves the consistency system exactly")
    # Distance from the identity pattern to its projection on the kernel.
    proj = null_basis @ (null_basis.conj().T @ v_id)
    residual = float(np.linalg.norm(v_id - proj))
    match = null_dim == 1 and residual < _PATTERN_TOL
    verdict = UNIQUE_LINEAR if match else DEGENERATE
    return UniquenessVerdict(null_dim, match, residual, verdict, null_basis)


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
