"""Outside-in correctness gate.

Every check here recomputes what it needs from the op's input with plain
numpy or Python integers, and reads from the library's answer only the
verdict and the objects the verdict claims (witnesses, kernels, solutions,
counts). Each check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import math

import numpy as np

from qmarginal.feasibility import INCONCLUSIVE, NON_UNIQUE, UNIQUE
from qmarginal.tensor import partial_trace_matrix
from qmarginal.uniqueness import UNIQUE_LINEAR

from .tracing import NULL_TRACER

WITNESS_MARGINAL_TOL = 1e-9    # Frobenius distance of each witness marginal
WITNESS_TRACE_TOL = 1e-9
WITNESS_EIG_FLOOR = -1e-10
WITNESS_MIN_DISTANCE = 1e-4    # trace distance from the reference state
LINEAR_TOL = 1e-8              # kernel / elimination checks, relative

DECISIVE = frozenset({UNIQUE, NON_UNIQUE, UNIQUE_LINEAR})


def reference_density(amplitudes: np.ndarray) -> np.ndarray:
    v = np.asarray(amplitudes, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


def _trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    diff = a - b
    return 0.5 * float(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2)).sum())


def check_witness(reference: np.ndarray, witness: np.ndarray, dims, subsets,
                  tracer=NULL_TRACER) -> list[str]:
    """A NON_UNIQUE witness must be a state with the reference's marginals
    on every subset and lie measurably far from the reference."""
    problems = []
    for subset in subsets:
        with tracer.span("tensor.partial_trace"):
            diff = partial_trace_matrix(witness, dims, subset) - \
                partial_trace_matrix(reference, dims, subset)
        residual = float(np.linalg.norm(diff))
        if not residual < WITNESS_MARGINAL_TOL:
            problems.append(f"witness marginal residual {residual:.3e} on {subset}")
    trace = complex(np.trace(witness))
    if not abs(trace - 1.0) <= WITNESS_TRACE_TOL:
        problems.append(f"witness trace {trace:.12g}")
    herm = float(np.abs(witness - witness.conj().T).max())
    if not herm <= WITNESS_TRACE_TOL:
        problems.append(f"witness not Hermitian ({herm:.3e})")
    min_eig = float(np.linalg.eigvalsh((witness + witness.conj().T) / 2)[0])
    if not min_eig >= WITNESS_EIG_FLOOR:
        problems.append(f"witness eigenvalue {min_eig:.3e}")
    distance = _trace_distance(witness, reference)
    if not distance > WITNESS_MIN_DISTANCE:
        problems.append(f"witness trace distance {distance:.3e}")
    return problems


def check_probe(amplitudes: np.ndarray, subsets, verdict, must_be_non_unique: bool,
                tracer=NULL_TRACER) -> list[str]:
    """Gate one ``uniqueness_probe`` verdict on the state it was given."""
    name = verdict.verdict
    if name not in (UNIQUE, NON_UNIQUE, INCONCLUSIVE):
        return [f"unknown oracle verdict {name!r}"]
    problems = []
    if must_be_non_unique and name != NON_UNIQUE:
        problems.append(f"GHZ-family state reported {name}")
    if name == NON_UNIQUE:
        reference = reference_density(amplitudes)
        if len(verdict.witnesses) < 2:
            return problems + ["NON_UNIQUE without a distinct witness"]
        listed = np.asarray(verdict.witnesses[0].matrix)
        if not float(np.abs(listed - reference).max()) <= 1e-12:
            problems.append("first witness is not the reference state")
        problems += check_witness(reference, np.asarray(verdict.witnesses[1].matrix),
                                  np.shape(amplitudes), subsets, tracer)
    return problems


def check_linear_vs_oracle(linear_verdict: str, oracle_verdict: str) -> list[str]:
    """The linear test proves uniqueness, so the oracle may not contradict it."""
    if linear_verdict == UNIQUE_LINEAR and oracle_verdict == NON_UNIQUE:
        return ["UNIQUE_LINEAR state reported NON_UNIQUE by the oracle"]
    return []


def _consistency_residual(amps: np.ndarray, x: np.ndarray) -> float:
    """``||K x|| / (||a|| ||x||)`` for the tripartite consistency system,
    evaluated row by row from the amplitudes, without the library's K."""
    m, n, p = amps.shape
    e = x[:p * p].reshape(p, p)
    f = x[p * p:].reshape(n, n)
    rows = np.einsum("ijl,lk->ijk", amps, e) - np.einsum("irk,rj->ijk", amps, f)
    return float(np.linalg.norm(rows)) / (float(np.linalg.norm(amps)) * float(np.linalg.norm(x)))


def _identity_pattern(n: int, p: int) -> np.ndarray:
    return np.concatenate([np.eye(p).reshape(-1), np.eye(n).reshape(-1)]).astype(complex)


def check_linear(amps: np.ndarray, linear, elimination) -> list[str]:
    """Both analytic verdicts must be UNIQUE_LINEAR and must agree: the
    kernel is the identity-pattern line and the elimination replay solves
    the consistency system with that same pattern."""
    amps = np.asarray(amps)
    _, n, p = amps.shape
    problems = []
    if linear.verdict != UNIQUE_LINEAR:
        problems.append(f"linear check reported {linear.verdict}")
    if elimination.verdict != linear.verdict:
        problems.append(f"elimination {elimination.verdict} disagrees with "
                        f"linear check {linear.verdict}")
    pattern = _identity_pattern(n, p)
    kernel = np.asarray(linear.kernel)
    if kernel.shape != (pattern.size, 1):
        problems.append(f"kernel has shape {kernel.shape}")
    else:
        k = kernel[:, 0]
        overlap = abs(np.vdot(pattern, k)) / (np.linalg.norm(pattern) * np.linalg.norm(k))
        if not overlap > 1 - LINEAR_TOL:
            problems.append(f"kernel overlap with the identity pattern {overlap:.3e}")
        if not _consistency_residual(amps, k) < LINEAR_TOL:
            problems.append("kernel vector does not solve the consistency system")
    solution = np.asarray(elimination.solution)
    if not _consistency_residual(amps, solution) < LINEAR_TOL:
        problems.append("elimination solution does not solve the consistency system")
    deviation = float(np.abs(solution - pattern).max())
    if not deviation < LINEAR_TOL * 10 * math.sqrt(n + p):
        problems.append(f"elimination solution is {deviation:.3e} from the identity pattern")
    return problems


def minimal_k(n: int, d: int) -> int:
    """Smallest k with sum_{r<=k} C(n,r) (d^2-1)^r >= 2 d^n - 2, by a running
    sum of exact integers."""
    q = d * d - 1
    target = 2 * d ** n - 2
    total, term = 0, 1
    for r in range(1, n + 1):
        term = term * (n - r + 1) // r * q
        total += term
        if total >= target:
            return r
    raise ValueError(f"no sufficient k for n={n}, d={d}")


def _alpha_condition(a: float, d: int) -> float:
    entropy = -a * math.log(a) - (1 - a) * math.log(1 - a)
    return entropy + a * math.log(d * d - 1) - math.log(d)


def check_counting(n: int, d: int, fraction: tuple[int, float], alpha: float) -> list[str]:
    problems = []
    k, share = fraction
    expected = minimal_k(n, d)
    if k != expected or share != expected / n:
        problems.append(f"finite-n fraction ({k}, {share}) for n={n}, d={d}; "
                        f"expected k={expected}")
    step = 1e-9
    if not (step < alpha <= 0.5 and _alpha_condition(alpha - step, d) < 0
            and _alpha_condition(min(alpha + step, 0.5), d) > 0):
        problems.append(f"alpha {alpha!r} for d={d} does not bracket the root")
    return problems
