"""The paper's claims, each defined once: its computation and its check.

``qmarginal reproduce`` reports every claim under ``results.checks`` and
``tests/test_acceptance.py`` asserts each at its own seed and sizes; both
call these functions. Each is named after its report check and returns
``(ok, values)``, the verdict and the numbers it was decided on. Seeds,
substream (spawn) indices and sizes are parameters, thresholds are not;
wall time is the caller's to measure, so reports stay byte-stable.

Registry (``CLAIMS`` key: test in ``tests/test_acceptance.py``):

- ``alpha_qubit_in_window``: ``test_c01_lower_bound_root_qubits``
- ``alpha_monotone_d_2_10``: ``test_c02a_lower_bound_monotone_in_d`` (d up to 50)
- ``counting_identity``: ``test_c03_counting_identity``
- ``finite_n_comparison``: ``test_c04_finite_n_comparison``
- ``upper_fractions_decrease_to_two_thirds``: none, ``reproduce`` only
  (``tests/test_bounds.py::TestAlphaUpperTable`` tests the same table)
- ``linear_genericity``: ``test_c05_linear_uniqueness_genericity``
- ``identity_pattern_invariant``: ``test_c06_identity_pattern_algebraic_invariant``
- ``oracle_positive_control``: ``test_c07_oracle_positive_control``
- ``oracle_negative_control``: ``test_c08_oracle_negative_control_ghz``
- ``oracle_four_qubit_pairs``: ``test_c13_oracle_four_qubit_pairs``
- ``constraint_kernel_dims``: ``test_c09_constraint_kernel_dimensions``
- ``linear_oracle_consistency``: ``test_c10_linear_oracle_consistency``
- ``classical_counterexample``: ``test_c11_classical_counterexample``
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from .bounds import alpha_upper_table, bounds_rows, count_reduced_params, solve_alpha_lower
from .classical import (JointDistribution, alternating_deviation, classical_marginal,
                        counterexample_pair)
from .feasibility import (NON_UNIQUE, UNIQUE, _constraint_layout, genericity_survey,
                          uniqueness_probe)
from .tensor import (AmplitudeTensor, PartySignature, SeededRng, haar_random_state,
                     partial_trace_matrix, to_density)
from .uniqueness import (UNIQUE_LINEAR, build_consistency_matrix, check_linear_uniqueness,
                         identity_pattern_vector)

PAIRS3 = ((0, 1), (0, 2), (1, 2))
PAIRS4 = tuple(itertools.combinations(range(4), 2))


def ghz_state(n: int, a: float | None = None) -> AmplitudeTensor:
    """``a|0...0> + sqrt(1-|a|^2)|1...1>`` on n qubits; a = 1/sqrt(2) by default."""
    amp = 1 / np.sqrt(2) if a is None else a
    vec = np.zeros(2 ** n, dtype=complex)
    vec[0] = amp
    vec[-1] = np.sqrt(1 - abs(amp) ** 2)
    return AmplitudeTensor.from_vector(vec, [2] * n)


def pair_statistics(p: JointDistribution, q: JointDistribution) -> dict:
    """How far apart two joints are, and how far their marginals are.

    ``max_marginal_difference`` is the largest entrywise difference over
    every (n-1)-variable marginal (n >= 2), ``l1_distance`` is
    ``||p - q||_1`` and ``deviation_l1`` the L1 norm of the alternating
    deviation of p's shape.
    """
    n, d = len(p.arity), p.arity[0]
    return {
        "max_marginal_difference": max(
            float(np.abs(classical_marginal(p, keep).probabilities
                         - classical_marginal(q, keep).probabilities).max())
            for keep in itertools.combinations(range(n), n - 1)),
        "l1_distance": float(np.abs(p.probabilities - q.probabilities).sum()),
        "deviation_l1": float(np.abs(alternating_deviation(n, d)).sum()),
    }


def alpha_qubit_in_window() -> tuple[bool, dict]:
    sol = solve_alpha_lower(2)
    ok = 0.1885 <= sol.alpha <= 0.1895 and sol.residual < 1e-12
    return ok, {"alpha": sol.alpha, "residual": sol.residual}


def alpha_monotone_d_2_10(d_max: int = 10) -> tuple[bool, dict]:
    solutions = [solve_alpha_lower(d) for d in range(2, d_max + 1)]
    ok = all(b.alpha >= a.alpha for a, b in zip(solutions, solutions[1:]))
    return ok, {"solutions": solutions}


def counting_identity() -> tuple[bool, dict]:
    return all(count_reduced_params(n, n, d) + 1 == d ** (2 * n)
               for n in range(1, 21) for d in range(2, 6)), {}


def finite_n_comparison() -> tuple[bool, dict]:
    rows = bounds_rows(3, 2, k_max=3)
    one, two = rows[0], rows[1]
    ok = (one.reduced_param_count == 9 and not one.sufficient_by_count
          and two.reduced_param_count == 36 and two.sufficient_by_count
          and two.pure_param_count == 14)  # so 9 < 14 <= 36
    return ok, {"rows": rows}


def upper_fractions_decrease_to_two_thirds() -> tuple[bool, dict]:
    table = alpha_upper_table(5)
    fracs = [r["fraction"] for r in table if r["m"] is not None]
    ok = (all(a > b for a, b in zip(fracs, fracs[1:]))
          and all(f > Fraction(2, 3) for f in fracs)
          and table[-1]["fraction"] == Fraction(2, 3))
    return ok, {"table": table, "fractions": fracs}


def linear_genericity(seed: int, spawn: int, trials: int) -> tuple[bool, dict]:
    base = SeededRng(seed).spawn(spawn)
    sig = PartySignature([4, 2, 2])
    hits = 0
    worst_residual = 0.0
    for t in range(trials):
        v = check_linear_uniqueness(haar_random_state(sig, base.spawn(t)))
        if v.verdict == UNIQUE_LINEAR and v.null_dim == 1 and v.residual < 1e-8:
            hits += 1
            worst_residual = max(worst_residual, v.residual)
    ok = hits >= trials - max(1, trials // 200)
    return ok, {"trials": trials, "unique_linear": hits, "worst_residual": worst_residual}


def identity_pattern_invariant(seed: int, spawn: int, shapes) -> tuple[bool, dict]:
    base = SeededRng(seed).spawn(spawn)
    tensors = 1000
    worst = 0.0
    for t in range(tensors):
        shape = shapes[t % len(shapes)]
        cm = build_consistency_matrix(haar_random_state(PartySignature(shape), base.spawn(t)))
        v = identity_pattern_vector(cm.shape)
        rel = float(np.linalg.norm(cm.matrix @ v)) / float(np.linalg.norm(cm.matrix))
        worst = max(worst, rel)
    return worst <= 1e-12, {"tensors": tensors, "worst_relative_residual": worst}


def oracle_positive_control(seed: int, spawn: int, trials: int) -> tuple[bool, dict]:
    verdicts = []
    good = 0
    for _, v in genericity_survey(PartySignature([2, 2, 2]), PAIRS3, trials,
                                  SeededRng(seed).spawn(spawn)):
        verdicts.append(v.verdict)
        good += v.verdict == UNIQUE and all(r.distance <= 1e-4 for r in v.runs)
    ok = good >= trials - max(1, trials // 20)
    return ok, {"trials": trials, "verdicts": verdicts, "unique": good}


def oracle_negative_control(seed: int) -> tuple[bool, dict]:
    """GHZ from its pair marginals. The witness marginals are recomputed
    from partial traces, independently of the oracle's own residual; the
    witness distance is the trace distance of the oracle's two witnesses."""
    state = ghz_state(3)
    rho = to_density(state)
    v = uniqueness_probe(state, PAIRS3, rng=SeededRng(seed))
    non_unique = v.verdict == NON_UNIQUE and len(v.witnesses) >= 2
    witness = v.witnesses[1] if non_unique else rho
    witness_marginal = max(
        float(np.linalg.norm(partial_trace_matrix(witness.matrix, (2, 2, 2), s)
                             - partial_trace_matrix(rho.matrix, (2, 2, 2), s)))
        for s in PAIRS3)
    mix = np.zeros((8, 8), dtype=complex)
    mix[0, 0] = mix[7, 7] = 0.5
    mixture_marginal = max(
        float(np.abs(partial_trace_matrix(mix, (2, 2, 2), s)
                     - partial_trace_matrix(rho.matrix, (2, 2, 2), s)).max())
        for s in PAIRS3)
    witness_distance = max(v.pairwise_distances) if v.pairwise_distances else 0.0
    ok = (non_unique and witness_distance >= 0.2
          and v.max_marginal_residual < 1e-9 and witness_marginal < 1e-9
          and mixture_marginal < 1e-12)
    return ok, {
        "verdict": v.verdict,
        "max_marginal_residual": v.max_marginal_residual,
        "witness_marginal_residual": witness_marginal,
        "witness_distance": witness_distance,
        "mixture_marginal_residual": mixture_marginal,
    }


def oracle_four_qubit_pairs(seed: int, spawn: int, trials: int) -> tuple[bool, dict]:
    """Haar 4-qubit states are certified UNIQUE from their pair marginals.
    Every pair marginal has full rank, so this is the parent-Hamiltonian
    certificate's case; none may come back NON_UNIQUE."""
    verdicts = []
    certified = 0
    for _, v in genericity_survey(PartySignature([2, 2, 2, 2]), PAIRS4, trials,
                                  SeededRng(seed).spawn(spawn)):
        verdicts.append(v.verdict)
        certified += v.verdict == UNIQUE and v.certified
    ok = certified >= trials - max(1, trials // 20) and NON_UNIQUE not in verdicts
    return ok, {"trials": trials, "verdicts": verdicts, "certified": certified}


def _unpinned_count(dims: tuple[int, ...], subsets) -> int:
    """The dimension of the constraint kernel: the product-operator labels
    that neither unit trace nor any subset's marginal pins."""
    return PartySignature(dims).total_dim ** 2 - len(_constraint_layout(dims, subsets)[0])


def constraint_kernel_dims() -> tuple[bool, dict]:
    k3 = _unpinned_count((2, 2, 2), PAIRS3)
    k2 = _unpinned_count((2, 2), ((0,), (1,)))
    return k3 == 27 and k2 == 9, {"three_qubit_pairs": k3, "two_qubit_singles": k2}


def linear_oracle_consistency(seed: int, spawn: int, trials: int) -> tuple[bool, dict]:
    rows = []
    contradictions = 0
    for state, v in genericity_survey(PartySignature([4, 2, 2]), [(0, 1), (0, 2)], trials,
                                      SeededRng(seed).spawn(spawn)):
        lin = check_linear_uniqueness(state).verdict
        rows.append({"linear": lin, "oracle": v.verdict})
        contradictions += lin == UNIQUE_LINEAR and v.verdict == NON_UNIQUE
    return contradictions == 0, {"trials": trials, "contradictions": contradictions,
                                 "rows": rows}


def classical_counterexample(seed: int) -> tuple[bool, dict]:
    epsilon = 0.05
    p, q = counterexample_pair(3, 2, epsilon, SeededRng(seed),
                               base=JointDistribution.uniform(3, 2))
    stats = pair_statistics(p, q)
    ok = (stats["max_marginal_difference"] < 1e-14
          and stats["l1_distance"] >= epsilon * stats["deviation_l1"] * (1 - 1e-12))
    return ok, {**stats, "epsilon": epsilon}


CLAIMS = {f.__name__: f for f in (
    alpha_qubit_in_window,
    alpha_monotone_d_2_10,
    counting_identity,
    finite_n_comparison,
    upper_fractions_decrease_to_two_thirds,
    linear_genericity,
    identity_pattern_invariant,
    oracle_positive_control,
    oracle_negative_control,
    oracle_four_qubit_pairs,
    constraint_kernel_dims,
    linear_oracle_consistency,
    classical_counterexample,
)}
