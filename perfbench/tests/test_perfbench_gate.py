"""The correctness gate accepts right answers and rejects tampered ones."""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from qmarginal.bounds import finite_n_lower_fraction, solve_alpha_lower  # noqa: E402
from qmarginal.feasibility import NON_UNIQUE, UNIQUE, FeasibilityVerdict  # noqa: E402
from qmarginal.tensor import (AmplitudeTensor, DensityMatrix, PartySignature,  # noqa: E402
                              SeededRng, haar_random_state)
from qmarginal.uniqueness import (UNIQUE_LINEAR, check_linear_uniqueness,  # noqa: E402
                                  sequential_elimination_trace)

from perfbench import gate  # noqa: E402
from perfbench.run import digest, run_pass  # noqa: E402
from perfbench.tracing import NULL_TRACER  # noqa: E402
from perfbench.workloads import TINY_CONFIG, TINY_WORKLOADS, make_inputs  # noqa: E402

PAIRS = ((0, 1), (0, 2), (1, 2))
SIG = PartySignature([2, 2, 2])


def ghz_with_mixture_witness():
    """GHZ state and the classical mixture that shares its pair marginals."""
    vec = np.zeros(8, dtype=complex)
    vec[0] = vec[7] = np.sqrt(0.5)
    state = AmplitudeTensor.from_vector(vec, [2, 2, 2])
    mixture = np.zeros((8, 8), dtype=complex)
    mixture[0, 0] = mixture[7, 7] = 0.5
    rho = DensityMatrix(SIG, np.outer(vec, vec.conj()))
    verdict = FeasibilityVerdict(NON_UNIQUE, (rho, DensityMatrix(SIG, mixture)), 0.0, (0.5,))
    return state, verdict


def test_true_witness_passes():
    state, verdict = ghz_with_mixture_witness()
    assert gate.check_probe(state.amplitudes, PAIRS, verdict, must_be_non_unique=True) == []


def test_perturbed_witness_is_rejected():
    state, verdict = ghz_with_mixture_witness()
    w = verdict.witnesses[1].matrix.copy()
    w[0, 1] = w[1, 0] = 1e-6          # visible on the (0, 2) marginal
    tampered = dataclasses.replace(
        verdict, witnesses=(verdict.witnesses[0], DensityMatrix(SIG, w)))
    problems = gate.check_probe(state.amplitudes, PAIRS, tampered, must_be_non_unique=True)
    assert any("marginal residual" in p for p in problems)


def test_witness_equal_to_reference_is_rejected():
    state, verdict = ghz_with_mixture_witness()
    same = dataclasses.replace(verdict, witnesses=(verdict.witnesses[0],) * 2)
    problems = gate.check_probe(state.amplitudes, PAIRS, same, must_be_non_unique=True)
    assert any("trace distance" in p for p in problems)


def test_flipped_ghz_verdict_is_rejected():
    state, verdict = ghz_with_mixture_witness()
    flipped = dataclasses.replace(verdict, verdict=UNIQUE, witnesses=verdict.witnesses[:1])
    problems = gate.check_probe(state.amplitudes, PAIRS, flipped, must_be_non_unique=True)
    assert problems == ["GHZ-family state reported UNIQUE"]


def test_oracle_may_not_contradict_linear_test():
    assert gate.check_linear_vs_oracle(UNIQUE_LINEAR, NON_UNIQUE)
    assert gate.check_linear_vs_oracle(UNIQUE_LINEAR, UNIQUE) == []


def test_linear_verdicts_checked_against_the_system():
    state = haar_random_state(PartySignature([8, 4, 4]), SeededRng(3))
    linear = check_linear_uniqueness(state)
    elimination = sequential_elimination_trace(state)
    assert gate.check_linear(state.amplitudes, linear, elimination) == []
    wrong = elimination.solution.copy()
    wrong[1] += 1e-3
    tampered = dataclasses.replace(elimination, solution=wrong)
    assert gate.check_linear(state.amplitudes, linear, tampered)


@pytest.mark.parametrize("n,d", [(2, 2), (17, 2), (250, 2), (120, 3), (64, 5)])
def test_counting_gate_matches_library_and_rejects_off_by_one(n, d):
    fraction = finite_n_lower_fraction(n, d)
    alpha = solve_alpha_lower(d).alpha
    assert gate.minimal_k(n, d) == fraction[0]
    assert gate.check_counting(n, d, fraction, alpha) == []
    k = fraction[0] + 1
    assert gate.check_counting(n, d, (k, k / n), alpha)
    assert gate.check_counting(n, d, fraction, alpha + 1e-6)


@pytest.mark.parametrize("name", ["analytic", "oracle_generic"])
def test_same_seed_same_digest(name):
    workload = TINY_WORKLOADS[name]
    inputs = make_inputs(workload, 5, len(workload.cycle))
    first = run_pass(workload, inputs, TINY_CONFIG, 0, 1, NULL_TRACER)[1]
    second = run_pass(workload, inputs, TINY_CONFIG, 0, 1, NULL_TRACER)[1]
    n = len(workload.cycle)
    assert all(not r.problems for r in first)
    assert digest(first, n) == digest(second, n)
