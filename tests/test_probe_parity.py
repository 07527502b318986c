"""Probe outcomes pinned as literals: verdict, deciding path, face
dimension, each restart's (outcome, Dykstra iterations) and the
certificate gap, for seeded states of every oracle workload class.

The literals were recorded with the dense constraint rows, before the
affine projection went party by party. A change of projection arithmetic
moves the gap only at rounding level and must leave everything else as
it is.
"""

import itertools

import numpy as np
import pytest

from qmarginal.feasibility import ProjectionConfig, uniqueness_probe
from qmarginal.tensor import AmplitudeTensor, PartySignature, SeededRng, haar_random_state

from conftest import ghz_state, haar_unitary

PAIRS3 = [(0, 1), (0, 2), (1, 2)]
KINDS = {
    "haar3_pairs": ((2, 2, 2), PAIRS3),
    "haar422_abac": ((4, 2, 2), [(0, 1), (0, 2)]),
    "haar5_triples": ((2,) * 5, list(itertools.combinations(range(5), 3))),
    "ghz_pairs": ((2, 2, 2), PAIRS3),
    "haar4_pairs": ((2,) * 4, list(itertools.combinations(range(4), 2))),
}


def parity_state(kind, seed):
    """A Haar state, or for ``ghz_pairs`` a|000> + b|111> with a^2 in
    [0.2, 0.8] under a random local unitary."""
    dims, _ = KINDS[kind]
    if kind != "ghz_pairs":
        return haar_random_state(PartySignature(dims), SeededRng(300 + seed))
    rng = np.random.default_rng(300 + seed)
    a = float(np.sqrt(rng.uniform(0.2, 0.8)))
    u = np.kron(np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2)), haar_unitary(rng, 2))
    return AmplitudeTensor.from_vector(u @ ghz_state(3, a).vector(), dims)


def ambiguous_state(eps=1e-6):
    """A 3-qubit state whose AB marginal has the eigenvalue ``eps``, which
    reads neither as zero nor as support: the restarts run on the whole
    space and converge."""
    q, _ = np.linalg.qr(SeededRng(99).complex_normal((4, 4)))
    vec = np.sqrt(1 - eps) * np.kron(q[:, 0], [1, 0]) + \
        np.sqrt(eps) * np.kron(q[:, 1], [0, 1])
    return AmplitudeTensor.from_vector(vec, [2, 2, 2])


CERTIFIED = [("returned_reference", 1)] * 8


def witnesses(*iterations):
    """Restarts that each ended in a verified witness, after these many
    Dykstra cycles."""
    return [("witness", i) for i in iterations]


PARITY = {
    ('haar3_pairs', 0): ('UNIQUE', 'certificate', 8, CERTIFIED,
        0.10351427873707146),
    ('haar3_pairs', 1): ('UNIQUE', 'certificate', 8, CERTIFIED,
        0.1840043072086004),
    ('haar3_pairs', 2): ('UNIQUE', 'certificate', 8, CERTIFIED,
        0.10343011786748069),
    ('haar3_pairs', 3): ('UNIQUE', 'certificate', 8, CERTIFIED,
        0.21934995835869656),
    ('haar3_pairs', 4): ('UNIQUE', 'certificate', 8, CERTIFIED,
        0.05195078783179042),
    ('haar3_pairs', 5): ('UNIQUE', 'certificate', 8, CERTIFIED,
        0.15581785070459117),
    ('haar3_pairs', 6): ('UNIQUE', 'certificate', 8, CERTIFIED,
        0.1894915966870159),
    ('haar3_pairs', 7): ('UNIQUE', 'certificate', 8, CERTIFIED,
        0.26558865150564775),
    ('haar3_pairs', 8): ('UNIQUE', 'certificate', 8, CERTIFIED,
        0.11055510765389383),
    ('haar3_pairs', 9): ('UNIQUE', 'certificate', 8, CERTIFIED,
        0.1696562364706317),
    ('haar422_abac', 0): ('UNIQUE', 'certificate', 16, CERTIFIED,
        0.285255126385372),
    ('haar422_abac', 1): ('UNIQUE', 'certificate', 16, CERTIFIED,
        0.15490104193727777),
    ('haar422_abac', 2): ('UNIQUE', 'certificate', 16, CERTIFIED,
        0.05235029807893371),
    ('haar422_abac', 3): ('UNIQUE', 'certificate', 16, CERTIFIED,
        0.1942623552557752),
    ('haar422_abac', 4): ('UNIQUE', 'certificate', 16, CERTIFIED,
        0.09214987675259247),
    ('haar422_abac', 5): ('UNIQUE', 'certificate', 16, CERTIFIED,
        0.26021883943198876),
    ('haar422_abac', 6): ('UNIQUE', 'certificate', 16, CERTIFIED,
        0.13461354860073135),
    ('haar422_abac', 7): ('UNIQUE', 'certificate', 16, CERTIFIED,
        0.21976418585795096),
    ('haar422_abac', 8): ('UNIQUE', 'certificate', 16, CERTIFIED,
        0.3357924365853297),
    ('haar422_abac', 9): ('UNIQUE', 'certificate', 16, CERTIFIED,
        0.16684353723864173),
    ('haar5_triples', 0): ('UNIQUE', 'certificate', 32, CERTIFIED,
        0.0375086504704227),
    ('haar5_triples', 1): ('UNIQUE', 'certificate', 32, CERTIFIED,
        0.042796427618731016),
    ('haar5_triples', 2): ('UNIQUE', 'certificate', 32, CERTIFIED,
        0.051337675847719824),
    ('haar5_triples', 3): ('UNIQUE', 'certificate', 32, CERTIFIED,
        0.03164548530996651),
    ('haar5_triples', 4): ('UNIQUE', 'certificate', 32, CERTIFIED,
        0.028257317018620456),
    ('haar5_triples', 5): ('UNIQUE', 'certificate', 32, CERTIFIED,
        0.02860390411757464),
    ('haar5_triples', 6): ('UNIQUE', 'certificate', 32, CERTIFIED,
        0.036854431355324624),
    ('haar5_triples', 7): ('UNIQUE', 'certificate', 32, CERTIFIED,
        0.02181704237164971),
    ('haar5_triples', 8): ('UNIQUE', 'certificate', 32, CERTIFIED,
        0.05262799771584484),
    ('haar5_triples', 9): ('UNIQUE', 'certificate', 32, CERTIFIED,
        0.03939118967860039),
    ('ghz_pairs', 0): ('NON_UNIQUE', 'dykstra', 2, witnesses(1, 29, 29, 1, 27, 29, 1, 1),
        4.113532361266223e-16),
    ('ghz_pairs', 1): ('NON_UNIQUE', 'dykstra', 2, witnesses(1, 1, 1, 28, 28, 1, 28, 1),
        2.4533706170565675e-16),
    ('ghz_pairs', 2): ('NON_UNIQUE', 'dykstra', 2, witnesses(1, 1, 1, 31, 32, 1, 1, 31),
        3.0116111801900346e-16),
    ('ghz_pairs', 3): ('NON_UNIQUE', 'dykstra', 2, witnesses(33, 1, 33, 34, 33, 1, 34, 32),
        3.3297415470706247e-16),
    ('ghz_pairs', 4): ('NON_UNIQUE', 'dykstra', 2, witnesses(1, 28, 28, 1, 28, 26, 1, 1),
        2.2127008494188763e-16),
    ('haar4_pairs', 0): ('UNIQUE', 'parent_hamiltonian', 16, CERTIFIED,
        0.03252011324292959),
    ('haar4_pairs', 1): ('UNIQUE', 'parent_hamiltonian', 16, CERTIFIED,
        0.035559169120256924),
    ('haar4_pairs', 2): ('UNIQUE', 'parent_hamiltonian', 16, CERTIFIED,
        0.018611809548206956),
    ('haar4_pairs', 3): ('UNIQUE', 'parent_hamiltonian', 16, CERTIFIED,
        0.04398761966928438),
    ('haar4_pairs', 4): ('UNIQUE', 'parent_hamiltonian', 16, CERTIFIED,
        0.08634970010289914),
}

WHOLE_SPACE = ('UNIQUE', 'dykstra', 8, [
    ('returned_reference', 630),
    ('returned_reference', 796),
    ('returned_reference', 881),
    ('returned_reference', 844)],
    1.0000000000672713e-06)


# The paper's GHZ-type counterexample at 9 qubits, from its ring of pair
# marginals (i, i+1 mod 9): a 2-dimensional face whose restarts take 1 or 27
# cycles, and a restricted map with a null singular value.
RING9 = ('NON_UNIQUE', 'dykstra', 2, witnesses(27, 27, 27, 1, 1, 27, 1, 27), 0.0)


def outcome(verdict):
    return (verdict.verdict, verdict.decided_by, verdict.face_dim,
            [(r.outcome, r.iterations) for r in verdict.runs])


@pytest.mark.parametrize("kind, seed", PARITY, ids=[f"{k}-{s}" for k, s in PARITY])
def test_probe_matches_the_recorded_outcome(kind, seed):
    *want, gap = PARITY[kind, seed]
    verdict = uniqueness_probe(parity_state(kind, seed), KINDS[kind][1], rng=SeededRng(seed))
    assert list(outcome(verdict)) == want
    # A gap at rounding level (the GHZ face's null singular value) is noise.
    assert verdict.certificate_gap == pytest.approx(gap, rel=1e-12, abs=1e-15)


def test_whole_space_restarts_match_the_recorded_iterations():
    *want, gap = WHOLE_SPACE
    config = ProjectionConfig(restarts=4, max_iterations=3000)
    verdict = uniqueness_probe(ambiguous_state(), PAIRS3, config, rng=SeededRng(1))
    assert list(outcome(verdict)) == want
    assert verdict.certificate_gap == pytest.approx(gap, rel=1e-12)


def test_nine_qubit_ghz_ring_matches_the_recorded_outcome():
    *want, gap = RING9
    ring = [(i, (i + 1) % 9) for i in range(9)]
    verdict = uniqueness_probe(ghz_state(9), ring, rng=SeededRng(1))
    assert list(outcome(verdict)) == want
    assert verdict.certificate_gap == pytest.approx(gap, rel=1e-12, abs=1e-15)
