"""Workloads, their seeded inputs and the pipeline one op runs.

A workload is a fixed cycle of op kinds. Op ``i`` has kind
``cycle[i % len(cycle)]`` and draws its input from the substream
``SeededRng(seed).spawn(i)``, so a seed fixes both the inputs and the mix.
A Haar oracle op also takes its local-unitary orbit from ``ORBITS.spawn(i)``,
a catalogue that is the same for every seed: the seed places the state in
that orbit and draws the restarts. Runs stop only at the end of a cycle, so
every run executes the mix in the same proportions. See README.md for why
each workload exists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from qmarginal.bounds import finite_n_lower_fraction, solve_alpha_lower
from qmarginal.feasibility import ProjectionConfig, uniqueness_probe
from qmarginal.tensor import (AmplitudeTensor, PartySignature, SeededRng,
                              coarse_grain, haar_random_state)
from qmarginal.uniqueness import check_linear_uniqueness, sequential_elimination_trace

from . import gate
from .tracing import NULL_TRACER

# Substreams of SeededRng(seed) that no op index reaches.
WARMUP_STREAM, SWEEP_STREAM, FILL_STREAM = 2**31 - 1, 2**31 - 2, 2**31 - 3
# Orbit catalogue of the Haar oracle kinds, independent of the run's seed.
ORBITS = SeededRng(0).spawn(2**31 - 4)

FULL_CONFIG = ProjectionConfig()
# Test-only scale: few short restarts, so a smoke run takes seconds.
TINY_CONFIG = ProjectionConfig(restarts=2, max_iterations=300)


def _pairs(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.combinations(range(n), 2))


def _triples(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.combinations(range(n), 3))


@dataclass
class OpResult:
    """What one op produced, as the gate and the digest see it."""

    kind: str
    verdicts: tuple[str, ...]
    iterations: tuple[int, ...] = ()
    decided: bool = False
    problems: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class OpInput:
    kind: "Kind"
    index: int
    data: dict


# ---------------------------------------------------------------------------
# Op kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleKind:
    """``uniqueness_probe`` on a Haar or GHZ-family state, optionally
    cross-checked against the linear test (tripartite states only)."""

    name: str
    dims: tuple[int, ...]
    subsets: tuple[tuple[int, ...], ...]
    family: str                      # "haar" or "ghz"
    with_linear: bool = False

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims))

    def make(self, rng: SeededRng, orbit: SeededRng) -> dict:
        """A Haar kind draws its state's orbit from ``orbit`` and moves the
        state within it by a seeded local unitary, which keeps the verdict.
        Op cost varies with the orbit far more than with the restarts (a
        3-qubit op takes 0.1-1.4 s across orbits), so a fixed catalogue
        keeps the cost mix the same from seed to seed."""
        if self.family == "haar":
            base = haar_random_state(PartySignature(self.dims), orbit.spawn(0))
            state = AmplitudeTensor.from_vector(
                local_unitary(self.dims, rng.spawn(3)) @ base.vector(), list(self.dims))
        else:
            state = ghz_family_state(rng)
        return {"state": state, "restarts": rng.spawn(1)}

    def run(self, data: dict, config: ProjectionConfig, tracer) -> OpResult:
        state = data["state"]
        with tracer.span("feasibility.probe"):
            # ``spawn`` never advances the parent stream, so rerunning an
            # input (warm-up, traced pass) repeats the same restarts.
            verdict = uniqueness_probe(state, self.subsets, config,
                                       rng=data["restarts"])
        runs = verdict.runs
        tracer.count("restarts", len(runs))
        tracer.count("iterations", sum(r.iterations for r in runs))
        tracer.count("restarts_at_cap", sum(
            1 for r in runs if not r.converged and r.iterations >= config.max_iterations))
        tracer.count("restarts_converged", sum(1 for r in runs if r.converged))
        tracer.count("restarts_witness", sum(1 for r in runs if r.outcome == "witness"))
        verdicts = (verdict.verdict,)
        with tracer.span("gate"):
            problems = gate.check_probe(state.amplitudes, self.subsets, verdict,
                                        must_be_non_unique=self.family == "ghz",
                                        tracer=tracer)
        if self.with_linear:
            with tracer.span("uniqueness.linear_check"):
                linear = check_linear_uniqueness(state)
            verdicts += (linear.verdict,)
            problems += gate.check_linear_vs_oracle(linear.verdict, verdict.verdict)
        return OpResult(self.name, verdicts, tuple(r.iterations for r in runs),
                        verdict.verdict in gate.DECISIVE, problems)


def local_unitary(dims, rng: SeededRng) -> np.ndarray:
    """U_1 (x) ... (x) U_n with each factor Haar-random, from ``rng.spawn(party)``."""
    unitary = np.eye(1)
    for party, d in enumerate(dims):
        q, r = np.linalg.qr(rng.spawn(party).complex_normal((d, d)))
        unitary = np.kron(unitary, q * (np.diag(r) / np.abs(np.diag(r))))
    return unitary


def ghz_family_state(rng: SeededRng) -> AmplitudeTensor:
    """a|000> + b|111> with a^2 in [0.2, 0.8], rotated by seeded local unitaries."""
    a2 = 0.2 + 0.6 * float(rng.spawn(2).generator.random())
    vec = np.zeros(8, dtype=complex)
    vec[0], vec[7] = np.sqrt(a2), np.sqrt(1 - a2)
    return AmplitudeTensor.from_vector(local_unitary((2, 2, 2), rng.spawn(3)) @ vec, [2, 2, 2])


@dataclass(frozen=True)
class LinearKind:
    """The paper's linear test on a coarse-grained 3m+1-party Haar state."""

    d: int
    m: int

    @property
    def name(self) -> str:
        return f"linear_d{self.d}_m{self.m}"

    @property
    def groups(self) -> tuple[int, int, int]:
        return (self.m + 1, self.m, self.m)

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(self.d ** g for g in self.groups)

    def make(self, rng: SeededRng, orbit: SeededRng) -> dict:
        """The linear test's cost depends on the shape alone; ``orbit`` is unused."""
        sig = PartySignature([self.d] * (3 * self.m + 1))
        return {"state": haar_random_state(sig, rng.spawn(0))}

    def run(self, data: dict, config, tracer) -> OpResult:
        with tracer.span("tensor.coarse_grain"):
            coarse = coarse_grain(data["state"], self.groups)
        with tracer.span("uniqueness.linear_check"):
            linear = check_linear_uniqueness(coarse)
        with tracer.span("uniqueness.elimination"):
            elimination = sequential_elimination_trace(coarse)
        with tracer.span("gate"):
            problems = gate.check_linear(coarse.amplitudes, linear, elimination)
        verdicts = (linear.verdict, elimination.verdict)
        return OpResult(self.name, verdicts,
                        decided=all(v in gate.DECISIVE for v in verdicts), problems=problems)


@dataclass(frozen=True)
class CountingKind:
    """``finite_n_lower_fraction`` and ``solve_alpha_lower`` at one (n, d),
    with n drawn within +-4 of ``n_center``: the cost grows like n^3, so a
    narrow stratum keeps each slot's cost steady across seeds."""

    d: int
    n_center: int

    @property
    def name(self) -> str:
        return f"counting_d{self.d}_n{self.n_center}"

    def make(self, rng: SeededRng, orbit: SeededRng) -> dict:
        offset = int(rng.spawn(0).generator.integers(-4, 5))
        return {"n": max(2, self.n_center + offset)}

    def run(self, data: dict, config, tracer) -> OpResult:
        n = data["n"]
        with tracer.span("bounds.finite_n"):
            fraction = finite_n_lower_fraction(n, self.d)
        with tracer.span("bounds.alpha_root"):
            alpha = solve_alpha_lower(self.d).alpha
        with tracer.span("gate"):
            problems = gate.check_counting(n, self.d, fraction, alpha)
        return OpResult(self.name, (f"k={fraction[0]}", repr(alpha)), decided=True,
                        problems=problems)


Kind = OracleKind | LinearKind | CountingKind

HAAR3_PAIRS = OracleKind("haar3_pairs", (2, 2, 2), _pairs(3), "haar")
HAAR422_ABAC = OracleKind("haar422_abac", (4, 2, 2), ((0, 1), (0, 2)), "haar",
                          with_linear=True)
HAAR5_TRIPLES = OracleKind("haar5_triples", (2,) * 5, _triples(5), "haar")
GHZ_PAIRS = OracleKind("ghz_pairs", (2, 2, 2), _pairs(3), "ghz")
HAAR4_PAIRS = OracleKind("haar4_pairs", (2,) * 4, _pairs(4), "haar")
LINEAR_KINDS = tuple(LinearKind(d, m) for d, m in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)))


@dataclass(frozen=True)
class Workload:
    """A cycle of op kinds. A timed run covers at least ``min_cycles``
    cycles, so that its median and tail ops fall inside the same kind's
    cluster of times on every run (the tail has ten ops beyond it)."""

    name: str
    cycle: tuple[Kind, ...]
    min_cycles: int = 1

    def kinds(self) -> tuple[Kind, ...]:
        return tuple(dict.fromkeys(self.cycle))


# The mixes are chosen so that a whole number of cycles puts the median op
# inside one kind's cluster of times, not on the border between two. An
# oracle cycle takes 15-20 s on a 2.1 GHz Xeon core, so a 25 s run always
# completes exactly its 2 cycles: a faster or slower period of the CPU
# changes neither the op count nor which orbits the median is taken over.
# On oracle_stalled the median falls among the GHZ-family ops, whose cost
# varies with which restarts hit the cap (CV about 0.2), so a cycle holds
# as many of them as the run length allows.
WORKLOADS = {
    "oracle_generic": Workload("oracle_generic", (
        HAAR3_PAIRS, HAAR422_ABAC) + (HAAR5_TRIPLES,) * 8, 2),
    "oracle_stalled": Workload("oracle_stalled", (GHZ_PAIRS,) * 9 + (HAAR4_PAIRS,), 2),
    "analytic": Workload("analytic", LINEAR_KINDS + (
        CountingKind(2, 900), CountingKind(2, 1800), CountingKind(2, 2400),
        CountingKind(3, 1300)), 6),
}

TINY_WORKLOADS = {
    "oracle_generic": Workload("oracle_generic", (HAAR3_PAIRS, HAAR422_ABAC, HAAR5_TRIPLES)),
    "oracle_stalled": Workload("oracle_stalled", (GHZ_PAIRS, HAAR4_PAIRS)),
    "analytic": Workload("analytic", (LINEAR_KINDS[0], LINEAR_KINDS[3],
                                      CountingKind(2, 60), CountingKind(3, 40))),
}


def make_inputs(workload: Workload, seed: int, n_ops: int) -> list[OpInput]:
    base = SeededRng(seed)
    cycle = workload.cycle
    kinds = [cycle[i % len(cycle)] for i in range(n_ops)]
    return [OpInput(kind, i, kind.make(base.spawn(i), ORBITS.spawn(i)))
            for i, kind in enumerate(kinds)]


def warmup_inputs(workload: Workload) -> list[OpInput]:
    """One input of each kind from a fixed substream, independent of the
    run's seed, so set-up does the same work on every run."""
    base = SeededRng(0).spawn(WARMUP_STREAM)
    return [OpInput(kind, -1 - j, kind.make(base.spawn(j), base.spawn(j)))
            for j, kind in enumerate(workload.kinds())]


def run_op(op: OpInput, config: ProjectionConfig, tracer=NULL_TRACER) -> OpResult:
    """One op: the kind's pipeline plus its gate. Exceptions become a
    failed op with the exception as its problem."""
    with tracer.op(f"{op.index}:{op.kind.name}"):
        try:
            return op.kind.run(op.data, config, tracer)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            return OpResult(op.kind.name, ("EXCEPTION",),
                            problems=[f"{type(exc).__name__}: {exc}"])

