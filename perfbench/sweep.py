"""Per-layer kernel timings, per matrix size T and per tripartite shape.

Every traced run times the same list of layer entry points, so every
per-layer metric is a measurement on every workload. Inputs come from the
workload's own state families where it has a kind of that size, and from
the package's standard families otherwise (see ``FAMILY_BY_T``).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from qmarginal.feasibility import ConstraintOperator, MarginalConstraintSet, project_psd
from qmarginal.tensor import (PartySignature, SeededRng, coarse_grain, haar_random_state,
                              partial_trace_matrix, rank_and_nullspace)
from qmarginal.uniqueness import (DEFAULT_RANK_RTOL, build_consistency_matrix,
                                  check_linear_uniqueness, sequential_elimination_trace)

from .workloads import (HAAR3_PAIRS, HAAR5_TRIPLES, HAAR422_ABAC, LINEAR_KINDS,
                        SWEEP_STREAM, LinearKind, OracleKind, Workload)

SIZES = (8, 16, 32)
FAMILY_BY_T = {8: HAAR3_PAIRS, 16: HAAR422_ABAC, 32: HAAR5_TRIPLES}
SINGLE_SHOT_S = 0.25   # a call at least this slow is timed once
REPEAT_BUDGET_S = 0.1


def shape_label(kind: LinearKind) -> str:
    return "x".join(str(x) for x in kind.shape)


def time_call(fn) -> float:
    """Median seconds per call, after one call that also warms caches."""
    t0 = time.perf_counter()
    fn()
    first = time.perf_counter() - t0
    if first >= SINGLE_SHOT_S:
        return first
    samples: list[float] = []
    while len(samples) < 3 or (sum(samples) < REPEAT_BUDGET_S and len(samples) < 50):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def families(workload: Workload) -> dict[int, OracleKind]:
    own = {k.total_dim: k for k in workload.kinds() if isinstance(k, OracleKind)}
    return {t: own.get(t, FAMILY_BY_T[t]) for t in SIZES}


def run_sweep(workload: Workload, seed: int) -> dict[str, float]:
    rng = SeededRng(seed).spawn(SWEEP_STREAM)
    out: dict[str, float] = {}
    oracle_kinds = families(workload)
    for t, kind in oracle_kinds.items():
        data = kind.make(rng.spawn(t), rng.spawn(t))
        state = data["state"]
        out[f"feasibility.constraint_build_s.T{t}"] = time_call(
            lambda: ConstraintOperator(MarginalConstraintSet.from_state(state, kind.subsets)))
        op = ConstraintOperator(MarginalConstraintSet.from_state(state, kind.subsets))
        g = rng.spawn(t).spawn(1).complex_normal((t, t))
        h = g + g.conj().T
        v = state.vector()
        x = np.outer(v, v.conj()) + 0.1 * h / np.linalg.norm(h)
        out[f"feasibility.project_psd_s.T{t}"] = time_call(lambda: project_psd(x))
        out[f"feasibility.project_affine_s.T{t}"] = time_call(lambda: op.project(x))

    for kind in LINEAR_KINDS:
        label = shape_label(kind)
        draw = rng.spawn(1000 + kind.d * 10 + kind.m)
        coarse = coarse_grain(kind.make(draw, draw)["state"], kind.groups)
        out[f"uniqueness.consistency_build_s.{label}"] = time_call(
            lambda: build_consistency_matrix(coarse))
        matrix = build_consistency_matrix(coarse).matrix
        out[f"tensor.rank_nullspace_s.{label}"] = time_call(
            lambda: rank_and_nullspace(matrix, rtol=DEFAULT_RANK_RTOL))
        out[f"uniqueness.linear_check_s.{label}"] = time_call(
            lambda: check_linear_uniqueness(coarse))
        out[f"uniqueness.elimination_s.{label}"] = time_call(
            lambda: sequential_elimination_trace(coarse))

    # Partial traces and Haar draws on the workload's own kinds.
    own_oracle = [k for k in workload.kinds() if isinstance(k, OracleKind)] or [HAAR3_PAIRS]
    traces = []
    for kind in own_oracle:
        draw = rng.spawn(2000 + kind.total_dim)
        v = kind.make(draw, draw)["state"].vector()
        rho = np.outer(v, v.conj())
        traces += [time_call(lambda: partial_trace_matrix(rho, kind.dims, s))
                   for s in kind.subsets]
    out["tensor.partial_trace_s"] = statistics.fmean(traces)
    signatures = [PartySignature(k.dims) for k in own_oracle if k.family == "haar"] + \
        [PartySignature([k.d] * (3 * k.m + 1)) for k in workload.kinds()
         if isinstance(k, LinearKind)]
    draw = rng.spawn(3000)
    out["tensor.haar_sample_s"] = statistics.fmean(
        time_call(lambda: haar_random_state(sig, draw)) for sig in signatures)
    return out
