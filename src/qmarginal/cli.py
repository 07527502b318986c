"""Command-line front end: seeded experiment runner with reproducible
JSON/CSV reports.

Subcommands: sample, check, survey, bounds, classical, reproduce.
Exit codes are a stable contract: 0 success / positive finding, 1 usage
error, 2 negative finding (NON_UNIQUE, DEGENERATE, rejected input),
3 inconclusive, 4 internal error (a numerical routine failed). Reports
echo the fully resolved configuration and keep all wall-clock data under
the "timings" key so that payloads are byte-stable for a fixed seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

import numpy as np

from . import bounds as bounds_mod
from . import claims
from . import classical as classical_mod
from .feasibility import (
    INCONCLUSIVE,
    NON_UNIQUE,
    UNIQUE,
    ProjectionConfig,
    genericity_survey,
    uniqueness_probe,
)
from .tensor import (
    AmplitudeTensor,
    PartySignature,
    SeededRng,
    coarse_grain,
    haar_random_state,
)
from .uniqueness import (
    UNIQUE_LINEAR,
    check_linear_uniqueness,
)

STATE_SCHEMA = "qmarginal/state-v1"
REPORT_SCHEMA = "qmarginal/report-v1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NEGATIVE = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep exit codes ours
        raise UsageError(message)


# ---------------------------------------------------------------------------
# State file format
# ---------------------------------------------------------------------------

def state_to_json(state: AmplitudeTensor) -> str:
    amps = state.vector()
    return json.dumps({
        "schema": STATE_SCHEMA,
        "dims": list(state.signature.dims),
        "amplitudes": [[float(a.real), float(a.imag)] for a in amps],
    }, sort_keys=True, indent=2) + "\n"


def state_from_json(text: str) -> AmplitudeTensor:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise UsageError(f"a state file holds a JSON object, not {type(data).__name__}")
    if data.get("schema") != STATE_SCHEMA:
        raise UsageError(f"unsupported state schema {data.get('schema')!r}")
    for key in ("dims", "amplitudes"):
        if key not in data:
            raise UsageError(f"state file has no {key!r} field")
    dims = data["dims"]
    if not isinstance(dims, list) or not all(isinstance(d, int) for d in dims):
        raise UsageError(f"state field 'dims' must be a list of integers, not {dims!r}")
    try:
        amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
    except (TypeError, ValueError):
        raise UsageError("state field 'amplitudes' must be a list of [re, im] "
                         "number pairs") from None
    return AmplitudeTensor.from_vector(amps, dims)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _parse_subsets(text: str, n_parties: int) -> list[tuple[int, ...]]:
    """Parse comma-separated index groups, e.g. "01,02,12" or "0-10,2-3"."""
    groups = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise UsageError(f"empty subset in {text!r}")
        parts = chunk.split("-") if "-" in chunk else list(chunk)
        try:
            idx = tuple(sorted(int(p) for p in parts))
        except ValueError:
            raise UsageError(f"malformed subset {chunk!r}") from None
        if len(set(idx)) != len(idx):
            raise UsageError(f"repeated party in subset {chunk!r}")
        if idx and (idx[0] < 0 or idx[-1] >= n_parties):
            raise UsageError(f"subset {chunk!r} out of range for {n_parties} parties")
        groups.append(idx)
    if not groups:
        raise UsageError("no subsets given")
    return groups


def _parse_range(text: str, name: str) -> list[int]:
    """Parse "7" or "2:10" (inclusive)."""
    try:
        if ":" in text:
            lo, hi = text.split(":")
            lo, hi = int(lo), int(hi)
            if lo > hi:
                raise ValueError
            return list(range(lo, hi + 1))
        return [int(text)]
    except ValueError:
        raise UsageError(f"malformed {name} range {text!r}") from None


def _matrix_payload(matrix: np.ndarray) -> list[list[list[float]]]:
    return [[[float(x.real), float(x.imag)] for x in row] for row in matrix]


def _emit(report: dict, fmt: str, out_path: str | None,
          csv_rows=None, csv_header=None) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
        text = buf.getvalue()
    else:
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(command: str, config: dict, results: dict, started: float) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "command": command,
        "config": config,
        "results": results,
        "timings": {"wall_seconds": time.perf_counter() - started},
    }


def _projection_config(args) -> ProjectionConfig:
    return ProjectionConfig(max_iterations=args.max_iter, convergence_tol=args.tol_converge)


def _load_state(args) -> AmplitudeTensor:
    if args.state:
        with open(args.state) as fh:
            return state_from_json(fh.read())
    if args.n is None or args.d is None:
        raise UsageError("need --state or both --n and --d")
    sig = PartySignature([args.d] * args.n)
    return haar_random_state(sig, SeededRng(args.seed))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_sample(args) -> int:
    if args.n is None or args.d is None:
        raise UsageError("sample needs --n and --d")
    sig = PartySignature([args.d] * args.n)
    state = haar_random_state(sig, SeededRng(args.seed))
    text = state_to_json(state)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_check(args) -> int:
    started = time.perf_counter()
    # Both float flags are echoed into the report whatever the mode, so
    # both are checked before any work.
    config = _projection_config(args)
    if not 0 < args.tol_rank < 1:
        raise UsageError(f"--tol-rank must lie in (0, 1), got {args.tol_rank}")
    state = _load_state(args)
    results: dict = {}
    codes = []

    if args.mode in ("linear", "both"):
        if args.m is not None:
            n_parties = state.signature.n_parties
            if n_parties != 3 * args.m + 1:
                raise UsageError(
                    f"--m {args.m} needs {3 * args.m + 1} parties, state has {n_parties}")
            if not state.signature.is_uniform():
                raise UsageError("--m split requires equal local dimensions")
            tri = coarse_grain(state, (args.m + 1, args.m, args.m))
        elif state.signature.n_parties == 3:
            tri = state
        else:
            raise UsageError(
                "mode=linear needs a tripartite state or --m to group parties")
        verdict = check_linear_uniqueness(tri, rank_rtol=args.tol_rank)
        results["linear"] = {
            "shape": list(tri.signature.dims),
            "verdict": verdict.verdict,
            "null_dim": verdict.null_dim,
            "identity_pattern_match": verdict.identity_pattern_match,
            "identity_pattern_residual": verdict.residual,
            "decided_by": verdict.decided_by,
            "certificate_gap": verdict.certificate_gap,
        }
        codes.append(EXIT_OK if verdict.verdict == UNIQUE_LINEAR else EXIT_NEGATIVE)

    if args.mode in ("oracle", "both"):
        if not args.subsets:
            raise UsageError("mode=oracle needs --subsets")
        subsets = _parse_subsets(args.subsets, state.signature.n_parties)
        verdict = uniqueness_probe(state, subsets, config, rng=SeededRng(args.seed))
        oracle = {
            "subsets": [list(s) for s in subsets],
            "verdict": verdict.verdict,
            "certified": verdict.certified,
            "decided_by": verdict.decided_by,
            "certificate_gap": verdict.certificate_gap,
            "face_dim": verdict.face_dim,
            "max_marginal_residual": verdict.max_marginal_residual,
            "pairwise_distances": list(verdict.pairwise_distances),
            "runs": [
                {"outcome": r.outcome, "converged": r.converged,
                 "iterations": r.iterations, "distance": r.distance}
                for r in verdict.runs
            ],
        }
        if verdict.verdict == NON_UNIQUE:
            oracle["witnesses"] = [_matrix_payload(w.matrix) for w in verdict.witnesses[1:]]
        results["oracle"] = oracle
        codes.append({UNIQUE: EXIT_OK, NON_UNIQUE: EXIT_NEGATIVE,
                      INCONCLUSIVE: EXIT_INCONCLUSIVE}[verdict.verdict])

    config_echo = {
        "mode": args.mode, "state": args.state, "n": args.n, "d": args.d,
        "m": args.m, "seed": args.seed, "subsets": args.subsets,
        "tol_rank": args.tol_rank, "tol_converge": args.tol_converge,
        "max_iter": args.max_iter,
    }
    _emit(_report("check", config_echo, results, started), args.format, args.out)
    if EXIT_NEGATIVE in codes:
        return EXIT_NEGATIVE
    if EXIT_INCONCLUSIVE in codes:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_survey(args) -> int:
    started = time.perf_counter()
    sig = PartySignature([args.d] * args.n)
    subsets = _parse_subsets(args.subsets, args.n)
    config = _projection_config(args)
    verdicts = []
    trial_seconds = []
    lap = time.perf_counter()
    for _, verdict in genericity_survey(sig, subsets, args.trials, SeededRng(args.seed), config):
        verdicts.append(verdict.verdict)
        now = time.perf_counter()
        trial_seconds.append(now - lap)
        lap = now
    results = {
        "n": args.n, "d": args.d,
        "subsets": [list(s) for s in subsets],
        "trials": args.trials,
        "verdicts": verdicts,
        "unique_fraction": verdicts.count(UNIQUE) / args.trials,
        "non_unique_fraction": verdicts.count(NON_UNIQUE) / args.trials,
        "inconclusive_fraction": verdicts.count(INCONCLUSIVE) / args.trials,
    }
    report = _report("survey", {
        "n": args.n, "d": args.d, "subsets": args.subsets, "trials": args.trials,
        "seed": args.seed, "tol_converge": args.tol_converge, "max_iter": args.max_iter,
    }, results, started)
    report["timings"]["trial_seconds"] = trial_seconds
    csv_rows = [[i, v] for i, v in enumerate(verdicts)]
    _emit(report, args.format, args.out, csv_rows, ["trial", "verdict"])
    return EXIT_OK


def cmd_bounds(args) -> int:
    started = time.perf_counter()
    d_values = _parse_range(args.d, "--d")
    n_values = _parse_range(args.n, "--n") if args.n else list(range(1, 11))
    if any(d < 2 for d in d_values):
        raise UsageError("--d values must be >= 2")
    if any(n < 1 for n in n_values):
        raise UsageError("--n values must be >= 1")
    table = []
    for d in d_values:
        for n in n_values:
            for row in bounds_mod.bounds_rows(n, d):
                table.append({
                    "n": row.n, "d": row.d, "k": row.k,
                    "reduced_param_count": str(row.reduced_param_count),
                    "pure_param_count": str(row.pure_param_count),
                    "sufficient_by_count": row.sufficient_by_count,
                })
    alphas = []
    for d in d_values:
        sol = bounds_mod.solve_alpha_lower(d)
        alphas.append({"d": d, "alpha": sol.alpha, "residual": sol.residual,
                       "bracket": list(sol.bracket)})
    upper = [
        {"m": r["m"], "total_parties": r["total_parties"],
         "marginal_order": r["marginal_order"],
         "fraction": str(r["fraction"]), "fraction_float": float(r["fraction"])}
        for r in bounds_mod.alpha_upper_table(args.m_max)
    ]
    results = {"counting_table": table, "alpha_lower": alphas, "alpha_upper": upper}
    report = _report("bounds", {
        "d": args.d, "n": args.n, "m_max": args.m_max,
    }, results, started)
    csv_rows = [[r["n"], r["d"], r["k"], r["reduced_param_count"],
                 r["pure_param_count"], r["sufficient_by_count"]] for r in table]
    _emit(report, args.format, args.out, csv_rows,
          ["n", "d", "k", "reduced_param_count", "pure_param_count", "sufficient"])
    return EXIT_OK


def cmd_classical(args) -> int:
    started = time.perf_counter()
    if args.epsilon is None:
        raise UsageError("classical needs --epsilon")
    rng = SeededRng(args.seed)
    config_echo = {"n": args.n, "d": args.d, "epsilon": args.epsilon, "seed": args.seed}
    try:
        p, q = classical_mod.counterexample_pair(args.n, args.d, args.epsilon, rng)
    except classical_mod.EpsilonTooLargeError as exc:
        results = {"rejected": True, "max_admissible_epsilon": exc.max_admissible}
        _emit(_report("classical", config_echo, results, started), args.format, args.out)
        return EXIT_NEGATIVE
    results = {
        "rejected": False,
        **claims.pair_statistics(p, q),
        "p": p.probabilities.reshape(-1).tolist(),
        "q": q.probabilities.reshape(-1).tolist(),
    }
    _emit(_report("classical", config_echo, results, started), args.format, args.out)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    """End-to-end pipeline touching every in-scope claim at desk scale.

    Every check is a :mod:`qmarginal.claims` definition, run here at the
    report's own substreams of ``--seed`` and sizes derived from
    ``--trials``; the sections report the numbers each was decided on.
    """
    started = time.perf_counter()
    seed = args.seed
    trials = args.trials
    sections: dict = {}
    section_times: dict = {}
    checks: dict = {}
    lap = started

    def check(claim, **params) -> dict:
        ok, values = claim(**params)
        checks[claim.__name__] = bool(ok)
        return values

    def section(name: str, values: dict, *keys: str) -> None:
        nonlocal lap
        sections[name] = {key: values[key] for key in keys} if keys else values
        now = time.perf_counter()
        section_times[name] = now - lap
        lap = now

    check(claims.alpha_qubit_in_window)
    alphas = check(claims.alpha_monotone_d_2_10)["solutions"]
    check(claims.counting_identity)
    rows = check(claims.finite_n_comparison)["rows"]
    upper = check(claims.upper_fractions_decrease_to_two_thirds)
    section("bounds", {
        "alpha_lower": [{"d": s.d, "alpha": s.alpha, "residual": s.residual}
                        for s in alphas],
        "alpha_upper": [{"m": r["m"], "fraction": str(r["fraction"])}
                        for r in upper["table"]],
        "counting_rows": [
            {"n": r.n, "d": r.d, "k": r.k,
             "reduced": str(r.reduced_param_count), "pure": str(r.pure_param_count),
             "sufficient": r.sufficient_by_count}
            for r in rows
        ],
    })
    section("alpha_upper", {"fractions": [str(f) for f in upper["fractions"]]})

    section("linear_survey", check(claims.linear_genericity, seed=seed, spawn=1,
                                   trials=max(trials * 10, 200)),
            "trials", "unique_linear")
    section("identity_pattern", check(
        claims.identity_pattern_invariant, seed=seed, spawn=2,
        shapes=[(2, 2, 2), (3, 2, 2), (4, 2, 2), (4, 3, 2), (3, 3, 3), (5, 2, 3)]))
    section("oracle_positive", check(claims.oracle_positive_control,
                                     seed=seed, spawn=3, trials=trials),
            "trials", "verdicts")
    section("oracle_negative_ghz", check(claims.oracle_negative_control, seed=seed),
            "verdict", "max_marginal_residual", "witness_distance",
            "mixture_marginal_residual")
    section("oracle_four_qubit_pairs", check(claims.oracle_four_qubit_pairs,
                                             seed=seed, spawn=5, trials=trials),
            "trials", "verdicts", "certified")
    section("constraint_kernels", check(claims.constraint_kernel_dims))
    section("linear_oracle_consistency", check(
        claims.linear_oracle_consistency, seed=seed, spawn=4, trials=max(trials // 2, 5)))
    section("classical", check(claims.classical_counterexample, seed=seed),
            "max_marginal_difference", "l1_distance")

    results = {"sections": sections, "checks": checks,
               "all_checks_pass": all(checks.values())}
    report = _report("reproduce", {"seed": seed, "trials": trials}, results, started)
    report["timings"]["sections"] = section_times
    _emit(report, args.format, args.out)
    return EXIT_OK if all(checks.values()) else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="qmarginal",
                     description="Uniqueness of pure states from reduced density "
                                 "matrices; counting bounds; classical contrast.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, formats=("json",), oracle=False):
        p.add_argument("--n", type=int, default=None, help="number of parties")
        p.add_argument("--d", type=int, default=None, help="local dimension")
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--out", type=str, default=None, help="output path")
        if formats:
            p.add_argument("--format", choices=formats, default="json")
        if oracle:
            p.add_argument("--tol-converge", dest="tol_converge", type=float, default=1e-9)
            p.add_argument("--max-iter", dest="max_iter", type=int, default=5000)

    p_sample = sub.add_parser("sample", help="write a seeded Haar-random state")
    common(p_sample, formats=())
    p_sample.set_defaults(func=cmd_sample)

    p_check = sub.add_parser("check", help="uniqueness verdicts for one state")
    common(p_check, oracle=True)
    p_check.add_argument("--tol-rank", dest="tol_rank", type=float, default=1e-8)
    p_check.add_argument("--mode", choices=("linear", "oracle", "both"), default="oracle")
    p_check.add_argument("--subsets", type=str, default=None,
                         help="comma-separated party groups, e.g. 01,02,12")
    p_check.add_argument("--state", type=str, default=None, help="state JSON path")
    p_check.add_argument("--m", type=int, default=None,
                         help="tripartite split parameter (3m+1 parties)")
    p_check.set_defaults(func=cmd_check)

    p_survey = sub.add_parser("survey", help="uniqueness statistics on Haar samples")
    common(p_survey, formats=("json", "csv"), oracle=True)
    p_survey.add_argument("--trials", type=int, default=None)
    p_survey.add_argument("--subsets", type=str, required=True)
    p_survey.set_defaults(func=cmd_survey)

    p_bounds = sub.add_parser("bounds", help="parameter-counting tables and roots")
    p_bounds.add_argument("--d", type=str, required=True, help="dimension or range lo:hi")
    p_bounds.add_argument("--n", type=str, default=None, help="party count or range lo:hi")
    p_bounds.add_argument("--m-max", dest="m_max", type=int, default=5)
    p_bounds.add_argument("--format", choices=("json", "csv"), default="json")
    p_bounds.add_argument("--out", type=str, default=None)
    p_bounds.set_defaults(func=cmd_bounds)

    p_classical = sub.add_parser("classical", help="marginal-equal classical pair")
    common(p_classical)
    p_classical.add_argument("--epsilon", type=float, default=None)
    p_classical.set_defaults(func=cmd_classical)

    p_rep = sub.add_parser("reproduce", help="run the full desk-scale pipeline")
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.add_argument("--trials", type=int, default=20)
    p_rep.add_argument("--format", choices=("json",), default="json")
    p_rep.add_argument("--out", type=str, default=None)
    p_rep.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "survey":
            if args.trials is None or args.trials < 1:
                raise UsageError("survey needs --trials >= 1")
            if args.n is None or args.d is None:
                raise UsageError("survey needs --n and --d")
        if args.command == "reproduce" and args.trials < 1:
            raise UsageError("reproduce needs --trials >= 1")
        if args.command == "classical":
            if args.n is None or args.d is None:
                raise UsageError("classical needs --n and --d")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (np.linalg.LinAlgError, RuntimeError) as exc:
        # LinAlgError subclasses ValueError: a failed numerical routine is
        # the program's fault, not the caller's.
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
