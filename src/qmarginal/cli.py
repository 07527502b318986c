"""Command-line front end: seeded experiment runner with reproducible
JSON/CSV reports.

Subcommands: sample, check, survey, bounds, classical, reproduce.
Exit codes are a stable contract: 0 success / positive finding, 1 usage
error, 2 negative finding (NON_UNIQUE, DEGENERATE, rejected input),
3 inconclusive, 4 internal error (a numerical routine failed, or memory
ran out). Reports echo the fully resolved configuration and keep all
wall-clock data under the "timings" key so that payloads are byte-stable
for a fixed seed.

numpy and the numeric modules are imported inside the subcommands that use
them, so ``bounds``, ``--help`` and usage errors start without numpy.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from typing import TYPE_CHECKING, NamedTuple

from . import bounds as bounds_mod

if TYPE_CHECKING:
    import numpy as np

    from .feasibility import ProjectionConfig
    from .tensor import AmplitudeTensor

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


class Findings(NamedTuple):
    """What a report subcommand found; :func:`main` turns it into the report."""

    results: dict
    code: int = EXIT_OK
    timings: dict | None = None  # entries beside "wall_seconds"
    table: list | None = None  # CSV rows, header first


# Every parsed flag except these is echoed into a report's "config".
_NOT_ECHOED = frozenset({"command", "func", "out", "format"})

# A witness factor keeps the eigenvalues above this fraction of the largest.
_FACTOR_RTOL = 1e-12
# Entries of a witness factor's column within this relative distance of its
# largest magnitude count as tied for the lead that fixes its phase.
_PHASE_RTOL = 1e-9


# ---------------------------------------------------------------------------
# State file format
# ---------------------------------------------------------------------------

def _complex_pairs(arr: np.ndarray) -> list:
    """A complex array as nested lists whose innermost entries are [re, im]."""
    import numpy as np
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def state_to_json(state: AmplitudeTensor) -> str:
    return json.dumps({
        "schema": STATE_SCHEMA,
        "dims": list(state.signature.dims),
        "amplitudes": _complex_pairs(state.vector()),
    }, sort_keys=True, indent=2) + "\n"


def state_from_json(text: str) -> AmplitudeTensor:
    from .tensor import AmplitudeTensor
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
        amps = [complex(re, im) for re, im in data["amplitudes"]]
    except (TypeError, ValueError):
        raise UsageError("state field 'amplitudes' must be a list of [re, im] "
                         "number pairs") from None
    return AmplitudeTensor.from_vector(amps, dims)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _parse_subsets(text: str, n_parties: int) -> list[tuple[int, ...]]:
    """Parse comma-separated party groups: "01,02,12" lists single-digit
    parties, "0-10,2-3" dash-separated ones ("0-10" is parties 0 and 10)."""
    from .tensor import _validate_subset
    groups = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        try:
            parties = [int(p) for p in (chunk.split("-") if "-" in chunk else chunk)]
        except ValueError:
            raise UsageError(f"malformed subset {chunk!r}") from None
        groups.append(_validate_subset(parties, n_parties))
    return groups


def _int_at_least(low: int):
    """argparse type of an integer flag whose value is at least ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


_positive_int = _int_at_least(1)  # a count
_seed = _int_at_least(0)


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


def _witness_factor(w: np.ndarray) -> np.ndarray:
    """The T x r factor A with ``W = A A^dagger``: W's eigenvectors, each
    scaled by the square root of its eigenvalue, for the eigenvalues above
    ``_FACTOR_RTOL`` times the largest, in ascending order.

    Each column's phase is fixed, not left to ``eigh``: its leading entry,
    the first whose magnitude is within ``_PHASE_RTOL`` of the column's
    largest, is made real and positive. Entries tied in magnitude (a GHZ
    witness has two) then do not trade the lead under a rounding-level
    change of W, so neither does the reported sign."""
    import numpy as np
    vals, vecs = np.linalg.eigh(w)
    keep = vals > _FACTOR_RTOL * vals[-1]
    a = vecs[:, keep] * np.sqrt(vals[keep])
    mags = np.abs(a)
    lead = a[np.argmax(mags >= (1 - _PHASE_RTOL) * mags.max(axis=0), axis=0),
             np.arange(a.shape[1])]
    # + 0.0 keeps a rotated zero's -0.0 out of the report.
    return a * (np.abs(lead) / lead) + 0.0


def _write(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _projection_config(args) -> ProjectionConfig:
    from .feasibility import ProjectionConfig
    return ProjectionConfig(max_iterations=args.max_iter, convergence_tol=args.tol_converge)


def _haar_state(args) -> AmplitudeTensor:
    """The Haar-random state of ``--n`` parties of dimension ``--d`` at ``--seed``."""
    from .tensor import PartySignature, SeededRng, haar_random_state
    return haar_random_state(PartySignature([args.d] * args.n), SeededRng(args.seed))


def _load_state(args) -> AmplitudeTensor:
    if args.state:
        with open(args.state) as fh:
            return state_from_json(fh.read())
    if args.n is None or args.d is None:
        raise UsageError("need --state or both --n and --d")
    return _haar_state(args)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_sample(args) -> str:
    return state_to_json(_haar_state(args))


def cmd_check(args) -> Findings:
    from .feasibility import INCONCLUSIVE, NON_UNIQUE, UNIQUE, uniqueness_probe
    from .tensor import SeededRng, coarse_grain
    from .uniqueness import UNIQUE_LINEAR, check_linear_uniqueness
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
            oracle["witness_factors"] = [_complex_pairs(_witness_factor(w.matrix))
                                         for w in verdict.witnesses[1:]]
        results["oracle"] = oracle
        codes.append({UNIQUE: EXIT_OK, NON_UNIQUE: EXIT_NEGATIVE,
                      INCONCLUSIVE: EXIT_INCONCLUSIVE}[verdict.verdict])

    # A negative finding outranks an inconclusive one.
    return Findings(results, next((c for c in (EXIT_NEGATIVE, EXIT_INCONCLUSIVE)
                                   if c in codes), EXIT_OK))


def cmd_survey(args) -> Findings:
    from .feasibility import INCONCLUSIVE, NON_UNIQUE, UNIQUE, genericity_survey
    from .tensor import PartySignature, SeededRng
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
    return Findings(results, timings={"trial_seconds": trial_seconds},
                    table=[("trial", "verdict"), *enumerate(verdicts)])


def cmd_bounds(args) -> Findings:
    # Ranges ascend, so bounds_rows refuses a d < 2 or an n < 1 at the first row.
    d_values = _parse_range(args.d, "--d")
    n_values = _parse_range(args.n, "--n") if args.n else list(range(1, 11))
    counting = []
    for d in d_values:
        for n in n_values:
            for row in bounds_mod.bounds_rows(n, d):
                counting.append({
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
    header = ("n", "d", "k", "reduced_param_count", "pure_param_count", "sufficient")
    return Findings({"counting_table": counting, "alpha_lower": alphas, "alpha_upper": upper},
                    table=[header, *(row.values() for row in counting)])


def cmd_classical(args) -> Findings:
    from . import claims, classical
    from .tensor import SeededRng
    try:
        p, q = classical.counterexample_pair(args.n, args.d, args.epsilon,
                                             SeededRng(args.seed))
    except classical.EpsilonTooLargeError as exc:
        return Findings({"rejected": True, "max_admissible_epsilon": exc.max_admissible},
                        EXIT_NEGATIVE)
    return Findings({
        "rejected": False,
        **claims.pair_statistics(p, q),
        "p": p.probabilities.reshape(-1).tolist(),
        "q": q.probabilities.reshape(-1).tolist(),
    })


def cmd_reproduce(args) -> Findings:
    """End-to-end pipeline touching every in-scope claim at desk scale.

    Every check is a :mod:`qmarginal.claims` definition, run here at the
    report's own substreams of ``--seed`` and sizes derived from
    ``--trials``; the sections report the numbers each was decided on.
    """
    from . import claims
    seed = args.seed
    trials = args.trials
    sections: dict = {}
    section_times: dict = {}
    checks: dict = {}
    lap = time.perf_counter()

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

    passed = all(checks.values())
    return Findings({"sections": sections, "checks": checks, "all_checks_pass": passed},
                    EXIT_OK if passed else EXIT_NEGATIVE, timings={"sections": section_times})


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="qmarginal",
                     description="Uniqueness of pure states from reduced density "
                                 "matrices; counting bounds; classical contrast.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, formats=("json",), oracle=False, sized=True):
        p.add_argument("--n", type=int, required=sized, help="number of parties")
        p.add_argument("--d", type=int, required=sized, help="local dimension")
        p.add_argument("--seed", type=_seed, default=0, help="master seed")
        p.add_argument("--out", type=str, default=None, help="output path")
        if formats:
            p.add_argument("--format", choices=formats, default="json")
        if oracle:
            p.add_argument("--tol-converge", dest="tol_converge", type=float, default=1e-9)
            p.add_argument("--max-iter", dest="max_iter", type=int, default=5000)

    p_sample = sub.add_parser("sample", help="write a seeded Haar-random state")
    common(p_sample, formats=())

    p_check = sub.add_parser("check", help="uniqueness verdicts for one state")
    common(p_check, oracle=True, sized=False)  # or --state
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
    p_survey.add_argument("--trials", type=_positive_int, required=True)
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
    p_classical.add_argument("--epsilon", type=float, required=True)
    p_classical.set_defaults(func=cmd_classical)

    p_rep = sub.add_parser("reproduce", help="run the full desk-scale pipeline")
    p_rep.add_argument("--seed", type=_seed, default=0)
    p_rep.add_argument("--trials", type=_positive_int, default=20)
    p_rep.add_argument("--format", choices=("json",), default="json")
    p_rep.add_argument("--out", type=str, default=None)
    p_rep.set_defaults(func=cmd_reproduce)

    return parser


def _numerical_errors() -> tuple:
    """What a failed numerical routine raises. numpy's LinAlgError is read
    from ``sys.modules``: if numpy was never imported, none can be raised."""
    numpy = sys.modules.get("numpy")
    return (RuntimeError,) if numpy is None else (numpy.linalg.LinAlgError, RuntimeError)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "sample":
            _write(cmd_sample(args), args.out)
            return EXIT_OK
        started = time.perf_counter()
        found = args.func(args)
        if args.format == "csv":
            buf = io.StringIO()
            csv.writer(buf).writerows(found.table)
            text = buf.getvalue()
        else:
            text = json.dumps({
                "schema": REPORT_SCHEMA,
                "command": args.command,
                "config": {k: v for k, v in vars(args).items() if k not in _NOT_ECHOED},
                "results": found.results,
                "timings": {"wall_seconds": time.perf_counter() - started,
                            **(found.timings or {})},
            }, sort_keys=True, indent=2) + "\n"
        _write(text, args.out)
        return found.code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _numerical_errors() as exc:
        # LinAlgError subclasses ValueError: a failed numerical routine is
        # the program's fault, not the caller's.
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"internal error: out of memory{detail}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
