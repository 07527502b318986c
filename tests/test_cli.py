import json
import os
import subprocess
import sys

import numpy as np
import pytest

import qmarginal
from qmarginal import classical, cli, feasibility, uniqueness
from qmarginal.claims import CLAIMS
from qmarginal.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_INTERNAL,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
    state_from_json,
    state_to_json,
)
from qmarginal.feasibility import uniqueness_probe
from qmarginal.tensor import (PartySignature, SeededRng, haar_random_state,
                              partial_trace_matrix)

from conftest import ghz_state


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestStateFormat:
    def test_roundtrip_exact(self):
        state = ghz_state(3)
        back = state_from_json(state_to_json(state))
        assert np.array_equal(back.vector(), state.vector())
        assert back.signature.dims == (2, 2, 2)

    def test_unknown_schema_rejected(self):
        text = json.dumps({"schema": "nope", "dims": [2], "amplitudes": [[1, 0], [0, 0]]})
        with pytest.raises(Exception, match="schema"):
            state_from_json(text)


class TestSample:
    def test_deterministic_bytes(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["sample", "--n", "3", "--d", "2", "--seed", "7",
                     "--out", str(p1)]) == EXIT_OK
        assert main(["sample", "--n", "3", "--d", "2", "--seed", "7",
                     "--out", str(p2)]) == EXIT_OK
        assert p1.read_bytes() == p2.read_bytes()

    def test_norm_and_roundtrip(self, tmp_path):
        path = tmp_path / "s.json"
        main(["sample", "--n", "4", "--d", "2", "--seed", "3", "--out", str(path)])
        state = state_from_json(path.read_text())
        assert abs(np.linalg.norm(state.vector()) - 1.0) < 1e-12
        assert path.read_text() == state_to_json(state)

    def test_missing_args_usage_error(self, capsys):
        code, _ = run(["sample", "--d", "2"], capsys)
        assert code == EXIT_USAGE


class TestCheck:
    def test_ghz_oracle_exit_negative(self, tmp_path):
        fixture = tmp_path / "ghz.json"
        fixture.write_text(state_to_json(ghz_state(3)))
        out = tmp_path / "report.json"
        code = main(["check", "--state", str(fixture), "--mode", "oracle",
                     "--subsets", "01,02,12", "--out", str(out)])
        assert code == EXIT_NEGATIVE
        report = load_json(out)
        oracle = report["results"]["oracle"]
        assert oracle["verdict"] == "NON_UNIQUE"
        assert oracle["witness_factors"] and "witnesses" not in oracle
        assert oracle["max_marginal_residual"] < 1e-9
        assert oracle["certified"] is False and oracle["decided_by"] == "dykstra"
        assert oracle["certificate_gap"] < 1e-3
        assert oracle["face_dim"] == 2

    def test_seeded_linear_split_exit_ok(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["check", "--seed", "11", "--n", "4", "--d", "2",
                     "--m", "1", "--mode", "linear", "--out", str(out)])
        assert code == EXIT_OK
        report = load_json(out)
        lin = report["results"]["linear"]
        assert lin["verdict"] == "UNIQUE_LINEAR"
        assert lin["null_dim"] == 1
        assert lin["shape"] == [4, 2, 2]
        assert lin["decided_by"] == "certificate" and lin["certificate_gap"] > 1e-8

    def test_linear_below_bound_decided_by_svd(self, tmp_path):
        # Three qubits as (2, 2, 2): too few rows of party A for the prefix
        # certificate, so the SVD decides and no gap is reported.
        out = tmp_path / "report.json"
        main(["check", "--seed", "1", "--n", "3", "--d", "2", "--mode", "linear",
              "--out", str(out)])
        lin = load_json(out)["results"]["linear"]
        assert lin["decided_by"] == "svd" and lin["certificate_gap"] is None

    def test_linear_split_past_4096_amplitudes(self, tmp_path):
        # m = 4: 13 qubits, covered fraction 9/13.
        out = tmp_path / "report.json"
        code = main(["check", "--seed", "1", "--n", "13", "--d", "2",
                     "--m", "4", "--mode", "linear", "--out", str(out)])
        assert code == EXIT_OK
        lin = load_json(out)["results"]["linear"]
        assert lin["verdict"] == "UNIQUE_LINEAR"
        assert lin["null_dim"] == 1
        assert lin["shape"] == [32, 16, 16]

    def test_rank_tolerance_below_rounding_floor_usage_error(self, capsys):
        # An empty kernel is impossible (K annihilates the identity pattern),
        # so it reads as a bad --tol-rank, not as a DEGENERATE finding.
        code = main(["check", "--seed", "2", "--n", "4", "--d", "2", "--m", "1",
                     "--mode", "linear", "--tol-rank", "1e-20"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert "below the rounding floor" in captured.err

    def test_linear_without_grouping_usage_error(self, capsys):
        code, _ = run(["check", "--seed", "11", "--n", "5", "--d", "2",
                       "--mode", "linear"], capsys)
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("n,m", [(3, 1), (4, 2)])
    def test_linear_split_party_mismatch_usage_error(self, capsys, n, m):
        code, _ = run(["check", "--seed", "11", "--n", str(n), "--d", "2",
                       "--m", str(m), "--mode", "linear"], capsys)
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("subsets", ["0x,12", "01,,12", "11,02"],
                             ids=["malformed", "empty", "repeated"])
    def test_malformed_subsets_usage_error(self, subsets, capsys):
        code, _ = run(["check", "--seed", "1", "--n", "3", "--d", "2",
                       "--mode", "oracle", "--subsets", subsets], capsys)
        assert code == EXIT_USAGE

    def test_out_of_range_subset_usage_error(self, capsys):
        code, _ = run(["check", "--seed", "1", "--n", "3", "--d", "2",
                       "--mode", "oracle", "--subsets", "01,34"], capsys)
        assert code == EXIT_USAGE

    def test_both_modes_on_tripartite_state(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["check", "--seed", "2", "--n", "3", "--d", "2",
                     "--mode", "both", "--subsets", "01,02,12", "--out", str(out)])
        report = load_json(out)
        assert "linear" in report["results"]
        assert "oracle" in report["results"]
        oracle = report["results"]["oracle"]
        assert oracle["verdict"] == "UNIQUE"
        assert oracle["certified"] is True and oracle["decided_by"] == "certificate"
        assert oracle["certificate_gap"] >= 1e-3
        assert oracle["face_dim"] == 8
        assert [r["iterations"] for r in oracle["runs"]] == [1] * 8
        # A (2,2,2) grouping sits below the M >= N+P-1 bound, so the linear
        # verdict may legitimately be DEGENERATE while the oracle says UNIQUE.
        assert code in (EXIT_OK, EXIT_NEGATIVE)


def write_state(path, vec, dims):
    path.write_text(json.dumps({"schema": "qmarginal/state-v1", "dims": list(dims),
                                "amplitudes": [[z.real, z.imag] for z in vec]}))


def boundary_vector(kind, norm):
    """``|000>`` or a Haar 3-qubit state, scaled to the given norm."""
    if kind == "basis":
        vec = np.zeros(8, dtype=complex)
        vec[0] = 1.0
    else:
        vec = haar_random_state(PartySignature([2, 2, 2]), SeededRng(5)).vector()
    return vec * norm


class TestNormBoundary:
    """Tr(psi psi^+) = ||psi||^2: every state that the norm check accepts
    gets a verdict from both modes, and one it refuses is refused with the
    norm message, never with the trace message of the density matrix."""

    @pytest.mark.parametrize("mode", ["oracle", "linear"])
    @pytest.mark.parametrize("kind", ["basis", "haar"])
    @pytest.mark.parametrize("norm", [1 + 0.9e-12, 1 - 0.9e-12], ids=["above", "below"])
    def test_accepted_state_gets_a_verdict(self, mode, kind, norm, tmp_path, capsys):
        fixture, out = tmp_path / "state.json", tmp_path / "report.json"
        write_state(fixture, boundary_vector(kind, norm), [2, 2, 2])
        code = main(["check", "--state", str(fixture), "--mode", mode,
                     "--subsets", "01,02,12", "--seed", "1", "--out", str(out)])
        assert code != EXIT_USAGE, capsys.readouterr().err
        assert load_json(out)["results"][mode]["verdict"]

    @pytest.mark.parametrize("mode", ["oracle", "linear"])
    def test_state_just_outside_is_refused_by_the_norm_check(self, mode, tmp_path, capsys):
        fixture = tmp_path / "state.json"
        write_state(fixture, boundary_vector("basis", 1 + 1.1e-12), [2, 2, 2])
        code = main(["check", "--state", str(fixture), "--mode", mode,
                     "--subsets", "01,02,12", "--seed", "1"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: state norm") and "trace" not in err


class TestWitnessFactors:
    @pytest.mark.parametrize("state,subsets", [
        (lambda: ghz_state(3), "01,02,12"),
        (lambda: haar_random_state(PartySignature([2] * 7), SeededRng(4)), "0-1,1-2"),
    ], ids=["ghz3-pairs", "haar7-uncovered-party"])
    def test_factor_rebuilds_the_verdicts_witness(self, state, subsets, tmp_path,
                                                  monkeypatch):
        psi = state()
        fixture, out = tmp_path / "state.json", tmp_path / "report.json"
        fixture.write_text(state_to_json(psi))
        verdicts = []

        def probe(*args, **kwargs):
            verdicts.append(uniqueness_probe(*args, **kwargs))
            return verdicts[-1]
        monkeypatch.setattr(feasibility, "uniqueness_probe", probe)
        assert main(["check", "--state", str(fixture), "--mode", "oracle",
                     "--subsets", subsets, "--out", str(out)]) == EXIT_NEGATIVE
        oracle = load_json(out)["results"]["oracle"]
        rho = np.outer(psi.vector(), psi.vector().conj())
        dims = psi.signature.dims
        witnesses = verdicts[0].witnesses[1:]
        assert len(oracle["witness_factors"]) == len(witnesses) >= 1
        for pairs, witness in zip(oracle["witness_factors"], witnesses):
            factor = np.array(pairs) @ np.array([1, 1j])
            w = factor @ factor.conj().T
            assert np.abs(w - witness.matrix).max() <= 1e-12
            for keep in oracle["subsets"]:
                assert np.abs(partial_trace_matrix(w, dims, keep)
                              - partial_trace_matrix(rho, dims, keep)).max() <= 1e-9

    def test_rounding_does_not_flip_the_ghz3_factor(self):
        # The GHZ3 witness of `check --subsets 01,02,12 --seed 3`: entries 0
        # and 7 of its factor tie in magnitude. Rounding-level changes of W,
        # including ones that hand the larger magnitude to entry 7, leave
        # the reported factor where it was, with entry 0 real and positive.
        verdict = uniqueness_probe(ghz_state(3), [[0, 1], [0, 2], [1, 2]], rng=SeededRng(3))
        w = verdict.witnesses[1].matrix
        base = cli._witness_factor(w)
        assert base.shape == (8, 1) and base[0, 0].imag == 0 and base[0, 0].real > 0.7
        assert abs(abs(base[0, 0]) - abs(base[7, 0])) <= 1e-12
        rng = np.random.default_rng(28)
        for scale in (0.999999999999998, 1.000000000000002):
            g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            v = base[:, 0].copy()
            v[7] *= scale
            moved = np.outer(v, v.conj()) + 1e-16 * (g + g.conj().T)
            assert np.abs(cli._witness_factor(moved) - base).max() <= 1e-13

    def test_mixed_witness_keeps_the_eigenvalues_above_the_cut(self):
        # Every witness the probe has returned so far is pure; a rank-2 W
        # checks the sqrt(lambda) scaling and the relative cut.
        rng = np.random.default_rng(0)
        u = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        w = u @ np.diag([0.0, 1e-15, 0.3, 0.7]) @ u.conj().T
        factor = cli._witness_factor(w)
        assert factor.shape == (4, 2)
        assert np.abs(factor @ factor.conj().T - w).max() <= 1e-12


class TestSurvey:
    def test_fields_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["survey", "--n", "3", "--d", "2", "--subsets", "01,02,12",
                "--trials", "4", "--seed", "9"]
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        r1, r2 = load_json(out1), load_json(out2)
        del r1["timings"], r2["timings"]
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
        assert r1["results"]["unique_fraction"] >= 0.75
        assert len(r1["results"]["verdicts"]) == 4
        assert len(load_json(out1)["timings"]["trial_seconds"]) == 4

    def test_zero_trials_usage_error(self, capsys):
        code, _ = run(["survey", "--n", "3", "--d", "2", "--subsets", "01,02,12",
                       "--trials", "0", "--seed", "9"], capsys)
        assert code == EXIT_USAGE

    def test_csv_format(self, tmp_path):
        out = tmp_path / "survey.csv"
        assert main(["survey", "--n", "3", "--d", "2", "--subsets", "01,02,12",
                     "--trials", "2", "--seed", "9", "--format", "csv",
                     "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "trial,verdict"
        assert len(lines) == 3


class TestBounds:
    def test_alpha_row_and_counting_table(self, tmp_path):
        out = tmp_path / "bounds.json"
        assert main(["bounds", "--d", "2", "--n", "1:5", "--out", str(out)]) == EXIT_OK
        report = load_json(out)
        alpha = report["results"]["alpha_lower"][0]
        assert 0.1885 <= alpha["alpha"] <= 0.1895
        rows = report["results"]["counting_table"]
        row = next(r for r in rows if r["n"] == 3 and r["k"] == 2)
        assert row["reduced_param_count"] == "36"
        assert row["pure_param_count"] == "14"
        assert row["sufficient_by_count"] is True
        row1 = next(r for r in rows if r["n"] == 3 and r["k"] == 1)
        assert row1["reduced_param_count"] == "9"
        assert row1["sufficient_by_count"] is False

    def test_alpha_sweep_monotone(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert main(["bounds", "--d", "2:50", "--n", "1", "--out", str(out)]) == EXIT_OK
        alphas = [row["alpha"] for row in load_json(out)["results"]["alpha_lower"]]
        assert len(alphas) == 49
        assert all(b >= a for a, b in zip(alphas, alphas[1:]))

    def test_csv_rows(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--d", "2", "--n", "3", "--format", "csv",
                     "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("n,d,k,")
        assert len(lines) >= 3

    def test_malformed_range(self, capsys):
        code, _ = run(["bounds", "--d", "x:2"], capsys)
        assert code == EXIT_USAGE


class TestClassical:
    def test_counterexample_report(self, tmp_path):
        out = tmp_path / "cls.json"
        code = main(["classical", "--n", "3", "--d", "2", "--epsilon", "0.01",
                     "--seed", "3", "--out", str(out)])
        assert code == EXIT_OK
        res = load_json(out)["results"]
        assert res["max_marginal_difference"] < 1e-14
        assert res["l1_distance"] >= 0.01 * res["deviation_l1"] * (1 - 1e-12)

    def test_epsilon_too_large_exit_negative(self, tmp_path):
        out = tmp_path / "cls.json"
        code = main(["classical", "--n", "3", "--d", "2", "--epsilon", "0.9",
                     "--seed", "3", "--out", str(out)])
        assert code == EXIT_NEGATIVE
        res = load_json(out)["results"]
        assert res["rejected"] is True
        assert 0 <= res["max_admissible_epsilon"] < 0.9

    def test_seed_reproducibility(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["classical", "--n", "3", "--d", "2", "--epsilon", "0.01", "--seed", "3"]
        main(args + ["--out", str(out1)])
        main(args + ["--out", str(out2)])
        r1, r2 = load_json(out1), load_json(out2)
        del r1["timings"], r2["timings"]
        assert r1 == r2


class TestReproduce:
    def test_deterministic_payload_and_checks(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["reproduce", "--seed", "5", "--trials", "3"]
        code1 = main(args + ["--out", str(out1)])
        code2 = main(args + ["--out", str(out2)])
        assert code1 == code2 == EXIT_OK
        r1, r2 = load_json(out1), load_json(out2)
        assert r1["timings"]["wall_seconds"] < 300  # desk-scale pipeline
        del r1["timings"], r2["timings"]
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
        assert r1["results"]["all_checks_pass"] is True
        assert set(r1["results"]["checks"]) == set(CLAIMS)


class TestUsage:
    def test_unknown_command(self, capsys):
        code, _ = run(["frobnicate"], capsys)
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["sample", "--n", "3", "--d", "2"],
        ["check", "--n", "3", "--d", "2", "--subsets", "01,02,12"],
        ["check", "--state", "STATE", "--subsets", "01,02,12"],
        ["survey", "--n", "3", "--d", "2", "--subsets", "01,02,12", "--trials", "1"],
        ["classical", "--n", "3", "--d", "2", "--epsilon", "0.01"],
        ["reproduce", "--trials", "1"],
    ], ids=["sample", "check-sized", "check-state", "survey", "classical", "reproduce"])
    def test_negative_seed_is_refused_by_name(self, argv, tmp_path, capsys):
        fixture = tmp_path / "state.json"
        fixture.write_text(state_to_json(ghz_state(3)))
        argv = [str(fixture) if a == "STATE" else a for a in argv]
        code = main(argv + ["--seed", "-1"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith("usage error: argument --seed: ")

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_reproduce_needs_a_trial(self, trials, capsys):
        code, out = run(["reproduce", "--seed", "1", "--trials", trials], capsys)
        assert code == EXIT_USAGE
        assert out == ""

    @pytest.mark.parametrize("command", [
        ["check", "--n", "3", "--d", "2", "--mode", "both", "--subsets", "01,02,12"],
        ["classical", "--n", "3", "--d", "2", "--epsilon", "0.01"],
    ], ids=["check", "classical"])
    def test_csv_without_a_table_rejected_before_any_work(self, command, monkeypatch,
                                                          capsys):
        calls = []
        monkeypatch.setattr(feasibility, "uniqueness_probe", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(uniqueness, "check_linear_uniqueness", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(classical, "counterexample_pair",
                            lambda *a, **k: calls.append(a))
        code, out = run(command + ["--format", "csv"], capsys)
        assert code == EXIT_USAGE
        assert out == "" and calls == []

    @pytest.mark.parametrize("argv", [
        ["survey", "--d", "2", "--subsets", "01,02,12", "--trials", "1"],
        ["survey", "--n", "3", "--subsets", "01,02,12", "--trials", "1"],
        ["survey", "--n", "3", "--d", "2", "--subsets", "01,02,12"],
        ["classical", "--d", "2", "--epsilon", "0.01"],
        ["classical", "--n", "3", "--epsilon", "0.01"],
        ["classical", "--n", "3", "--d", "2"],
    ], ids=["survey-no-n", "survey-no-d", "survey-no-trials", "classical-no-n",
            "classical-no-d", "classical-no-epsilon"])
    def test_missing_required_flag_is_a_usage_error(self, argv, capsys):
        code, out = run(argv, capsys)
        assert code == EXIT_USAGE
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["check", "--n", "3", "--d", "2", "--mode", "linear"],
        ["survey", "--n", "3", "--d", "2", "--subsets", "01,02,12", "--trials", "1"],
        ["bounds", "--d", "2", "--n", "3"],
        ["classical", "--n", "3", "--d", "2", "--epsilon", "0.01"],
        ["reproduce", "--trials", "1"],
    ], ids=["check", "survey", "bounds", "classical", "reproduce"])
    def test_config_echoes_every_flag(self, argv, capsys):
        code, out = run(argv, capsys)
        assert code != EXIT_USAGE
        subparsers = build_parser()._subparsers._group_actions[0].choices
        dests = {action.dest for action in subparsers[argv[0]]._actions}
        assert set(json.loads(out)["config"]) == dests - {"help", "out", "format"}

    def test_numerical_failure_is_an_internal_error(self, monkeypatch, capsys):
        def failing_solver(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(feasibility, "uniqueness_probe", failing_solver)
        code = main(["check", "--n", "3", "--d", "2", "--mode", "oracle",
                     "--subsets", "01,02,12"])
        captured = capsys.readouterr()
        assert code == EXIT_INTERNAL == 4
        assert captured.err.startswith("internal error: Eigenvalues did not converge")
        assert captured.out == ""

    def test_out_of_memory_is_an_internal_error(self, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 4.00 GiB")
        monkeypatch.setattr(feasibility, "uniqueness_probe", exhausted)
        code = main(["check", "--n", "3", "--d", "2", "--mode", "oracle",
                     "--subsets", "01,02,12"])
        captured = capsys.readouterr()
        assert code == EXIT_INTERNAL == 4
        assert captured.err == "internal error: out of memory (Unable to allocate 4.00 GiB)\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["sample", "--n", "3", "--d", "2", "--format", "csv"],
        ["classical", "--n", "3", "--d", "2", "--epsilon", "0.01", "--seed", "3",
         "--max-iter", "10"],
        ["survey", "--n", "3", "--d", "2", "--subsets", "01,02,12", "--trials", "1",
         "--tol-rank", "1e-6"],
    ], ids=["sample-format", "classical-max-iter", "survey-tol-rank"])
    def test_flag_the_command_ignores_is_rejected(self, argv, capsys):
        code, out = run(argv, capsys)
        assert code == EXIT_USAGE
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["check", "--mode", "linear", "--n", "3", "--d", "2", "--tol-rank", "nan"],
        ["check", "--mode", "linear", "--n", "3", "--d", "2", "--tol-rank", "0"],
        ["check", "--mode", "linear", "--n", "3", "--d", "2", "--tol-rank", "-1"],
        ["check", "--mode", "oracle", "--n", "3", "--d", "2", "--subsets", "01,02,12",
         "--tol-rank", "nan"],
        ["check", "--mode", "linear", "--n", "3", "--d", "2", "--tol-converge", "nan"],
        ["classical", "--n", "3", "--d", "2", "--epsilon", "inf"],
        ["classical", "--n", "3", "--d", "2", "--epsilon", "nan"],
        ["classical", "--n", "1", "--d", "2", "--epsilon", "0.01"],
    ], ids=["linear-tol-rank-nan", "linear-tol-rank-0", "linear-tol-rank-negative",
            "oracle-tol-rank-nan", "linear-tol-converge-nan", "classical-epsilon-inf",
            "classical-epsilon-nan", "classical-one-variable"])
    def test_invalid_float_or_size_is_a_usage_error(self, argv, capsys):
        # No report: a NaN or Infinity in it would not be strict JSON.
        code, out = run(argv, capsys)
        assert code == EXIT_USAGE
        assert out == ""

    def test_nan_state_names_the_problem(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"schema": "qmarginal/state-v1", "dims": [2, 2, 2],
                                    "amplitudes": [[float("nan"), 0.0]] + [[0.0, 0.0]] * 7}))
        for mode in ("oracle", "linear"):
            code = main(["check", "--state", str(path), "--mode", mode,
                         "--subsets", "01,02,12"])
            assert code == EXIT_USAGE
            assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("payload,field", [
        ({"schema": "qmarginal/state-v1"}, "'dims'"),
        ({"schema": "qmarginal/state-v1", "dims": [2, 2, 2], "amplitudes": 5}, "'amplitudes'"),
        ([{"schema": "qmarginal/state-v1"}], "JSON object"),
    ], ids=["no-dims", "amplitudes-not-a-list", "top-level-list"])
    def test_malformed_state_file_is_a_usage_error(self, tmp_path, payload, field):
        # A separate interpreter, so an escaping exception shows as a traceback.
        path = tmp_path / "state.json"
        path.write_text(json.dumps(payload))
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(qmarginal.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "qmarginal.cli", "check", "--state", str(path),
             "--mode", "oracle", "--subsets", "01,02,12"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.startswith("usage error:")
        assert field in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_missing_state_file(self, capsys):
        code, _ = run(["check", "--state", "/nonexistent/state.json",
                       "--mode", "oracle", "--subsets", "01"], capsys)
        assert code == EXIT_USAGE
