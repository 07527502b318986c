"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
Each criterion's computation and check is a ``qmarginal.claims``
definition, the same one ``qmarginal reproduce`` embeds in its report;
the tests fix their own master seed, substream index and sizes, and add
a runtime bound where the criterion has one. c12 tests ``reproduce``
itself.

Criterion 2 is split: the d-sweep monotonicity (2a) and the large-d value
(2b). 2b asserts the stated threshold alpha(1000) > 0.49 and fails: the
root of H(a) + a ln(d^2-1) - ln d approaches 1/2 only like
1/2 - ln2/(2 ln d), so it first exceeds 0.49 near d ~ 1e15; at d = 1000
the root is 0.4502. The assertion is kept as stated rather than weakened;
see the README note on this check. 2b is not a claim of the registry.
"""

import json
import time

from qmarginal import claims
from qmarginal.bounds import solve_alpha_lower
from qmarginal.cli import main as cli_main

MASTER_SEED = 20260808


def _line(tag: str, ok: bool, detail: str) -> bool:
    print(f"[acceptance {tag}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def test_c01_lower_bound_root_qubits():
    t0 = time.perf_counter()
    ok, v = claims.alpha_qubit_in_window()
    elapsed = time.perf_counter() - t0
    assert _line("01", ok and elapsed < 1.0,
                 f"alpha(2)={v['alpha']:.6f}, residual={v['residual']:.2e}, "
                 f"runtime={elapsed:.3f}s")


def test_c02a_lower_bound_monotone_in_d():
    ok, v = claims.alpha_monotone_d_2_10(d_max=50)
    alphas = [s.alpha for s in v["solutions"]]
    assert _line("02a", ok,
                 f"alpha(d) non-decreasing over d=2..50 "
                 f"(alpha(2)={alphas[0]:.4f} .. alpha(50)={alphas[-1]:.4f})")


def test_c02b_lower_bound_large_d_threshold():
    # Stated threshold: alpha(1000) > 0.49. The actual root is ~0.4502
    # because the approach to 1/2 is logarithmic in d; recorded as an
    # honest failure instead of loosening the assertion.
    sol = solve_alpha_lower(1000)
    ok = sol.alpha > 0.49
    _line("02b", ok, f"alpha(1000)={sol.alpha:.6f}, threshold 0.49")
    assert ok, (
        f"alpha(1000) = {sol.alpha:.6f} <= 0.49: the root reaches 0.49 only "
        "around d ~ 1e15; the stated threshold is unattainable at d = 1000"
    )


def test_c03_counting_identity():
    ok, _ = claims.counting_identity()
    assert _line("03", ok, "sum_r C(n,r)(d^2-1)^r + 1 == d^(2n) for n<=20, d<=5")


def test_c04_finite_n_comparison():
    ok, v = claims.finite_n_comparison()
    one, two = v["rows"][:2]
    assert _line("04", ok,
                 f"(n=3,k=2): {two.reduced_param_count} >= {two.pure_param_count}; "
                 f"(n=3,k=1): {one.reduced_param_count} < {one.pure_param_count}")


def test_c05_linear_uniqueness_genericity():
    t0 = time.perf_counter()
    ok, v = claims.linear_genericity(seed=MASTER_SEED, spawn=5, trials=200)
    elapsed = time.perf_counter() - t0
    assert _line("05", ok and elapsed < 10.0,
                 f"{v['unique_linear']}/200 UNIQUE_LINEAR at shape (4,2,2), worst pattern "
                 f"residual {v['worst_residual']:.2e}, runtime={elapsed:.2f}s")


def test_c06_identity_pattern_algebraic_invariant():
    shapes = [(2, 2, 2), (3, 2, 2), (4, 2, 2), (4, 3, 2), (3, 3, 3), (5, 2, 3),
              (6, 3, 2), (4, 4, 2)]
    ok, v = claims.identity_pattern_invariant(seed=MASTER_SEED, spawn=6, shapes=shapes)
    assert _line("06", ok, f"1000 tensors, worst ||K v_id|| / ||K|| = "
                           f"{v['worst_relative_residual']:.2e}")


def test_c07_oracle_positive_control():
    t0 = time.perf_counter()
    ok, v = claims.oracle_positive_control(seed=MASTER_SEED, spawn=7, trials=20)
    elapsed = time.perf_counter() - t0
    assert _line("07", ok and elapsed < 60.0,
                 f"{v['unique']}/20 probes UNIQUE with every restart within 1e-4, "
                 f"runtime={elapsed:.1f}s")


def test_c08_oracle_negative_control_ghz():
    ok, v = claims.oracle_negative_control(seed=MASTER_SEED)
    assert _line("08", ok,
                 f"verdict={v['verdict']}, witness marginal residual "
                 f"{v['witness_marginal_residual']:.2e} (oracle's "
                 f"{v['max_marginal_residual']:.2e}), trace distance "
                 f"{v['witness_distance']:.3f}, mixture marginal residual "
                 f"{v['mixture_marginal_residual']:.2e}")


def test_c09_constraint_kernel_dimensions():
    ok, v = claims.constraint_kernel_dims()
    assert _line("09", ok, f"3-qubit pairs kernel {v['three_qubit_pairs']} (want 27), "
                           f"2-qubit singles kernel {v['two_qubit_singles']} (want 9)")


def test_c10_linear_oracle_consistency():
    ok, v = claims.linear_oracle_consistency(seed=MASTER_SEED, spawn=10, trials=50)
    assert _line("10", ok, f"50 tripartite samples, {v['contradictions']} "
                           f"UNIQUE_LINEAR/NON_UNIQUE contradictions")


def test_c11_classical_counterexample():
    ok, v = claims.classical_counterexample(seed=MASTER_SEED)
    assert _line("11", ok,
                 f"pair marginal diff {v['max_marginal_difference']:.1e}, "
                 f"L1 {v['l1_distance']:.3f} >= "
                 f"{v['epsilon'] * v['deviation_l1'] * (1 - 1e-12):.3f}")


def test_c12_reproduce_determinism(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["reproduce", "--seed", str(MASTER_SEED), "--trials", "5"]
    code1 = cli_main(args + ["--out", str(out1)])
    code2 = cli_main(args + ["--out", str(out2)])
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    del r1["timings"], r2["timings"]
    payload1 = json.dumps(r1, sort_keys=True)
    payload2 = json.dumps(r2, sort_keys=True)
    ok = code1 == code2 == 0 and payload1 == payload2
    assert _line("12", ok,
                 f"two runs, payloads identical (excluding timings): "
                 f"{payload1 == payload2}, exit codes {code1}/{code2}")


def test_c13_oracle_four_qubit_pairs():
    t0 = time.perf_counter()
    ok, v = claims.oracle_four_qubit_pairs(seed=MASTER_SEED, spawn=13, trials=20)
    elapsed = time.perf_counter() - t0
    assert _line("13", ok,
                 f"{v['certified']}/20 Haar 4-qubit states certified UNIQUE from "
                 f"their pair marginals, runtime={elapsed:.2f}s")
