import ast
import importlib
import inspect
import types

import pytest

import qmarginal


def assert_public_names_resolve(module):
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert not isinstance(getattr(module, name), types.ModuleType), name


def test_public_names_resolve_and_are_not_modules():
    assert_public_names_resolve(qmarginal)


LIBRARY_MODULES = ["tensor", "bounds", "classical", "feasibility", "uniqueness"]


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_submodule_public_names_resolve_and_are_not_modules(name):
    assert_public_names_resolve(importlib.import_module(f"qmarginal.{name}"))


def test_package_exports_exactly_the_library_modules_public_names():
    union = set()
    for name in LIBRARY_MODULES:
        module = importlib.import_module(f"qmarginal.{name}")
        union.update(module.__all__)
        for public in module.__all__:
            assert getattr(qmarginal, public) is getattr(module, public), public
    assert set(qmarginal.__all__) == union


PUBLIC_NAMES = {
    "AlphaSolution", "AmplitudeTensor", "BoundsRow", "ConsistencyMatrix",
    "ConstraintOperator", "DEGENERATE", "DensityMatrix", "EliminationReport",
    "EliminationStep", "EpsilonTooLargeError", "FeasibilityVerdict", "INCONCLUSIVE",
    "JointDistribution", "MarginalConstraintSet", "NON_UNIQUE", "PartySignature",
    "ProjectionConfig", "RankDeficientBlockError", "RunRecord", "SeededRng",
    "TripartiteShape", "UNIQUE", "UNIQUE_LINEAR", "UniquenessVerdict",
    "alpha_upper_table", "alternating_deviation", "binary_entropy", "bounds_rows",
    "build_consistency_matrix", "check_linear_uniqueness", "classical_marginal",
    "coarse_grain", "count_reduced_params", "counterexample_pair",
    "finite_n_lower_fraction", "gell_mann_basis", "genericity_survey",
    "haar_random_state", "identity_pattern_vector", "partial_trace_matrix",
    "project_psd", "pure_param_count", "rank_and_nullspace",
    "sequential_elimination_trace", "solve_alpha_lower", "to_density",
    "trace_distance", "trace_norm", "uniqueness_probe",
}


def test_package_exports_exactly_the_public_names():
    # The dense operator stacks (product_operators, constraint_nullspace)
    # are the tests' reference, in conftest, not part of the library.
    assert len(qmarginal.__all__) == len(PUBLIC_NAMES)
    assert set(qmarginal.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("name", LIBRARY_MODULES + ["claims"])
def test_library_module_reads_no_clock(name):
    # Wall time is measured by the CLI and the benchmark, never inside the
    # library, so every library result is byte-stable for a fixed seed.
    tree = ast.parse(inspect.getsource(importlib.import_module(f"qmarginal.{name}")))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "time" not in imported
