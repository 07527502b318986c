import importlib
import types

import pytest

import qmarginal


def assert_public_names_resolve(module):
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert not isinstance(getattr(module, name), types.ModuleType), name


def test_public_names_resolve_and_are_not_modules():
    assert_public_names_resolve(qmarginal)


@pytest.mark.parametrize("name", ["tensor", "bounds", "classical", "feasibility", "uniqueness"])
def test_submodule_public_names_resolve_and_are_not_modules(name):
    assert_public_names_resolve(importlib.import_module(f"qmarginal.{name}"))
