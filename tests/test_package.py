import types

import qmarginal


def test_public_names_resolve_and_are_not_modules():
    assert len(set(qmarginal.__all__)) == len(qmarginal.__all__)
    for name in qmarginal.__all__:
        assert not isinstance(getattr(qmarginal, name), types.ModuleType), name
