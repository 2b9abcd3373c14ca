"""The package's public surface: every name in ``analogia.__all__`` exists."""

import analogia


def test_every_exported_name_resolves():
    assert [name for name in analogia.__all__ if not hasattr(analogia, name)] == []
    assert len(set(analogia.__all__)) == len(analogia.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from analogia import *", namespace)
    assert set(analogia.__all__) <= namespace.keys()
