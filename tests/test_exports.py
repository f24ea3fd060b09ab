"""The package's public names: every export binds, none is listed twice."""

import lagcut


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from lagcut import *", namespace)  # a stale name raises AttributeError
    assert set(lagcut.__all__) <= namespace.keys()


def test_exports_are_unique():
    assert len(lagcut.__all__) == len(set(lagcut.__all__))
