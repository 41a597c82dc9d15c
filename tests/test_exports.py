"""The package's hand-kept export list stays true to its imports."""

import framesel


def test_all_names_resolve_once_and_star_import_binds_them():
    assert [name for name in framesel.__all__ if not hasattr(framesel, name)] == []
    assert len(set(framesel.__all__)) == len(framesel.__all__)
    namespace = {}
    exec("from framesel import *", namespace)
    assert set(framesel.__all__) <= namespace.keys()
