import maxgrowth


def test_every_exported_name_resolves():
    assert len(set(maxgrowth.__all__)) == len(maxgrowth.__all__)
    assert [name for name in maxgrowth.__all__ if not hasattr(maxgrowth, name)] == []


def test_star_import():
    namespace = {}
    exec("from maxgrowth import *", namespace)
    assert set(maxgrowth.__all__) <= namespace.keys()
