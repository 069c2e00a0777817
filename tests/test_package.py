import renyimi


def test_star_import_resolves_every_export():
    names = renyimi.__all__
    assert len(names) == len(set(names))
    namespace = {}
    exec("from renyimi import *", namespace)  # raises on a name __all__ lists but lacks
    assert set(names) <= namespace.keys()
