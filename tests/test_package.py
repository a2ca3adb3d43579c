import polarium


def test_public_names_resolve():
    assert len(set(polarium.__all__)) == len(polarium.__all__)
    for name in polarium.__all__:
        assert hasattr(polarium, name), name
    namespace = {}
    exec("from polarium import *", namespace)
    assert set(polarium.__all__) <= namespace.keys()
