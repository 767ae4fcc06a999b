import rigidmetrics


def test_star_import_resolves_every_exported_name():
    namespace: dict = {}
    exec("from rigidmetrics import *", namespace)
    for name in rigidmetrics.__all__:
        assert namespace[name] is getattr(rigidmetrics, name)
