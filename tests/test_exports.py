import polycrt


def test_every_exported_name_resolves():
    missing = [name for name in polycrt.__all__ if not hasattr(polycrt, name)]
    assert missing == []


def test_star_import_binds_exactly_the_export_list():
    namespace = {}
    exec("from polycrt import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(polycrt.__all__)
