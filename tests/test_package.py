"""The package's public surface."""

import fusionsim


def test_star_import_and_all_names_resolve():
    namespace: dict = {}
    exec("from fusionsim import *", namespace)
    for name in fusionsim.__all__:
        assert namespace[name] is getattr(fusionsim, name), name
