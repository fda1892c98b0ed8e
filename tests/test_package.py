"""The package's public namespace."""

from types import ModuleType

import ggsignal


def test_star_import_exports_names_not_submodules():
    assert ggsignal.__all__ == sorted(set(ggsignal.__all__))
    for name in ggsignal.__all__:
        assert not isinstance(getattr(ggsignal, name), ModuleType), name
    namespace = {}
    exec("from ggsignal import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == ggsignal.__all__
    assert {"weat", "permutation_p", "load_table", "DataError"} <= set(namespace)
