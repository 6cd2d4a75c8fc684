"""The package's top-level public names."""

import wknnir
from wknnir import data, ensemble, evaluation, imbalance, models, neighbors

MODULES = (data, ensemble, evaluation, imbalance, models)


def test_all_is_the_union_of_the_module_lists():
    expected = {name for module in MODULES for name in module.__all__} | {"neighbor_table", "__version__"}
    assert len(wknnir.__all__) == len(set(wknnir.__all__))
    assert set(wknnir.__all__) == expected
    assert len(expected) == 45
    for private in ("top_k", "split_query", "TRANSDUCTIVE_ERROR"):
        assert private not in wknnir.__all__


def test_every_name_resolves_to_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(wknnir, name) is getattr(module, name)
    assert wknnir.neighbor_table is neighbors.neighbor_table
    namespace = {}
    exec("from wknnir import *", namespace)
    assert set(wknnir.__all__) <= set(namespace)
