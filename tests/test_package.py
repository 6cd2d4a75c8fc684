"""The package's top-level public names and its one runtime dependency."""

import ast
import sys
from pathlib import Path

import wknnir
from wknnir import data, ensemble, evaluation, imbalance, models, neighbors

MODULES = (data, ensemble, evaluation, imbalance, models)


def test_all_is_the_union_of_the_module_lists():
    expected = {name for module in MODULES for name in module.__all__} | {"neighbor_table", "__version__"}
    assert len(wknnir.__all__) == len(set(wknnir.__all__))
    assert set(wknnir.__all__) == expected
    assert len(expected) == 39
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


def test_modules_import_only_the_standard_library_and_numpy():
    # pyproject.toml declares numpy as the only runtime dependency.
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    paths = sorted(Path(wknnir.__file__).parent.glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name}:{node.lineno} imports {name}"
