import ast
import inspect

import pathgm


def test_all_lists_exactly_the_imported_public_names():
    tree = ast.parse(inspect.getsource(pathgm))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    assert len(pathgm.__all__) == len(set(pathgm.__all__))
    assert set(pathgm.__all__) == imported | {"__version__"}
    for name in pathgm.__all__:
        getattr(pathgm, name)
