"""The public names of the package: `spinfcs.__all__` against what
`spinfcs/__init__.py` imports."""

import ast
from pathlib import Path

import spinfcs


def test_all_lists_each_name_once_and_every_name_resolves():
    assert len(spinfcs.__all__) == len(set(spinfcs.__all__))
    missing = [name for name in spinfcs.__all__ if not hasattr(spinfcs, name)]
    assert missing == []
    namespace = {}
    exec("from spinfcs import *", namespace)
    assert set(spinfcs.__all__) <= namespace.keys()


def test_every_public_import_is_exported():
    tree = ast.parse(Path(spinfcs.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert public - set(spinfcs.__all__) == set()
