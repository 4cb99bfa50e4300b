"""The public names of the package: `spinfcs.__all__` against what
`spinfcs/__init__.py` imports, and no function or class that nothing
uses."""

import ast
from collections import Counter
from pathlib import Path

import spinfcs
from test_perfbench_contract import NAMES


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


# Names that no other package code uses, that are not public and that the
# benchmark harness does not read, kept on purpose: each with its reason.
UNREFERENCED = {
    "gates.FSimParams.anisotropy": "the gates' anisotropy sin(phi/2)/sin(theta), "
    "the paper's Delta, a method of a public class that README documents",
    "reference.compare_to_references": "the paper's verdict as a run "
    "artifact will report through it (ROADMAP item 7)",
    "sampler.SampledRun.records": "the harness's `_sampled` observer "
    "reads it through `sampler.run_sampled`, which it wraps",
}


def _definitions(tree):
    """(qualified name, node) of each module-level function and class and
    of each method, dunders left out: Python calls those itself."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item


def _references(node):
    """How often each name is read, as a variable or an attribute, in
    `node`."""
    return Counter(
        part.id if isinstance(part, ast.Name) else part.attr
        for part in ast.walk(node)
        if isinstance(part, (ast.Name, ast.Attribute))
    )


def test_every_function_and_class_has_a_user():
    # a definition that package code never names, that is not public and
    # that the harness does not read is left over from a refactor
    trees = {
        path.stem: ast.parse(path.read_text())
        for path in Path(spinfcs.__file__).parent.glob("*.py")
    }
    read = sum((_references(tree) for tree in trees.values()), Counter())
    harness = {f"{module}.{attr}" for module, attr in NAMES}
    unused = {
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, node in _definitions(tree)
        if read[node.name] == _references(node)[node.name]
        and node.name not in spinfcs.__all__
    }
    assert unused - harness == UNREFERENCED.keys()
