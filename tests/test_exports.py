"""The package's export list agrees with its modules' export lists."""

import ast
import importlib
from pathlib import Path

import treewavelets


def test_every_export_is_listed_by_its_defining_module():
    # name -> submodule, for every ``from .module import name`` in the package init
    tree = ast.parse(Path(treewavelets.__file__).read_text())
    sources = {
        alias.asname or alias.name: f"treewavelets.{node.module}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert sorted(set(sources) - set(treewavelets.__all__)) == []
    problems = []
    for name in sorted(set(treewavelets.__all__) - {"__version__"}):
        if name not in sources:
            problems.append(f"{name}: not imported from a submodule")
            continue
        module = importlib.import_module(sources[name])
        defined_in = getattr(getattr(treewavelets, name), "__module__", module.__name__)
        if defined_in != module.__name__:
            problems.append(f"{name}: imported from {module.__name__}, defined in {defined_in}")
        elif name not in module.__all__:
            problems.append(f"{name}: missing from {module.__name__}.__all__")
    assert problems == []
