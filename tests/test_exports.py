"""Each module declares its public names, the package re-exports exactly
those, and no module imports a name it never uses."""

import ast
import importlib
from pathlib import Path

import treewavelets

PACKAGE_DIR = Path(treewavelets.__file__).parent
MODULES = ["detection", "errors", "experiments", "graphs", "resistance", "trees", "wavelets"]


def _top_level_definitions(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_every_export_is_listed_by_its_defining_module():
    problems = []
    listed = ["__version__"]
    for name in MODULES:
        module = importlib.import_module(f"treewavelets.{name}")
        defined = _top_level_definitions(ast.parse(Path(module.__file__).read_text()))
        for attr in module.__all__:
            if attr not in defined:
                problems.append(f"{module.__name__}.{attr}: listed but not defined there")
            elif getattr(treewavelets, attr, None) is not getattr(module, attr):
                problems.append(f"{module.__name__}.{attr}: not the same object on the package")
        listed += module.__all__
    assert problems == []
    assert len(set(treewavelets.__all__)) == len(treewavelets.__all__)
    assert sorted(treewavelets.__all__) == sorted(listed)


def _unused_imports(source: str) -> list[str]:
    """Top-level imports whose bound name the module never reads.

    ``from __future__`` and wildcard imports are exempt, and so is a dotted
    ``import a.b`` without ``as``, which loads submodule b for its side
    effect. A name listed in ``__all__`` counts as used.
    """
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname or "." not in alias.name:
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                c.value for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            )
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    unused = {
        path.name: found
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if (found := _unused_imports(path.read_text()))
    }
    assert unused == {}
