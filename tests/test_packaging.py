import ast
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = pathlib.Path(__file__).resolve().parents[1]


def imported_top_level_modules(path):
    """Top-level names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def normalized(name):
    return re.sub(r"[-_.]+", "_", name).lower()


def test_every_imported_dependency_is_declared():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {normalized(re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0])
                for req in project["dependencies"]}
    sources = sorted((ROOT / "src" / "slt").glob("*.py"))
    assert sources
    missing = {}
    for path in sources:
        for name in imported_top_level_modules(path):
            if name in sys.stdlib_module_names or name == "slt":
                continue
            if normalized(name) not in declared:
                missing.setdefault(name, []).append(path.name)
    assert not missing, f"imported but not in pyproject dependencies: {missing}"


def test_every_library_function_is_used():
    # A top-level function or class that no other module of the library
    # imports, and that its own module never names, runs in tests alone: its
    # place is tests/oracles.py.  The re-exports of __init__.py are no use.
    sources = {path.stem: ast.parse(path.read_text(), str(path))
               for path in sorted((ROOT / "src" / "slt").glob("*.py"))
               if path.name != "__init__.py"}
    assert sources
    imported = set()
    for module, tree in sources.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                source = node.module.removeprefix("slt.") if node.level == 0 else node.module
                imported.update((source, alias.name) for alias in node.names)
    unused = []
    for module, tree in sources.items():
        for definition in tree.body:
            if not isinstance(definition, (ast.FunctionDef, ast.ClassDef)):
                continue
            named = any(isinstance(node, ast.Name) and node.id == definition.name
                        for other in tree.body if other is not definition
                        for node in ast.walk(other))
            if not named and (module, definition.name) not in imported:
                unused.append(f"{module}.{definition.name}")
    assert not unused, f"defined in src/slt but used by no library module: {unused}"
