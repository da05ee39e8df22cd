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
