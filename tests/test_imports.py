"""Name checks over the sources, each file parsed once: every import is read, and no top-level helper is dead.

``__init__.py`` is skipped by the import check: its imports are its exports.
Every directory is walked recursively.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def trees() -> dict[Path, ast.Module]:
    paths = sorted(p for d in ("src/aperio", "tests", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py"))
    return {p: ast.parse(p.read_text(), str(p)) for p in paths}


def _under(trees: dict[Path, ast.Module], *dirs: str) -> dict[Path, ast.Module]:
    return {p: tree for p, tree in trees.items() if any(p.is_relative_to(ROOT / d) for d in dirs)}


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    return sorted(imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)})


def _top_level_names(tree: ast.Module) -> dict[str, int]:
    """Each function, class and assigned name at the top of a module, with its line."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                defined.update((n.id, node.lineno) for n in ast.walk(target) if isinstance(n, ast.Name))
    return defined


def _references(trees: dict[Path, ast.Module], arguments: bool) -> set[str]:
    """Names read in ``trees``: loaded names, attributes, imported names and, with ``arguments``, argument names."""
    used = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                used.add(n.id)
            elif isinstance(n, ast.Attribute):
                used.add(n.attr)
            elif isinstance(n, ast.alias):
                used.add(n.name)
            elif arguments and isinstance(n, ast.arg):
                used.add(n.arg)
    return used


def test_every_import_is_used(trees):
    checked = {p: tree for p, tree in _under(trees, "src/aperio", "tests", "scripts").items() if p.name != "__init__.py"}
    assert len(checked) > 20
    unused = {str(p.relative_to(ROOT)): _unused_imports(tree) for p, tree in checked.items()}
    assert {path: names for path, names in unused.items() if names} == {}


def test_every_conftest_name_is_referenced(trees):
    # as a name, a fixture argument, an import or an attribute anywhere under tests/
    used = _references(_under(trees, "tests"), arguments=True)
    defined = _top_level_names(trees[ROOT / "tests" / "conftest.py"])
    assert {name: line for name, line in defined.items() if name not in used} == {}


def test_every_private_name_of_the_library_is_referenced(trees):
    used = _references(trees, arguments=False)
    dead = {
        f"{path.relative_to(ROOT)}:{line}": name
        for path, tree in _under(trees, "src/aperio").items()
        for name, line in _top_level_names(tree).items()
        if name.startswith("_") and not name.startswith("__") and name not in used
    }
    assert dead == {}
