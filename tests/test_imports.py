"""Every imported name is read by the module that imports it (``__init__.py`` excepted: its imports are its exports)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    return sorted(imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)})


def test_every_import_is_used():
    paths = [p for d in ("src/aperio", "tests", "scripts") for p in sorted((ROOT / d).glob("*.py")) if p.name != "__init__.py"]
    assert len(paths) > 20
    unused = {str(p.relative_to(ROOT)): _unused_imports(p.read_text()) for p in paths}
    assert {path: names for path, names in unused.items() if names} == {}
