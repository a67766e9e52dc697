"""Static checks on the package source, standing in for a linter."""

import ast
from pathlib import Path

import senseplan

PACKAGE_DIR = Path(senseplan.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never mentions again.

    ``from __future__`` imports are directives, not names, and are skipped.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_modules_import_only_what_they_use():
    """Every module but ``__init__`` (which re-exports) uses each name it
    imports."""
    unused = {
        path.name: names
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name != "__init__.py" and (names := unused_imports(path.read_text()))
    }
    assert unused == {}
