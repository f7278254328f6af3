"""No module of the package imports a name it never uses."""

import ast
from pathlib import Path

SOURCES = Path(__file__).parent.parent / "src" / "hamfix"


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    unused = {
        path.name: names
        for path in sorted(SOURCES.glob("*.py"))
        if path.name != "__init__.py"  # re-exports
        and (names := _unused_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert unused == {}
