"""No module of the package imports a name it never uses, and no function calls itself."""

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


def _self_calls(tree):
    # A function whose body calls its own name, directly or as self.name / cls.name.
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    f = node.func
                    if (isinstance(f, ast.Name) and f.id == fn.name) or (
                        isinstance(f, ast.Attribute) and f.attr == fn.name
                        and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls")
                    ):
                        found.append(f"line {node.lineno}: {fn.name}")
    return found


def test_no_function_calls_itself():
    # The searches are loops over explicit stacks, so no input depth can
    # reach the interpreter's recursion limit.
    recursive = {
        path.name: calls
        for path in sorted(SOURCES.glob("*.py"))
        if (calls := _self_calls(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert recursive == {}
