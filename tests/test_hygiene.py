"""Source hygiene checks that need only the standard library."""

import ast
import pathlib

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "unramified"


def unused_imports(tree: ast.Module) -> list:
    """Names bound by a module-level import and never read in the module.
    `from __future__` imports and names listed in `__all__` are exempt."""
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_helper_sees_only_unread_names():
    tree = ast.parse("import os\nimport sys\nfrom a import b, c as d\nprint(sys, d)\n")
    assert unused_imports(tree) == [(1, "os"), (3, "b")]


def test_no_unused_module_level_imports():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(f"{path.name}:{line}: {name}" for line, name in unused_imports(tree))
    assert found == []
