"""Every public top-level name in ``src/sqlbench`` has a reference in ``src``."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sqlbench"


def _defined_names(statement: ast.stmt) -> list[str]:
    """The names a top-level function, class or assignment defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        return [target.id for target in statement.targets if isinstance(target, ast.Name)]
    if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        return [statement.target.id]
    return []


def test_every_public_name_in_src_has_a_reference():
    """A public top-level function, class or constant is named (as a name
    or an attribute) by some statement of some module under ``src/sqlbench``
    other than its own definition. An import is not a reference, so the
    re-exports of ``sqlkit/__init__.py`` keep nothing alive."""
    statements = [(path.relative_to(SRC), statement)
                  for path in sorted(SRC.rglob("*.py"))
                  for statement in ast.parse(path.read_text(encoding="utf-8")).body]
    referenced: dict[str, set[int]] = {}  # name -> ids of the statements naming it
    for _, statement in statements:
        for node in ast.walk(statement):
            if isinstance(node, ast.Name):
                referenced.setdefault(node.id, set()).add(id(statement))
            elif isinstance(node, ast.Attribute):
                referenced.setdefault(node.attr, set()).add(id(statement))
    unreferenced = [f"{path}: {name}"
                    for path, statement in statements
                    for name in _defined_names(statement)
                    if not name.startswith("_")
                    and not referenced.get(name, set()) - {id(statement)}]
    assert not unreferenced, "public names with no reference in src: " + ", ".join(unreferenced)
