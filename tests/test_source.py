"""Source layout: every top-level function and class in src/cev2 has a
caller inside the package, not only in the tests or the re-exports."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cev2"


def _names(node: ast.AST) -> set[str]:
    """Identifiers that node reads: bare names and attribute names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_every_top_level_definition_is_used_inside_the_package():
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in tree.body:
            refs = _names(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[stmt.name] = path.name
                refs.discard(stmt.name)  # recursion is not a caller
            if path.name != "__init__.py":  # re-exports are not callers
                used |= refs
    assert len(defined) > 100
    unused = sorted(f"{module}: {name}" for name, module in defined.items()
                    if name not in used)
    assert unused == []
