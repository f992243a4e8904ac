"""Source layout: every top-level function and class in src/cev2 has a
caller inside the package, not only in the tests or the re-exports, and
every op that records a backward rule has one outside ``gradcheck``; the
package's ``__all__`` lists exactly the public names its ``__init__`` imports,
no forward function builds a ``ConvSpec``, a conv's backward runs the forward
conv kernel rather than a loop over kernel offsets, and the package runs on
numpy alone: it never imports scipy."""

import ast
import pathlib
import subprocess
import sys

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


def test_every_recording_op_has_a_caller_outside_gradcheck():
    """A top-level function that calls record_op is an op some program
    records; one that only ``cev2 gradcheck`` calls records for no program."""
    ops: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in tree.body:
            refs = _names(stmt)
            if isinstance(stmt, ast.FunctionDef):
                refs.discard(stmt.name)  # recursion is not a caller
                if any(isinstance(c, ast.Call) and "record_op" in _names(c.func)
                       for c in ast.walk(stmt)):
                    ops[stmt.name] = path.name
            if path.name not in ("__init__.py", "gradcheck.py"):
                used |= refs
    assert len(ops) >= 6
    assert sorted(f"{module}: {name}" for name, module in ops.items() if name not in used) == []


def test_all_lists_exactly_the_public_imports_of_the_package():
    import cev2

    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for stmt in tree.body
                if isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__"
                for alias in stmt.names}
    assert [name for name in cev2.__all__ if not hasattr(cev2, name)] == []
    assert sorted(n for n in imported if not n.startswith("_") and n not in cev2.__all__) == []
    assert len(set(cev2.__all__)) == len(cev2.__all__)


def test_no_forward_function_builds_a_conv_spec():
    """Each conv's spec is built once, beside its weights: no function whose
    name ends in 'forward' calls ConvSpec, directly or through a module-level
    helper that does."""
    top: dict[str, ast.FunctionDef] = {}
    forwards = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        top.update((s.name, s) for s in tree.body if isinstance(s, ast.FunctionDef))
        forwards += [(f"{path.name}: {fn.name}", fn) for fn in ast.walk(tree)
                     if isinstance(fn, ast.FunctionDef) and fn.name.endswith("forward")]

    def callees(fn: ast.AST) -> set[str]:
        return {n for c in ast.walk(fn) if isinstance(c, ast.Call) for n in _names(c.func)}

    makers = {"ConvSpec"}
    while True:
        more = {name for name, fn in top.items() if callees(fn) & makers} - makers
        if not more:
            break
        makers |= more
    assert len(forwards) >= 8
    assert sorted(where for where, fn in forwards if callees(fn) & makers) == []


def test_conv_backward_gets_grad_x_from_the_forward_kernel():
    """``_conv_backward`` calls ``_conv_forward`` for grad-x and nests no
    loop in another, so no col2im loop over kernel offsets comes back."""
    tree = ast.parse((SRC / "tensor.py").read_text(encoding="utf-8"))
    fn = next(s for s in tree.body
              if isinstance(s, ast.FunctionDef) and s.name == "_conv_backward")
    assert "_conv_forward" in {n for c in ast.walk(fn) if isinstance(c, ast.Call)
                               for n in _names(c.func)}
    loops = (ast.For, ast.While)
    nested = [inner.lineno for outer in ast.walk(fn) if isinstance(outer, loops)
              for inner in ast.walk(outer) if inner is not outer and isinstance(inner, loops)]
    assert nested == []


def test_no_module_imports_scipy():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {m}" for m in mods
                      if m == "scipy" or m.startswith("scipy.")]
    assert found == []


def test_importing_the_package_and_cli_loads_no_scipy():
    code = ("import sys, cev2, cev2.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, cwd=str(SRC.parent))
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
