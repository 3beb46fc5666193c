"""The package holds no test-only code: every module-level function,
class and assigned name of ``hypercount`` is used somewhere in the
package outside its own definition.  The re-exports of ``__init__`` do
not count as a use, since they serve only callers outside the package."""

import ast
from pathlib import Path

import hypercount


def _defined(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [node.id for t in targets for node in ast.walk(t)
                if isinstance(node, ast.Name)]
    return []


def _used(stmt: ast.stmt) -> set[str]:
    return ({node.id for node in ast.walk(stmt)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)})


def test_every_module_level_name_is_used_in_the_package():
    stmts = [(path.name, stmt)
             for path in sorted(Path(hypercount.__file__).parent.glob("*.py"))
             if path.name != "__init__.py"
             for stmt in ast.parse(path.read_text()).body]
    used = [_used(stmt) for _, stmt in stmts]
    unused = [f"{module}:{stmt.lineno} {name}"
              for i, (module, stmt) in enumerate(stmts) for name in _defined(stmt)
              if not any(name in names for k, names in enumerate(used) if k != i)]
    assert unused == []
