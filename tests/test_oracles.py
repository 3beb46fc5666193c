import ast
from pathlib import Path

from hypercount import oracles


def test_oracles_import_nothing_from_the_package():
    # an oracle that reused a package code path would check it against itself
    tree = ast.parse(Path(oracles.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import on line {node.lineno}"
            imported.append(node.module)
    assert "numpy" in imported
    assert [m for m in imported if m.split(".")[0] == "hypercount"] == []
