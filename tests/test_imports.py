"""Every imported name is read: an unused import is dead API surface or a
leftover of a deleted test.  Names listed in a module's `__all__` count as
read (they are re-exported), and so does an import on a line marked
`# noqa: F401` (kept for a caller outside the module)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([*(ROOT / "src" / "kaclab").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names that `source` imports and never reads, in import order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            if alias.name != "*":
                imported.append(alias.asname or alias.name.split(".")[0])
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_checker_finds_an_unused_import():
    source = ("import os\nimport sys  # noqa: F401\nfrom math import pi, tau\n"
              "from numpy import linalg\n__all__ = ['linalg']\nprint(os.sep, pi)\n")
    assert unused_imports(source) == ["tau"]
