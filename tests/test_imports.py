"""Every module of the package and of its tests uses each name it imports (no linter needed),
no module of the package forks, and README's module table names every module."""

import ast
import re
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "vsglab"
README = TESTS.parent / "README.md"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that the module never reads.

    A name is read when it is loaded as an identifier anywhere in the module
    or listed in `__all__`; `from __future__` imports bind no name.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def os_forks(source: str) -> list[int]:
    """Lines that name `os.fork` or import `fork` from `os`."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "fork"
            and isinstance(node.value, ast.Name) and node.value.id == "os"
            or isinstance(node, ast.ImportFrom) and node.module == "os"
            and any(alias.name == "fork" for alias in node.names)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}")
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
    # the package runs in one process: no module of it forks
    assert path.parent != PACKAGE or os_forks(path.read_text()) == []


def test_unused_import_is_reported():
    source = ("from __future__ import annotations\nimport math\nimport numpy as np\n"
              "from os import path, sep\n__all__ = ['sep']\nprint(np.pi)\n")
    assert unused_imports(source) == ["math (line 2)", "path (line 4)"]


def test_a_fork_is_reported():
    source = "import os\nfrom os import fork\npid = os.fork()\nos.forkpty\nfork = 1\n"
    assert os_forks(source) == [2, 3]


def test_readme_module_table_names_exactly_the_package_modules():
    section = README.read_text().split("## Library layout\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `vsglab\.(\w+)` \|", section, flags=re.M)
    assert len(rows) == len(set(rows))
    assert sorted(rows) == sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
