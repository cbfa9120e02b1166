"""Every module of the package and of its tests uses each name it imports (no linter needed),
no module of the package forks or imports an underscore name from another, README's module
table names every module, and the suite's pytest settings let a failing property test fail
alone."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "vsglab"
README = TESTS.parent / "README.md"
PYPROJECT = TESTS.parent / "pyproject.toml"


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


def private_imports(source: str) -> list[str]:
    """Underscore names imported from a module of the package: by a relative import
    or one from `vsglab`."""
    return [f"{alias.name} (line {node.lineno})" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").split(".")[0] == "vsglab")
            for alias in node.names if alias.name.startswith("_")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}")
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
    # the package runs in one process: no module of it forks
    assert path.parent != PACKAGE or os_forks(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_no_private_name_of_another(path):
    # what one module shares with another is public: an underscore name stays in its module
    assert private_imports(path.read_text()) == []


def test_a_private_import_is_reported():
    source = ("from __future__ import annotations\nfrom os import _exit\n"
              "from .grid import V_G, _kernel\nfrom . import _tables as t\n"
              "from vsglab.sim import _fields_checked\n")
    assert private_imports(source) == ["_kernel (line 3)", "_tables (line 4)",
                                       "_fields_checked (line 5)"]


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


def test_a_failing_property_test_does_not_stop_the_run(tmp_path):
    # hypothesis's report hook for a failing @given test raises mypy_extensions'
    # DeprecationWarning; unless the config ignores it, filterwarnings = error turns it
    # into an INTERNALERROR that ends the run before the next test
    (tmp_path / "test_two.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_a_failing_property(n):\n    assert n != n\n\n\n"
        "def test_a_passing_test():\n    pass\n")
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT),
                           "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_two.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout.splitlines()[-1]
