"""Every module of the package uses each name it imports, and every private
helper it defines is read somewhere in the package.

Read with the standard library's ast, so the checks need no linter.  The
package's __init__ imports names only to re-export them and is not checked
for unused imports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "polycgo"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import statement anywhere in source and never read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_finds_unused_imports():
    source = "import os.path\nimport numpy as np\nfrom a import b, c as d\nd(np.pi)\n"
    assert unused_imports(source) == ["b", "os"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def unread_private_helpers(sources) -> list:
    """Module-level functions and methods named _x (not dunders) that no source reads.

    A read is a loaded name or attribute; the def itself, a string and an
    import do not count.
    """
    defined, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        scopes = [tree] + [n for n in tree.body if isinstance(n, ast.ClassDef)]
        defined.update(
            node.name
            for scope in scopes
            for node in scope.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_")
            and not node.name.startswith("__")
        )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(defined - read)


def test_finds_unread_private_helpers():
    a = (
        "from b import _used\n"
        "def _dead(): pass\n"
        "def _alive(): pass\n"
        "class C:\n"
        "    def __init__(self): self._m = _alive()\n"
        "    def _method(self): pass\n"
        "    def _kept(self): return self._kept_too\n"
        "    def _kept_too(self): pass\n"
        "    def f(self):\n"
        "        def _nested(): pass\n"
        "        return self._kept()\n"
    )
    b = "def _used(): pass\n_used()\n"
    assert unread_private_helpers([a, b]) == ["_dead", "_method"]


def test_no_unread_private_helper():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert unread_private_helpers(sources) == []


def run_python(*args) -> subprocess.CompletedProcess:
    """A fresh interpreter with the package's source directory first on its path."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=60)


def test_package_import_leaves_the_driver_out():
    # the package once imported polycgo.cli, so `python -m polycgo.cli` warned
    # on every run that the module was already loaded
    probe = run_python("-c", "import sys, polycgo; print('polycgo.cli' in sys.modules)")
    assert probe.returncode == 0 and probe.stdout == "False\n"
    driver = run_python("-m", "polycgo.cli", "--help")
    assert driver.returncode == 0 and driver.stderr == ""
