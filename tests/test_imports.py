"""Every module of the package uses each name it imports, every private
helper it defines is read somewhere in the package, no function takes a
private parameter, and no module keeps or changes a process-wide setting.

Read with the standard library's ast, so the checks need no linter.  The
package's __init__ imports names only to re-export them and is not checked
for unused imports.
"""

import ast
from pathlib import Path

import pytest

from support import run_python

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


def private_parameters(source: str) -> list:
    """(function, parameter) for each parameter named _x of any function or method in source.

    A private parameter is a second channel through a public signature: a
    result belongs in what the function returns.
    """
    return sorted(
        (getattr(node, "name", "<lambda>"), arg.arg)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs,
                    node.args.vararg, node.args.kwarg)
        if arg is not None and arg.arg.startswith("_")
    )


def test_finds_private_parameters():
    source = (
        "def f(a, _tail=None): pass\n"
        "def g(_a, /, b, *_rest, _c, **_kw): pass\n"
        "class C:\n"
        "    def m(self, x, _out=None):\n"
        "        def inner(_y): pass\n"
        "    def __init__(self, public): pass\n"
        "key = lambda _v, w: w\n"
    )
    assert private_parameters(source) == [
        ("<lambda>", "_v"), ("f", "_tail"), ("g", "_a"), ("g", "_c"), ("g", "_kw"),
        ("g", "_rest"), ("inner", "_y"), ("m", "_out"),
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_parameter(path):
    assert private_parameters(path.read_text()) == []


def global_statements(source: str) -> list:
    """The names that global statements anywhere in source declare.

    A module global that a function rebinds is a process-wide setting: it
    outlives the call that set it and is shared by every thread.
    """
    return sorted(
        name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Global)
        for name in node.names
    )


def test_finds_global_statements():
    source = (
        "_COUNT = 1\n"
        "def set_count(n):\n"
        "    global _COUNT\n"
        "    _COUNT = n\n"
        "class C:\n"
        "    def reset(self):\n"
        "        global _A, _B\n"
        "    def read(self):\n"
        "        return _COUNT\n"
    )
    assert global_statements(source) == ["_A", "_B", "_COUNT"]
    assert global_statements("_COUNT = 1\ndef read():\n    return _COUNT\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_global_statement(path):
    assert global_statements(path.read_text()) == []


# calls that change a setting every thread of the process shares; np.errstate
# and scipy.fft.set_workers are scoped context managers and stay allowed
PROCESS_WIDE_CALLS = {
    "sys.setrecursionlimit", "sys.setswitchinterval", "np.seterr", "numpy.seterr",
    "warnings.filterwarnings", "warnings.simplefilter", "os.putenv",
}


def process_wide_settings(source: str) -> list:
    """Each call in source to a PROCESS_WIDE_CALLS function, by its dotted or
    imported name, and each assignment into os.environ."""
    bare = {name.rpartition(".")[2] for name in PROCESS_WIDE_CALLS}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = ast.unparse(node.func)
            if name in PROCESS_WIDE_CALLS or name in bare:
                found.append(name)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            found.extend(
                "os.environ[...]"
                for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                if isinstance(target, ast.Subscript)
                and ast.unparse(target.value) in ("os.environ", "environ")
            )
    return sorted(found)


def test_finds_process_wide_settings():
    source = (
        "import os, sys, warnings\n"
        "import numpy as np\n"
        "from sys import setswitchinterval\n"
        "def f(limit):\n"
        "    sys.setrecursionlimit(limit + 2500)\n"
        "    np.seterr(all='ignore')\n"
        "    warnings.simplefilter('ignore')\n"
        "    setswitchinterval(1e-3)\n"
        "    os.environ['A'] = '1'\n"
        "    os.environ['B'] += '2'\n"
        "def g():\n"
        "    with np.errstate(all='ignore'), scipy.fft.set_workers(2):\n"
        "        return os.environ['A'], sys.getrecursionlimit()\n"
    )
    assert process_wide_settings(source) == [
        "np.seterr", "os.environ[...]", "os.environ[...]", "setswitchinterval",
        "sys.setrecursionlimit", "warnings.simplefilter",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_process_wide_setting(path):
    # a parse once raised the recursion limit for its call, and threads parsing
    # at once left it raised
    assert process_wide_settings(path.read_text()) == []


def test_package_import_leaves_the_driver_out():
    # the package once imported polycgo.cli, so `python -m polycgo.cli` warned
    # on every run that the module was already loaded
    probe = run_python("-c", "import sys, polycgo; print('polycgo.cli' in sys.modules)")
    assert probe.returncode == 0 and probe.stdout == "False\n"
    driver = run_python("-m", "polycgo.cli", "--help")
    assert driver.returncode == 0 and driver.stderr == ""
