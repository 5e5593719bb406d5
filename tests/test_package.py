"""The package's public names, what importing it loads, and its imports."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import tgss


def test_every_public_name_resolves():
    missing = [name for name in tgss.__all__ if not hasattr(tgss, name)]
    assert missing == []
    namespace = {}
    exec("from tgss import *", namespace)
    assert set(tgss.__all__) <= set(namespace)


def test_import_loads_no_scipy_sparse():
    # A fresh interpreter, so that no other test's imports count.
    src = os.path.dirname(os.path.dirname(os.path.abspath(tgss.__file__)))
    code = (f"import sys; sys.path.insert(0, {src!r}); import tgss, tgss.cli; "
            "print(tgss.__file__); print('scipy.sparse' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout.split()
    assert out == [tgss.__file__, "False"]


@pytest.mark.parametrize("before,after", [(None, "1"), ("3", "3")])
def test_import_pins_one_blas_thread_unless_set(before, after):
    # A fresh interpreter, so that numpy is not loaded before tgss.
    src = os.path.dirname(os.path.dirname(os.path.abspath(tgss.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if before is not None:
        env["OPENBLAS_NUM_THREADS"] = before
    code = (f"import os, sys; sys.path.insert(0, {src!r}); import tgss; "
            "print(os.environ['OPENBLAS_NUM_THREADS'])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out == after + "\n"


def unused_imports(source):
    """Names a module imports but never reads, nor lists in its __all__.

    `import a.b` binds `a`; a name counts as read wherever it appears as
    an identifier, annotations included.
    """
    tree = ast.parse(source)
    imported, read, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted(imported - read - exported)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path, math\nfrom x import a, b as c, d\n"
              "__all__ = ['d']\n"
              "def f(v: a) -> float:\n    return math.pi\n")
    assert unused_imports(source) == ["c", "os"]


def test_src_has_no_unused_imports():
    package = pathlib.Path(tgss.__file__).parent
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(package.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}
