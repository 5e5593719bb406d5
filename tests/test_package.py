"""The package's public names and what importing it loads."""

import os
import subprocess
import sys

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
