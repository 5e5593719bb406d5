"""The package's public names."""

import tgss


def test_every_public_name_resolves():
    missing = [name for name in tgss.__all__ if not hasattr(tgss, name)]
    assert missing == []
    namespace = {}
    exec("from tgss import *", namespace)
    assert set(tgss.__all__) <= set(namespace)
