from collections import Counter

import ctfpolys


def test_exports_resolve_once():
    # a stale or doubled name in __all__ fails here, not at a user's import
    repeated = [name for name, n in Counter(ctfpolys.__all__).items() if n > 1]
    assert not repeated
    missing = [name for name in ctfpolys.__all__ if not hasattr(ctfpolys, name)]
    assert not missing
