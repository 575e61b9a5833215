"""The package's public names: each one exported once, and each importable."""

import collections

import curvehull


def test_every_public_name_is_exported_once_and_resolves():
    repeated = [k for k, c in collections.Counter(curvehull.__all__).items() if c > 1]
    assert repeated == []
    namespace = {}
    exec("from curvehull import *", namespace)  # raises on a name that does not resolve
    assert set(curvehull.__all__) <= set(namespace)
