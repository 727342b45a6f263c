"""Shared fixtures."""
import sys

import pytest


def clear_package_caches():
    """Empty every functools.lru_cache held by a loaded toricapprox module."""
    for name, module in list(sys.modules.items()):
        if name == "toricapprox" or name.startswith("toricapprox."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


@pytest.fixture
def cold_caches():
    """Run the test with every toricapprox cache empty."""
    clear_package_caches()
