import pytest

from perfcone import brackets as br


@pytest.fixture
def fresh_bracket_caches():
    """Every `lru_cache` of the brackets module cleared before and after."""

    def clear():
        for f in vars(br).values():
            if hasattr(f, "cache_clear"):
                f.cache_clear()

    clear()
    yield
    clear()
