import pytest

from apline import grassmann, hermitian


@pytest.fixture
def cold_base_points():
    """Start the test on new base points, whose memos no earlier test has filled."""
    for cached in (grassmann.zero_point, grassmann.infinity_point, grassmann.one_point,
                   hermitian.poles):
        cached.cache_clear()
