import pytest

from apline import grassmann, hermitian


def _clear_base_points():
    for cached in (grassmann.zero_point, grassmann.infinity_point, grassmann.one_point,
                   hermitian.poles):
        cached.cache_clear()


@pytest.fixture
def cold_base_points():
    """Start the test on new base points, whose memos no earlier test has filled.

    The fixture's value clears them again, for a test that needs new ones midway.
    """
    _clear_base_points()
    return _clear_base_points
