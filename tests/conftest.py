import numpy as np
import pytest

from apline import algebra, grassmann, hermitian

# The entries of algebra's linalg seam: every LAPACK call of the library runs in one of them
SEAM_ENTRIES = ("thin_qr", "_numpy_qr", "singular_values", "svd", "_numpy_svd",
                "proven_inverse", "solve", "eigh", "eigvalsh", "det")


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


class SeamLog(list):
    """Calls of the seam's entries, in order: (entry, shape of its first argument) each."""

    def entries(self) -> list:
        """The entry of each call, in order."""
        return [entry for entry, _ in self]

    def calls(self, *entries) -> dict:
        """The number of calls of each of entries, by entry."""
        names = self.entries()
        return {entry: names.count(entry) for entry in entries}


@pytest.fixture
def seam_log(monkeypatch):
    """The test's calls of the seam's entries, as a SeamLog; clear() it to count anew.

    Each entry is patched on algebra by name, where every library module calls it,
    so the log is the one count of the library's factorizations.
    """
    log = SeamLog()

    def logging(entry, original):
        def logged(*args, **kwargs):
            log.append((entry, np.shape(args[0])))
            return original(*args, **kwargs)
        return logged
    for entry in SEAM_ENTRIES:
        monkeypatch.setattr(algebra, entry, logging(entry, getattr(algebra, entry)))
    return log
