"""Fixtures shared by the map-reduce tests."""

import pytest

from repro.mapreduce.runtime import helpers
from repro.mapreduce.runtime.netshuffle import ShuffleService


@pytest.fixture
def helper_threads(monkeypatch):
    """``force(n)`` gives this process a fresh helper pool of ``n``
    threads (``0``: no pool, every caller runs inline) through the
    pool-size seam, :func:`helpers.threads`.  Each pool the test made
    is shut down at the next ``force`` and at teardown; the process's
    own pool is put back untouched."""
    own = helpers._pool
    forced = []

    def shut_made():
        if forced and helpers._pool not in (None, own):
            helpers._pool.shutdown(wait=True)

    def force(count):
        shut_made()
        forced.append(count)
        monkeypatch.setattr(helpers, "threads", lambda: count)
        monkeypatch.setattr(helpers, "_pool", None)

    yield force
    shut_made()


@pytest.fixture
def taken(monkeypatch):
    """Whether each fetch was served a staged payload."""
    served = []
    real = ShuffleService._take_staged

    def spy(self, *args):
        payload = real(self, *args)
        served.append(payload is not None)
        return payload

    monkeypatch.setattr(ShuffleService, "_take_staged", spy)
    return served
