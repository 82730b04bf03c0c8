import pytest

from quips import train


@pytest.fixture
def pooled_and_serial(monkeypatch):
    """both(f) calls f() with train._per_subspace on two worker threads,
    whatever the core count, then with it as the plain loop on the calling
    thread, and returns both results."""

    def both(f):
        monkeypatch.setattr(train, "_usable_cores", lambda: 2)
        pooled = f()
        monkeypatch.setattr(train, "_usable_cores", lambda: 1)
        return pooled, f()

    return both
