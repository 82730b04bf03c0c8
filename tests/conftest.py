import pytest

from quips import train


@pytest.fixture
def pooled_and_serial(monkeypatch):
    """both(f) calls f() with train._per_subspace on a pool of two workers,
    whatever the core count, then with it as the plain loop on the calling
    thread, and returns both results."""
    from concurrent.futures import ThreadPoolExecutor

    executor = ThreadPoolExecutor(2, initializer=train._mark_worker)

    def both(f):
        monkeypatch.setattr(train, "_POOL", (executor, 2))
        pooled = f()
        monkeypatch.setattr(train, "_POOL", (None, 0))
        return pooled, f()

    yield both
    executor.shutdown()
