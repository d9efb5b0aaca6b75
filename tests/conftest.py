import tracemalloc

import pytest

from stableinfer import metrics


@pytest.fixture
def small_leaf(monkeypatch):
    """Sum over leaves of 128 rows, numpy's smallest unsplit block, so that
    a few hundred samples span many leaves of `metrics._tree_sums`."""
    monkeypatch.setattr(metrics, "_LEAF", 128)


def _traced_peak(fn, *args, **kwargs) -> int:
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """traced_peak(fn, *args, **kwargs): the tracemalloc peak, in bytes, of
    the call fn(*args, **kwargs), counted from nothing traced."""
    return _traced_peak
