import pytest

from stableinfer import metrics


@pytest.fixture
def small_leaf(monkeypatch):
    """Sum over leaves of 128 rows, numpy's smallest unsplit block, so that
    a few hundred samples span many leaves of `metrics._tree_sums`."""
    monkeypatch.setattr(metrics, "_LEAF", 128)
