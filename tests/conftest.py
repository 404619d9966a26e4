import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def max_abs(a):
    return float(np.max(np.abs(np.asarray(a))))


def per_node(fn):
    """Batch a per-point callable for ``sphere_integral_matrix``: map it
    over the rows of the (N, 3) node array and stack the results."""
    return lambda points: np.array([fn(p) for p in points])
