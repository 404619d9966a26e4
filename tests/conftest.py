import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def max_abs(a):
    return float(np.max(np.abs(np.asarray(a))))

