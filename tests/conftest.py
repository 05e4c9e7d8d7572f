import math

import numpy as np
import pytest

from ewselect import Dataset


def normalized_gaussian(rng, n, p):
    """Design with i.i.d. standard normal entries, columns scaled to ||X_j||^2 = n."""
    X = rng.standard_normal((n, p))
    return X * (math.sqrt(n) / np.linalg.norm(X, axis=0))


def planted_instance(seed, n, p, support_values, sigma):
    """Dataset with known coefficients on the first len(support_values) columns."""
    rng = np.random.default_rng(seed)
    X = normalized_gaussian(rng, n, p)
    beta = np.zeros(p)
    beta[: len(support_values)] = support_values
    y = X @ beta + sigma * rng.standard_normal(n)
    return Dataset(X, y, sigma), beta


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def small_data(rng):
    """15 x 10 unnormalized Gaussian instance with noise level 1."""
    X = rng.standard_normal((15, 10))
    y = rng.standard_normal(15)
    return Dataset(X, y, 1.0)


@pytest.fixture
def no_gram(monkeypatch):
    """Make any read of Dataset.gram, the p x p X'X, fail."""
    def refuse(self):
        raise AssertionError("the p x p Gram matrix was built")
    monkeypatch.setattr(Dataset, "gram", property(refuse))
