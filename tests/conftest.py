import math
import multiprocessing
import sys

import numpy as np
import pytest

from ewselect import Dataset, baselines


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


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail any test that leaves a child process behind: the benchmark
    refuses runs that do, and the CSV reader joins every child it forks."""
    yield
    assert multiprocessing.active_children() == []


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


@pytest.fixture
def lasso_sweeps():
    """A one-item list counting the coordinate-descent sweeps (full and
    active-set) that lasso_coordinate_descent runs while the test runs."""
    count = [0]

    def profile(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_name == "sweep"
                and code.co_filename == baselines.__file__):
            count[0] += 1
    sys.setprofile(profile)
    try:
        yield count
    finally:
        sys.setprofile(None)


def duplicated_column_lasso(rng):
    """(60, 20) design whose column 7 repeats column 3, with a response on
    the first ten columns: at lam 0.05 both copies stay active, so descent
    never meets tol 1e-300 and the exact finish meets a singular system."""
    X = normalized_gaussian(rng, 60, 20)
    X[:, 7] = X[:, 3]
    y = X[:, :10] @ rng.standard_normal(10) + rng.standard_normal(60)
    return X, y
