import os
import sys

import numpy as np
import pytest

from unselect.dataset import load_registry

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")


@pytest.fixture(scope="session")
def registry():
    return load_registry(os.path.join(DATA_DIR, "registry.txt"))


@pytest.fixture(scope="session")
def diabetes(registry):
    return registry.load("diabetes")


@pytest.fixture(scope="session")
def heart(registry):
    return registry.load("heart")


@pytest.fixture(scope="session")
def ecoli(registry):
    return registry.load("ecoli")


@pytest.fixture(scope="session")
def lung(registry):
    return registry.load("lung")


@pytest.fixture(scope="session")
def breast(registry):
    return registry.load("breast")


@pytest.fixture(scope="session")
def reference_eigen_pca():
    """``reference_eigen_pca(table)`` is the oracle for ``fit_pca``'s SVD:
    singular values and loadings from the eigendecomposition of the
    (n-1)-normalized covariance, min(n, d) components in descending order,
    each loading column flipped so its largest-magnitude entry is
    non-negative.  Returns ``(singular_values, loadings)``."""
    def fit(table):
        n, d = table.values.shape
        centered = table.values - table.values.mean(axis=0)
        eigvals, eigvecs = np.linalg.eigh(centered.T @ centered / (n - 1))
        order = np.argsort(eigvals)[::-1][:min(n, d)]
        singular = np.sqrt(np.clip(eigvals[order], 0.0, None) * (n - 1))
        loadings = eigvecs[:, order]
        pivots = loadings[np.argmax(np.abs(loadings), axis=0), np.arange(len(order))]
        return singular, loadings * np.where(pivots < 0, -1.0, 1.0)
    return fit


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(fn)`` replaces every binding of fn in the package's
    modules, however it was imported, by a wrapper that records each
    call's arguments; it returns the record."""
    def wrap(fn):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("unselect"):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, counted)
        return calls
    return wrap
