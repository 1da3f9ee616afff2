import os
import subprocess
import sys

import numpy as np
import pytest

from unselect.cli import main
from unselect.dataset import load_registry

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..")
DATA_DIR = os.path.join(REPO_ROOT, "data")


def pytest_addoption(parser):
    parser.addoption("--console-script", metavar="PATH",
                     help="run the CLI_CASES rows of tests/test_cli.py as subprocesses of "
                          "this unselect script rather than through cli.main in-process")


def pytest_configure(config):
    config.addinivalue_line("markers", "cli_case: a row of CLI_CASES in tests/test_cli.py")


@pytest.fixture
def console(request, monkeypatch, capsys):
    """``console(argv, env)`` runs one ``unselect`` command from the repo
    root, with UNSELECT_DATA_DIR unset unless ``env`` sets it, and returns
    ``(exit code, stdout, stderr)``: in-process through ``cli.main``, or,
    under ``--console-script PATH``, as a subprocess of PATH.  A PATH that
    is missing or cannot run fails the test."""
    script = request.config.getoption("--console-script")
    if script is not None:
        child_env = {k: v for k, v in os.environ.items() if k != "UNSELECT_DATA_DIR"}
        script = os.path.abspath(script)

        def run(argv, env):
            done = subprocess.run([script, *argv], cwd=REPO_ROOT, env={**child_env, **env},
                                  capture_output=True, encoding="utf-8", timeout=600)
            return done.returncode, done.stdout, done.stderr
        return run

    monkeypatch.chdir(REPO_ROOT)

    def run(argv, env):
        with monkeypatch.context() as m:
            m.delenv("UNSELECT_DATA_DIR", raising=False)
            for key, value in env.items():
                m.setenv(key, value)
            code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return run


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
