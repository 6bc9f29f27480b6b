import os
from pathlib import Path

import pytest

from localsgd import LogisticObjective, make_quadratic, parse_libsvm

DATA_DIR = Path(__file__).parent / "data"
REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def cli_env():
    """Environment for `python -m localsgd` child processes: this checkout's
    src leads PYTHONPATH, so they import the package under test without an
    install."""
    paths = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


@pytest.fixture(scope="session")
def synth50():
    with open(DATA_DIR / "synth50.libsvm", "r", encoding="utf-8") as fh:
        return parse_libsvm(fh)


@pytest.fixture(scope="session")
def logistic50(synth50):
    return LogisticObjective(synth50)


@pytest.fixture(scope="session")
def quad10():
    """Standard quadratic fixture: d=10, kappa=4, unit gradient noise."""
    return make_quadratic(d=10, mu=1.0, L=4.0, n=64, noise=1.0, seed=7)


@pytest.fixture(autouse=True)
def _no_oracle_left_on_a_session_objective(request):
    """After each test, no session-scoped objective it used holds an
    instance attribute that hides a method of its class.

    `monkeypatch.setattr(objective, name, ...)` undoes itself by storing
    the bound method on the instance, which hides a later class-level
    patch in another test; patch an instance with
    `monkeypatch.setitem(vars(objective), name, ...)`.
    """
    yield
    for name in ("logistic50", "quad10"):
        if name in request.fixturenames:
            value = request.getfixturevalue(name)
            objective = value[0] if name == "quad10" else value
            hidden = [attr for attr in vars(objective)
                      if callable(getattr(type(objective), attr, None))]
            for attr in hidden:  # so that only the test that left them fails
                del vars(objective)[attr]
            assert not hidden, f"{name} keeps instance attributes {hidden} after the test"


def w8a_location():
    """Path to the w8a dataset if it has been fetched, else None."""
    candidates = [os.environ.get("LOCALSGD_W8A", "")]
    candidates.append(str(REPO_ROOT / "data" / "w8a"))
    for candidate in candidates:
        if candidate and Path(candidate).is_file():
            return Path(candidate)
    return None


@pytest.fixture(scope="session")
def w8a_dataset():
    path = w8a_location()
    if path is None:
        pytest.skip(
            "w8a dataset not available; run scripts/fetch_w8a.py and set "
            "LOCALSGD_W8A (requires network access)"
        )
    with open(path, "r", encoding="utf-8") as fh:
        return parse_libsvm(fh)
