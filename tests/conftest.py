import pytest

from otsuki import eigencount, spectral
from otsuki.geodesic import GeodesicFamily, sample_trajectory, solve_parameter


@pytest.fixture(scope="session")
def fam23():
    return solve_parameter(2, 3)


@pytest.fixture(scope="session")
def traj23(fam23):
    return sample_trajectory(fam23, 1024)


@pytest.fixture(scope="session")
def fam58():
    return solve_parameter(5, 8)


@pytest.fixture(scope="session")
def traj58(fam58):
    return sample_trajectory(fam58, 1024)


@pytest.fixture(scope="session")
def fam710():
    return solve_parameter(7, 10)


@pytest.fixture(scope="session")
def traj710(fam710):
    return sample_trajectory(fam710, 1024)


@pytest.fixture(scope="session")
def clifford_traj():
    return sample_trajectory(GeodesicFamily.clifford(), 1024)


class SweepLog(list):
    """(id(op), sigma, logdet) of every shift swept, in order; ``calls``
    holds the number of shifts of each ``inertia`` call."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def clear(self):
        super().clear()
        self.calls.clear()


@pytest.fixture
def count_sweeps(monkeypatch):
    """Records every shift of every inertia call, and the call, at every
    binding: ``eigencount`` itself and ``spectral``."""
    original = eigencount.inertia
    seen = SweepLog()

    def recorded(op, *shifts, logdet=True, **kwargs):
        seen.extend((id(op), sigma, logdet) for sigma in shifts)
        seen.calls.append(len(shifts))
        return original(op, *shifts, logdet=logdet, **kwargs)

    monkeypatch.setattr(eigencount, "inertia", recorded)
    monkeypatch.setattr(spectral, "inertia", recorded)
    return seen
