import numpy as np
import pytest

from focklab.fock import build_basis, default_rule_for_degree
from focklab.weights import gaussian_weight


@pytest.fixture(scope="session")
def weight():
    return gaussian_weight(1.0)


@pytest.fixture(scope="session")
def basis25(weight):
    return build_basis(weight, 25, default_rule_for_degree(25, 1.0))


@pytest.fixture(scope="session")
def probes():
    rng = np.random.default_rng(42)
    pts = rng.uniform(-1.5, 1.5, (25, 2))
    return pts[:, 0] + 1j * pts[:, 1]
