import numpy as np
import pytest

from pseudocp.examples import example_integral_curve, example_spec
from pseudocp.linalg import Signature
from pseudocp.ruled import transport_basis


@pytest.fixture(scope="session")
def sig31():
    return Signature(3, 1)


@pytest.fixture()
def rng():
    # fresh per test so draw sequences do not depend on execution order
    return np.random.default_rng(20240811)


@pytest.fixture(scope="session")
def family1_data():
    """Integral curve data of the first family at the default seed."""
    return example_integral_curve(example_spec(1))


@pytest.fixture(scope="session")
def family1_par(family1_data):
    """Transported-frame parametrization along the first family's curve."""
    return transport_basis(family1_data.curve)
