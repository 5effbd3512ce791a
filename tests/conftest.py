import numpy as np
import pytest

from dualfuel.core import OperatingPoint, default_coefficients, default_geometry


@pytest.fixture(scope="session")
def geom():
    return default_geometry()


@pytest.fixture(scope="session")
def coeffs():
    return default_coefficients()


@pytest.fixture
def mid_op():
    return OperatingPoint(speed=1200.0, phi_ng=0.4, phi_di=0.4, egr=0.25,
                          x_r=0.0329, p_ivc=3.5, t_ivc=390.0)


# operating box used throughout: the validity region of the shipped model
BOX = {
    "speed": (1200.0, 1500.0),
    "t_ivc": (372.56, 408.87),
    "p_ivc": (2.85, 4.37),
    "phi_di": (0.2, 0.5),
    "phi_ng": (0.2, 0.7),
    "egr": (0.0, 0.5),
    "x_r": (0.02, 0.05),
}
SOI_BOX = (-20.0, -10.0)


def random_box_op(rng) -> OperatingPoint:
    vals = {k: rng.uniform(lo, hi) for k, (lo, hi) in BOX.items()}
    return OperatingPoint(**vals)


def random_box_soi(rng) -> float:
    return rng.uniform(*SOI_BOX)


@pytest.fixture
def box_rng():
    return np.random.default_rng(20240811)
