import numpy as np
import pytest

from dualfuel.calib import SampleRanges
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


# operating box used throughout: dataset generation's sampling box, the
# validity region of the shipped model
BOX = {k: v for k, v in SampleRanges()._asdict().items() if k != "soi"}
SOI_BOX = SampleRanges().soi


def random_box_op(rng) -> OperatingPoint:
    vals = {k: rng.uniform(lo, hi) for k, (lo, hi) in BOX.items()}
    return OperatingPoint(**vals)


def random_box_soi(rng) -> float:
    return rng.uniform(*SOI_BOX)


@pytest.fixture
def box_rng():
    return np.random.default_rng(20240811)
