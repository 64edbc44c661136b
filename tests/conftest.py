import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from thermofem.fem import ScalarField

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


def constant_field(c: float) -> ScalarField:
    """The field x -> c, with zero gradient."""
    c = float(c)
    return ScalarField(fn=lambda x, t: np.full(x.shape[:-1], c),
                       grad=lambda x, t: np.zeros(x.shape))
