import numpy as np
import pytest

from multitag.verify import random_instance  # noqa: F401  (tests import it from here)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
