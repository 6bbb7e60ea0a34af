import math

import numpy as np
import pytest
from hypothesis import settings

# One Hypothesis profile for the whole suite: the same draws on every run, no
# deadline (the dense oracles are slow by design) and no example database.
# A property sets only its own max_examples.
settings.register_profile("mixcomp", derandomize=True, deadline=None, database=None)
settings.load_profile("mixcomp")


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(key=np.uint64(20240901)))


def diag_state(*entries) -> np.ndarray:
    return np.diag(np.asarray(entries, dtype=float)).astype(complex)


@pytest.fixture
def bell_state() -> np.ndarray:
    v = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    return np.outer(v, v.conj())


def top_product_sum_oracle(mu, n, retained) -> float:
    """Independent ceiling oracle: class enumeration with binomial counts (d = 2)."""
    p, q = mu
    classes = sorted(
        ((p**a) * (q ** (n - a)), math.comb(n, a)) for a in range(n + 1)
    )[::-1]
    total, left = 0.0, retained
    for value, count in classes:
        take = min(count, left)
        total += take * value
        left -= take
        if left == 0:
            break
    return total
