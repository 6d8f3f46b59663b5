import numpy as np
import pytest
from hypothesis import settings

from smclab import section7_model, weight_profile

# Property tests draw the same examples on every run and keep no example
# database, so a failure reproduces on the next run without stored state.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def model():
    return section7_model()


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def random_profile(rng, m_lo=4, m_hi=50, g_lo=1.0, g_hi=np.e):
    m = int(rng.integers(m_lo, m_hi + 1))
    g = rng.uniform(g_lo, g_hi, m)
    return weight_profile(g)


def ancestors_merge_walk(cum, points):
    """O(M) merge walk over sorted query points: an oracle for the binary
    search of ``smclab.resampling.ancestors``, resolving ties identically
    (right-closed, S_{l-1} < p <= S_l)."""
    anc = np.empty(len(points), dtype=np.int64)
    j = 0
    for i, p in enumerate(points):
        while cum[j] < p:
            j += 1
        anc[i] = j
    return anc
