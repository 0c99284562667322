"""Counter-based streams against a plain-Python splitmix64.

The reference works on Python ints masked to 64 bits, so it shares no
wraparound or shift behaviour with the library's in-place uint64 rounds.
"""

import numpy as np
import pytest

from doslab._rng import derive_seed, uniform_stream

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def splitmix64(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def reference_uniform(seed, counter):
    state = ((seed & MASK) + (counter + 1) * GAMMA) & MASK
    return (splitmix64(state) >> 11) * 2.0 ** -53


COUNTERS = [0, 1, 2 ** 32, 2 ** 32 + 1, 2 ** 64 - 2]


@pytest.mark.parametrize("seed", [0, 5, 2 ** 63 + 12345, MASK])
@pytest.mark.filterwarnings("error")
def test_uniform_stream_matches_python_splitmix64(seed):
    got = uniform_stream(seed, np.array(COUNTERS, dtype=np.uint64))
    want = [reference_uniform(seed, k) for k in COUNTERS]
    assert got.dtype == np.float64
    assert got.tolist() == want
    # a counter's value does not depend on the other counters drawn with it
    assert uniform_stream(seed, COUNTERS[::-1]).tolist() == want[::-1]


@pytest.mark.parametrize("seed", [0, 5, 2 ** 63 + 12345])
def test_derive_seed_matches_python_splitmix64(seed):
    for index in (0, 1, 2 ** 32):
        state = ((seed & MASK) + (index + 1) * GAMMA) & MASK
        assert derive_seed(seed, index) == splitmix64(
            state ^ 0xD6E8FEB86659FD93)
