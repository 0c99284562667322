"""Counter-based random streams.

All randomness in the package is a pure function of (seed, counter): the
value at counter ``k`` of seed ``s`` is ``mix64(s + (k+1)*GAMMA)`` where
``mix64`` is the splitmix64 finaliser.  This keeps samples reproducible
bit-for-bit, lets streams be evaluated at arbitrary positions without
sequencing, and gives the monotone coupling the percolation module needs
(the same uniform is reused when only the acceptance threshold changes).
"""
from __future__ import annotations

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_INV_2_53 = 1.0 / 9007199254740992.0  # 2**-53


def mix64(x: np.ndarray) -> np.ndarray:
    """Splitmix64 finaliser, applied in place to the uint64 array ``x``
    with one buffer for its shifts."""
    shifted = np.empty_like(x)
    for shift, mult in ((_S30, _MIX1), (_S27, _MIX2)):
        np.right_shift(x, shift, out=shifted)
        x ^= shifted
        x *= mult
    np.right_shift(x, _S31, out=shifted)
    x ^= shifted
    return x


def uniform_stream(seed: int, counters) -> np.ndarray:
    """U[0,1) doubles at the given counter positions of seed's stream."""
    state = np.array(counters, dtype=np.uint64)
    state += np.uint64(1)
    state *= _GAMMA
    state += np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    bits = mix64(state)
    bits >>= _S11
    u = bits.astype(np.float64)
    u *= _INV_2_53
    return u


_MASK64 = (1 << 64) - 1


def derive_seed(seed: int, index: int) -> int:
    """Child seed for sub-stream ``index`` (realisations, repeats)."""
    # plain ints, masked: numpy scalar uint64 arithmetic warns on wraparound
    state = ((seed & _MASK64) + (index + 1) * int(_GAMMA)) & _MASK64
    return int(mix64(np.array([state ^ 0xD6E8FEB86659FD93],
                              dtype=np.uint64))[0])


_COORD_OFFSET = 1 << 20
_COORD_BITS = 21
SITE_AXES = 3  # 3 x 21 bits fit in a uint64 counter


def site_keys(coords) -> np.ndarray:
    """Pack integer lattice coordinates into uint64 stream counters.

    Coordinates must lie in (-2**20, 2**20); up to ``SITE_AXES`` axes fit.
    The packing is injective, so a translated operator literally evaluates
    the same random field at shifted sites.  Only the random field reads
    these keys.
    """
    a = np.asarray(coords, dtype=np.int64)
    if a.shape[1] > SITE_AXES:
        raise ValueError(f"site keys support at most {SITE_AXES} coordinates")
    if np.any(a >= _COORD_OFFSET) or np.any(a <= -_COORD_OFFSET):
        raise ValueError("coordinate out of packable range (|x| < 2**20)")
    key = np.zeros(a.shape[0], dtype=np.uint64)
    for axis in range(a.shape[1]):
        key = (key << np.uint64(_COORD_BITS)) | (
            (a[:, axis] + _COORD_OFFSET).astype(np.uint64))
    return key
