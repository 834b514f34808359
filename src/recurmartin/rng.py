"""Splittable counter-based random streams.

Every stochastic routine in the package draws from a stream keyed by
(master seed, purpose, trajectory index). Trajectory i always sees the same
stream no matter how many trajectories run, in what order, in what blocks
or slabs, in how many processes, or which other trajectories are still
running, which is what makes seeded runs byte-reproducible.

There is one draw scheme for every sampler, vectorized or not:
u = mix(seed, purpose, trajectory, step), a SplitMix64 finalizer over numpy
``uint64`` (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC'11). ``stream_keys`` absorbs the first three parts into one key per
trajectory and ``counter_uniforms`` mixes in the step. The step is a plain
counter, so a block of steps for a set of live trajectories is one
vectorized call, and ``purpose`` is its own key part, apart from the
trajectory index.
"""
from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

#: Purposes: stream families that must not share draws for one trajectory.
GREEN_ENSEMBLE = 1
CONVERGENCE_WITNESS = 2
TRANSIENCE_WITNESS = 3
SIMULATION = 4

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31, _S12 = (np.uint64(s) for s in (30, 27, 31, 12))
_ONE = np.uint64(0x3FF0000000000000)


def _finalize(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, a bijection of uint64, applied in place."""
    tmp = np.empty_like(z)
    np.right_shift(z, _S30, out=tmp)
    z ^= tmp
    z *= _MUL1
    np.right_shift(z, _S27, out=tmp)
    z ^= tmp
    z *= _MUL2
    np.right_shift(z, _S31, out=tmp)
    z ^= tmp
    return z


def _absorb(head: np.ndarray, part) -> np.ndarray:
    """Mix one key part into the key; a bijection in the part for a fixed head."""
    z = np.atleast_1d(np.asarray(part, dtype=np.uint64)) + _GAMMA
    return _finalize(head ^ _finalize(z))


def stream_keys(seed: int, purpose: int, trajectories) -> np.ndarray:
    """Per-trajectory keys of the counter-based draw, as a uint64 array.

    The key absorbs seed, purpose and trajectory index in turn, each a
    separate 64-bit part, so for a fixed seed distinct (purpose, trajectory)
    pairs give distinct keys. Compute the keys once per ensemble.
    """
    idx = np.asarray(trajectories, dtype=np.int64)
    if idx.size and idx.min() < 0:
        raise ValueError("trajectory index must be nonnegative")
    head = _finalize(np.array([seed & _MASK64], dtype=np.uint64) + _GAMMA)
    head = _absorb(head, purpose & _MASK64)
    return _absorb(head, idx.astype(np.uint64))


def counter_uniforms(keys: np.ndarray, steps) -> np.ndarray:
    """Uniforms on [0, 1) for (key, step) pairs, broadcast against each other.

    Step n of a key is the (n+1)-th output of the SplitMix64 sequence seeded
    by the key, so a draw depends on its key and its step counter only.
    """
    n = np.atleast_1d(np.asarray(steps, dtype=np.uint64)) + np.uint64(1)
    n *= _GAMMA
    z = _finalize(keys + n)
    # the top 52 bits as the mantissa of a float in [1, 2), minus 1
    z >>= _S12
    z |= _ONE
    u = z.view(np.float64)
    u -= 1.0
    return u
