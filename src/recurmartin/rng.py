"""Splittable counter-based random streams.

Every stochastic routine in the package draws from a Philox counter-based
generator keyed by (master seed, trajectory index). Trajectory i always sees
the same stream no matter how many trajectories run, in what order, or in how
many processes, which is what makes seeded runs byte-reproducible.
"""
from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def trajectory_generator(seed: int, index: int = 0) -> np.random.Generator:
    """Return the dedicated generator for one trajectory.

    The Philox key is the pair (seed mod 2^64, index mod 2^64); distinct
    pairs give statistically independent streams.
    """
    if index < 0:
        raise ValueError("trajectory index must be nonnegative")
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
