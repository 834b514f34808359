"""Splittable counter-based random streams.

Every stochastic routine in the package draws from a stream keyed by
(master seed, purpose, trajectory index). Trajectory i always sees the same
stream no matter how many trajectories run, in what order, in what blocks
or slabs, in how many processes, or which other trajectories are still
running, which is what makes seeded runs byte-reproducible.

There is one draw scheme for every sampler:
z = mix(seed, purpose, trajectory, n), a SplitMix64 finalizer over numpy
``uint64`` (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC'11), with n the trajectory's draw counter: its step, or its jump where
one draw moves a run several steps. ``stream_keys`` absorbs the first three
parts into one key per trajectory and ``counter_bits`` mixes in the
counter. It is a plain counter, so a block of draws for a set of live
trajectories is one vectorized call, and ``purpose`` is its own key part,
apart from the trajectory index.

A draw is the 52-bit integer b = z >> 12, which ``counter_bits`` writes
into a buffer the caller owns; it stands for the uniform u = b 2^-52,
which no sampler computes. Samplers compare b only against integer cuts:
for a float c, u >= c exactly when b >= ``_draw_cuts(c)``, the least m with
m 2^-52 >= c (2^52, which no draw reaches, for c > 1 - 2^-52). With a
positive float scale s, fl(u s) >= c exactly when b >= ``_draw_cuts(c, s)``,
because fl(x s) is nondecreasing in x.

Two drivers step every sampler on these draws, one per stopping rule:
``green._ensemble`` for runs absorbed at the base, ``htransform._run_lane``
for runs stopped at a fixed horizon. Either may move a run several steps
per draw where the law allows (``green._line_jumps`` from mark to mark,
the line and half-line witnesses by their exact K-step laws).
"""
from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

#: Purposes: stream families that must not share draws for one trajectory.
GREEN_ENSEMBLE = 1
CONVERGENCE_WITNESS = 2
TRANSIENCE_WITNESS = 3

#: A draw is an integer in [0, 2^52): the top bits of the mixed counter.
_DRAW_BITS = 52

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31, _S12 = (np.uint64(s) for s in (30, 27, 31, 12))


def _finalize(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, a bijection of uint64, applied in place to z;
    ``tmp`` is scratch of z's shape."""
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
    z = _finalize(z, np.empty_like(z))
    z ^= head
    return _finalize(z, np.empty_like(z))


def stream_keys(seed: int, purpose: int, trajectories) -> np.ndarray:
    """Per-trajectory keys of the counter-based draw, as a uint64 array.

    The key absorbs seed, purpose and trajectory index in turn, each a
    separate 64-bit part, so for a fixed seed distinct (purpose, trajectory)
    pairs give distinct keys. Compute the keys once per ensemble.
    """
    idx = np.asarray(trajectories, dtype=np.int64)
    if idx.size and idx.min() < 0:
        raise ValueError("trajectory index must be nonnegative")
    head = np.array([seed & _MASK64], dtype=np.uint64) + _GAMMA
    head = _absorb(_finalize(head, np.empty_like(head)), purpose & _MASK64)
    return _absorb(head, idx.astype(np.uint64))


def counter_bits(keys: np.ndarray, steps, out=None, scratch=None) -> np.ndarray:
    """The 52-bit integer draws of (key, step) pairs, broadcast against each other.

    Step n of a key is the top 52 bits of the (n+1)-th output of the
    SplitMix64 sequence seeded by the key, so a draw depends on its key and
    its step counter only. The draws are written, as int64, into ``out``
    and returned; ``scratch`` is working space of the same shape. Either is
    allocated when not given, so a caller that draws block after block can
    pass the same two buffers each time.
    """
    n = np.atleast_1d(np.asarray(steps, dtype=np.uint64)) + np.uint64(1)
    n *= _GAMMA
    shape = np.broadcast_shapes(np.shape(keys), n.shape)
    out = np.empty(shape, dtype=np.int64) if out is None else out
    z = out.view(np.uint64)
    np.add(keys, n, out=z)
    _finalize(z, np.empty_like(z) if scratch is None else scratch.view(np.uint64))
    z >>= _S12
    return out


def _draw_cuts(c, scale=None) -> np.ndarray:
    """The least m in [0, 2^52] with fl(m 2^-52 scale) >= c, elementwise, as int64.

    A draw b then passes the float test fl(b 2^-52 scale) >= c exactly
    when b >= m; 2^52 stands for a c that no draw reaches, +inf included.
    Without a scale the test is b 2^-52 >= c and m is c 2^52 rounded up,
    both exact. A ``scale`` is positive; fl(x s) is nondecreasing in x, so
    the quotient c / s, rounded up on the 2^-52 grid, is off by a few units
    at most, and stepping it down while m - 1 still passes and up while m
    does not lands on the least m. m is held as a float until it is
    returned: every integer up to 2^53 is one, and m 2^-52 is exact.
    """
    c = np.asarray(c, dtype=np.float64)
    top, grid = float(1 << _DRAW_BITS), 2.0**-_DRAW_BITS
    if scale is None:
        return np.ceil(np.clip(c, 0.0, 1.0) * top).astype(np.int64)
    s = np.asarray(scale, dtype=np.float64)
    with np.errstate(invalid="ignore", over="ignore"):
        m = np.ceil(np.clip(c / s, 0.0, 1.0) * top)
    while (down := (m > 0) & ((m - 1) * grid * s >= c)).any():
        m -= down
    while (up := (m < top) & (m * grid * s < c)).any():
        m += up
    return m.astype(np.int64)
