"""Counter-based random streams for reproducible parallel simulation.

Every draw is a pure function of (master_seed, replication, iteration,
client_tag, purpose_tag, position).  There is no sequential generator state
shared between streams, so chains can be replayed, run out of order, or run
in parallel and always produce the same numbers.  Normals come from a
Box-Muller transform of the counter-based uniforms: each normal consumes a
fixed number of uniforms, so stream layouts never depend on the data.

These streams make every random draw in fald: the synthetic federations,
the chain's noise, minibatches and devices, and the sigma_sg Monte Carlo.
No fald process loads ``numpy.random``, so no output depends on numpy's
``Generator`` algorithms, which NEP 19 does not keep stable across numpy
versions.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

#: client tag for draws shared by all clients (the common noise vector).
SHARED = "SHARED"

_U64_GOLDEN = np.uint64(_GOLDEN)
_U64_MIX1 = np.uint64(_MIX1)
_U64_MIX2 = np.uint64(_MIX2)
_INV_2_53 = 1.0 / (1 << 53)


def _mix64_int(z: int) -> int:
    """splitmix64 finalizer on a Python int (exact, warning-free)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on a uint64 array, in place; returns z."""
    t = z >> np.uint64(30)
    z ^= t
    z *= _U64_MIX1
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= _U64_MIX2
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


def _tag_to_u64(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & _MASK64
    if isinstance(tag, str):
        return _fnv1a64(tag)
    raise TypeError(f"stream tag must be int or str, got {type(tag).__name__}")


def key_grid(master_seed, replications, iterations, client_tags, purpose_tag) -> np.ndarray:
    """The uint64 key of each (replication, iteration, client tag) stream under one purpose tag.

    Shape (len(replications), len(iterations), len(client_tags)); a key is the
    splitmix64 finalizer chained over the seed, the replication, the iteration,
    the client tag and the purpose tag, so it is a pure function of those five.
    """
    h0 = _mix64_int(int(master_seed) + _GOLDEN)
    reps = np.asarray(replications, dtype=np.uint64)
    h1 = _mix64_array(np.uint64(h0) ^ reps)
    ks = np.asarray(iterations, dtype=np.uint64)
    h2 = _mix64_array(h1[:, None] ^ ks[None, :])
    tags = np.array([_tag_to_u64(t) for t in client_tags], dtype=np.uint64)
    h3 = _mix64_array(h2[:, :, None] ^ tags[None, None, :])
    h3 ^= np.uint64(_tag_to_u64(purpose_tag))
    return _mix64_array(h3)


def uniform_bits_for_keys(keys: np.ndarray, n: int) -> np.ndarray:
    """The 53-bit integers u53 behind `uniforms_for_keys`: u = u53 * 2^-53 exactly.

    Integers and uniforms share order and ties, so ranking either gives the
    same permutation; output is uint64 of shape keys.shape + (n,).
    """
    return _bits(np.asarray(keys, dtype=np.uint64)[..., None], np.arange(1, n + 1, dtype=np.uint64))


def _bits(keys: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """The top 53 bits of splitmix64(key + position * golden), broadcast in C order."""
    bits = _mix64_array(np.add(keys, positions * _U64_GOLDEN, order="C"))
    bits >>= np.uint64(11)
    return bits


def uniforms_for_keys(keys: np.ndarray, n: int) -> np.ndarray:
    """n uniforms in [0, 1) for each key; output shape keys.shape + (n,)."""
    return np.multiply(uniform_bits_for_keys(keys, n), _INV_2_53, dtype=np.float64)


def normals_for_keys(keys: np.ndarray, n: int) -> np.ndarray:
    """n standard normals per key via Box-Muller, position-major: shape (n,) + keys.shape.

    Normals 2i and 2i + 1 are r cos(2 pi u) and r sin(2 pi u) with
    r = sqrt(-2 log(1 - u')), where u' and u are the key's uniforms at
    positions 2i + 1 and 2i + 2; an odd n drops the last sine.  ``keys`` may
    be any view, such as a transposed key grid; the draws are laid out in C
    order of its shape.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    pairs = (n + 1) // 2
    # the uniforms of positions 1, 3, 5, ... (radii) ahead of those of 2, 4, 6, ... (angles)
    pos = np.arange(1, 2 * pairs + 1, dtype=np.uint64).reshape(pairs, 2).T
    radius, angle = np.multiply(_bits(keys, pos.reshape(pos.shape + (1,) * keys.ndim)), _INV_2_53, dtype=np.float64)
    # 1 - u lies in (0, 1], so the log is finite
    np.negative(radius, out=radius)
    np.log1p(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle *= 2.0 * np.pi
    # every kernel reads and writes whole contiguous (keys.shape) planes
    out = np.empty((n,) + keys.shape)
    np.multiply(radius, np.cos(angle), out=out[0::2])
    np.multiply(radius[: n // 2], np.sin(angle[: n // 2]), out=out[1::2])
    return out
