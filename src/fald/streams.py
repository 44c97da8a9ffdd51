"""Counter-based random streams for reproducible parallel simulation.

Every draw is a pure function of (master_seed, replication, iteration,
client_tag, purpose_tag, position).  There is no sequential generator state
shared between streams, so chains can be replayed, run out of order, or run
in parallel and always produce the same numbers.  Normals come from a
Box-Muller transform of the counter-based uniforms: each normal consumes a
fixed number of uniforms, so stream layouts never depend on the data.
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
    z = (z ^ (z >> np.uint64(30))) * _U64_MIX1
    z = (z ^ (z >> np.uint64(27))) * _U64_MIX2
    return z ^ (z >> np.uint64(31))


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


def stream_key(master_seed, replication, iteration, client_tag, purpose_tag) -> int:
    """64-bit key identifying one stream; pure function of its five inputs."""
    h = _mix64_int(int(master_seed) + _GOLDEN)
    for field in (int(replication), int(iteration), _tag_to_u64(client_tag), _tag_to_u64(purpose_tag)):
        h = _mix64_int(h ^ field)
    return h


def key_grid(master_seed, replications, iterations, client_tags, purpose_tag) -> np.ndarray:
    """Vectorized `stream_key` over replications, iterations and client tags.

    Returns a uint64 array of shape (len(replications), len(iterations),
    len(client_tags)) whose entries equal `stream_key` called element by
    element.
    """
    h0 = _mix64_int(int(master_seed) + _GOLDEN)
    reps = np.asarray(replications, dtype=np.uint64)
    h1 = _mix64_array(np.uint64(h0) ^ reps)
    ks = np.asarray(iterations, dtype=np.uint64)
    h2 = _mix64_array(h1[:, None] ^ ks[None, :])
    tags = np.array([_tag_to_u64(t) for t in client_tags], dtype=np.uint64)
    h3 = _mix64_array(h2[:, :, None] ^ tags[None, None, :])
    return _mix64_array(h3 ^ np.uint64(_tag_to_u64(purpose_tag)))


def uniform_bits_for_keys(keys: np.ndarray, n: int) -> np.ndarray:
    """The 53-bit integers u53 behind `uniforms_for_keys`: u = u53 * 2^-53 exactly.

    Integers and uniforms share order and ties, so ranking either gives the
    same permutation; output is uint64 of shape keys.shape + (n,).
    """
    pos = (np.arange(1, n + 1, dtype=np.uint64) * _U64_GOLDEN).reshape(
        (1,) * np.ndim(keys) + (n,)
    )
    bits = _mix64_array(np.asarray(keys, dtype=np.uint64)[..., None] + pos)
    bits >>= np.uint64(11)
    return bits


def uniforms_for_keys(keys: np.ndarray, n: int) -> np.ndarray:
    """n uniforms in [0, 1) for each key; output shape keys.shape + (n,)."""
    u = uniform_bits_for_keys(keys, n).astype(np.float64)
    u *= _INV_2_53
    return u


def normals_for_keys(keys: np.ndarray, n: int) -> np.ndarray:
    """n standard normals per key via Box-Muller; shape keys.shape + (n,)."""
    pairs = (n + 1) // 2
    out = uniforms_for_keys(keys, 2 * pairs)
    # 1 - u lies in (0, 1], so the log is finite.
    r = np.log1p(-out[..., 0::2])
    r *= -2.0
    np.sqrt(r, out=r)
    angle = (2.0 * np.pi) * out[..., 1::2]
    # the uniforms are spent, so the normals overwrite them; the transcendental
    # kernels keep reading and writing whole contiguous arrays
    np.multiply(r, np.cos(angle), out=out[..., 0::2])
    np.multiply(r, np.sin(angle), out=out[..., 1::2])
    return out[..., :n]

