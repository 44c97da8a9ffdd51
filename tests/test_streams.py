import math

import numpy as np
import pytest

from fald.streams import (
    SHARED,
    _GOLDEN,
    _mix64_int,
    key_grid,
    normals_for_keys,
    stream_key,
    uniforms_for_keys,
)


def uniforms(seed, rep, k, client, purpose, n):
    return uniforms_for_keys(stream_key(seed, rep, k, client, purpose), n)


def normals(seed, rep, k, client, purpose, n):
    return normals_for_keys(stream_key(seed, rep, k, client, purpose), n)


def test_same_inputs_same_outputs():
    a = uniforms(1, 2, 3, 4, "noise", 32)
    b = uniforms(1, 2, 3, 4, "noise", 32)
    assert np.array_equal(a, b)


def test_shared_tag_ignores_asking_client():
    # the shared-noise stream is addressed by the SHARED tag, so any client
    # deriving it sees the same values
    a = normals(0, 0, 3, SHARED, "noise", 8)
    b = normals(0, 0, 3, SHARED, "noise", 8)
    assert np.array_equal(a, b)
    c = normals(0, 0, 3, 1, "noise", 8)
    assert not np.array_equal(a, c)


def test_distinct_inputs_change_stream():
    base = stream_key(7, 1, 2, 3, "noise")
    assert stream_key(8, 1, 2, 3, "noise") != base
    assert stream_key(7, 2, 2, 3, "noise") != base
    assert stream_key(7, 1, 3, 3, "noise") != base
    assert stream_key(7, 1, 2, 4, "noise") != base
    assert stream_key(7, 1, 2, 3, "subsample") != base


def test_independence_smoke():
    n = 10_000
    a = uniforms(5, 0, 9, 0, "noise", n)
    b = uniforms(5, 0, 9, 1, "noise", n)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.05


def test_uniforms_in_unit_interval():
    u = uniforms(11, 0, 0, 0, "noise", 100_000)
    assert np.all((u >= 0) & (u < 1))
    assert abs(u.mean() - 0.5) < 0.01


def test_normals_moments():
    z = normals(13, 0, 0, 0, "noise", 200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.02


def test_key_grid_matches_scalar_keys():
    reps, iters, clients = [0, 3], [5, 6, 7], [0, 1, SHARED]
    grid = key_grid(42, reps, iters, clients, "noise")
    for i, rep in enumerate(reps):
        for j, k in enumerate(iters):
            for l, c in enumerate(clients):
                assert int(grid[i, j, l]) == stream_key(42, rep, k, c, "noise")


def _scalar_uniforms(key, n):
    """Position j of a stream: splitmix64 of key + j * golden, top 53 bits."""
    return [(_mix64_int(key + j * _GOLDEN) >> 11) * 2.0 ** -53 for j in range(1, n + 1)]


def _scalar_normals(key, n):
    u = _scalar_uniforms(key, 2 * ((n + 1) // 2))
    out = []
    for u1, u2 in zip(u[0::2], u[1::2]):
        r = math.sqrt(-2.0 * math.log1p(-u1))
        out += [r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2)]
    return out[:n]


def test_vectorized_draws_bitwise_match_stream():
    # independent scalar oracle on Python ints and the math module; numpy's
    # SIMD log1p/sin/cos may differ from libm by an ulp or two.  Normals are
    # position-major, (n,) + keys.shape, and an odd n drops the last sine.
    grid = key_grid(7, [0, 1], range(4), [0, 1, 2], "noise")
    uniforms = uniforms_for_keys(grid, 5)
    for n in (1, 2, 3, 5):
        normals = normals_for_keys(grid, n)
        assert normals.shape == (n,) + grid.shape and normals.flags.c_contiguous
        # an iteration-major view of the grid draws the same normals, laid out in its order
        swapped = normals_for_keys(grid.transpose(1, 0, 2), n)
        assert swapped.flags.c_contiguous and np.array_equal(swapped, normals.transpose(0, 2, 1, 3))
        for i, rep in enumerate((0, 1)):
            for k in range(4):
                for c in range(3):
                    key = stream_key(7, rep, k, c, "noise")
                    assert uniforms[i, k, c].tolist() == _scalar_uniforms(key, 5)
                    expected = np.array(_scalar_normals(key, n))
                    got = normals[:, i, k, c]
                    assert np.all(np.abs(got - expected) <= 4 * np.spacing(np.abs(expected)))


def test_bad_tag_type_rejected():
    with pytest.raises(TypeError):
        stream_key(0, 0, 0, 1.5, "noise")
