import re

import numpy as np
import pytest

import fald
from fald import model as model_mod
from fald.cli import save_dataset_csv
from fald.model import (
    FederatedDataset,
    _newton_minimize,
    _rank_smallest,
    _softmax_hessian,
    apply_matrix,
    ModelError,
    client_grads,
    constants,
    energy,
    gaussian_client_grad_subset,
    gen_gaussian_federation,
    gen_logistic_federation,
    load_dataset_csv,
    logistic_client_grad,
    predict_proba,
    smoothness,
    softmax,
    subsample_indices,
    subsample_size,
    target_posterior,
)
from fald.streams import SHARED, key_grid, normals_for_keys, stream_key, uniforms_for_keys
from tests_support_minibatch import one_minibatch_grad
from tests_support_model import exact_grads, gaussian_energy

REF_SIGMA = np.array([[5.0, -2.0], [-2.0, 1.0]])


def make_spec(n_clients=3, alpha=1.0, points=8, seed=0, sigma=None, tau=1.0):
    return gen_gaussian_federation(n_clients, alpha, points, REF_SIGMA if sigma is None else sigma, seed, tau=tau)


# ---------------------------------------------------------------------------
# dataset


def test_weights_derive_from_counts():
    data = FederatedDataset([np.zeros((2, 1)), np.zeros((6, 1))])
    assert np.allclose(data.weights, [0.25, 0.75])


def test_weights_are_counts_over_their_sum_bit_for_bit():
    sizes = (3, 7, 11, 5)
    data = FederatedDataset([np.zeros((n, 2)) for n in sizes])
    counts = np.array(sizes, dtype=np.float64)
    assert data.weights.tobytes() == (counts / counts.sum()).tobytes()
    spec = make_spec(n_clients=4, points=sizes)
    assert spec.data.weights.tobytes() == (counts / counts.sum()).tobytes()


FEDERATIONS = {
    "gaussian": lambda n_clients, alpha, points: gen_gaussian_federation(n_clients, alpha, points, REF_SIGMA, 0),
    "logistic": lambda n_clients, alpha, points: gen_logistic_federation(n_clients, alpha, points, 2, 3, 0),
}


@pytest.mark.parametrize("model", sorted(FEDERATIONS))
@pytest.mark.parametrize("n_clients, alpha, points, message", [
    (2, -1.0, 5, "alpha must be nonnegative"),
    (0, 1.0, 5, "n_clients must be >= 1"),
    (2, 1.0, [5, 0], "points_per_client must be >= 1"),
])
def test_generators_share_the_federation_checks(model, n_clients, alpha, points, message):
    # one checked helper draws both federations' clients; unchecked, a negative
    # alpha gives NaN points and all-zero labels
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        FEDERATIONS[model](n_clients, alpha, points)


def test_dimension_mismatch_rejected():
    with pytest.raises(ModelError, match="dimension"):
        FederatedDataset([np.zeros((2, 1)), np.zeros((2, 3))])


def test_empty_client_rejected():
    with pytest.raises(ModelError, match="no points"):
        FederatedDataset([np.zeros((0, 2)), np.zeros((2, 2))])


@pytest.mark.parametrize(
    "clients, labels",
    [
        ([np.zeros((2, 1)), np.zeros((3, 1))], [np.zeros(2, dtype=int)]),  # fewer label arrays
        ([np.zeros((2, 1))], [np.zeros(2, dtype=int), np.zeros(7, dtype=int)]),  # more label arrays
    ],
    ids=["short", "long"],
)
def test_one_label_array_per_client(clients, labels):
    with pytest.raises(ModelError, match=f"^{len(labels)} label arrays for {len(clients)} clients$"):
        FederatedDataset(clients, labels)


def test_dataset_csv_roundtrip(tmp_path):
    spec = make_spec()
    path = tmp_path / "data.csv"
    save_dataset_csv(spec.data, path)
    loaded = load_dataset_csv(path)
    assert loaded.n_clients == spec.data.n_clients
    for a, b in zip(loaded.clients, spec.data.clients):
        assert np.array_equal(a, b)


def test_labeled_csv_roundtrip(tmp_path):
    spec, _, _ = gen_logistic_federation(2, 0.5, 6, 2, 3, seed=1)
    path = tmp_path / "data.csv"
    save_dataset_csv(spec.data, path)
    loaded = load_dataset_csv(path)
    for a, b in zip(loaded.labels, spec.data.labels):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# generation


def test_alpha_zero_centers_all_zero():
    # with alpha = 0 every client center is exactly the origin, so client
    # means equal the sample means of pure sigma-noise
    spec = make_spec(alpha=0.0, points=2000, seed=5)
    for mean in spec.client_means:
        assert np.linalg.norm(mean) < 0.2


def test_generation_deterministic():
    a = make_spec(seed=7)
    b = make_spec(seed=7)
    for x, y in zip(a.data.clients, b.data.clients):
        assert np.array_equal(x, y)


def test_non_spd_sigma_rejected_names_eigenvalue():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
    with pytest.raises(ModelError, match="-1"):
        gen_gaussian_federation(2, 1.0, 3, bad, seed=0)


def test_asymmetric_sigma_rejected():
    with pytest.raises(ModelError, match="symmetric"):
        gen_gaussian_federation(2, 1.0, 3, np.array([[1.0, 0.1], [0.0, 1.0]]), seed=0)


def test_fifty_client_federation_shape():
    spec = gen_gaussian_federation(50, 1.0, 4, REF_SIGMA, seed=3)
    assert spec.data.n_clients == 50
    assert spec.dim == 2


def stream_normals(n, *key):
    """The first n normals of the one stream ``key`` = (seed, replication, iteration, client, purpose)."""
    return normals_for_keys(np.uint64(stream_key(*key)), n)


def ordered_dot(a, b):
    total = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        total += x * y
    return total


def scalar_label(x, w, key):
    """Softmax label of point x under weights w (C, F) by inverse CDF of stream ``key``'s first uniform."""
    logits = np.array([ordered_dot(x, row) for row in w])
    e = np.exp(logits - logits.max())
    total = e[0]
    for v in e[1:]:  # fewer than 8 classes: numpy adds them one by one
        total += v
    u = uniforms_for_keys(np.uint64(stream_key(*key)), 1)[0]
    cdf, label = 0.0, 0
    for v in e:
        cdf += v / total
        label += cdf < u
    return min(label, len(e) - 1)  # the rounded CDF may end below u


def scalar_gaussian_federation(seed, alpha, counts, sigma):
    """Independent reference for gen_gaussian_federation: one scalar stream key per center and point."""
    d = sigma.shape[0]
    chol = np.linalg.cholesky(sigma)
    clients = []
    for c, n_c in enumerate(counts):
        center = np.sqrt(alpha) * stream_normals(d, seed, 0, 0, c, "data_center")
        noise = [stream_normals(d, seed, i, 0, c, "data_point") for i in range(n_c)]
        clients.append(np.array([[ordered_dot(z, chol[k]) + center[k] for k in range(d)] for z in noise]))
    return clients


def scalar_logistic_federation(seed, alpha, counts, n_features, n_classes, n_test):
    """Independent reference for gen_logistic_federation: (clients, labels, test_x, test_y)."""
    w = np.array([stream_normals(n_features, seed, k, 0, SHARED, "data_weights") for k in range(n_classes)])
    clients, labels = [], []
    for c, n_c in enumerate(counts):
        center = np.sqrt(alpha) * stream_normals(n_features, seed, 0, 0, c, "data_center")
        x = [stream_normals(n_features, seed, i, 0, c, "data_point") + center for i in range(n_c)]
        clients.append(np.array(x))
        labels.append([scalar_label(x[i], w, (seed, i, 0, c, "data_label")) for i in range(n_c)])
    test_x = [stream_normals(n_features, seed, i, 0, SHARED, "test_point") for i in range(n_test)]
    test_y = [scalar_label(x, w, (seed, i, 0, SHARED, "test_label")) for i, x in enumerate(test_x)]
    return clients, labels, np.array(test_x), np.array(test_y)


D3_SIGMA = np.array([[5.0, -2.0, 1.0], [-2.0, 3.0, 0.5], [1.0, 0.5, 2.0]])


@pytest.mark.parametrize("seed", [4, 2**64 - 1])
def test_gaussian_federation_matches_scalar_reference(seed):
    spec = gen_gaussian_federation(3, 1.5, [2, 5, 3], D3_SIGMA, seed)
    want = scalar_gaussian_federation(seed, 1.5, [2, 5, 3], D3_SIGMA)
    assert all(np.array_equal(got, ref) for got, ref in zip(spec.data.clients, want, strict=True))


@pytest.mark.parametrize("seed", [4, 2**64 - 1])
def test_logistic_federation_matches_scalar_reference(seed):
    # four classes of three features: the logits take a non-square matrix
    spec, test_x, test_y = gen_logistic_federation(3, 0.5, [6, 9, 4], 3, 4, seed, n_test=40)
    clients, labels, ref_x, ref_y = scalar_logistic_federation(seed, 0.5, [6, 9, 4], 3, 4, 40)
    assert all(np.array_equal(got, ref) for got, ref in zip(spec.data.clients, clients, strict=True))
    assert all(np.array_equal(got, ref) for got, ref in zip(spec.data.labels, labels, strict=True))
    assert np.array_equal(test_x, ref_x) and np.array_equal(test_y, ref_y)
    # the labels are not constant, so the inverse CDF is exercised
    assert len(set(np.concatenate(spec.data.labels).tolist())) > 1


def test_label_past_the_rounded_cdf_takes_the_last_class(monkeypatch):
    # this point's softmax CDF ends at 0.9999999999999997, below the largest uniform 1 - 2**-53
    logits = np.array([[1.236750784503191, -1.2186415869720821, -2.367362150759901]])  # (F = 1, C = 3)
    x = np.ones((1, 1))
    cdf = model_mod.softmax(model_mod.apply_matrix(x, logits), axis=0).cumsum(axis=0)[:, 0]
    top = 1.0 - 2.0**-53
    assert cdf[-1] < top
    monkeypatch.setattr(model_mod, "uniforms_for_keys", lambda keys, n: np.full(np.shape(keys) + (n,), top))
    assert model_mod._sample_labels(x, logits, 0, 0, "data_label").tolist() == [2]


def test_client_points_do_not_depend_on_other_clients():
    # changing another client's count, appending a client or growing this client
    # keeps client c's points (and labels), since each point has its own stream
    gauss = [gen_gaussian_federation(len(n), 1.0, n, REF_SIGMA, 8).data for n in ([4, 5, 6], [4, 9, 6, 2])]
    logistic = [gen_logistic_federation(len(n), 0.5, n, 2, 3, 8, n_test=3)[0].data for n in ([4, 5, 6], [4, 9, 6, 2])]
    for base, other in (gauss, logistic):
        for c in (0, 2):
            assert np.array_equal(base.clients[c], other.clients[c])
        assert np.array_equal(base.clients[1], other.clients[1][:5])
    assert all(np.array_equal(logistic[0].labels[c], logistic[1].labels[c][:n]) for c, n in enumerate([4, 5, 6]))


# ---------------------------------------------------------------------------
# gradients


def test_grad_zero_at_single_data_point():
    spec = gen_gaussian_federation(1, 0.0, 1, REF_SIGMA, seed=2)
    x = spec.data.clients[0][0]
    assert np.allclose(exact_grads(spec, x)[:, 0], 0.0)


def test_grad_identity_precision():
    data = FederatedDataset([np.array([[0.5, -1.5]])])
    spec = fald.GaussianModelSpec(sigma=np.eye(2), data=data)
    theta = data.clients[0][0] + np.array([1.0, 2.0])
    assert np.allclose(exact_grads(spec, theta)[:, 0], [1.0, 2.0])


def _finite_difference(f, theta, h=1e-5):
    grad = np.zeros_like(theta)
    for j in range(theta.size):
        e = np.zeros_like(theta)
        e[j] = h
        grad[j] = (f(theta + e) - f(theta - e)) / (2 * h)
    return grad


@pytest.mark.parametrize("model_kind", ["gaussian", "logistic"])
def test_total_gradient_matches_finite_differences(model_kind):
    if model_kind == "gaussian":
        spec, f = make_spec(n_clients=2, points=5, seed=9), gaussian_energy
    else:
        spec, f = gen_logistic_federation(2, 0.5, 10, 2, 3, seed=9, ridge=0.05)[0], energy
    rng = np.random.default_rng(0)
    for _ in range(3):
        theta = rng.standard_normal(spec.dim)
        total = np.zeros(spec.dim)
        for c in range(spec.data.n_clients):
            total += spec.data.weights[c] * exact_grads(spec, theta)[:, c]
        fd = _finite_difference(lambda t: f(spec, t), theta)
        scale = max(1.0, np.linalg.norm(fd))
        assert np.max(np.abs(total - fd)) / scale < 1e-5


def test_non_finite_theta_rejected():
    spec = gen_logistic_federation(2, 0.5, 10, 2, 3, seed=9, ridge=0.05)[0]
    theta = np.zeros(spec.dim)
    theta[0] = np.nan
    with pytest.raises(ModelError, match="finite"):
        energy(spec, theta)


def test_full_batch_equals_exact():
    # at q = 1 the keys are ignored and every client gets its exact gradient
    spec = make_spec(points=6)
    theta = np.array([0.3, -0.2])
    keys = key_grid(0, [0], [0], range(3), "subsample")[0]
    grads = client_grads(spec, np.broadcast_to(theta[:, None, None], (2, 1, 3)), 1.0, keys)
    for c in range(3):
        assert np.array_equal(grads[:, 0, c], exact_grads(spec, theta)[:, c])


SIGMA_3 = np.array([[5.0, -2.0, 1.0], [-2.0, 3.0, 0.5], [1.0, 0.5, 2.0]])


@pytest.mark.parametrize("family", ["gaussian", "logistic"])
def test_client_grads_match_one_client_forms(family):
    # coordinate-major (d, B, N) against one client and one theta at a time, at d = 2 and 3
    # (the logistic parameter holds 3 classes of 2 or 3 features)
    sizes = [6, 5, 6, 3]
    for d in (2, 3):
        if family == "gaussian":
            spec = make_spec(n_clients=4, points=sizes, seed=5, sigma=REF_SIGMA if d == 2 else SIGMA_3)
        else:
            spec = gen_logistic_federation(4, 0.5, sizes, d, 3, seed=5, ridge=0.05, n_test=1)[0]
        assert [(n_c, cs.tolist()) for n_c, cs in spec.data.size_groups] == [(3, [3]), (5, [1]), (6, [0, 2])]
        thetas = np.random.default_rng(3).standard_normal((spec.dim, 3, 4))
        keys = key_grid(8, range(3), [2], range(4), "subsample")[:, 0]
        exact = client_grads(spec, thetas)
        mini = client_grads(spec, thetas, 0.5, keys)
        assert exact.shape == mini.shape == thetas.shape and not np.array_equal(mini, exact)
        for b in range(3):
            for c in range(4):
                theta = thetas[:, b, c]
                assert np.array_equal(exact[:, b, c], exact_grads(spec, theta)[:, c])
                assert np.array_equal(mini[:, b, c], one_minibatch_grad(spec, c, theta, 0.5, int(keys[b, c])))


@pytest.mark.parametrize("family", ["gaussian", "logistic"])
@pytest.mark.parametrize("q", [1.0, 0.5])
def test_client_grads_stacked_points_match_per_point_calls(family, q):
    # the points of a sweep stack as an axis after the coordinates and share the (B, N) keys
    sizes = [6, 5, 6, 3]
    if family == "gaussian":
        spec = make_spec(n_clients=4, points=sizes, seed=5)
    else:
        spec = gen_logistic_federation(4, 0.5, sizes, 2, 3, seed=5, ridge=0.05, n_test=1)[0]
    thetas = np.random.default_rng(4).standard_normal((spec.dim, 3, 2, 4))
    keys = key_grid(8, range(2), [5], range(4), "subsample")[:, 0]
    stacked = client_grads(spec, thetas, q, keys)
    for p in range(3):
        assert np.array_equal(stacked[:, p], client_grads(spec, thetas[:, p], q, keys))


def test_subsample_indices_batch_matches_single_keys():
    keys = key_grid(3, [0, 1], range(5), [0], "subsample")[..., 0]
    batch = subsample_indices(keys, 8, 4)
    assert batch.shape == (2, 5, 4)
    for i in range(2):
        for k in range(5):
            single = subsample_indices(stream_key(3, i, k, 0, "subsample"), 8, 4)
            assert np.array_equal(batch[i, k], single)
            assert len(set(single.tolist())) == 4 and 0 <= single.min() and single.max() < 8


def test_subsample_indices_reject_a_subset_larger_than_the_client():
    # a without-replacement subset of 5 from 3 points cannot have the keys.shape + (size,) shape
    assert subsample_indices(np.uint64(12345), 3, 3).shape == (3,)
    with pytest.raises(ModelError, match=r"size = 5 exceeds n_c = 3"):
        subsample_indices(np.uint64(12345), 3, 5)


@pytest.mark.parametrize("n_c", [1, 2, 3, 20, 2048, 2049])
@pytest.mark.parametrize("grid", [(5, 1), (4, 3)], ids=["B", "BxG"])
def test_subsample_indices_equal_stable_argsort_of_uniforms(n_c, grid):
    # 2048 is the largest size whose composite keys fit in 64 bits; 2049 takes the fallback
    keys = key_grid(9, range(grid[0]), [4], range(grid[1]), "subsample")[:, 0]
    if grid[1] == 1:
        keys = keys[:, 0]
    reference = np.argsort(uniforms_for_keys(keys, n_c), kind="stable", axis=-1)
    for size in sorted({1, subsample_size(0.5, n_c), n_c}):
        got = subsample_indices(keys, n_c, size)
        assert got.shape == keys.shape + (size,)
        assert np.array_equal(got, reference[..., :size])


@pytest.mark.parametrize("n", [7, 2048, 2049])
def test_equal_uniforms_rank_by_index(n):
    top = (1 << 53) - 1
    rows = np.array([[5, 3, 5, 3, 0, 5, top], [top, 2, top, 2, 2, 1, 0]], dtype=np.uint64)
    bits = np.tile(rows, (1, -(-n // 7)))[:, :n]
    expected = np.argsort(bits, kind="stable", axis=-1)
    got = _rank_smallest(bits.copy(), n)
    assert np.array_equal(got, expected)
    if n == 7:
        assert got.tolist() == [[4, 1, 3, 0, 2, 5, 6], [6, 5, 1, 3, 4, 0, 2]]


def loop_subset_grad(model, c, thetas, idx, q):
    """Reference: one client, points gathered and added one minibatch slot at a time; thetas (B, d)."""
    pts = model.data.clients[c]
    ssum = pts[idx[:, 0]]
    for t in range(1, idx.shape[1]):
        ssum = ssum + pts[idx[:, t]]
    scale = 1.0 / (q * model.data.weights[c])
    return apply_matrix((scale * (idx.shape[1] * thetas - ssum)).T, model.sigma_inv).T


def loop_softmax_grad(model, c, thetas, idx, q):
    """Reference: one client, the softmax residual outer x added one minibatch point at a time."""
    x, y = model.data.clients[c], model.data.labels[c]
    B, C, F = thetas.shape[0], model.n_classes, model.n_features
    w = thetas.reshape(B, C, F)
    grad = np.zeros((B, C, F))
    for t in range(idx.shape[1]):
        xi = x[idx[:, t]]  # (B, F)
        logits = np.zeros((B, C))
        for f in range(F):
            logits = logits + w[:, :, f] * xi[:, f, None]
        probs = softmax(logits)
        probs[np.arange(B), y[idx[:, t]]] -= 1.0
        grad = grad + probs[:, :, None] * xi[:, None, :]
    grad = grad + (model.ridge * idx.shape[1]) * w
    return (1.0 / (q * model.data.weights[c]) * grad).reshape(B, C * F)


SUBSET_ORACLES = [("gaussian", 0, 0)] + [("logistic", C, F) for C in (2, 3, 8, 10) for F in (1, 2, 9)]


@pytest.mark.parametrize(
    "oracle,C,F", SUBSET_ORACLES, ids=[o if o == "gaussian" else f"{o}-C{C}-F{F}" for o, C, F in SUBSET_ORACLES]
)
def test_subset_grad_client_array_matches_single_clients(oracle, C, F):
    if oracle == "gaussian":
        spec = make_spec(n_clients=4, points=6, seed=2)
        grad, reference = gaussian_client_grad_subset, loop_subset_grad
    else:
        spec = gen_logistic_federation(4, 0.5, 6, F, C, seed=2, ridge=0.05, n_test=1)[0]
        grad, reference = logistic_client_grad, loop_softmax_grad
    rng = np.random.default_rng(1)
    clients = np.array([3, 0, 2])
    thetas = rng.standard_normal((5, 3, spec.dim))
    by_coordinate = np.moveaxis(thetas, -1, 0)  # the client-array form takes (d, B, G)
    idx = np.stack([rng.permutation(6)[:4] for _ in range(15)]).reshape(5, 3, 4)
    batched = grad(spec, clients, by_coordinate, idx, 0.7)
    for j, c in enumerate(clients):
        single = grad(spec, int(c), thetas[:, j], idx[:, j], 0.7)  # the one-client form keeps d last
        assert np.array_equal(batched[..., j].T, single)
        assert np.array_equal(single, reference(spec, c, thetas[:, j], idx[:, j], 0.7))
        pts = spec.data.clients[c]
        for b in range(5):
            if oracle == "gaussian":
                resid = (4 * thetas[b, j] - pts[idx[b, j]].sum(axis=0)) / (0.7 * spec.data.weights[c])
                direct = np.linalg.solve(spec.sigma, resid)
            else:
                w = thetas[b, j].reshape(C, F)
                x, y = pts[idx[b, j]], spec.data.labels[c][idx[b, j]]
                resid = softmax(x @ w.T) - np.eye(C)[y]
                direct = ((resid.T @ x + 0.05 * 4 * w) / (0.7 * spec.data.weights[c])).ravel()
            assert np.allclose(single[b], direct, rtol=1e-12, atol=1e-12)
    if oracle == "logistic":
        # idx None takes every point of the client in index order
        every = np.broadcast_to(np.arange(6), (5, 3, 6))
        full = grad(spec, clients, by_coordinate)
        assert np.array_equal(full, grad(spec, clients, by_coordinate, every))
        for j, c in enumerate(clients):
            single = grad(spec, int(c), thetas[:, j])
            assert np.array_equal(full[..., j].T, single)
            assert np.array_equal(single, grad(spec, int(c), thetas[:, j], every[:, j]))
            assert np.array_equal(single, reference(spec, c, thetas[:, j], every[:, j], 1.0))


def test_stochastic_gradient_unbiased():
    spec = make_spec(n_clients=2, points=8, seed=4)
    theta = np.array([0.8, -0.1])
    exact = exact_grads(spec, theta)[:, 0]
    draws = 100_000
    keys = key_grid(123, [0], range(draws), range(2), "subsample")[0]
    samples = client_grads(spec, np.broadcast_to(theta[:, None, None], (2, draws, 2)), 0.5, keys)[:, :, 0].T
    err = samples.mean(axis=0) - exact
    band = 4.0 * samples.std(axis=0, ddof=1) / np.sqrt(draws)
    assert np.all(np.abs(err) <= band)


def test_stochastic_second_moment_within_reported_scale():
    spec = make_spec(n_clients=2, points=8, seed=4)
    consts = constants(spec, theta0_radius=1.0, subsample_ratio=0.5, seed=11)
    theta = consts.theta_star + 0.1
    draws = 20_000
    exact = exact_grads(spec, theta)[:, 0]
    keys = key_grid(7, [0], range(draws), range(2), "subsample")[0]
    g = client_grads(spec, np.broadcast_to(theta[:, None, None], (2, draws, 2)), 0.5, keys)[:, :, 0].T
    sq = float(np.sum((g - exact) ** 2))
    assert sq / draws <= consts.sigma_sg ** 2 * spec.dim


def scalar_sigma_sg(model, theta_star, q, probe_points, mc_draws, seed):
    """Independent reference for the sigma_sg estimator: one scalar key and oracle call per draw."""
    d = model.dim
    worst = 0.0
    for p in range(probe_points):
        probe_key = np.uint64(stream_key(seed, p, 0, SHARED, "sigma_sg_probe"))
        theta = theta_star + normals_for_keys(probe_key, d) / np.sqrt(d)
        for c in range(model.data.n_clients):
            exact = exact_grads(model, theta)[:, c]
            sq = 0.0
            for draw in range(mc_draws):
                g = one_minibatch_grad(model, c, theta, q, stream_key(seed, p, draw, c, "sigma_sg"))
                # coordinates one after another: np.sum adds 8 or more of them pairwise
                err = 0.0
                for diff in g - exact:
                    err += diff * diff
                sq += float(err)
            worst = max(worst, sq / mc_draws / d)
    return float(np.sqrt(1.5 * worst))


@pytest.mark.parametrize("q", [0.3, 0.5])
@pytest.mark.parametrize("family", ["gaussian", "logistic"])
def test_sigma_sg_matches_scalar_reference(family, q):
    if family == "gaussian":
        spec = make_spec(n_clients=10, points=[20] * 9 + [21], seed=6)
    else:
        spec, _, _ = gen_logistic_federation(3, 0.5, [9, 12, 10], 3, 3, seed=7, ridge=0.05, n_test=5)
    consts = constants(spec, 0.0, subsample_ratio=q, probe_points=3, mc_draws=25, seed=13)
    assert consts.sigma_sg > 0.0
    assert consts.sigma_sg == scalar_sigma_sg(spec, consts.theta_star, q, 3, 25, 13)


def test_sigma_sg_keys_of_nearby_seeds_are_disjoint(monkeypatch):
    # nearby seeds share no minibatch stream; seeds 7919 apart were the worst case of arithmetic keys
    spec = make_spec()
    seen = []

    def recording(model, thetas, q=1.0, keys=None, out=None):
        if keys is not None:
            seen[-1].update(keys.ravel().tolist())
        return client_grads(model, thetas, q, keys, out)

    monkeypatch.setattr(model_mod, "client_grads", recording)
    for seed in (5, 5 + 7919):
        seen.append(set())
        constants(spec, 0.0, subsample_ratio=0.5, probe_points=4, mc_draws=200, seed=seed)
    assert len(seen[0]) == len(seen[1]) == 4 * 200 * spec.data.n_clients
    assert seen[0].isdisjoint(seen[1])


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(subsample_ratio=1.5),
        dict(subsample_ratio=0.0),
        dict(subsample_ratio=0.5, probe_points=0),
        dict(subsample_ratio=0.5, mc_draws=0),
    ],
    ids=["q1.5", "q0", "probe_points0", "mc_draws0"],
)
def test_constants_rejects_monte_carlo_inputs(kwargs):
    with pytest.raises(ModelError):
        constants(make_spec(), 0.0, **kwargs)


# ---------------------------------------------------------------------------
# constants


def test_kappa_matches_symbolic_eigenvalues():
    # sigma^-1 = [[1,2],[2,5]] has eigenvalues 3 +- 2 sqrt(2); the condition
    # number (3+2sqrt2)/(3-2sqrt2) = 17+12sqrt2 is independent of n
    for points in (5, 20):
        spec = make_spec(n_clients=4, points=points, seed=1)
        consts = constants(spec, theta0_radius=0.0)
        assert consts.kappa == pytest.approx(17 + 12 * np.sqrt(2), rel=1e-12)
        n = spec.data.total_points
        assert consts.L == pytest.approx(n * (3 + 2 * np.sqrt(2)), rel=1e-12)


def test_closed_form_smoothness_matches_constants():
    logistic, _, _ = gen_logistic_federation(2, 0.3, 12, 2, 3, seed=5, ridge=0.1)
    for spec in (make_spec(), logistic):
        consts = constants(spec, 0.0)
        assert smoothness(spec) == (consts.L, consts.m)


def test_identical_clients_have_zero_heterogeneity():
    pts = np.random.default_rng(3).standard_normal((6, 2))
    data = FederatedDataset([pts.copy(), pts.copy(), pts.copy()])
    spec = fald.GaussianModelSpec(sigma=REF_SIGMA, data=data)
    assert constants(spec, 0.0).gamma_het < 1e-9


def test_single_client_zero_heterogeneity():
    spec = make_spec(n_clients=1, points=10)
    assert constants(spec, 0.0).gamma_het < 1e-9


def test_theta_star_is_sample_mean():
    spec = make_spec(n_clients=3, points=7, seed=8)
    consts = constants(spec, 0.0)
    assert np.allclose(consts.theta_star, np.concatenate(spec.data.clients).mean(axis=0))


def test_full_batch_sigma_sg_zero():
    spec = make_spec()
    assert constants(spec, 0.0, subsample_ratio=1.0).sigma_sg == 0.0


def test_strong_convexity_smoothness_sandwich():
    spec = make_spec(n_clients=3, points=10, seed=12)
    consts = constants(spec, 0.0)
    rng = np.random.default_rng(99)
    for _ in range(100):
        x = rng.standard_normal(2)
        y = rng.standard_normal(2)
        for c in range(spec.data.n_clients):
            gap = exact_grads(spec, y)[:, c] - exact_grads(spec, x)[:, c]
            inner = float(gap @ (y - x))
            sq = float(np.sum((y - x) ** 2))
            assert consts.m * sq <= inner + 1e-9
            assert inner <= consts.L * sq + 1e-9


def test_logistic_sandwich_and_newton():
    spec, _, _ = gen_logistic_federation(2, 0.3, 12, 2, 3, seed=5, ridge=0.1)
    consts = constants(spec, theta0_radius=0.0)
    # minimizer: total gradient vanishes
    total = sum(
        spec.data.weights[c] * exact_grads(spec, consts.theta_star)[:, c]
        for c in range(2)
    )
    assert np.linalg.norm(total) < 1e-8
    assert consts.gamma_het >= 0
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.standard_normal(spec.dim) * 0.5
        y = rng.standard_normal(spec.dim) * 0.5
        for c in range(2):
            gap = exact_grads(spec, y)[:, c] - exact_grads(spec, x)[:, c]
            inner = float(gap @ (y - x))
            sq = float(np.sum((y - x) ** 2))
            assert consts.m * sq <= inner + 1e-9
            assert inner <= consts.L * sq + 1e-9


def kron_loop_hessian(x, probs, ridge):
    """Reference: kron(diag(p) - p p^T, x x^T) added point by point, then the ridge term."""
    n, F = x.shape
    dim = probs.shape[1] * F
    hess = np.zeros((dim, dim))
    for i in range(n):
        p = probs[i]
        hess += np.kron(np.diag(p) - np.outer(p, p), np.outer(x[i], x[i]))
    hess += n * ridge * np.eye(dim)
    return hess


# (n_clients, points_per_client, n_features, n_classes, seed); the last one's
# damped Newton phase stalls at rounding level (test_config_cli NEWTON_STALL)
NEWTON_FEDERATIONS = (
    [(4, 6, 2, 3, s) for s in range(8)]
    + [(3, [9, 4, 7], 4, 5, s) for s in range(8)]
    + [(2, 10, 3, 8, s) for s in range(4)]
    + [(2, [40, 3], 4, 8, 5)]
)


def test_newton_hessian_matches_kron_loop(monkeypatch):
    rng = np.random.default_rng(3)
    # 150 points at C*F = 90 span two chunks of the vectorized form
    for n_clients, points, F, C, seed in NEWTON_FEDERATIONS + [(3, 50, 9, 10, 0)]:
        spec = gen_logistic_federation(n_clients, 0.5, points, F, C, seed)[0]
        x = spec.data.all_points
        probs = softmax(x @ rng.standard_normal((C, F)).T)
        fast, ref = _softmax_hessian(x, probs, spec.ridge), kron_loop_hessian(x, probs, spec.ridge)
        assert np.array_equal(fast, ref) and np.array_equal(np.signbit(fast), np.signbit(ref))
    for n_clients, points, F, C, seed in NEWTON_FEDERATIONS:
        spec = gen_logistic_federation(n_clients, 0.5, points, F, C, seed)[0]
        theta_star = _newton_minimize(spec)
        with monkeypatch.context() as patch:
            patch.setattr(model_mod, "_softmax_hessian", kron_loop_hessian)
            assert np.array_equal(theta_star, _newton_minimize(spec))


def test_newton_leaves_damped_phase_at_rounding_level_decrement(monkeypatch):
    # the logistic_run federation at seed 0: from about iteration 6 the Newton
    # decrement is far below eps |f|; full steps converge at once instead of
    # 200 damped line searches (3,291 energy calls)
    spec = gen_logistic_federation(10, 1.0, 30, 5, 3, seed=0)[0]
    calls = []
    energy = model_mod.energy
    monkeypatch.setattr(model_mod, "energy", lambda *a: calls.append(1) or energy(*a))
    theta_star = _newton_minimize(spec)
    assert len(calls) < 100
    grad = sum(exact_grads(spec, theta_star)[:, c] * w for c, w in enumerate(spec.data.weights))
    assert np.linalg.norm(grad) < 1e-10


def test_ridge_required():
    spec, _, _ = gen_logistic_federation(2, 0.3, 6, 2, 2, seed=5, ridge=0.1)
    with pytest.raises(ModelError, match="ridge"):
        fald.LogisticModelSpec(data=spec.data, ridge=0.0, n_classes=2)


# ---------------------------------------------------------------------------
# target posterior


def test_single_observation_posterior():
    spec = gen_gaussian_federation(1, 0.0, 1, REF_SIGMA, seed=1, tau=1.0)
    post = target_posterior(spec)
    assert np.allclose(post.mean, spec.data.clients[0][0])
    assert np.allclose(post.cov, REF_SIGMA)


def test_posterior_covariance_is_sigma_over_n():
    spec = make_spec(n_clients=5, points=8)
    post = target_posterior(spec)
    assert np.allclose(post.cov, REF_SIGMA / spec.data.total_points)


def test_temperature_scales_posterior_covariance():
    cold = target_posterior(make_spec(tau=1.0))
    hot = target_posterior(make_spec(tau=2.0))
    assert np.allclose(hot.cov, 2.0 * cold.cov)


def test_zero_temperature_posterior_is_point_mass():
    spec = make_spec(tau=0.0)
    post = target_posterior(spec)
    assert np.array_equal(post.cov, np.zeros((2, 2)))
    assert np.allclose(post.mean, constants(spec, 0.0).theta_star)


def test_negative_temperature_rejected():
    with pytest.raises(ModelError, match="tau"):
        make_spec(tau=-0.5)


def test_posterior_requires_gaussian_model():
    spec, _, _ = gen_logistic_federation(2, 0.3, 6, 2, 2, seed=5)
    with pytest.raises(ModelError, match="Gaussian"):
        target_posterior(spec)


def test_predict_proba_rows_sum_to_one():
    spec, test_x, _ = gen_logistic_federation(2, 0.3, 6, 2, 3, seed=5)
    probs = predict_proba(spec, np.zeros(spec.dim), test_x)
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert np.allclose(probs, 1.0 / 3.0)


@pytest.mark.parametrize("C", [2, 3, 7, 8, 9, 16, 23, 129, 300])
def test_softmax_adds_classes_in_numpy_order(C):
    # the class sum reproduces numpy's sum over contiguous rows (one by one below 8
    # terms, pairwise above) with the classes on either axis
    logits = np.random.default_rng(C).standard_normal((40, C)) * 3.0
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    expected = e / e.sum(axis=-1, keepdims=True)
    assert np.array_equal(softmax(logits), expected)
    assert np.array_equal(softmax(np.ascontiguousarray(logits.T), axis=0), expected.T)
