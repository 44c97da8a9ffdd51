"""Federated target distributions: datasets, gradient oracles, constants.

Two energy families are provided.  The Gaussian-location model has the
closed-form posterior used to measure sampling error, and the
ridge-regularized softmax regression model exercises the classification
metric pipeline on synthetic data.  Both expose per-client exact and
minibatch gradient oracles plus the smoothness / strong-convexity /
heterogeneity constants that feed the bound calculators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .streams import SHARED, key_grid, normals_for_keys, uniform_bits_for_keys, uniforms_for_keys


class ModelError(ValueError):
    """Invalid model specification or unsupported model/operation pairing."""


def apply_matrix(vectors: np.ndarray, matrix: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Row-vector times a (d, k) matrix for coordinate-major vectors: (d, ...) -> (k, ...).

    out[k] = vectors[0] * matrix[0, k] + ... + vectors[d-1] * matrix[d-1, k],
    each product added in index order, so the result is bitwise independent of
    how the other axes are batched and of the BLAS build.  The engine relies on
    this to make batched replications bit-identical to one-at-a-time execution.
    Writes to ``out`` when given, which must not overlap ``vectors``.
    """
    d, k_out = matrix.shape
    out = np.empty((k_out,) + np.shape(vectors)[1:]) if out is None else out
    term = np.empty(out.shape[1:])
    for k in range(k_out):
        np.multiply(vectors[0], matrix[0, k], out=out[k])
        for j in range(1, d):
            out[k] += np.multiply(vectors[j], matrix[j, k], out=term)
    return out


def _pairwise_sum(terms: np.ndarray) -> np.ndarray:
    """terms.sum(axis=0) added in the order numpy's ``sum`` takes along a contiguous axis.

    numpy adds fewer than 8 terms one by one; up to 128 terms in 8 interleaved
    partial sums joined as ((0 + 1) + (2 + 3)) + ((4 + 5) + (6 + 7)) before the
    remainder is added one by one; longer runs split at a multiple of 8 near
    the middle.  Each addition here is a whole (terms.shape[1:]) array.
    """
    n = terms.shape[0]
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])
    if n < 8:
        total, done = terms[0].copy(), 1
    else:
        part, done = terms[:8].copy(), n - n % 8
        for i in range(8, done, 8):
            part += terms[i : i + 8]
        total = ((part[0] + part[1]) + (part[2] + part[3])) + ((part[4] + part[5]) + (part[6] + part[7]))
    for i in range(done, n):
        total += terms[i]
    return total


@dataclass(frozen=True)
class FederatedDataset:
    """Per-client point sets with count-derived client weights p_c = n_c / sum_i n_i."""

    clients: Sequence[np.ndarray]  # (n_c, d) points per client, stored as a tuple of float64 arrays
    labels: Optional[Sequence[np.ndarray]] = None  # (n_c,) labels per client, classification only

    def __post_init__(self):
        if len(self.clients) == 0:
            raise ModelError("a federation needs at least one client")
        clients = tuple(np.ascontiguousarray(np.atleast_2d(np.asarray(c, dtype=np.float64))) for c in self.clients)
        d = clients[0].shape[1]
        for i, a in enumerate(clients):
            if a.shape[0] == 0:
                raise ModelError(f"client {i} holds no points")
            if a.shape[1] != d:
                raise ModelError(f"client {i} has dimension {a.shape[1]}, expected {d}")
        object.__setattr__(self, "clients", clients)
        if self.labels is not None:
            labels = tuple(np.asarray(l, dtype=np.int64) for l in self.labels)
            if len(labels) != len(clients):
                raise ModelError(f"{len(labels)} label arrays for {len(clients)} clients")
            for i, (a, l) in enumerate(zip(clients, labels)):
                if l.shape != (a.shape[0],):
                    raise ModelError(f"client {i}: labels do not match point count")
            object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "counts", np.array([c.shape[0] for c in clients], dtype=np.int64))
        object.__setattr__(self, "weights", self.counts / self.counts.sum())
        object.__setattr__(self, "total_points", int(self.counts.sum()))
        # every point and label in client order; client c's rows start at client_starts[c]
        object.__setattr__(self, "all_points", np.concatenate(self.clients))
        # the same points coordinate-major, (d, total points), for the coordinate-major oracles
        object.__setattr__(self, "points_by_coordinate", np.ascontiguousarray(self.all_points.T))
        object.__setattr__(self, "all_labels", None if self.labels is None else np.concatenate(self.labels))
        object.__setattr__(self, "client_starts", np.cumsum(self.counts) - self.counts)
        # (n_c, clients) per distinct client size; a slice selects them all when sizes agree
        sizes = sorted({c.shape[0] for c in self.clients})
        groups = [(sizes[0], slice(None))]
        if len(sizes) > 1:
            groups = [(n_c, np.flatnonzero(self.counts == n_c)) for n_c in sizes]
        object.__setattr__(self, "size_groups", groups)

    @property
    def n_clients(self) -> int:
        return len(self.clients)

    @property
    def dim(self) -> int:
        return self.clients[0].shape[1]


def _check_spd(sigma: np.ndarray, what: str = "sigma") -> np.ndarray:
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ModelError(f"{what} must be a square matrix")
    if np.max(np.abs(sigma - sigma.T)) > 1e-12:
        raise ModelError(f"{what} must be symmetric within 1e-12")
    eigvals = np.linalg.eigvalsh(sigma)
    if eigvals[0] <= 0.0:
        raise ModelError(f"{what} is not positive definite: smallest eigenvalue {eigvals[0]:.6e}")
    return sigma


@dataclass(frozen=True)
class GaussianModelSpec:
    """Gaussian-location energy: l(theta; x) = (theta-x)' Sigma^-1 (theta-x) / 2."""

    sigma: np.ndarray
    data: FederatedDataset
    tau: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "sigma", _check_spd(self.sigma))
        if self.data.dim != self.sigma.shape[0]:
            raise ModelError("data dimension does not match sigma")
        if self.tau < 0:
            raise ModelError("tau must be nonnegative")
        object.__setattr__(self, "sigma_inv", np.linalg.inv(self.sigma))
        object.__setattr__(
            self, "client_means", np.stack([c.mean(axis=0) for c in self.data.clients])
        )

    @property
    def dim(self) -> int:
        return self.data.dim


@dataclass(frozen=True)
class LogisticModelSpec:
    """Softmax regression energy with a ridge term guaranteeing strong convexity.

    The parameter is the flattened (n_classes, n_features) weight matrix and
    l(theta; x, y) = cross-entropy + ridge/2 * ||theta||^2 per data point.
    """

    data: FederatedDataset
    ridge: float
    n_classes: int
    tau: float = 1.0

    def __post_init__(self):
        if self.data.labels is None:
            raise ModelError("logistic model requires labeled data")
        if self.ridge <= 0:
            raise ModelError("ridge must be > 0 so the energy is strongly convex")
        if self.tau < 0:
            raise ModelError("tau must be nonnegative")
        if self.data.all_labels.max() >= self.n_classes or self.data.all_labels.min() < 0:
            raise ModelError(f"labels must lie in 0..{self.n_classes - 1}")

    @property
    def n_features(self) -> int:
        return self.data.dim

    @property
    def dim(self) -> int:
        """Dimension of the flattened parameter vector."""
        return self.n_classes * self.data.dim


@dataclass(frozen=True)
class EnergyConstants:
    """Regularity constants of the federated energy f = sum_c p_c f^c."""

    L: float
    m: float
    theta_star: np.ndarray
    gamma_het: float
    sigma_sg: float
    D: float

    @property
    def kappa(self) -> float:
        return self.L / self.m

    def __post_init__(self):
        if not (0 < self.m <= self.L):
            raise ModelError(f"need 0 < m <= L, got m={self.m}, L={self.L}")
        if self.gamma_het < 0 or self.sigma_sg < 0 or self.D < 0:
            raise ModelError("gamma_het, sigma_sg and D must be nonnegative")


def _stream_normals(seed: int, count: int, client, purpose: str, d: int) -> np.ndarray:
    """(d, count) standard normals; column i is stream (seed, i, 0, client, purpose)'s first d."""
    return normals_for_keys(key_grid(seed, range(count), [0], [client], purpose)[:, 0, 0], d)


def _draw_clients(seed: int, n_clients: int, alpha: float, points_per_client, d: int, chol_t=None) -> list:
    """Checked client point arrays (n_c, d), transposed views of coordinate-major draws.

    Client c's center is alpha^(1/2) times the d normals of stream (seed, 0, 0, c, "data_center"); its
    point i is the center plus the d normals of stream (seed, i, 0, c, "data_point") times ``chol_t``, if given.
    """
    if n_clients < 1:
        raise ModelError("n_clients must be >= 1")
    counts = np.broadcast_to(np.asarray(points_per_client, dtype=np.int64), (n_clients,))
    if np.any(counts < 1):
        raise ModelError("points_per_client must be >= 1")
    if alpha < 0:
        raise ModelError("alpha must be nonnegative")
    centers = np.sqrt(alpha) * normals_for_keys(key_grid(seed, [0], [0], range(n_clients), "data_center")[0, 0], d)
    clients = []
    for c in range(n_clients):
        pts = _stream_normals(seed, int(counts[c]), c, "data_point", d)
        pts = pts if chol_t is None else apply_matrix(pts, chol_t)
        pts += centers[:, c, None]
        clients.append(pts.T)
    return clients


def gen_gaussian_federation(
    n_clients: int,
    alpha: float,
    points_per_client,
    sigma: np.ndarray,
    seed: int,
    tau: float = 1.0,
) -> GaussianModelSpec:
    """Draw client centers from N(0, alpha I) and client points from N(center, sigma).

    ``points_per_client`` may be a single count or one count per client.
    Every draw comes from the counter-based streams of ``fald.streams``
    (see `_draw_clients`), the point normals times the Cholesky factor of
    sigma.  So client c's point i depends on neither the other clients nor
    the number of points client c holds.
    """
    sigma = _check_spd(sigma)
    clients = _draw_clients(seed, n_clients, alpha, points_per_client, sigma.shape[0], np.linalg.cholesky(sigma).T)
    return GaussianModelSpec(sigma=sigma, data=FederatedDataset(clients), tau=tau)


def gen_logistic_federation(
    n_clients: int,
    alpha: float,
    points_per_client,
    n_features: int,
    n_classes: int,
    seed: int,
    ridge: float = 0.01,
    tau: float = 1.0,
    n_test: int = 500,
):
    """Synthetic classification federation plus a held-out test set.

    Features are drawn around per-client centers ~ N(0, alpha I); labels come
    from a fixed ground-truth softmax model, so predictive probabilities are
    learnable and roughly calibrated.  Returns (model, test_x, test_y).

    Every draw comes from the counter-based streams of ``fald.streams``, one
    purpose tag per kind: row k of the ground-truth weights is stream
    (seed, k, 0, SHARED, "data_weights"); client c's center and points come
    from `_draw_clients` without a Cholesky factor, point i labelled by the
    first uniform of stream (seed, i, 0, c, "data_label"); test point i and
    its label use streams (seed, i, 0, SHARED, "test_point") and
    (seed, i, 0, SHARED, "test_label").
    """
    if n_features < 1 or n_classes < 2:
        raise ModelError("need n_features >= 1, n_classes >= 2")
    clients = _draw_clients(seed, n_clients, alpha, points_per_client, n_features)
    # (F, C): column k holds class k's ground-truth weights
    weights = _stream_normals(seed, n_classes, SHARED, "data_weights", n_features)
    labels = [_sample_labels(x.T, weights, seed, c, "data_label") for c, x in enumerate(clients)]
    test_x = _stream_normals(seed, n_test, SHARED, "test_point", n_features)
    test_y = _sample_labels(test_x, weights, seed, SHARED, "test_label")
    model = LogisticModelSpec(data=FederatedDataset(clients, labels), ridge=ridge, tau=tau, n_classes=n_classes)
    return model, np.ascontiguousarray(test_x.T), test_y


def _sample_labels(x: np.ndarray, weights: np.ndarray, seed: int, client, purpose: str) -> np.ndarray:
    """Labels of coordinate-major points x (F, n) under the softmax of their logits x . weights (F, C).

    Point i's label inverts the class CDF at the first uniform of stream (seed, i, 0, client, purpose).
    """
    u = uniforms_for_keys(key_grid(seed, range(x.shape[1]), [0], [client], purpose)[:, 0, 0], 1)[:, 0]
    probs = softmax(apply_matrix(x, weights), axis=0)
    # the rounded CDF can end below u, which then takes the last class
    return np.minimum((probs.cumsum(axis=0) < u).sum(axis=0), weights.shape[1] - 1)


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """exp(logits) normalized along the class axis ``axis``.

    The class sum adds in the order of numpy's ``sum(axis=-1)`` over
    contiguous rows, whichever axis holds the classes, so the bits do not
    depend on the layout.
    """
    e = np.exp(logits - logits.max(axis=axis, keepdims=True))
    e /= np.expand_dims(_pairwise_sum(np.moveaxis(e, axis, 0)), axis)
    return e


def predict_proba(model: LogisticModelSpec, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Class probabilities under the flattened weight vector ``theta``."""
    w = np.asarray(theta, dtype=np.float64).reshape(model.n_classes, model.n_features)
    return softmax(x @ w.T)


# ---------------------------------------------------------------------------
# gradients


def client_grads(model, thetas: np.ndarray, q: float = 1.0, keys=None, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Gradient estimates for every client; coordinate-major thetas (d, ..., B, N) -> (d, ..., B, N).

    At q = 1 the exact gradients: the Gaussian closed form, or every point in
    index order.  Otherwise client c's minibatch of `subsample_size` points is
    drawn from stream key keys[:, c] by `subsample_indices` (once for all the
    axes between d and B) and scaled by 1/(q p_c); each size group of clients
    is evaluated in one oracle call.  Writes to ``out`` when given, which must
    not overlap ``thetas``.
    """
    out = np.empty(np.shape(thetas)) if out is None else out
    if isinstance(model, GaussianModelSpec):
        if q == 1.0:
            # grad f^c(theta) = n Sigma^-1 (theta - mean_c) because n_c / p_c equals the
            # total point count for every client
            means = model.client_means.T.reshape((model.dim,) + (1,) * (np.ndim(thetas) - 2) + (-1,))
            return apply_matrix(thetas - means, model.data.total_points * model.sigma_inv, out)
        oracle = gaussian_client_grad_subset
    elif isinstance(model, LogisticModelSpec):
        oracle = logistic_client_grad
    else:
        raise ModelError(f"unsupported model type {type(model).__name__}")
    for n_c, cs in model.data.size_groups:
        idx = None if q == 1.0 else subsample_indices(keys[:, cs], n_c, subsample_size(q, n_c))
        out[..., cs] = oracle(model, cs, thetas[..., cs], idx, q)
    return out


def gaussian_client_grads(model: GaussianModelSpec, thetas: np.ndarray) -> np.ndarray:
    """Exact gradients for all clients with d last, (..., N, d) -> (..., N, d); see `client_grads`."""
    return np.moveaxis(client_grads(model, np.moveaxis(thetas, -1, 0)), 0, -1)


def subsample_size(q: float, n_c: int) -> int:
    """Minibatch size floor(q * n_c), clamped to at least one point."""
    if not 0 < q <= 1:
        raise ModelError("subsample ratio must lie in (0, 1]")
    return max(1, int(np.floor(q * n_c)))


def subsample_indices(keys, n_c: int, size: int) -> np.ndarray:
    """Uniform without-replacement subsets of range(n_c), one per stream key.

    Each subset takes the ``size`` smallest of the key's first n_c uniforms
    in stable ranking order (ties by index); output shape keys.shape + (size,).
    A subset larger than n_c raises.
    """
    if size > n_c:
        raise ModelError(f"subset size = {size} exceeds n_c = {n_c}: a subset draws without replacement")
    return _rank_smallest(uniform_bits_for_keys(keys, n_c), size)


def _rank_smallest(bits: np.ndarray, size: int) -> np.ndarray:
    """``np.argsort(bits, kind="stable", axis=-1)[..., :size]`` for 53-bit uint64 rows.

    Sorts the composite keys (bits << s) | i, which are distinct and order
    like the stable ranking.  They take 53 + s bits, so rows longer than 2048
    fall back to the stable argsort.  ``bits`` is overwritten.
    """
    n = bits.shape[-1]
    s = max(1, (n - 1).bit_length())
    if 53 + s > 64:
        return np.argsort(bits, kind="stable", axis=-1)[..., :size]
    bits <<= np.uint64(s)
    bits |= np.arange(n, dtype=np.uint64)
    bits.sort(axis=-1)
    return (bits[..., :size] & np.uint64((1 << s) - 1)).astype(np.int64)


def _minibatch(data: FederatedDataset, c, idx: Optional[np.ndarray], ndim: int):
    """Minibatch points (F, size, ...) and labels (size, ...) of client(s) c, by coordinate.

    Both broadcast against coordinate-major thetas of ``ndim`` axes,
    (F, ..., *idx.shape[:-1]): unit axes follow the size axis.  idx None takes
    every point of the clients in index order, shared by all samples.
    """
    if idx is None:
        rows = np.arange(np.ravel(data.counts[c])[0])[:, None] + np.atleast_1d(data.client_starts[c])
    else:
        rows = np.moveaxis(idx, -1, 0) + data.client_starts[c]
    rows = rows.reshape(rows.shape[:1] + (1,) * (ndim - rows.ndim) + rows.shape[1:])
    labels = None if data.all_labels is None else np.take(data.all_labels, rows)
    return np.take(data.points_by_coordinate, rows, axis=1), labels


def gaussian_client_grad_subset(
    model: GaussianModelSpec, c, thetas: np.ndarray, idx: np.ndarray, q: float
) -> np.ndarray:
    """Minibatch gradients (1/(q p_c)) Sigma^-1 sum_{i in S} (theta - x_{c,i}).

    G clients with equal minibatch size: ``c`` an index array or slice
    selecting them, coordinate-major thetas (d, ..., B, G), idx (B, G, size);
    the axes between d and B share idx and its point sums.  One client: ``c``
    an int, thetas (..., B, d) with d last, idx (B, size); it runs the same
    code on the coordinate-major view.  Minibatch points are summed in idx order.
    """
    one = isinstance(c, (int, np.integer))
    thetas = np.moveaxis(thetas, -1, 0) if one else thetas
    x, _ = _minibatch(model.data, c, idx, thetas.ndim)
    size = x.shape[1]
    ssum = x[:, 0].copy()
    for t in range(1, size):
        ssum += x[:, t]
    scale = 1.0 / (q * model.data.weights[c])
    grads = apply_matrix(scale * (size * thetas - ssum), model.sigma_inv)
    return np.moveaxis(grads, 0, -1) if one else grads


def logistic_client_grad(
    model: LogisticModelSpec, c, thetas: np.ndarray, idx: Optional[np.ndarray] = None, q: float = 1.0
) -> np.ndarray:
    """Minibatch gradients (1/(q p_c)) sum_{i in S} grad l(theta; x_{c,i}, y_{c,i}).

    Call forms as `gaussian_client_grad_subset` with d = C*F, the (C, F)
    weight matrix row-major; idx None takes every point of client c (at q = 1
    the exact gradient).  Logits add the feature products in index order, the
    softmax adds the classes in numpy's order and the outer products are added
    in idx order, so results do not depend on how thetas or clients are batched.
    """
    one = isinstance(c, (int, np.integer))
    thetas = np.moveaxis(thetas, -1, 0) if one else thetas
    C, F = model.n_classes, model.n_features
    x, y = _minibatch(model.data, c, idx, thetas.ndim)  # (F, size, ...), (size, ...)
    size = x.shape[1]
    w = thetas.reshape((C, F) + thetas.shape[1:])
    logits = np.zeros((C,) + np.broadcast_shapes(x.shape[1:], (1,) + thetas.shape[1:]))
    for f in range(F):
        logits += w[:, f, None] * x[f]
    resid = softmax(logits, axis=0)
    resid -= y == np.arange(C).reshape((C,) + (1,) * y.ndim)  # subtract the one-hot labels
    grads = np.zeros_like(w)
    for t in range(size):
        grads += resid[:, t, None] * x[:, t]
    grads += (model.ridge * size) * w
    grads = 1.0 / (q * model.data.weights[c]) * grads.reshape(thetas.shape)
    return np.moveaxis(grads, 0, -1) if one else grads


def energy(model: LogisticModelSpec, theta: np.ndarray) -> float:
    """Total softmax energy f(theta) = sum_c p_c f^c(theta) = sum_c l^c(theta), the objective of `_newton_minimize`."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (model.dim,):
        raise ModelError(f"theta must have shape ({model.dim},); got {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise ModelError("theta must be finite")
    w = theta.reshape(model.n_classes, model.n_features)
    total = 0.0
    for x, y in zip(model.data.clients, model.data.labels):
        logits = x @ w.T
        lse = np.log(np.exp(logits - logits.max(axis=1, keepdims=True)).sum(axis=1)) + logits.max(axis=1)
        total += float(np.sum(lse - logits[np.arange(len(y)), y]))
        total += 0.5 * model.ridge * float(theta @ theta) * x.shape[0]
    return total


# ---------------------------------------------------------------------------
# constants and the closed-form target


def smoothness(model):
    """Closed-form smoothness and strong-convexity constants (L, m) of f."""
    n = model.data.total_points
    if isinstance(model, GaussianModelSpec):
        eigvals = np.linalg.eigvalsh(model.sigma_inv)
        return n * float(eigvals[-1]), n * float(eigvals[0])
    if isinstance(model, LogisticModelSpec):
        L = 0.0
        for c, x in enumerate(model.data.clients):
            lam = float(np.linalg.eigvalsh(x.T @ x)[-1])
            L = max(L, (0.5 * lam + x.shape[0] * model.ridge) / model.data.weights[c])
        return L, n * model.ridge
    raise ModelError(f"unsupported model type {type(model).__name__}")


def constants(
    model,
    theta0_radius: float,
    subsample_ratio: float = 1.0,
    probe_points: int = 20,
    mc_draws: int = 200,
    seed: int = 0,
) -> EnergyConstants:
    """Smoothness/convexity constants, minimizer, heterogeneity and noise scale.

    ``theta0_radius`` is the largest initial distance max_c |theta_0^c - theta_*|;
    it is stored as D = radius / sqrt(d) so that |theta_0 - theta_*|^2 <= d D^2.
    The stochastic-gradient scale is zero at full batch; otherwise it is a
    Monte Carlo maximum of E|grad_err|^2 / d over a probe grid around the
    minimizer, inflated by a 1.5 safety factor.
    """
    if theta0_radius < 0:
        raise ModelError("theta0_radius must be nonnegative")
    if not 0 < subsample_ratio <= 1:
        raise ModelError("subsample ratio must lie in (0, 1]")
    if subsample_ratio < 1 and min(probe_points, mc_draws) < 1:
        raise ModelError("probe_points and mc_draws must be >= 1 when subsample_ratio < 1")
    L, m = smoothness(model)
    if isinstance(model, GaussianModelSpec):
        theta_star = model.data.all_points.mean(axis=0)
    else:
        theta_star = _newton_minimize(model)

    d, N = model.dim, model.data.n_clients
    exact = client_grads(model, np.broadcast_to(theta_star[:, None, None], (d, 1, N)))[:, 0]
    gamma_het = max(float(np.linalg.norm(g)) for g in np.ascontiguousarray(exact.T))
    sigma_sg = _estimate_sigma_sg(model, theta_star, subsample_ratio, probe_points, mc_draws, seed)
    return EnergyConstants(
        L=L,
        m=m,
        theta_star=theta_star,
        gamma_het=gamma_het,
        sigma_sg=sigma_sg,
        D=theta0_radius / np.sqrt(d),
    )


def _estimate_sigma_sg(model, theta_star, q, probe_points, mc_draws, seed) -> float:
    """Worst probe/client mean squared minibatch error, one batched oracle call per probe.

    Probe p is theta_star plus stream (seed, p, 0, SHARED, "sigma_sg_probe")'s d normals over
    sqrt(d); its draw j at client c subsamples with stream (seed, p, j, c, "sigma_sg").  Each
    draw's squared error is summed over coordinates one after another, then over draws in draw order.
    """
    if q >= 1.0:
        return 0.0
    d, N = model.dim, model.data.n_clients
    probe_keys = key_grid(seed, range(probe_points), [0], [SHARED], "sigma_sg_probe")[:, 0, 0]
    centers = theta_star[:, None] + normals_for_keys(probe_keys, d) / np.sqrt(d)
    worst = 0.0
    for p in range(probe_points):
        thetas = np.broadcast_to(centers[:, p, None, None], (d, mc_draws, N))
        keys = key_grid(seed, [p], range(mc_draws), range(N), "sigma_sg")[0]
        g = client_grads(model, thetas, q, keys)
        err = (g - client_grads(model, thetas[:, :1])) ** 2
        for j in range(1, d):
            err[0] += err[j]
        sq = np.cumsum(err[0], axis=0)[-1]
        worst = max(worst, float(sq.max()) / mc_draws / d)  # division is monotone: the max of the quotients
    return float(np.sqrt(1.5 * worst))


def _softmax_hessian(x: np.ndarray, probs: np.ndarray, ridge: float) -> np.ndarray:
    """Sum of kron(diag(p) - p p^T, x x^T) over points, added in point order from zero, plus ridge."""
    (n, F), C = x.shape, probs.shape[1]
    dim = C * F
    chunk = max(1, 2**20 // (dim * dim))  # points whose terms are held at once
    hess = np.zeros((1, dim, dim))
    for i0 in range(0, n, chunk):
        p, xc = probs[i0 : i0 + chunk, None, :], x[i0 : i0 + chunk]
        s = np.eye(C) * p - np.swapaxes(p, 1, 2) * p
        terms = s[:, :, None, :, None] * (xc[:, :, None] * xc[:, None, :])[:, None, :, None, :]
        # reducing over the leading axis adds the terms one after another
        hess = np.add.reduce(np.concatenate([hess, terms.reshape(-1, dim, dim)]), axis=0, keepdims=True)
    return hess[0] + n * ridge * np.eye(dim)


def _newton_minimize(model: LogisticModelSpec) -> np.ndarray:
    """Damped Newton on the total energy, then full steps; errors out if it fails to converge.

    Near the minimizer the Armijo decrease falls below the energy's rounding
    error, so backtracking can accept tiny steps and stall.  Full Newton steps
    converge from there: they start once the Newton decrement grad . step is
    below 8 eps |f|, which the energy cannot resolve, or after ``max_iter``
    damped steps.
    """
    tol, max_iter = 1e-10, 200
    C, F = model.n_classes, model.n_features
    dim = C * F
    theta = np.zeros(dim)
    x_all = model.data.all_points
    y_all = model.data.all_labels
    n = x_all.shape[0]
    for it in range(2 * max_iter):
        w = theta.reshape(C, F)
        probs = softmax(x_all @ w.T)
        resid = probs.copy()
        resid[np.arange(n), y_all] -= 1.0
        grad = (resid.T @ x_all).reshape(dim) + n * model.ridge * theta
        gnorm = float(np.linalg.norm(grad))
        if gnorm < tol:
            return theta
        try:
            step = np.linalg.solve(_softmax_hessian(x_all, probs, model.ridge), grad)
        except np.linalg.LinAlgError:
            raise ModelError(f"the energy's Hessian is singular at ridge = {model.ridge:g}") from None
        t = 1.0
        if it < max_iter:  # damped phase: Armijo backtracking on the energy, unless it cannot see the step
            f0, decrement = energy(model, theta), float(grad @ step)
            damped = decrement >= 8 * np.finfo(np.float64).eps * abs(f0)
            while damped and t > 1e-8 and energy(model, theta - t * step) > f0 - 1e-4 * t * decrement:
                t *= 0.5
        theta = theta - t * step
    raise ModelError(f"Newton solve did not reach gradient norm {tol} in {2 * max_iter} iterations")


def target_posterior(model):
    """Closed-form posterior N(mean of all points, tau/n * sigma) of the Gaussian model.

    At tau = 0 the covariance vanishes: the target is the point mass at the
    minimizer, which a noiseless chain approaches.
    """
    from .metrics import GaussianSummary

    if not isinstance(model, GaussianModelSpec):
        raise ModelError("target_posterior is only defined for the Gaussian model")
    n = model.data.total_points
    mean = model.data.all_points.mean(axis=0)
    return GaussianSummary(mean=mean, cov=(model.tau / n) * model.sigma)

