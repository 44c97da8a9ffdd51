"""Model references for the gradient tests: the Gaussian energy, and every client's exact gradient at one theta."""

import numpy as np

from fald.model import apply_matrix, client_grads


def gaussian_energy(model, theta: np.ndarray) -> float:
    """Total Gaussian-location energy f(theta) = sum_c l^c(theta), up to constants; no oracle is involved."""
    total = 0.0
    for pts in model.data.clients:
        diff = theta[:, None] - pts.T
        total += 0.5 * float(np.sum(apply_matrix(diff, model.sigma_inv) * diff))
    return total


def exact_grads(model, theta: np.ndarray) -> np.ndarray:
    """(d, N): column c is client c's exact gradient at theta (d,), from `client_grads` on a (d, 1, N) broadcast."""
    theta = np.asarray(theta, dtype=np.float64)
    return client_grads(model, np.broadcast_to(theta[:, None, None], (model.dim, 1, model.data.n_clients)))[:, 0]
