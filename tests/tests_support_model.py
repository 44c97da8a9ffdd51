"""Model references for the tests: the Gaussian energy, every client's exact gradient at one theta, and a
reader of the `dataset.csv` that `fald gen-data` writes."""

from pathlib import Path

import numpy as np

from fald.model import FederatedDataset, apply_matrix, client_grads


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


def read_dataset_csv(path) -> FederatedDataset:
    """The federation in a `dataset.csv`: one row per point, client_id, x_1..x_d and, when present, label."""
    header = Path(path).read_text(encoding="utf-8").split("\n", 1)[0].split(",")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    labelled = header[-1] == "label"
    ids = table[:, 0]
    clients = [table[ids == c, 1 : len(header) - labelled] for c in np.unique(ids)]
    labels = [table[ids == c, -1].astype(np.int64) for c in np.unique(ids)] if labelled else None
    return FederatedDataset(clients, labels)
