"""Independent one-client minibatch gradient, the reference for `client_grads`."""

import numpy as np

from fald.model import (
    GaussianModelSpec,
    gaussian_client_grad_subset,
    logistic_client_grad,
    subsample_indices,
    subsample_size,
)


def one_minibatch_grad(model, c, theta, q, key):
    """Client c's minibatch gradient at theta (d,) for q < 1, its subset drawn from stream key ``key``.

    Draws the subset with `subsample_indices` and evaluates it with the
    int-client oracle, so it does not depend on how clients are grouped.
    """
    n_c = model.data.clients[c].shape[0]
    idx = subsample_indices(np.asarray([key], dtype=np.uint64), n_c, subsample_size(q, n_c))
    oracle = gaussian_client_grad_subset if isinstance(model, GaussianModelSpec) else logistic_client_grad
    return oracle(model, c, np.asarray(theta, dtype=np.float64)[None, :], idx, q)[0]
