"""Distributional and predictive measurement.

Gaussian 2-Wasserstein distances are computed with the closed-form Bures
formula on moment-matched Gaussians, which is exactly how sampling error is
scored: per round, the replication cloud is summarized by its empirical mean
and covariance and compared to the known target.  The classification side
provides accuracy, the multiclass Brier score and the expected calibration
error.

Brier convention: sum of squared differences over all classes, averaged over
test points, so the multiclass value lies in [0, 2].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MetricsError(ValueError):
    """Invalid metric input."""


@dataclass(frozen=True)
class GaussianSummary:
    """Mean vector and symmetric PSD covariance matrix."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        cov = np.asarray(self.cov, dtype=np.float64)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise MetricsError("mean must be a d-vector and cov a d x d matrix")
        if np.max(np.abs(cov - cov.T), initial=0.0) > 1e-10:
            raise MetricsError("covariance must be symmetric within 1e-10")
        eigvals = np.linalg.eigvalsh(cov)
        if eigvals.size and eigvals[0] < -1e-10:
            raise MetricsError(f"covariance has negative eigenvalue {eigvals[0]:.3e}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size


def empirical_summary(samples: np.ndarray) -> GaussianSummary:
    """Sample mean and unbiased (R-1 divisor) covariance of an (R, d) matrix."""
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    R = samples.shape[0]
    if R < 2:
        raise MetricsError("empirical_summary needs at least 2 samples")
    mean = samples.mean(axis=0)
    centered = samples - mean
    cov = centered.T @ centered / (R - 1)
    return GaussianSummary(mean=mean, cov=0.5 * (cov + cov.T))


def sym_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Negative eigenvalues within roundoff are clamped to zero; inputs that are
    asymmetric beyond ``tol`` are rejected.
    """
    tol = 1e-8
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise MetricsError("sym_sqrt expects a square matrix")
    if np.max(np.abs(mat - mat.T), initial=0.0) > tol:
        raise MetricsError(f"matrix is asymmetric beyond tolerance {tol}")
    eigvals, eigvecs = np.linalg.eigh(0.5 * (mat + mat.T))
    root = eigvecs @ np.diag(np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.T
    return 0.5 * (root + root.T)


def w2_gaussian_parts(a: GaussianSummary, b: GaussianSummary):
    """(total W2, mean contribution, covariance contribution).

    total^2 = |mu_a - mu_b|^2 + tr(S_a + S_b - 2 (S_b^1/2 S_a S_b^1/2)^1/2).
    The trace term is evaluated in its equivalent orthogonal-Procrustes form
    min_Q |S_a^1/2 - S_b^1/2 Q|_F^2, which forms the difference directly
    instead of cancelling O(tr S) quantities, and is nonnegative by
    construction.
    """
    if a.dim != b.dim:
        raise MetricsError(f"dimension mismatch: {a.dim} vs {b.dim}")
    mean_sq = float(np.sum((a.mean - b.mean) ** 2))
    root_a = sym_sqrt(a.cov)
    root_b = sym_sqrt(b.cov)
    u, _, vt = np.linalg.svd(root_b @ root_a)
    diff = root_a - root_b @ (u @ vt)
    cov_sq = float(np.sum(diff * diff))
    return np.sqrt(mean_sq + cov_sq), np.sqrt(mean_sq), np.sqrt(cov_sq)


# ---------------------------------------------------------------------------
# classification metrics


@dataclass(frozen=True)
class ClassificationMetrics:
    accuracy: float
    brier: float
    ece: float


def classification_metrics(probs, labels, ece_bins: int = 10) -> ClassificationMetrics:
    """Accuracy, multiclass Brier score and expected calibration error.

    ``probs`` (n, C) holds one class-probability row per test point and
    ``labels`` (n,) the true classes.  Argmax ties resolve to the lowest class
    index.  ECE uses ``ece_bins`` equal-width bins over the maximum predicted
    probability; each confidence lands in bin floor(conf * bins), with
    conf = 1 in the top bin.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.ndim != 2 or probs.shape[0] == 0:
        raise MetricsError("classification_metrics needs a non-empty (n, C) probability matrix")
    n, n_classes = probs.shape
    if n_classes < 2:
        raise MetricsError("probs must cover >= 2 classes")
    if np.any(probs < 0) or np.max(np.abs(probs.sum(axis=1) - 1.0)) > 1e-9:
        raise MetricsError("probs must be nonnegative and each row sum to 1 within 1e-9")
    if labels.shape != (n,):
        raise MetricsError("label count does not match probability rows")
    if not np.issubdtype(labels.dtype, np.integer) or np.any(labels < 0) or np.any(labels >= n_classes):
        raise MetricsError(f"labels must be integers in 0..{n_classes - 1}")
    if ece_bins < 1:
        raise MetricsError("ece_bins must be >= 1")

    predicted = probs.argmax(axis=1)
    correct = predicted == labels
    accuracy = float(correct.mean())

    onehot = np.zeros_like(probs)
    onehot[np.arange(n), labels] = 1.0
    brier = float(np.mean(np.sum((probs - onehot) ** 2, axis=1)))

    confidence = probs.max(axis=1)
    bins = np.minimum((confidence * ece_bins).astype(np.int64), ece_bins - 1)
    ece = 0.0
    for b in range(ece_bins):
        mask = bins == b
        n_b = int(mask.sum())
        if n_b == 0:
            continue
        ece += (n_b / n) * abs(float(confidence[mask].mean()) - float(correct[mask].mean()))
    return ClassificationMetrics(accuracy=accuracy, brier=brier, ece=float(ece))

