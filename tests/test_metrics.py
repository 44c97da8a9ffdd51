import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fald.metrics import (
    GaussianSummary,
    MetricsError,
    classification_metrics,
    empirical_summary,
    sym_sqrt,
    w2_gaussian_parts,
)


from tests_support_w2 import w2_cholesky_oracle


def random_spd(rng, d, scale=1.0):
    a = rng.standard_normal((d, d))
    m = a @ a.T + 0.1 * np.eye(d)
    return scale * m


def random_summary(rng, d):
    return GaussianSummary(rng.standard_normal(d), random_spd(rng, d))


# ---------------------------------------------------------------------------
# empirical summary


def test_identical_samples_zero_covariance():
    samples = np.tile(np.array([1.0, -2.0]), (5, 1))
    summary = empirical_summary(samples)
    assert np.array_equal(summary.cov, np.zeros((2, 2)))


def test_two_point_arithmetic():
    summary = empirical_summary(np.array([[0.0], [2.0]]))
    assert summary.mean[0] == pytest.approx(1.0)
    assert summary.cov[0, 0] == pytest.approx(2.0)  # divisor R - 1 = 1


def test_moment_recovery():
    rng = np.random.default_rng(0)
    mean = np.array([1.0, -0.5, 2.0])
    cov = random_spd(rng, 3)
    samples = rng.multivariate_normal(mean, cov, size=100_000)
    summary = empirical_summary(samples)
    assert np.linalg.norm(summary.cov - cov) / np.linalg.norm(cov) < 0.02
    assert np.linalg.norm(summary.mean - mean) < 0.05


def test_single_sample_rejected():
    with pytest.raises(MetricsError):
        empirical_summary(np.array([[1.0, 2.0]]))


# ---------------------------------------------------------------------------
# matrix square root


def test_sqrt_identity():
    assert np.allclose(sym_sqrt(np.eye(3)), np.eye(3))


def test_sqrt_diagonal():
    assert np.allclose(sym_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_sqrt_self_consistency():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = random_spd(rng, 4)
        root = sym_sqrt(m)
        assert np.linalg.norm(root @ root - m) < 1e-9


def test_sqrt_rejects_asymmetric():
    with pytest.raises(MetricsError, match="asymmetric"):
        sym_sqrt(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_sqrt_clamps_roundoff_negatives():
    m = np.array([[1e-14, 0.0], [0.0, -1e-14]])
    root = sym_sqrt(m)
    assert np.all(np.isfinite(root))


# ---------------------------------------------------------------------------
# Gaussian W2


def test_w2_identical_is_zero():
    rng = np.random.default_rng(1)
    s = random_summary(rng, 3)
    assert w2_gaussian_parts(s, s)[0] < 1e-9


def test_w2_one_dimensional_closed_form():
    a = GaussianSummary(np.array([0.0]), np.array([[1.0]]))
    b = GaussianSummary(np.array([1.0]), np.array([[1.0]]))
    assert w2_gaussian_parts(a, b)[0] == pytest.approx(1.0, abs=1e-12)


def test_w2_commuting_diagonal():
    a = GaussianSummary(np.zeros(2), np.diag([4.0, 1.0]))
    b = GaussianSummary(np.zeros(2), np.diag([1.0, 1.0]))
    assert w2_gaussian_parts(a, b)[0] == pytest.approx(1.0, abs=1e-9)


def test_w2_matches_cholesky_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = int(rng.integers(1, 6))
        a, b = random_summary(rng, d), random_summary(rng, d)
        assert abs(w2_gaussian_parts(a, b)[0] - w2_cholesky_oracle(a, b)) < 1e-8


def test_w2_symmetry():
    rng = np.random.default_rng(8)
    for _ in range(20):
        a, b = random_summary(rng, 3), random_summary(rng, 3)
        assert abs(w2_gaussian_parts(a, b)[0] - w2_gaussian_parts(b, a)[0]) < 1e-9


def test_w2_rotation_invariance():
    rng = np.random.default_rng(9)
    for _ in range(10):
        a, b = random_summary(rng, 3), random_summary(rng, 3)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        ra = GaussianSummary(q @ a.mean, q @ a.cov @ q.T)
        rb = GaussianSummary(q @ b.mean, q @ b.cov @ q.T)
        assert abs(w2_gaussian_parts(a, b)[0] - w2_gaussian_parts(ra, rb)[0]) < 1e-8


def test_w2_identity_of_indiscernibles():
    rng = np.random.default_rng(10)
    a = random_summary(rng, 2)
    b = GaussianSummary(a.mean + 1e-8, a.cov * (1 + 1e-8))
    assert w2_gaussian_parts(a, b)[0] < 1e-6
    assert np.max(np.abs(a.mean - b.mean)) < 1e-4
    assert np.max(np.abs(a.cov - b.cov)) < 1e-4


def test_w2_dimension_mismatch():
    rng = np.random.default_rng(11)
    with pytest.raises(MetricsError, match="dimension"):
        w2_gaussian_parts(random_summary(rng, 2), random_summary(rng, 3))


def test_w2_parts_decompose_total():
    rng = np.random.default_rng(12)
    a, b = random_summary(rng, 3), random_summary(rng, 3)
    total, mean_part, cov_part = w2_gaussian_parts(a, b)
    assert total == pytest.approx(np.hypot(mean_part, cov_part))


# ---------------------------------------------------------------------------
# classification metrics


def one_hot(labels, n_classes):
    return np.eye(n_classes)[labels], np.asarray(labels)


def test_perfect_one_hot_predictions():
    scored = classification_metrics(*one_hot([0, 1, 2, 1], 3))
    assert scored.accuracy == 1.0
    assert scored.brier == 0.0
    assert scored.ece == pytest.approx(0.0)


def test_uniform_binary_brier():
    scored = classification_metrics(np.full((10, 2), 0.5), np.zeros(10, dtype=np.int64))
    assert scored.brier == pytest.approx(0.5)
    assert scored.accuracy == 1.0  # argmax tie resolves to class 0


def test_argmax_tie_goes_to_lowest_index():
    scored = classification_metrics(np.array([[0.5, 0.5]]), np.array([1]))
    assert scored.accuracy == 0.0


def test_calibrated_predictor_low_ece():
    # construct predictions whose per-bin accuracy equals the stated confidence
    rng = np.random.default_rng(3)
    probs = []
    for _ in range(10_000):
        conf = rng.uniform(0.55, 0.95)
        correct = rng.random() < conf
        probs.append([conf, 1 - conf] if correct else [1 - conf, conf])
    scored = classification_metrics(np.array(probs), np.zeros(len(probs), dtype=np.int64), ece_bins=10)
    assert scored.ece < 0.02


def random_predictions(rng, n, n_classes):
    probs, labels = np.empty((n, n_classes)), np.empty(n, dtype=np.int64)
    for i in range(n):
        p = rng.random(n_classes)
        probs[i] = p / p.sum()
        labels[i] = rng.integers(n_classes)
    return probs, labels


def test_metric_ranges():
    scored = classification_metrics(*random_predictions(np.random.default_rng(5), 500, 4))
    assert 0.0 <= scored.accuracy <= 1.0
    assert 0.0 <= scored.brier <= 2.0  # multiclass sum-of-squares convention
    assert 0.0 <= scored.ece <= 1.0


def test_invalid_probability_vector_rejected():
    for probs in ([[0.7, 0.7]], [[-0.1, 1.1]], [[1.0]], [[0.5, 0.5], [0.6, 0.6]], [0.5, 0.5]):
        with pytest.raises(MetricsError):
            classification_metrics(np.array(probs), np.zeros(len(probs), dtype=np.int64))


def test_invalid_labels_rejected():
    probs = np.full((2, 3), 1.0 / 3.0)
    for labels in ([0, 3], [-1, 0], [0], [0.0, 1.0]):
        with pytest.raises(MetricsError, match="label"):
            classification_metrics(probs, np.array(labels))


def test_empty_records_rejected():
    with pytest.raises(MetricsError):
        classification_metrics(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))


@given(st.integers(min_value=1, max_value=40))
@settings(max_examples=20, deadline=None)
def test_brier_bounded_for_any_simplex_input(seed):
    scored = classification_metrics(*random_predictions(np.random.default_rng(seed), 50, 3))
    assert scored.brier <= 2.0 and scored.ece <= 1.0

