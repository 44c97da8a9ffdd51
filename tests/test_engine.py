from dataclasses import replace

import numpy as np
import pytest

import fald
from fald.engine import (
    ChainDivergenceError,
    DecayingStep,
    EngineError,
    FixedStep,
    FullDevice,
    RunConfig,
    SchemeI,
    SchemeII,
    device_weights,
    injected_noise,
    local_step,
    run_block,
    run_replicated,
    run_sweep,
    step_size,
    synchronize,
)
from fald.model import gen_gaussian_federation, gen_logistic_federation
from fald.streams import SHARED, key_grid, normals_for_keys, stream_key
from tests_support_minibatch import one_minibatch_grad
from tests_support_model import exact_grads, gaussian_energy

REF_SIGMA = np.array([[5.0, -2.0], [-2.0, 1.0]])


def make_spec(n_clients=4, alpha=1.0, points=5, seed=11, tau=1.0):
    return gen_gaussian_federation(n_clients, alpha, points, REF_SIGMA, seed, tau=tau)


def make_cfg(spec, **kwargs):
    defaults = dict(
        local_steps=2,
        rho=0.0,
        schedule=FixedStep(1e-3),
        horizon=20,
        master_seed=5,
    )
    defaults.update(kwargs)
    return RunConfig(**defaults)


def noise_normals(seed, rep, iters, clients, dim):
    """(shared, private) normals of the engine's noise streams, coordinate-major (dim, len(iters), 1 or N)."""
    shared = normals_for_keys(key_grid(seed, [rep], iters, [SHARED], "noise"), dim)[:, 0]
    private = normals_for_keys(key_grid(seed, [rep], iters, clients, "noise"), dim)[:, 0]
    return shared, private


def one_chain(cfg, spec, rep):
    """Per-round records of one chain."""
    return run_block(cfg, spec, [rep]).records[0]


def device_keys(seed, rounds):
    return key_grid(seed, [0], range(rounds), [SHARED], "devices")[0, :, 0]


# ---------------------------------------------------------------------------
# schedules


def test_fixed_schedule_constant():
    assert step_size(FixedStep(0.25), 0) == 0.25
    assert step_size(FixedStep(0.25), 99) == 0.25


def test_nonpositive_eta_rejected():
    with pytest.raises(EngineError):
        FixedStep(0.0)


def test_decaying_at_zero_is_half_inverse_smoothness():
    assert step_size(DecayingStep(L=3.0, m=1.0), 0) == pytest.approx(1.0 / 6.0)


def test_decaying_arithmetic():
    assert step_size(DecayingStep(L=1.0, m=12.0), 2) == pytest.approx(0.25)


def test_decaying_strictly_decreasing():
    sched = DecayingStep(L=2.0, m=0.7)
    values = [step_size(sched, k) for k in range(50)]
    assert all(a > b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# injected noise


def test_zero_temperature_noise_is_zero():
    shared, private = noise_normals(0, 0, [0], [0], 4)
    noise = injected_noise(shared, private, eta=1e-2, tau=0.0, rho=0.5, weights=[0.25])
    assert np.array_equal(noise, np.zeros((4, 1, 1)))


def _noise_draws(rho, p_c, eta=1e-2, tau=1.0, draws=100_000, dim=1):
    shared, private = noise_normals(1, 0, range(draws), [0], dim)
    return injected_noise(shared, private, eta, tau, rho, [p_c])[..., 0]


def test_invalid_noise_parameters_rejected():
    shared, private = noise_normals(0, 0, [0], [0, 1], 2)
    for eta, tau, rho, weights in ((0.0, 1.0, 0.0, [0.5, 0.5]), (1e-3, -1.0, 0.0, [0.5, 0.5]),
                                   (1e-3, 1.0, 1.5, [0.5, 0.5]), (1e-3, 1.0, 0.0, [0.0, 1.0])):
        with pytest.raises(EngineError, match="noise"):
            injected_noise(shared, private, eta, tau, rho, weights)


def test_rho_one_variance_independent_of_weight():
    eta = 1e-2
    draws = _noise_draws(rho=1.0, p_c=0.2, eta=eta)
    assert draws.var() == pytest.approx(2 * eta, rel=0.02)


def test_rho_zero_variance_scales_inverse_weight():
    eta = 1e-2
    draws = _noise_draws(rho=0.0, p_c=0.2, eta=eta)
    assert draws.var() == pytest.approx(2 * eta * 5.0, rel=0.02)


@pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
def test_aggregate_noise_is_standard_gaussian(rho):
    # sum_c p_c * injected_c / sqrt(2 eta tau) must have unit variance
    spec = make_spec(n_clients=5, points=3)
    p = spec.data.weights
    eta, tau, draws = 1e-2, 1.0, 100_000
    shared, private = noise_normals(1, 0, range(draws), range(5), 1)
    noise = injected_noise(shared, private, eta, tau, rho, p)
    agg = synchronize(noise, p)[0] / np.sqrt(2 * eta * tau)
    assert 0.98 <= agg.var() <= 1.02
    assert abs(agg.mean()) < 0.02


# ---------------------------------------------------------------------------
# local step and device sampling


def test_local_step_identity_cases():
    theta = np.array([1.0, 1.0])
    assert np.array_equal(local_step(theta, np.array([3.0, 4.0]), np.zeros(2), 0.0), theta)
    assert np.array_equal(local_step(theta, np.zeros(2), np.zeros(2), 0.5), theta)


def test_local_step_arithmetic():
    out = local_step(np.array([1.0, 1.0]), np.array([2.0, 0.0]), np.array([0.0, 1.0]), 0.5)
    assert np.array_equal(out, np.array([0.0, 2.0]))


def test_scheme2_full_subset():
    w = np.full(6, 1 / 6)
    got = device_weights(SchemeII(6), w, device_keys(0, 1))
    assert got.shape == (1, 6) and np.all(got == 1 / 6)


def test_scheme1_degenerate_weights():
    w = np.array([1.0, 0.0, 0.0])
    got = device_weights(SchemeI(10), w, device_keys(0, 2))
    assert got.shape == (2, 3) and np.allclose(got[:, 0], 1.0) and np.all(got[:, 1:] == 0)


def test_full_device_weights_are_client_weights():
    w = np.array([0.5, 0.3, 0.2])
    assert np.array_equal(device_weights(FullDevice(), w), w)
    assert np.array_equal(device_weights(FullDevice(), w, device_keys(0, 4)), np.tile(w, (4, 1)))


def test_scheme2_weights_s_distinct_clients():
    n, s, rounds = 7, 3, 500
    got = device_weights(SchemeII(s), np.full(n, 1 / n), device_keys(1, rounds))
    assert got.shape == (rounds, n)
    assert np.all((got == 0) | (got == 1 / s))
    assert np.all(np.count_nonzero(got, axis=1) == s)


def test_scheme1_client_drawn_twice_weighs_two_over_s():
    n, s, rounds = 4, 3, 200
    got = device_weights(SchemeI(s), np.full(n, 1 / n), device_keys(2, rounds))
    counts = np.rint(got * s).astype(int)
    assert np.allclose(got, counts / s) and np.all(counts.sum(axis=1) == s)
    twice = np.argwhere(counts == 2)
    assert len(twice) > 0
    for r, c in twice:
        assert got[r, c] == 2 / s


@pytest.mark.parametrize("scheme", [FullDevice(), SchemeI(3), SchemeII(3)], ids=["full", "scheme1:3", "scheme2:3"])
def test_device_weights_rows_sum_to_one(scheme):
    rng = np.random.default_rng(4)
    w = np.full(6, 1 / 6) if isinstance(scheme, SchemeII) else rng.random(6)
    w /= w.sum()
    got = device_weights(scheme, w, device_keys(3, 1000))
    assert np.allclose(got.sum(axis=-1), 1.0, rtol=0, atol=1e-12)


def test_scheme1_frequencies_within_binomial_band():
    n, s, rounds = 8, 3, 100_000
    w = np.full(n, 1 / n)
    got = device_weights(SchemeI(s), w, device_keys(3, rounds))
    counts = np.rint(got * s).sum(axis=0)
    expected = rounds * s / n
    sd = np.sqrt(rounds * s * (1 / n) * (1 - 1 / n))
    assert np.all(np.abs(counts - expected) <= 3 * sd + 1e-9)


def test_scheme2_oversampling_rejected():
    with pytest.raises(EngineError):
        device_weights(SchemeII(4), np.full(3, 1 / 3), device_keys(0, 1))


def test_synchronize_weighted_average():
    betas = np.array([[1.0, 3.0]])  # (d, N)
    assert synchronize(betas, np.array([0.5, 0.5]))[0] == pytest.approx(2.0)


def test_scheme2_all_devices_equals_full_average():
    spec = make_spec(n_clients=4, points=3)
    betas = np.random.default_rng(2).standard_normal((2, 4))
    full = synchronize(betas, device_weights(FullDevice(), spec.data.weights))
    part = synchronize(betas, device_weights(SchemeII(4), spec.data.weights, device_keys(0, 1)[0]))
    assert np.array_equal(full, part)


def test_scheme1_resampling_unbiased():
    # Monte Carlo check of the unbiased-sampling property E[sync] = sum p_c beta_c
    n, s = 5, 2
    rng = np.random.default_rng(0)
    w = rng.random(n)
    w /= w.sum()
    betas = rng.standard_normal(n)
    rounds = 100_000
    got = device_weights(SchemeI(s), w, device_keys(5, rounds))
    samples = synchronize(np.broadcast_to(betas, (1, rounds, n)), got)[0]
    expected = float(w @ betas)
    band = 4 * samples.std(ddof=1) / np.sqrt(rounds)
    assert abs(samples.mean() - expected) <= band


# ---------------------------------------------------------------------------
# chains


def test_single_client_chain_matches_handrolled_sgld():
    spec = make_spec(n_clients=1, points=5, seed=3, tau=0.7)
    cfg = make_cfg(spec, local_steps=1, rho=0.4, schedule=FixedStep(1e-3), horizon=100, master_seed=9)
    traj = one_chain(cfg, spec, 2)
    theta = np.zeros(2)
    hand = [theta.copy()]
    for k in range(100):
        grad = exact_grads(spec, theta)[:, 0]
        # keys from the scalar reference, one step and one client at a time
        shared = normals_for_keys(stream_key(9, 2, k, SHARED, "noise"), 2)
        private = normals_for_keys(stream_key(9, 2, k, 0, "noise"), 2)
        noise = injected_noise(shared[:, None], private[:, None], 1e-3, 0.7, 0.4, [1.0])[:, 0]
        theta = local_step(theta, grad, noise, 1e-3)
        hand.append(theta.copy())
    assert np.array_equal(np.array(hand), traj)


@pytest.mark.parametrize("oracle", ["gaussian", "gaussian-unequal", "logistic", "logistic-unequal"])
def test_minibatch_chain_matches_handrolled_stochastic_gradients(oracle):
    # the engine's minibatches are the model's: same keys, same subsets, same bits;
    # unequal client sizes split the batched gradient into size groups
    if oracle == "gaussian":
        spec = make_spec(n_clients=1, points=8, seed=3, tau=0.7)
    elif oracle == "gaussian-unequal":
        spec = gen_gaussian_federation(4, 1.0, [8, 5, 8, 3], REF_SIGMA, 3, tau=0.7)
    elif oracle == "logistic-unequal":
        spec = gen_logistic_federation(4, 0.5, [8, 5, 8, 3], 2, 3, seed=3, ridge=0.05, tau=0.7)[0]
    else:
        spec = gen_logistic_federation(1, 0.5, 8, 2, 3, seed=3, ridge=0.05, tau=0.7)[0]
    cfg = make_cfg(spec, local_steps=1, rho=0.3, subsample_ratio=0.5, horizon=20, master_seed=6)
    traj = one_chain(cfg, spec, 1)
    p = spec.data.weights
    theta = np.zeros(spec.dim)
    hand = [theta.copy()]
    for k in range(20):
        shared = normals_for_keys(stream_key(6, 1, k, SHARED, "noise"), spec.dim)
        betas = np.empty((len(p), spec.dim))
        for c in range(len(p)):
            grad = one_minibatch_grad(spec, c, theta, 0.5, stream_key(6, 1, k, c, "subsample"))
            private = normals_for_keys(stream_key(6, 1, k, c, "noise"), spec.dim)
            noise = injected_noise(shared[:, None], private[:, None], 1e-3, 0.7, 0.3, p[c:c + 1])[:, 0]
            betas[c] = local_step(theta, grad, noise, 1e-3)
        theta = synchronize(betas.T, p)
        hand.append(theta.copy())
    assert np.array_equal(np.array(hand), traj)


def test_k1_reduction_matches_direct_iterate():
    # K = 1 with full device is the plain synchronized update under the same streams
    spec = make_spec(n_clients=4, points=5, seed=11)
    cfg = make_cfg(spec, local_steps=1, rho=0.25, schedule=FixedStep(5e-4), horizon=50, master_seed=4)
    traj = one_chain(cfg, spec, 1)
    p = spec.data.weights
    thetas = np.zeros((4, 2))
    hand = [synchronize(thetas.T, p)]
    for k in range(50):
        betas = np.empty_like(thetas)
        shared = normals_for_keys(stream_key(4, 1, k, SHARED, "noise"), 2)
        for c in range(4):
            grad = exact_grads(spec, thetas[c])[:, c]
            private = normals_for_keys(stream_key(4, 1, k, c, "noise"), 2)
            noise = injected_noise(shared[:, None], private[:, None], 5e-4, 1.0, 0.25, p[c:c + 1])[:, 0]
            betas[c] = local_step(thetas[c], grad, noise, 5e-4)
        bar = synchronize(betas.T, p)
        thetas = np.broadcast_to(bar, (4, 2)).copy()
        hand.append(bar)
    assert np.array_equal(np.array(hand), traj)


@pytest.mark.parametrize("scheme", [FullDevice(), SchemeI(2), SchemeII(2)], ids=["full", "scheme1:2", "scheme2:2"])
def test_local_steps_chain_matches_handrolled(scheme):
    # K = 3: clients step apart between syncs; devices are drawn from the key
    # of iteration k + 1, and the synchronized state is broadcast to every client
    spec = make_spec(n_clients=4, points=5, seed=11)
    cfg = make_cfg(spec, local_steps=3, rho=0.3, horizon=12, master_seed=4, scheme=scheme)
    p = spec.data.weights
    thetas = np.zeros((4, 2))
    hand = [synchronize(thetas.T, p)]
    for k in range(12):
        shared = normals_for_keys(stream_key(4, 1, k, SHARED, "noise"), 2)
        for c in range(4):
            grad = exact_grads(spec, thetas[c])[:, c]
            private = normals_for_keys(stream_key(4, 1, k, c, "noise"), 2)
            noise = injected_noise(shared[:, None], private[:, None], 1e-3, 1.0, 0.3, p[c:c + 1])[:, 0]
            thetas[c] = local_step(thetas[c], grad, noise, 1e-3)
        if (k + 1) % 3 == 0:
            bar = synchronize(thetas.T, device_weights(scheme, p, stream_key(4, 1, k + 1, SHARED, "devices")))
            thetas = np.broadcast_to(bar, (4, 2)).copy()
            hand.append(bar)
    assert np.array_equal(np.array(hand), one_chain(cfg, spec, 1))


def test_zero_temperature_chain_descends_energy():
    spec = make_spec(n_clients=3, points=5, seed=6, tau=0.0)
    L = spec.data.total_points * float(np.linalg.eigvalsh(np.linalg.inv(REF_SIGMA))[-1])
    cfg = make_cfg(spec, local_steps=1, schedule=FixedStep(0.9 / L), horizon=30, init=np.array([2.0, -1.0]))
    traj = one_chain(cfg, spec, 0)
    values = [gaussian_energy(spec, traj[r]) for r in range(31)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_zero_temperature_ignores_randomness():
    spec = make_spec(n_clients=2, points=4, tau=0.0)
    recs = []
    for rep in (0, 1, 7):
        cfg = make_cfg(spec, horizon=20)
        recs.append(one_chain(cfg, spec, rep))
    assert np.array_equal(recs[0], recs[1])
    assert np.array_equal(recs[0], recs[2])


def test_same_seed_bitwise_identical():
    spec = make_spec()
    cfg = make_cfg(spec)
    a = one_chain(cfg, spec, 3)
    b = one_chain(cfg, spec, 3)
    assert np.array_equal(a, b)


def test_scheme2_with_all_devices_bit_equal_to_full():
    spec = make_spec(n_clients=4, points=5, seed=13)
    kwargs = dict(local_steps=3, rho=0.5, schedule=FixedStep(2e-4), horizon=30, master_seed=21)
    full = one_chain(make_cfg(spec, **kwargs), spec, 0)
    part = one_chain(make_cfg(spec, scheme=SchemeII(4), **kwargs), spec, 0)
    assert np.array_equal(full, part)


def test_partial_schemes_resample_each_sync():
    spec = make_spec(n_clients=6, points=3)
    cfg = make_cfg(spec, scheme=SchemeII(2), local_steps=2, horizon=40)
    assert np.isfinite(one_chain(cfg, spec, 0)).all()


def test_run_replicated_slices_match_run_chain():
    spec = make_spec()
    cfg = make_cfg(spec, horizon=30, local_steps=3)
    records = run_replicated(cfg, spec, 5)
    for rep in range(5):
        assert np.array_equal(records[rep], one_chain(cfg, spec, rep))


# one config per engine path: oracle x minibatch ratio x device scheme
def _path_spec(oracle):
    if oracle == "logistic":
        return gen_logistic_federation(4, 0.5, 6, 2, 3, seed=8, ridge=0.05, tau=0.7)[0]
    if oracle == "logistic-unequal":
        return gen_logistic_federation(4, 0.5, [6, 4, 6, 7], 2, 3, seed=8, ridge=0.05, tau=0.7)[0]
    if oracle == "gaussian-unequal":
        return gen_gaussian_federation(4, 1.0, [6, 4, 6, 7], REF_SIGMA, 11, tau=0.7)
    return make_spec(tau=0.7)


PATHS = [
    ("gaussian", 1.0, FullDevice()),
    ("gaussian", 0.5, FullDevice()),
    ("gaussian", 0.5, SchemeI(2)),
    ("gaussian-unequal", 0.5, FullDevice()),
    ("gaussian-unequal", 0.5, SchemeI(2)),
    ("gaussian", 1.0, SchemeII(2)),
    ("logistic", 1.0, FullDevice()),
    ("logistic", 0.5, SchemeI(2)),
    ("logistic", 0.5, SchemeII(2)),
    ("logistic-unequal", 0.5, FullDevice()),
    ("logistic-unequal", 0.5, SchemeI(2)),
]
PATH_IDS = [f"{o}-q{q}-{type(s).__name__}" for o, q, s in PATHS]


def _path_case(oracle, q, scheme, horizon=30):
    spec = _path_spec(oracle)
    cfg = make_cfg(spec, horizon=horizon, local_steps=3, rho=0.3, subsample_ratio=q, scheme=scheme)
    return spec, cfg


@pytest.mark.parametrize("oracle,q,scheme", PATHS, ids=PATH_IDS)
def test_concurrent_equals_sequential(oracle, q, scheme):
    spec, cfg = _path_case(oracle, q, scheme, horizon=12 if oracle.startswith("logistic") else 30)
    seq = run_replicated(cfg, spec, 6, workers=1)
    conc = run_replicated(cfg, spec, 6, workers=3)
    assert np.array_equal(seq, conc)


@pytest.mark.parametrize("oracle,q,scheme", PATHS, ids=PATH_IDS)
def test_block_partition_invariance(oracle, q, scheme):
    spec, cfg = _path_case(oracle, q, scheme)
    whole = run_block(cfg, spec, range(4)).records
    parts = np.concatenate(
        [run_block(cfg, spec, [0]).records, run_block(cfg, spec, [1, 2, 3]).records]
    )
    assert np.array_equal(whole, parts)


@pytest.mark.parametrize("oracle,q,scheme", PATHS, ids=PATH_IDS)
def test_noise_block_size_invariance(oracle, q, scheme, monkeypatch):
    # noise blocks of 1 iteration, of 7 (not a divisor of the horizon 30) and
    # of the whole horizon give the same records
    spec, cfg = _path_case(oracle, q, scheme)
    B, N, T = 4, spec.data.n_clients, cfg.horizon
    per_iter = fald.engine._floats_per_iteration(B, N, spec.dim, q)
    lengths = []

    def spy_key_grid(seed, reps, iters, tags, purpose):
        if purpose == "noise" and tags == [SHARED]:
            lengths.append(len(iters))
        return key_grid(seed, reps, iters, tags, purpose)

    monkeypatch.setattr(fald.engine, "key_grid", spy_key_grid)
    records = {}
    for iters, expected in ((1, [1] * T), (7, [7, 7, 7, 7, 2]), (T, [T])):
        monkeypatch.setattr(fald.engine, "_BLOCK_BUDGET_FLOATS", iters * per_iter)
        lengths.clear()
        records[iters] = run_block(cfg, spec, range(B)).records
        assert lengths == expected
    assert np.array_equal(records[1], records[7])
    assert np.array_equal(records[1], records[T])

    # a 3-point sweep batch: the budget counts every point's noise array, the
    # shared normals are drawn once per block for all points, and every point
    # keeps the bits of its own run at any block size
    cfgs = [cfg, replace(cfg, rho=0.8, schedule=FixedStep(2e-3)), replace(cfg, local_steps=5)]
    per_iter = fald.engine._floats_per_iteration(B, N, spec.dim, q, 3)
    swept = {}
    for iters, expected in ((1, [1] * T), (7, [7, 7, 7, 7, 2]), (T, [T])):
        monkeypatch.setattr(fald.engine, "_BLOCK_BUDGET_FLOATS", iters * per_iter)
        lengths.clear()
        swept[iters] = run_sweep(cfgs, [spec] * 3, B)
        assert lengths == expected
    assert np.array_equal(swept[1][0], records[1])
    for p in range(3):
        assert np.array_equal(swept[1][p], run_block(cfgs[p], spec, range(B)).records)
        assert np.array_equal(swept[1][p], swept[7][p]) and np.array_equal(swept[1][p], swept[T][p])


def test_replication_count_validated():
    spec = make_spec()
    with pytest.raises(EngineError):
        run_replicated(make_cfg(spec), spec, 1)


def test_negative_worker_count_rejected():
    spec = make_spec()
    with pytest.raises(EngineError, match="worker count"):
        run_replicated(make_cfg(spec), spec, 4, workers=-3)


def _diverging_case():
    spec = make_spec(n_clients=2, points=4, tau=0.5)
    L = spec.data.total_points * float(np.linalg.eigvalsh(np.linalg.inv(REF_SIGMA))[-1])
    return spec, make_cfg(spec, schedule=FixedStep(10.0 / L), horizon=4000, local_steps=1, init=np.ones(2))


def test_divergence_crosses_process_pool():
    spec, cfg = _diverging_case()
    with pytest.raises(ChainDivergenceError) as seq:
        run_replicated(cfg, spec, 4, workers=1)
    with pytest.raises(ChainDivergenceError) as conc:
        run_replicated(cfg, spec, 4, workers=2)
    assert (conc.value.replication, conc.value.iteration, conc.value.client) == (
        seq.value.replication, seq.value.iteration, seq.value.client)
    assert str(conc.value) == str(seq.value)


@pytest.mark.parametrize("eta", [0.05, 2.0])
def test_divergence_report_independent_of_worker_count(eta):
    # slices diverge at different iterations and values; the pool reports the
    # error one block over all replications raises
    spec = make_spec(n_clients=4)
    cfg = make_cfg(spec, schedule=FixedStep(eta), master_seed=3, horizon=200)
    reports = set()
    for workers in (1, 2, 3):
        with pytest.raises(ChainDivergenceError) as err:
            run_replicated(cfg, spec, 8, workers=workers)
        e = err.value
        reports.add((str(e), e.replication, e.iteration, e.client, e.value, e.kind))
    assert len(reports) == 1


def _sweep_case(axis):
    """Three points of a sweep over ``axis``: (run configs, models); the eta sweep's middle value diverges."""
    spec = make_spec(n_clients=4, points=6, tau=0.7)
    base = make_cfg(spec, horizon=24, local_steps=2, rho=0.3, subsample_ratio=0.5, scheme=SchemeI(2))
    if axis == "alpha":  # one federation per value, as `fald sweep` builds them
        return [base] * 3, [make_spec(n_clients=4, alpha=a, points=6, tau=0.7) for a in (0.0, 1.0, 4.0)]
    if axis == "k_local":
        cfgs = [replace(base, local_steps=k) for k in (1, 3, 4)]
    elif axis == "rho":
        cfgs = [replace(base, rho=r) for r in (0.0, 0.6, 1.0)]
    elif axis == "eta":
        L = spec.data.total_points * float(np.linalg.eigvalsh(np.linalg.inv(REF_SIGMA))[-1])
        cfgs = [replace(base, schedule=FixedStep(e), init=np.ones(2)) for e in (1e-3, 10.0 / L, 2e-3)]
    else:
        cfgs = [replace(base, scheme=s) for s in (FullDevice(), SchemeI(3), SchemeII(2))]
    return cfgs, [spec] * 3


@pytest.mark.parametrize("axis", ["k_local", "alpha", "rho", "eta", "s_scheme"])
def test_lockstep_sweep_equals_point_by_point_runs(axis):
    cfgs, models = _sweep_case(axis)
    diverged = 0
    for workers in (1, 2):
        outcomes = run_sweep(cfgs, models, 4, workers=workers)
        for cfg, spec, outcome in zip(cfgs, models, outcomes):
            try:
                expected = run_block(cfg, spec, range(4)).records
            except ChainDivergenceError as err:
                diverged += 1
                assert isinstance(outcome, ChainDivergenceError)
                assert (str(outcome), outcome.iteration, outcome.replication) == (
                    str(err), err.iteration, err.replication)
            else:
                assert np.array_equal(outcome, expected)
    assert diverged == (2 if axis == "eta" else 0)


def test_sweep_points_must_share_streams():
    spec = make_spec(n_clients=4, points=6)
    cfg = make_cfg(spec)
    for other, other_spec in (
        (replace(cfg, master_seed=6), spec),
        (replace(cfg, horizon=40), spec),
        (replace(cfg, subsample_ratio=0.5), spec),
        (cfg, make_spec(n_clients=4, points=6, tau=0.5)),
        (cfg, make_spec(n_clients=4, points=[6, 6, 6, 5])),
    ):
        with pytest.raises(EngineError, match="common horizon"):
            run_sweep([cfg, other], [spec, other_spec], 2)


def test_divergence_guard_reports_location():
    spec = make_spec(n_clients=2, points=4, tau=0.0)
    L = spec.data.total_points * float(np.linalg.eigvalsh(np.linalg.inv(REF_SIGMA))[-1])
    cfg = make_cfg(spec, schedule=FixedStep(10.0 / L), horizon=4000, local_steps=1,
                   init=np.array([1.0, 1.0]))
    with pytest.raises(ChainDivergenceError, match="reducing the step size"):
        one_chain(cfg, spec, 0)
    try:
        one_chain(cfg, spec, 5)
    except ChainDivergenceError as err:
        assert err.replication == 5
        assert err.iteration >= 0


# (replication, iteration, client, kind, repr(value)) of each report: the first non-finite
# entry, or else the largest |theta|, in (replication, client, coordinate) order
PINNED_DIVERGENCES = {
    # eta |grad| overflows at iteration 0 in the second coordinate of clients 0 and 2 and in
    # both of client 3's, for every replication; a coordinate-first scan would name client 3
    "nan": (0, 0, 0, "nan", "nan"),
    # the eta sweep of the golden configs, on R = 6: replication 4 holds the largest |theta|
    "runaway": (4, 7, 2, "divergence", "17894585879004.09"),
}


@pytest.mark.parametrize("kind", sorted(PINNED_DIVERGENCES))
def test_divergence_report_pinned(kind):
    if kind == "nan":
        spec = make_spec(points=6, tau=0.7)
        cfg = make_cfg(spec, rho=0.3, schedule=FixedStep(1.7e306), horizon=40, init=np.ones(2))
    else:
        spec = make_spec(points=6, seed=17, tau=0.7)
        cfg = make_cfg(spec, rho=0.3, schedule=FixedStep(0.5), horizon=40, master_seed=17)
    for workers in (1, 2):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ChainDivergenceError) as err:
            run_replicated(cfg, spec, 6, workers=workers)
        e = err.value
        assert (e.replication, e.iteration, e.client, e.kind, repr(e.value)) == PINNED_DIVERGENCES[kind]


def test_stochastic_gradient_chain_runs():
    spec = make_spec(n_clients=3, points=8)
    cfg = make_cfg(spec, subsample_ratio=0.5, horizon=40, local_steps=4)
    a = one_chain(cfg, spec, 0)
    b = one_chain(cfg, spec, 0)
    assert np.array_equal(a, b)
    assert np.isfinite(a).all()


def test_config_validation():
    spec = make_spec(n_clients=3, points=4)
    with pytest.raises(EngineError, match="multiple"):
        make_cfg(spec, horizon=21, local_steps=2)
    with pytest.raises(EngineError, match="rho"):
        make_cfg(spec, rho=1.5)
    # checks against the federation run when the chain starts
    unbalanced = gen_gaussian_federation(2, 0.0, [3, 5], REF_SIGMA, 0)
    with pytest.raises(EngineError, match="balanced"):
        one_chain(make_cfg(unbalanced, local_steps=1, horizon=4, scheme=SchemeII(1)), unbalanced, 0)
    with pytest.raises(EngineError, match="S"):
        one_chain(make_cfg(spec, scheme=SchemeI(9)), spec, 0)
    for init in (np.zeros(3), np.zeros((3, 2))):  # one (d,) start, not one per client
        with pytest.raises(EngineError, match="init"):
            one_chain(make_cfg(spec, init=init), spec, 0)

