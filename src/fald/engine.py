"""Federated averaging Langevin chains with correlated noise and device sampling.

Each client runs K local noisy-gradient steps between synchronizations; the
injected noise mixes a shared Gaussian vector (weight rho) with a private
per-client one (weight sqrt(1-rho^2)/sqrt(p_c)).  Synchronization averages the
participating clients and broadcasts the result to everyone.  A chain's one
output is that synchronized state at each communication round.

Determinism contract: a chain's trajectory is a pure function of
(config, model, replication id).  All randomness comes from counter-based
streams and every reduction that mixes clients or coordinates runs in fixed
index order, so replications can be batched or distributed across processes
in any way without changing a single bit of the output.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import model as model_mod
from .model import GaussianModelSpec, LogisticModelSpec
from .streams import SHARED, key_grid, normals_for_keys, uniforms_for_keys

DIVERGENCE_LIMIT = 1e12

_NOISE_PURPOSE = "noise"
_SUBSAMPLE_PURPOSE = "subsample"
_DEVICE_PURPOSE = "devices"

# noise blocks are sized so that all of a block's arrays together hold at most
# this many floats (1 MB, within L2 cache); the values produced are
# counter-based, so the choice never affects results.
_BLOCK_BUDGET_FLOATS = 131_072


class EngineError(ValueError):
    """Invalid run configuration."""


class ChainDivergenceError(RuntimeError):
    """A chain produced non-finite or runaway state."""

    def __init__(self, replication, iteration, client, value, kind="divergence"):
        self.replication = replication
        self.iteration = iteration
        self.client = client
        self.value = value
        self.kind = kind
        if kind == "nan":
            msg = (
                f"non-finite state at iteration {iteration}, client {client}, "
                f"replication {replication}"
            )
        else:
            msg = (
                f"|theta| = {value:.3e} exceeded {DIVERGENCE_LIMIT:.0e} at iteration "
                f"{iteration}, client {client}, replication {replication}; "
                "consider reducing the step size eta"
            )
        super().__init__(msg)

    def __reduce__(self):
        # rebuild from the constructor arguments so the error crosses process pools
        return type(self), (self.replication, self.iteration, self.client, self.value, self.kind)


# ---------------------------------------------------------------------------
# schedules and schemes


@dataclass(frozen=True)
class FixedStep:
    eta: float

    def __post_init__(self):
        if self.eta <= 0:
            raise EngineError("step size eta must be positive")


@dataclass(frozen=True)
class DecayingStep:
    """eta_k = 1 / (2 L + m k / 12)."""

    L: float
    m: float

    def __post_init__(self):
        if self.L <= 0 or self.m <= 0:
            raise EngineError("decaying schedule needs positive L and m")


Schedule = Union[FixedStep, DecayingStep]


def step_size(schedule: Schedule, k):
    """eta_k at iteration k; an array of iterations gives one step size each."""
    if isinstance(schedule, FixedStep):
        return schedule.eta if np.ndim(k) == 0 else np.full(np.shape(k), schedule.eta)
    if isinstance(schedule, DecayingStep):
        return 1.0 / (2.0 * schedule.L + schedule.m * k / 12.0)
    raise EngineError(f"unknown schedule {schedule!r}")


@dataclass(frozen=True)
class FullDevice:
    pass


@dataclass(frozen=True)
class SchemeI:
    """With-replacement sampling of S devices, each draw categorical by p_c."""

    s: int


@dataclass(frozen=True)
class SchemeII:
    """Uniform without-replacement sampling of S devices (balanced weights)."""

    s: int


Scheme = Union[FullDevice, SchemeI, SchemeII]


@dataclass(frozen=True)
class RunConfig:
    """One complete chain description; see module docstring for semantics.

    The federation (client count and weights) and the temperature tau belong
    to the model the chain runs on.  ``init`` is one (d,) vector that every
    client starts from.
    """

    local_steps: int
    rho: float
    schedule: Schedule
    scheme: Scheme = field(default_factory=FullDevice)
    subsample_ratio: float = 1.0
    horizon: int = 0
    master_seed: int = 0
    init: Optional[np.ndarray] = None  # (d,); default all-zero

    def __post_init__(self):
        if self.local_steps < 1:
            raise EngineError("local_steps must be >= 1")
        if not 0.0 <= self.rho <= 1.0:
            raise EngineError("rho must lie in [0, 1]")
        if not 0.0 < self.subsample_ratio <= 1.0:
            raise EngineError("subsample_ratio must lie in (0, 1]")
        if self.horizon < 1 or self.horizon % self.local_steps != 0:
            raise EngineError("horizon must be a positive multiple of local_steps")


@dataclass
class BlockResult:
    """Raw output of a lockstep batch of chains."""

    records: np.ndarray  # (B, rounds + 1, d): the synchronized state at rounds 0..T/K


# ---------------------------------------------------------------------------
# the operations of one step; the engine runs exactly these


def injected_noise(shared, private, eta, tau, rho, weights) -> np.ndarray:
    """sqrt(2 eta tau rho^2) shared + sqrt(2 eta tau (1-rho^2)/p_c) private.

    ``shared`` (..., 1, d) holds the normals common to all clients and
    ``private`` (..., N, d) one row per client; ``weights`` are the N client
    weights p_c.  ``eta`` is a scalar or an array broadcasting against the
    (..., N, d) result, such as one step size per iteration shaped (T, 1, 1).
    Both terms are formed even at rho in {0, 1}, so the engine always draws
    both sets of normals and its stream layout does not depend on rho.
    """
    eta = np.asarray(eta, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if np.any(eta <= 0) or tau < 0 or not 0 <= rho <= 1 or np.any(weights <= 0) or np.any(weights > 1):
        raise EngineError("invalid noise parameters")
    shared_scale = np.sqrt(2.0 * eta * tau * rho * rho)
    private_scale = np.sqrt(2.0 * eta * tau * (1.0 - rho * rho) / weights[:, None])
    noise = private_scale * private
    noise += shared_scale * shared
    return noise


def local_step(theta, grad_estimate, noise, eta) -> np.ndarray:
    """theta - eta * gradient estimate + injected noise."""
    return theta - eta * grad_estimate + noise


def sample_devices(scheme: Scheme, weights: np.ndarray, keys) -> np.ndarray:
    """Participating client indices at one synchronization, one row per stream key.

    Scheme I makes S categorical draws by weight (duplicates possible);
    scheme II takes a uniform without-replacement subset, sorted.  Output
    shape keys.shape + (S,).
    """
    n = len(weights)
    if isinstance(scheme, SchemeI):
        u = uniforms_for_keys(keys, scheme.s)
        idx = np.searchsorted(np.cumsum(weights), u.ravel(), side="right")
        return np.minimum(idx, n - 1).reshape(u.shape)
    if isinstance(scheme, SchemeII):
        if scheme.s > n:
            raise EngineError("scheme II cannot select more devices than exist")
        return np.sort(model_mod.subsample_indices(keys, n, scheme.s), axis=-1)
    raise EngineError("sample_devices requires a partial scheme")


def synchronize(betas: np.ndarray, weights: np.ndarray, scheme: Scheme, sampled=None) -> np.ndarray:
    """Aggregate client states: sum_c p_c beta^c (full) or (1/S) sum over sampled.

    ``betas`` is (..., N, d) and ``sampled`` the (..., S) output of
    `sample_devices`.  Clients are accumulated in index order, so the result
    does not depend on how the leading axes are batched.
    """
    if isinstance(scheme, FullDevice):
        w = np.broadcast_to(weights, betas.shape[:-1])
    else:
        sampled = np.asarray(sampled)
        w = np.zeros(betas.shape[:-1])
        np.add.at(w, (*np.indices(sampled.shape)[:-1], sampled), 1.0 / scheme.s)
    out = w[..., 0, None] * betas[..., 0, :]
    for c in range(1, betas.shape[-2]):
        out = out + w[..., c, None] * betas[..., c, :]
    return out


# ---------------------------------------------------------------------------
# chain execution


def _check_state(thetas, reps, iteration):
    # max() propagates NaN, so one reduction covers both guards
    worst = float(np.abs(thetas).max())
    if not np.isfinite(worst):
        b, c = np.argwhere(~np.isfinite(thetas))[0][:2]
        raise ChainDivergenceError(int(reps[b]), iteration, int(c), np.nan, kind="nan")
    if worst > DIVERGENCE_LIMIT:
        b, c = np.argwhere(np.abs(thetas) == worst)[0][:2]
        raise ChainDivergenceError(int(reps[b]), iteration, int(c), worst)


def _check_model(cfg: RunConfig, model) -> None:
    """Checks that need both the run config and the model's federation."""
    if not isinstance(model, (GaussianModelSpec, LogisticModelSpec)):
        raise EngineError(f"unsupported model type {type(model).__name__}")
    w = model.data.weights
    if isinstance(cfg.scheme, (SchemeI, SchemeII)) and not 1 <= cfg.scheme.s <= len(w):
        raise EngineError("partial schemes need 1 <= S <= n_clients")
    if isinstance(cfg.scheme, SchemeII) and np.max(np.abs(w - w[0])) > 1e-12:
        raise EngineError("scheme II requires balanced client weights")


def _initial_thetas(cfg: RunConfig, N: int, d: int, B: int) -> np.ndarray:
    if cfg.init is None:
        return np.zeros((B, N, d))
    init = np.asarray(cfg.init, dtype=np.float64)
    if init.shape != (d,):
        raise EngineError(f"init must have shape ({d},)")
    return np.broadcast_to(init, (B, N, d)).copy()


def _floats_per_iteration(B: int, N: int, d: int, q: float) -> int:
    """Floats per iteration of a noise block: normals, their keys, noise and subsample keys."""
    return B * ((N + 1) * (2 * ((d + 1) // 2) + 1) + N * d + (N if q < 1.0 else 0))


def run_block(cfg: RunConfig, model, replications) -> BlockResult:
    """Run a batch of chains in lockstep; bit-identical to running them one by one."""
    _check_model(cfg, model)
    reps = np.asarray(list(replications), dtype=np.int64)
    weights = model.data.weights
    B, N, d = len(reps), len(weights), model.dim
    T, K, q, seed = cfg.horizon, cfg.local_steps, cfg.subsample_ratio, cfg.master_seed
    etas = step_size(cfg.schedule, np.arange(T))
    thetas = _initial_thetas(cfg, N, d, B)

    records = np.empty((B, T // K + 1, d))
    records[:, 0, :] = synchronize(thetas, weights, FullDevice())

    clients = list(range(N))
    block = max(1, min(T, _BLOCK_BUDGET_FLOATS // max(1, _floats_per_iteration(B, N, d, q))))
    partial = isinstance(cfg.scheme, (SchemeI, SchemeII))

    for k0 in range(0, T, block):
        k1 = min(T, k0 + block)
        iters = np.arange(k0, k1)
        shared = normals_for_keys(key_grid(seed, reps, iters, [SHARED], _NOISE_PURPOSE), d)
        # (B, block, N, d); the private normals are dropped once scaled
        noise = injected_noise(
            shared,
            normals_for_keys(key_grid(seed, reps, iters, clients, _NOISE_PURPOSE), d),
            etas[k0:k1, None, None],
            model.tau,
            cfg.rho,
            weights,
        )
        sub_keys = key_grid(seed, reps, iters, clients, _SUBSAMPLE_PURPOSE) if q < 1.0 else None

        for kb, k in enumerate(range(k0, k1)):
            grads = model_mod.client_grads(model, thetas, q, sub_keys[:, kb] if q < 1.0 else None)
            thetas = local_step(thetas, grads, noise[:, kb], float(etas[k]))
            _check_state(thetas, reps, k)
            if (k + 1) % K == 0:
                sampled = None
                if partial:
                    dev_keys = key_grid(seed, reps, [k + 1], [SHARED], _DEVICE_PURPOSE)[:, 0, 0]
                    sampled = sample_devices(cfg.scheme, weights, dev_keys)
                theta_bar = synchronize(thetas, weights, cfg.scheme, sampled)
                thetas = np.broadcast_to(theta_bar[:, None, :], (B, N, d)).copy()
                records[:, (k + 1) // K, :] = theta_bar

    return BlockResult(records=records)


def _block_task(args):
    cfg, model, rep_slice = args
    return run_block(cfg, model, rep_slice).records


def resolve_workers(workers: Optional[int]) -> int:
    """Map a worker request to a positive count; None/0 means all CPUs."""
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise EngineError(f"worker count must be >= 0 (0 = all CPUs), got {workers}")
    return int(workers)


def run_replicated(cfg: RunConfig, model, R: int, workers: int = 1) -> np.ndarray:
    """R independent chains (replications 0..R-1); returns (R, rounds + 1, d).

    The result is a pure function of (cfg, model, replication id): any worker
    count produces identical bits, replications are merely distributed across
    processes.
    """
    if R < 2:
        raise EngineError("run_replicated needs R >= 2")
    workers = resolve_workers(workers)
    if workers <= 1 or R < 2 * workers:
        return run_block(cfg, model, range(R)).records
    bounds = np.linspace(0, R, workers + 1).astype(int)
    slices = [range(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing only when a pool starts

    with ProcessPoolExecutor(max_workers=len(slices)) as pool:
        parts = list(pool.map(_block_task, [(cfg, model, s) for s in slices]))
    return np.concatenate(parts, axis=0)
