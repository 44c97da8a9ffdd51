"""Federated averaging Langevin chains with correlated noise and device sampling.

Each client runs K local noisy-gradient steps between synchronizations; the
injected noise mixes a shared Gaussian vector (weight rho) with a private
per-client one (weight sqrt(1-rho^2)/sqrt(p_c)).  Synchronization averages the
participating clients and broadcasts the result to everyone.  A chain's one
output is that synchronized state at each communication round.

Determinism contract: a chain's trajectory is a pure function of
(config, model, replication id).  All randomness comes from counter-based
streams and every reduction that mixes clients or coordinates runs in fixed
index order, so replications, and the points of a sweep, can be batched or
distributed across processes in any way without changing a single bit.
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

    Coordinate-major, clients last: ``shared`` (d, ..., 1) holds the normals
    common to all clients and ``private`` (d, ..., N) one column per client;
    ``weights`` are the N client weights p_c.  ``eta`` and ``rho`` are scalars
    or arrays broadcasting against the (d, ..., N) result, such as one step
    size per iteration shaped (T, 1, 1).  Both terms are formed even at rho in
    {0, 1}, so the engine always draws both sets of normals and its stream
    layout does not depend on rho.
    """
    eta, rho = np.asarray(eta, dtype=np.float64), np.asarray(rho, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if np.any(eta <= 0) or tau < 0 or np.any((rho < 0) | (rho > 1)) or np.any(weights <= 0) or np.any(weights > 1):
        raise EngineError("invalid noise parameters")
    shared_scale = np.sqrt(2.0 * eta * tau * rho * rho)
    private_scale = np.sqrt(2.0 * eta * tau * (1.0 - rho * rho) / weights)
    noise = private_scale * private
    noise += shared_scale * shared
    return noise


def local_step(theta, grad_estimate, noise, eta, out=None) -> np.ndarray:
    """theta - eta * gradient estimate + injected noise, written to ``out`` when given.

    ``out`` may be ``grad_estimate``'s buffer, not ``theta``'s.
    """
    out = np.multiply(eta, grad_estimate, out=out)
    np.subtract(theta, out, out=out)
    out += noise
    return out


def device_weights(scheme: Scheme, weights: np.ndarray, keys=None) -> np.ndarray:
    """Each client's aggregation weight at one synchronization, one row per stream key.

    Full device gives the client weights p_c (``keys`` may be None).  Scheme I
    makes S categorical draws by p_c (duplicates possible) and scheme II takes
    a uniform without-replacement S-subset; each draw adds 1/S, so a client
    drawn twice weighs 2/S.  Output shape keys.shape + (N,).
    """
    n = len(weights)
    if isinstance(scheme, FullDevice):
        return np.broadcast_to(weights, np.shape(keys) + (n,))
    if isinstance(scheme, SchemeI):
        u = uniforms_for_keys(keys, scheme.s)
        drawn = np.minimum(np.searchsorted(np.cumsum(weights), u.ravel(), side="right"), n - 1).reshape(u.shape)
    elif scheme.s > n:
        raise EngineError("scheme II cannot select more devices than exist")
    else:
        drawn = model_mod.subsample_indices(keys, n, scheme.s)
    w = np.zeros(drawn.shape[:-1] + (n,))
    np.add.at(w, (*np.indices(drawn.shape)[:-1], drawn), 1.0 / scheme.s)
    return w


def synchronize(betas: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Aggregate client states: sum_c w_c beta^c.

    ``betas`` is coordinate-major (d, ..., N), the result (d, ...), and ``w``
    broadcasts against (..., N), such as the output of `device_weights`.
    Clients are accumulated in index order, each product added to the sum,
    so the result does not depend on how the other axes are batched.
    """
    w = np.broadcast_to(w, betas.shape[1:])
    out = w[..., 0] * betas[..., 0]
    term = np.empty_like(out)
    for c in range(1, betas.shape[-1]):
        out += np.multiply(w[..., c], betas[..., c], out=term)
    return out


# ---------------------------------------------------------------------------
# chain execution


def _check_state(thetas, reps, iteration) -> Optional[ChainDivergenceError]:
    """The divergence in one point's (d, B, N) state, or None.

    That is the first NaN, else the largest |theta|, in (replication, client,
    coordinate) order.
    """
    size = np.abs(np.moveaxis(thetas, 0, -1))  # (B, N, d), so argwhere scans in that order
    # max() propagates NaN, so one reduction covers both guards
    worst = float(size.max())
    if not np.isfinite(worst):
        b, c = np.argwhere(~np.isfinite(size))[0][:2]
        return ChainDivergenceError(int(reps[b]), iteration, int(c), np.nan, kind="nan")
    if worst > DIVERGENCE_LIMIT:
        b, c = np.argwhere(size == worst)[0][:2]
        return ChainDivergenceError(int(reps[b]), iteration, int(c), worst)


def _check_points(cfgs, models) -> None:
    """Checks that every point fits its model and that the points can share their streams."""
    for cfg, model in zip(cfgs, models):
        if not isinstance(model, (GaussianModelSpec, LogisticModelSpec)):
            raise EngineError(f"unsupported model type {type(model).__name__}")
        w = model.data.weights
        if isinstance(cfg.scheme, (SchemeI, SchemeII)) and not 1 <= cfg.scheme.s <= len(w):
            raise EngineError("partial schemes need 1 <= S <= n_clients")
        if isinstance(cfg.scheme, SchemeII) and np.max(np.abs(w - w[0])) > 1e-12:
            raise EngineError("scheme II requires balanced client weights")
    shared = {(c.horizon, c.master_seed, c.subsample_ratio, m.tau, m.data.counts.tobytes(), m.data.weights.tobytes())
              for c, m in zip(cfgs, models)}
    if len(shared) != 1 or len(cfgs) != len(models):
        raise EngineError("sweep points need one model each and a common horizon, seed, subsample_ratio, tau and clients")


def _initial_thetas(cfg: RunConfig, N: int, d: int, B: int) -> np.ndarray:
    """Every client's start, coordinate-major (d, B, N)."""
    if cfg.init is None:
        return np.zeros((d, B, N))
    init = np.asarray(cfg.init, dtype=np.float64)
    if init.shape != (d,):
        raise EngineError(f"init must have shape ({d},)")
    return np.broadcast_to(init[:, None, None], (d, B, N))


def _floats_per_iteration(B: int, N: int, d: int, q: float, P: int = 1) -> int:
    """Floats per iteration of a noise block: normals, their keys, P points' noise and subsample keys.

    The normals count as the 2 ceil(d/2) uniforms they are drawn from.  The
    keys are drawn replication-major and read through an iteration-major view,
    so they are held once.
    """
    return B * ((N + 1) * (2 * ((d + 1) // 2) + 1) + P * N * d + (N if q < 1.0 else 0))


def _lockstep(cfgs, models, replications) -> list:
    """Run the points (cfgs[i], models[i]) of a sweep in lockstep; one outcome per point.

    An outcome is the point's (B, rounds + 1, d) records or the
    ChainDivergenceError that `run_block` on that point alone raises; a
    diverged point leaves the stack and the others go on.  Each block's noise
    normals and subsample keys and each sync's device keys are drawn once for
    all points.  The states are stacked coordinate-major as (d, P, B, N), so
    every kernel runs over whole (P, B, N) planes, and each step's noise is
    d such planes of the (d, block, P, B, N) noise block; every operation is
    elementwise across points, so each point keeps the bits of its own run.
    """
    _check_points(cfgs, models)
    reps = np.asarray(list(replications), dtype=np.int64)
    model, weights = models[0], models[0].data.weights
    P, B, N, d = len(cfgs), len(reps), len(weights), model.dim
    T, q, seed = cfgs[0].horizon, cfgs[0].subsample_ratio, cfgs[0].master_seed
    etas = np.stack([step_size(cfg.schedule, np.arange(T)) for cfg in cfgs])  # (P, T)
    rhos = np.array([cfg.rho for cfg in cfgs])
    thetas = np.stack([_initial_thetas(cfg, N, d, B) for cfg in cfgs], axis=1)
    grads = np.empty_like(thetas)  # the step writes here, then the two buffers swap
    outcomes = [np.empty((B, T // cfg.local_steps + 1, d)) for cfg in cfgs]
    for p in range(P):
        outcomes[p][:, 0, :] = synchronize(thetas[:, p], weights).T
    live = list(range(P))  # the point of each row of the stack
    one_model = all(m is model for m in models)  # else (an alpha sweep) one gradient call per point

    block = max(1, min(T, _BLOCK_BUDGET_FLOATS // max(1, _floats_per_iteration(B, N, d, q, P))))

    for k0 in range(0, T, block):
        k1 = min(T, k0 + block)
        iters = np.arange(k0, k1)
        # the key grids viewed iteration-major, so that each step's noise, noise[:, kb], is d whole (P, B, N) planes
        shared = normals_for_keys(key_grid(seed, reps, iters, [SHARED], _NOISE_PURPOSE).transpose(1, 0, 2), d)
        private = normals_for_keys(key_grid(seed, reps, iters, range(N), _NOISE_PURPOSE).transpose(1, 0, 2), d)
        # (d, block, P, B, N); the private normals are dropped once scaled
        noise = injected_noise(shared[:, :, None], private[:, :, None], etas[:, k0:k1].T[:, :, None, None], model.tau,
                               rhos[:, None, None], weights)
        del private
        sub_keys = key_grid(seed, reps, iters, range(N), _SUBSAMPLE_PURPOSE) if q < 1.0 else None

        for kb, k in enumerate(range(k0, k1)):
            keys = sub_keys[:, kb] if q < 1.0 else None
            if one_model:
                model_mod.client_grads(model, thetas, q, keys, out=grads)
            else:
                for i, p in enumerate(live):
                    model_mod.client_grads(models[p], thetas[:, i], q, keys, out=grads[:, i])
            thetas, grads = local_step(thetas, grads, noise[:, kb], etas[:, k, None, None], out=grads), thetas
            # grads is free until the next gradient; NaN fails the comparison too
            if not np.abs(thetas, out=grads).max() <= DIVERGENCE_LIMIT:
                errors = [_check_state(thetas[:, i], reps, k) for i in range(len(live))]
                for p, err in zip(live, errors):
                    outcomes[p] = err or outcomes[p]
                keep = [i for i, err in enumerate(errors) if err is None]
                if not keep:
                    return outcomes
                live = [live[i] for i in keep]
                thetas, noise, etas, rhos = thetas[:, keep], noise[:, :, keep], etas[keep], rhos[keep]
                grads = np.empty_like(thetas)
            dev_keys = None
            for i, p in enumerate(live):
                cfg = cfgs[p]
                if (k + 1) % cfg.local_steps:
                    continue
                if dev_keys is None and cfg.scheme != FullDevice():
                    dev_keys = key_grid(seed, reps, [k + 1], [SHARED], _DEVICE_PURPOSE)[:, 0, 0]
                theta_bar = synchronize(thetas[:, i], device_weights(cfg.scheme, weights, dev_keys))
                thetas[:, i] = theta_bar[:, :, None]
                outcomes[p][:, (k + 1) // cfg.local_steps, :] = theta_bar.T

    return outcomes


def _records_or_raise(outcome) -> np.ndarray:
    if isinstance(outcome, ChainDivergenceError):
        raise outcome
    return outcome


def run_block(cfg: RunConfig, model, replications) -> BlockResult:
    """Run a batch of chains in lockstep; bit-identical to running them one by one."""
    return BlockResult(records=_records_or_raise(_lockstep([cfg], [model], replications)[0]))


def resolve_workers(workers: Optional[int]) -> int:
    """Map a worker request to a positive count; None/0 means all CPUs."""
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise EngineError(f"worker count must be >= 0 (0 = all CPUs), got {workers}")
    return int(workers)


def run_sweep(cfgs, models, R: int, workers: int = 1) -> list:
    """The points (cfgs[i], models[i]) of a sweep on replications 0..R-1, in one lockstep batch.

    One outcome per point, its (R, rounds + 1, d) records or the
    ChainDivergenceError that stopped it, as a pure function of (cfg, model,
    R): any worker count gives the same bits and the same error.
    """
    if R < 2:
        raise EngineError(f"a replicated run needs R >= 2 replications, got {R}")
    workers = resolve_workers(workers)
    if workers <= 1 or R < 2 * workers:
        return _lockstep(cfgs, models, range(R))
    _check_points(cfgs, models)
    bounds = np.linspace(0, R, workers + 1).astype(int)
    slices = [range(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing only when a pool starts

    with ProcessPoolExecutor(max_workers=len(slices)) as pool:
        parts = list(pool.map(_lockstep, [cfgs] * len(slices), [models] * len(slices), slices))
    outcomes = []
    for point in zip(*parts):
        errors = [part for part in point if isinstance(part, ChainDivergenceError)]
        # the error one block over every replication raises: the earliest iteration, NaN before
        # runaway, then the largest value; min() keeps the first of equals, i.e. the first slice
        outcomes.append(np.concatenate(point, axis=0) if not errors else min(
            errors, key=lambda e: (e.iteration, e.kind != "nan", 0.0 if e.kind == "nan" else -e.value)))
    return outcomes


def run_replicated(cfg: RunConfig, model, R: int, workers: int = 1) -> np.ndarray:
    """R independent chains (replications 0..R-1); returns (R, rounds + 1, d); `run_sweep` of one point."""
    return _records_or_raise(run_sweep([cfg], [model], R, workers)[0])
