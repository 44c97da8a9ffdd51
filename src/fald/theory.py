"""Convergence bounds and planning rules for FA-LD, evaluated as formulas.

Constants are taken literally from the underlying theorem statements (30, 45,
2, ...); nothing is tuned.  The partial-participation bound follows the
restatement with the explicit round factor C_K = eta m K / (1 - e^{-eta m K/2})
and scheme factor C_S (1 with replacement, (N-S)/(N-1) without), and uses K^2
rather than (K-1)^2 in its middle term; the source states both variants and
the K^2 one is the computable form adopted here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .engine import DecayingStep, FullDevice, Scheme, SchemeI, SchemeII, step_size
from .model import EnergyConstants


class TheoryError(ValueError):
    """Bound evaluated outside its hypotheses."""


@dataclass(frozen=True)
class BoundInputs:
    """Constant bundle feeding every bound evaluator."""

    L: float
    m: float
    D: float
    gamma_het: float
    sigma_sg: float
    tau: float
    d: int
    K: int
    rho: float
    N: int
    min_pc: float
    scheme: Scheme = FullDevice()
    eta: Optional[float] = None

    def __post_init__(self):
        if not (0 < self.m <= self.L):
            raise TheoryError("need 0 < m <= L")
        if self.K < 1 or self.d < 1 or self.N < 1:
            raise TheoryError("need K >= 1, d >= 1, N >= 1")
        if not 0 <= self.rho <= 1:
            raise TheoryError("rho must lie in [0, 1]")
        if not 0 < self.min_pc <= 1:
            raise TheoryError("min_pc must lie in (0, 1]")
        if min(x for x in (self.D, self.gamma_het, self.sigma_sg, self.tau) ) < 0:
            raise TheoryError("D, gamma_het, sigma_sg, tau must be nonnegative")
        if isinstance(self.scheme, (SchemeI, SchemeII)) and not 1 <= self.scheme.s <= self.N:
            raise TheoryError("need 1 <= S <= N")

    @property
    def kappa(self) -> float:
        return self.L / self.m

    def checked_eta(self) -> float:
        if self.eta is None:
            raise TheoryError("this bound needs a fixed step size eta")
        if not 0 < self.eta <= 1.0 / (2.0 * self.L):
            raise TheoryError(
                f"eta = {self.eta:.3e} outside the admissible range (0, {1.0 / (2.0 * self.L):.3e}]"
            )
        return self.eta


def bound_inputs(constants: EnergyConstants, *, tau, d, K, rho, N, min_pc,
                 scheme: Scheme = FullDevice(), eta=None) -> BoundInputs:
    """Assemble BoundInputs from computed energy constants plus run parameters."""
    return BoundInputs(
        L=constants.L, m=constants.m, D=constants.D, gamma_het=constants.gamma_het,
        sigma_sg=constants.sigma_sg, tau=tau, d=d, K=K, rho=rho, N=N, min_pc=min_pc,
        scheme=scheme, eta=eta,
    )


def temperature(tau: float, rho: float, p_c: float) -> float:
    """Effective per-client injected-noise temperature tau (rho^2 + (1-rho^2)/p_c)."""
    if not 0 < p_c <= 1 or not 0 <= rho <= 1:
        raise TheoryError("need p_c in (0, 1] and rho in [0, 1]")
    return tau * (rho * rho + (1.0 - rho * rho) / p_c)


def h_rho(inputs: BoundInputs) -> float:
    """D^2 + max_c T_{c,rho}/m + gamma^2/(m^2 d) + sigma^2/m^2."""
    worst_temp = temperature(inputs.tau, inputs.rho, inputs.min_pc)
    return (
        inputs.D ** 2
        + worst_temp / inputs.m
        + inputs.gamma_het ** 2 / (inputs.m ** 2 * inputs.d)
        + inputs.sigma_sg ** 2 / inputs.m ** 2
    )


def _initial_term(inputs: BoundInputs) -> float:
    return np.sqrt(2.0 * inputs.d) * (inputs.D + np.sqrt(inputs.tau / inputs.m))


def _fixed_step_bound(inputs: BoundInputs, k: int, local: int) -> float:
    """(1 - eta m/4)^k sqrt(2d)(D + sqrt(tau/m)) + 30 kappa sqrt(eta m d) sqrt((local + kappa) H_rho)."""
    eta = inputs.checked_eta()
    kappa = inputs.kappa
    decay = (1.0 - eta * inputs.m / 4.0) ** k
    middle = 30.0 * kappa * np.sqrt(eta * inputs.m * inputs.d) * np.sqrt((local + kappa) * h_rho(inputs))
    return decay * _initial_term(inputs) + middle


def bound_full_fixed(inputs: BoundInputs, k: int) -> float:
    """Full-device fixed-step bound at iteration k, local term (K-1)^2; rho = 0 gives independent noise.

    Scheme I and II raise: `bound_partial` is their bound.
    """
    if not isinstance(inputs.scheme, FullDevice):
        raise TheoryError("the full-device bound holds for full device participation only; use bound_partial")
    return _fixed_step_bound(inputs, k, (inputs.K - 1) ** 2)


def bound_decaying(inputs: BoundInputs, k: int) -> float:
    """Full-device varying-step bound 45 kappa sqrt(((K-1)^2 + kappa) H_0) sqrt(eta_k m d).

    The source states none for partial participation, so scheme I and II raise.
    """
    if not isinstance(inputs.scheme, FullDevice):
        raise TheoryError("the decaying-step bound holds for full device participation only")
    eta_k = step_size(DecayingStep(inputs.L, inputs.m), k)
    h0 = h_rho(replace(inputs, rho=0.0))
    kappa = inputs.kappa
    return 45.0 * kappa * np.sqrt(((inputs.K - 1) ** 2 + kappa) * h0) * np.sqrt(
        eta_k * inputs.m * inputs.d
    )


def round_factor(eta: float, m: float, K: int) -> float:
    """C_K = eta m K / (1 - e^{-eta m K / 2}); continuous, >= 2, increasing."""
    x = eta * m * K
    return x / -np.expm1(-x / 2.0)


def scheme_factor(scheme: Scheme, N: int) -> float:
    """C_S: 1 with replacement, (N-S)/(N-1) without (0 when S = N)."""
    if isinstance(scheme, SchemeI):
        return 1.0
    if isinstance(scheme, SchemeII):
        if scheme.s == N:
            return 0.0
        return (N - scheme.s) / (N - 1)
    raise TheoryError("scheme factor requires a partial scheme")


def bound_partial(inputs: BoundInputs, k: int) -> float:
    """Partial-participation bound: full-device structure (K^2 middle term)
    plus the persistent bias 2 sqrt(C_K d tau (rho^2 + N(1-rho^2)) C_S / (S m))."""
    if not isinstance(inputs.scheme, (SchemeI, SchemeII)):
        raise TheoryError("bound_partial requires scheme I or II")
    S = inputs.scheme.s
    full_device = _fixed_step_bound(inputs, k, inputs.K ** 2)
    rho2 = inputs.rho ** 2
    bias = 2.0 * np.sqrt(
        round_factor(inputs.eta, inputs.m, inputs.K)
        * inputs.d
        * inputs.tau
        / (S * inputs.m)
        * (rho2 + inputs.N * (1.0 - rho2))
        * scheme_factor(inputs.scheme, inputs.N)
    )
    return full_device + bias


def plan_steps(epsilon: float, inputs: BoundInputs):
    """Step size and horizon reaching accuracy epsilon, from the planning rule.

    eta solves 30 kappa sqrt(eta m d) sqrt((K^2 + kappa) H_0) = epsilon / 2,
    capped at 1/(2L); the horizon is the smallest multiple of K at which the
    initialization term decays below epsilon / 2.  Returns (eta, T, rounds).
    The rule has no device-sampling term, so ``inputs.scheme`` is not read.
    """
    if epsilon <= 0:
        raise TheoryError("epsilon must be positive")
    kappa = inputs.kappa
    h0 = h_rho(replace(inputs, rho=0.0))
    eta_star = epsilon ** 2 / (
        3600.0 * kappa ** 2 * inputs.m * inputs.d * (inputs.K ** 2 + kappa) * h0
    )
    eta = min(1.0 / (2.0 * inputs.L), eta_star)
    initial = _initial_term(inputs)
    if initial <= epsilon / 2.0:
        t_eps = 0
    else:
        t_min = 4.0 / (eta * inputs.m) * np.log(2.0 * initial / epsilon)
        t_eps = int(np.ceil(t_min / inputs.K)) * inputs.K
    return eta, t_eps, t_eps // inputs.K


def optimal_local_steps(kappa: float) -> int:
    """Integer K >= 1 minimizing rounds ~ K + kappa / K; ties go to smaller K."""
    if kappa < 1:
        raise TheoryError("kappa must be >= 1")
    base = int(np.floor(np.sqrt(kappa)))
    best_k, best_v = None, None
    for k in range(max(1, base - 2), base + 3):
        v = k + kappa / k
        if best_v is None or v < best_v:
            best_k, best_v = k, v
    return best_k
