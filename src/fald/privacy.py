"""Differential-privacy accountant for FA-LD.

The accountant is a calculator over closed-form (epsilon, delta) guarantees:
per-step Gaussian mechanism with subsampling amplification, K-fold local
composition, device-sampling amplification for both schemes, and round-level
composition.  It never touches the engine; the engine's injected noise is the
mechanism whose budget is computed here.

The minibatch ratio is called q throughout: the source analysis reuses one
symbol for both the heterogeneity measure and the subsample ratio, and the
rename prevents silent misuse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from .engine import Scheme, SchemeI, SchemeII

_EPS_TINY = 1e-12  # below this, (e^eps - 1)/(e^{eps/s} - 1) uses its limit s


class PrivacyError(ValueError):
    """Parameters outside the accountant's admissible range."""


@dataclass(frozen=True)
class DpParams:
    """Inputs of the end-to-end accountant."""

    delta_l: float  # l2-sensitivity of the per-point gradient
    q: float  # minibatch subsample ratio
    eta: float
    tau: float
    rho: float
    min_pc: float
    K: int
    T: int
    N: int
    scheme: Scheme
    delta0: float
    delta1: float
    delta2: float

    def __post_init__(self):
        if self.delta_l <= 0:
            raise PrivacyError("delta_l must be positive")
        if not 0 < self.q <= 1:
            raise PrivacyError("q must lie in (0, 1]")
        if self.eta < 0:
            raise PrivacyError("eta must be nonnegative")
        if self.tau <= 0:
            raise PrivacyError("tau must be positive")
        if not 0 <= self.rho < 1:
            raise PrivacyError("rho must lie in [0, 1): rho = 1 removes the private noise channel")
        if not 0 < self.min_pc <= 1:
            raise PrivacyError("min_pc must lie in (0, 1]")
        if self.K < 1 or self.T < 1 or self.T % self.K != 0:
            raise PrivacyError("T must be a positive multiple of K")
        if not 0 < self.delta0 < 1:
            raise PrivacyError("delta0 must lie in (0, 1)")
        if not 0 <= self.delta1 < 1 or not 0 <= self.delta2 < 1:
            raise PrivacyError("delta1 and delta2 must lie in [0, 1)")
        if isinstance(self.scheme, (SchemeI, SchemeII)) and not 1 <= self.scheme.s <= self.N:
            raise PrivacyError("need 1 <= S <= N")

    @property
    def rounds(self) -> int:
        return self.T // self.K


@dataclass(frozen=True)
class DpBudget:
    epsilon: float
    delta: float
    clamped: bool = False  # delta exceeded 1 and was clamped; budget is meaningless

    def __post_init__(self):
        if self.epsilon < 0 or not 0 <= self.delta <= 1:
            raise PrivacyError("epsilon must be >= 0 and delta in [0, 1]")


def _budget(epsilon: float, delta: float) -> DpBudget:
    """The budget, with delta > 1 clamped to 1 and flagged."""
    return DpBudget(epsilon, min(delta, 1.0), delta > 1.0)


def _advanced(eps: float, k: int, delta: float, middle: float, count: str) -> float:
    """Advanced composition of k eps-DP steps (Dwork, Rothblum & Vadhan, FOCS 2010).

    eps min(sqrt(2 k ln(1/delta)) + middle, k); delta = 0 selects the linear bound k eps.
    A count k < 1 raises, naming k as ``count``.
    """
    if k < 1:
        raise PrivacyError(f"{count} must be >= 1")
    if delta <= 0:
        return eps * k
    return eps * min(math.sqrt(2.0 * k * math.log(1.0 / delta)) + middle, k)


def eta_max_dp(params: DpParams) -> float:
    """Largest admissible step size tau (1-rho^2) q^2 min_pc / (delta_l^2 ln(1.25/delta0))."""
    return (
        params.tau
        * (1.0 - params.rho ** 2)
        * params.q ** 2
        * params.min_pc
        / (params.delta_l ** 2 * math.log(1.25 / params.delta0))
    )


def epsilon_one(params: DpParams) -> float:
    """Per-step budget 2 delta_l sqrt(eta ln(1.25/delta0) / (tau (1-rho^2) min_pc))."""
    limit = eta_max_dp(params)
    if params.eta > limit:
        raise PrivacyError(
            f"eta = {params.eta:.6e} exceeds the admissible maximum eta_max_dp = {limit:.6e}"
        )
    return 2.0 * params.delta_l * math.sqrt(
        params.eta * math.log(1.25 / params.delta0) / (params.tau * (1.0 - params.rho ** 2) * params.min_pc)
    )


def compose_local(epsilon1: float, K: int, q: float, delta0: float, delta1: float) -> DpBudget:
    """K-fold composition of the per-step mechanism inside one round.

    epsilon_K = epsilon1 min(sqrt(2 K ln(1/delta1)) + K (e^{epsilon1} - 1), K);
    delta_K = K q delta0 + delta1.  delta1 = 0 selects the linear branch.
    """
    return _budget(_advanced(epsilon1, K, delta1, K * math.expm1(epsilon1), "K"), K * q * delta0 + delta1)


def _delta_k_s(eps_k: float, s: int, delta_k_s_0: float) -> float:
    if eps_k < _EPS_TINY:
        return s * delta_k_s_0  # limit of (e^x - 1)/(e^{x/s} - 1) as x -> 0
    return math.expm1(eps_k) * delta_k_s_0 / math.expm1(eps_k / s)


def amplify_scheme(
    eps_k: float, scheme: Scheme, N: int, K: int, q: float, delta0: float, delta1: float
) -> DpBudget:
    """Device-sampling amplification of one round's budget.

    Scheme II: eps -> ln(1 + (S/N)(e^eps - 1)), delta -> (S/N)(K q delta0 + delta1).
    Scheme I uses the participation probability 1 - (1 - 1/N)^S on the eps side
    and a binomial mixture over how many of the S draws hit the changed client
    on the delta side.  S is ``scheme.s``; full device is scheme II at S = N (identity on eps).
    """
    if not isinstance(scheme, (SchemeI, SchemeII)):
        raise PrivacyError("device-sampling amplification needs scheme I or II")
    S = scheme.s
    if not 1 <= S <= N:
        raise PrivacyError("need 1 <= S <= N")
    if isinstance(scheme, SchemeI):
        eps_t = math.log1p((1.0 - (1.0 - 1.0 / N) ** S) * math.expm1(eps_k))
        delta_t = 0.0
        for s in range(1, S + 1):
            weight = math.comb(S, s) * (1.0 / N) ** s * (1.0 - 1.0 / N) ** (S - s)
            delta_k_s_0 = 1.25 * K * q * (delta0 / 1.25) ** (1.0 / s ** 2) + delta1
            delta_t += weight * _delta_k_s(eps_k, s, delta_k_s_0)
    else:
        eps_t = math.log1p((S / N) * math.expm1(eps_k))
        delta_t = (S / N) * (K * q * delta0 + delta1)
    return _budget(eps_t, delta_t)


def compose_rounds(eps_tilde: float, delta_tilde: float, rounds: int, delta2: float) -> DpBudget:
    """T/K-fold composition across rounds (generic form).

    eps = eps~ min(sqrt(2 rounds ln(1/delta2)) + rounds (e^{eps~} - 1), rounds);
    delta = rounds delta~ + delta2.  delta2 = 0 selects the linear branch.
    """
    eps = _advanced(eps_tilde, rounds, delta2, rounds * math.expm1(eps_tilde), "rounds")
    return _budget(eps, rounds * delta_tilde + delta2)


def compose_rounds_scheme2(
    eps_tilde: float, eps_k: float, S: int, N: int, T: int, K: int, delta_tilde: float, delta2: float
) -> DpBudget:
    """Scheme II specialization: the middle term uses (T S / (K N)) (e^{eps_K} - 1)."""
    rounds = T // K
    eps = _advanced(eps_tilde, rounds, delta2, (T * S) / (K * N) * math.expm1(eps_k), "rounds")
    return _budget(eps, rounds * delta_tilde + delta2)


def account_report(params: DpParams) -> dict:
    """End-to-end budget (epsilon_total, delta_total, delta_clamped) and every intermediate; full device is scheme II at S = N."""
    eps1 = epsilon_one(params)
    local = compose_local(eps1, params.K, params.q, params.delta0, params.delta1)
    scheme = params.scheme if isinstance(params.scheme, (SchemeI, SchemeII)) else SchemeII(params.N)
    amplified = amplify_scheme(local.epsilon, scheme, params.N, params.K, params.q, params.delta0, params.delta1)
    total = compose_rounds(amplified.epsilon, amplified.delta, params.rounds, params.delta2)
    report = {
        "eta_max_dp": eta_max_dp(params),
        "epsilon_1": eps1,
        "epsilon_K": local.epsilon,
        "delta_K": local.delta,
        "epsilon_tilde_K": amplified.epsilon,
        "delta_tilde_K": amplified.delta,
        "epsilon_total": total.epsilon,
        "delta_total": total.delta,
        "delta_clamped": local.clamped or amplified.clamped or total.clamped,
    }
    if isinstance(scheme, SchemeII):
        spec = compose_rounds_scheme2(
            amplified.epsilon, local.epsilon, scheme.s, params.N, params.T, params.K,
            amplified.delta, params.delta2,
        )
        report["epsilon_total_scheme2_form"] = spec.epsilon
    return report


DEFAULT_RHO_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)


def budget_search(eps_star: float, delta_star: float, params: DpParams) -> Optional[Tuple[float, int]]:
    """Largest (rho, S) on DEFAULT_RHO_GRID x 1..N meeting both budgets; lexicographic in (rho, S).

    Grid points where eta is inadmissible count as infeasible.  Returns None
    when nothing on the grid fits.
    """
    if eps_star <= 0 or delta_star <= 0:
        raise PrivacyError("budgets must be positive")
    scheme_type = SchemeII if not isinstance(params.scheme, SchemeI) else SchemeI
    for rho in sorted(DEFAULT_RHO_GRID, reverse=True):
        for S in range(params.N, 0, -1):
            trial = replace(params, rho=rho, scheme=scheme_type(S))
            if trial.eta > eta_max_dp(trial):
                continue
            report = account_report(trial)
            if report["delta_clamped"]:
                continue
            if report["epsilon_total"] <= eps_star and report["delta_total"] <= delta_star:
                return rho, S
    return None
