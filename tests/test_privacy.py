import math
from dataclasses import replace

import mpmath as mp
import pytest

from fald.engine import FullDevice, SchemeI, SchemeII
from fald.privacy import (
    DpParams,
    PrivacyError,
    account_report,
    amplify_scheme,
    budget_search,
    compose_local,
    compose_rounds,
    compose_rounds_scheme2,
    epsilon_one,
    eta_max_dp,
)

mp.mp.dps = 60

DESK = dict(delta_l=1.0, q=0.1, eta=5e-6, tau=1.0, rho=0.0, min_pc=0.1,
            K=10, T=1000, N=10, scheme=SchemeII(10), delta0=1e-5, delta1=1e-6, delta2=1e-6)


def desk(**over):
    merged = dict(DESK)
    merged.update(over)
    return DpParams(**merged)


# ---------------------------------------------------------------------------
# admissible step size and per-step budget


def test_eta_max_golden():
    params = desk(eta=0.0, q=0.1, rho=0.0, min_pc=0.1, tau=1.0, delta_l=1.0, delta0=1e-5)
    expected = mp.mpf(1) * (1 - 0) * mp.mpf("0.01") * mp.mpf("0.1") / mp.log(mp.mpf("1.25e5"))
    assert eta_max_dp(params) == pytest.approx(float(expected), rel=1e-14)


def test_eta_max_linear_in_tau():
    assert eta_max_dp(desk(tau=2.0)) == pytest.approx(2 * eta_max_dp(desk()), rel=1e-14)


def test_eta_max_inverse_square_in_sensitivity():
    assert eta_max_dp(desk(delta_l=2.0)) == pytest.approx(eta_max_dp(desk()) / 4, rel=1e-14)


def test_rho_one_rejected():
    with pytest.raises(PrivacyError, match="rho"):
        desk(rho=1.0)


def test_epsilon_one_golden_high_precision():
    params = desk(eta=1e-4, q=0.5, delta_l=1.0, delta0=1e-5, tau=1.0, rho=0.0, min_pc=0.1)
    expected = 2 * mp.sqrt(mp.mpf("1e-4") * mp.log(mp.mpf("1.25e5")) / mp.mpf("0.1"))
    got = epsilon_one(params)
    assert abs(got - float(expected)) / float(expected) < 1e-12
    assert got == pytest.approx(0.21666, rel=1e-4)


def test_eta_max_dp_rejects_a_delta_l_whose_square_underflows():
    with pytest.raises(PrivacyError, match=r"^delta_l = 1e-300 is too small"):
        eta_max_dp(desk(delta_l=1e-300))


def test_epsilon_one_sqrt_eta_scaling():
    base = epsilon_one(desk(eta=1e-6))
    assert epsilon_one(desk(eta=4e-6)) == pytest.approx(2 * base, rel=1e-12)


def test_epsilon_one_vanishes_with_eta():
    assert epsilon_one(desk(eta=0.0)) == 0.0


def test_epsilon_one_rejects_inadmissible_eta():
    params = desk(eta=1.0)
    with pytest.raises(PrivacyError, match="eta_max_dp"):
        epsilon_one(params)


# ---------------------------------------------------------------------------
# local composition


def test_single_step_basic_branch_is_identity():
    budget = compose_local(0.3, K=1, q=0.1, delta0=1e-6, delta1=0.0)
    assert budget.epsilon == pytest.approx(0.3, rel=1e-15)
    assert budget.delta == pytest.approx(0.1 * 1e-6, rel=1e-15)


def test_large_epsilon_takes_linear_branch():
    budget = compose_local(5.0, K=20, q=0.1, delta0=1e-6, delta1=1e-6)
    assert budget.epsilon == pytest.approx(100.0, rel=1e-12)


def test_compose_local_golden():
    e1, K, d1 = mp.mpf("0.01"), 100, mp.mpf("1e-6")
    advanced = mp.sqrt(2 * K * mp.log(1 / d1)) + K * (mp.e ** e1 - 1)
    expected = e1 * min(advanced, K)
    got = compose_local(0.01, 100, 0.1, 1e-6, 1e-6)
    assert got.epsilon == pytest.approx(float(expected), rel=1e-12)
    assert got.delta == pytest.approx(float(100 * mp.mpf("0.1") * mp.mpf("1e-6") + d1), rel=1e-12)


# ---------------------------------------------------------------------------
# device-sampling amplification


def test_scheme2_full_participation_identity():
    budget = amplify_scheme(0.37, SchemeII(10), 10, 5, 0.2, 1e-6, 0.0)
    assert budget.epsilon == pytest.approx(0.37, rel=1e-12)


def test_scheme2_vanishing_rate_kills_epsilon():
    eps = [amplify_scheme(0.5, SchemeII(s), 1000, 5, 0.2, 1e-6, 0.0).epsilon for s in (100, 10, 1)]
    assert eps[0] > eps[1] > eps[2]
    assert eps[2] < 0.001


def test_amplify_scheme_rejects_full_device():
    with pytest.raises(PrivacyError, match="scheme I or II"):
        amplify_scheme(0.5, FullDevice(), 10, 5, 0.2, 1e-6, 0.0)


def test_scheme2_rounds_need_one_round():
    # T = 1 < K = 3 leaves no communication round to compose
    with pytest.raises(PrivacyError, match="rounds must be >= 1"):
        compose_rounds_scheme2(0.5, 0.5, 2, 7, 1, 3, 1e-9, 1e-6)


def test_scheme1_binomial_golden():
    N, S, eps_k, K, q, d0 = 10, 3, mp.mpf("0.5"), 10, mp.mpf("0.1"), mp.mpf("1e-6")
    eps_expected = mp.log(1 + (1 - (1 - mp.mpf(1) / N) ** S) * (mp.e ** eps_k - 1))
    delta_expected = mp.mpf(0)
    for s in range(1, S + 1):
        weight = mp.binomial(S, s) * (mp.mpf(1) / N) ** s * (1 - mp.mpf(1) / N) ** (S - s)
        d_ks0 = mp.mpf("1.25") * K * q * (d0 / mp.mpf("1.25")) ** (mp.mpf(1) / s ** 2)
        d_ks = (mp.e ** eps_k - 1) * d_ks0 / (mp.e ** (eps_k / s) - 1)
        delta_expected += weight * d_ks
    got = amplify_scheme(0.5, SchemeI(3), 10, 10, 0.1, 1e-6, 0.0)
    assert got.epsilon == pytest.approx(float(eps_expected), rel=1e-12)
    assert got.delta == pytest.approx(float(delta_expected), rel=1e-12)


def test_scheme1_tiny_epsilon_uses_analytic_limit():
    got = amplify_scheme(0.0, SchemeI(3), 10, 10, 0.1, 1e-6, 0.0)
    assert got.epsilon == 0.0
    assert math.isfinite(got.delta) and got.delta > 0


# ---------------------------------------------------------------------------
# round composition


def test_single_round_linear_branch_identity():
    budget = compose_rounds(0.42, 1e-7, rounds=1, delta2=0.0)
    assert budget.epsilon == pytest.approx(0.42, rel=1e-15)
    assert budget.delta == pytest.approx(1e-7, rel=1e-15)


def test_round_composition_sqrt2_growth_in_small_eps_regime():
    eps_t = 0.005
    a = compose_rounds(eps_t, 0.0, rounds=100, delta2=1e-6)
    b = compose_rounds(eps_t, 0.0, rounds=200, delta2=1e-6)
    assert b.epsilon / a.epsilon == pytest.approx(math.sqrt(2), rel=0.10)


def test_delta_chain_identity_scheme2():
    # total delta = (S/N) q T delta0 + (T S / (K N)) delta1 + delta2 exactly
    params = desk(eta=0.0, scheme=SchemeII(4), delta1=1e-7, delta2=1e-8)
    budget = account_report(params)
    S, N, T, K = 4, params.N, params.T, params.K
    expected = (
        mp.mpf(S) / N * mp.mpf(params.q) * T * mp.mpf(params.delta0)
        + mp.mpf(T) * S / (K * N) * mp.mpf(params.delta1)
        + mp.mpf(params.delta2)
    )
    assert budget["delta_total"] == pytest.approx(float(expected), rel=1e-12)
    assert budget["epsilon_total"] == 0.0


# ---------------------------------------------------------------------------
# the three composition forms against 50-digit arithmetic

# form -> (its epsilon at (eps, k, delta), its exact middle term); q, delta0 and delta_tilde
# set only the delta side, and the scheme II form runs S = 2 of N = 7 with K = 3 and eps_K = 1.5 eps
COMPOSITION_FORMS = {
    "local": (lambda eps, k, delta: compose_local(eps, k, 0.1, 1e-6, delta), lambda eps, k: k * mp.expm1(eps)),
    "rounds": (lambda eps, k, delta: compose_rounds(eps, 1e-9, k, delta), lambda eps, k: k * mp.expm1(eps)),
    "scheme2": (
        lambda eps, k, delta: compose_rounds_scheme2(eps, 1.5 * eps, 2, 7, 3 * k, 3, 1e-9, delta),
        lambda eps, k: mp.mpf(3 * k * 2) / (3 * 7) * mp.expm1(1.5 * eps),
    ),
}


@pytest.mark.parametrize("form", sorted(COMPOSITION_FORMS))
def test_each_composition_form_is_within_4_ulp_of_50_digit_arithmetic(form):
    composed, middle = COMPOSITION_FORMS[form]
    branches = set()
    with mp.workdps(50):
        for eps in (1e-9, 1e-4, 0.05, 0.7, 3.0):
            for k in (1, 7, 100, 1000):
                for delta in (0.0, 1e-12, 1e-6, 0.3):
                    if delta == 0:
                        branch, factor = "linear", mp.mpf(k)
                    else:
                        advanced = mp.sqrt(2 * k * mp.log(1 / mp.mpf(delta))) + middle(eps, k)
                        branch, factor = ("advanced", advanced) if advanced < k else ("count", mp.mpf(k))
                    branches.add(branch)
                    expected = mp.mpf(eps) * factor
                    got = composed(eps, k, delta).epsilon
                    assert abs(got - expected) <= 4 * math.ulp(float(expected)), (form, eps, k, delta)
    assert branches == {"linear", "advanced", "count"}  # delta = 0 and both sides of the min


# ---------------------------------------------------------------------------
# end-to-end account


def mp_account_scheme2(v):
    eta, tau, rho, min_pc = (mp.mpf(repr(v[k])) for k in ("eta", "tau", "rho", "min_pc"))
    dl, q = mp.mpf(repr(v["delta_l"])), mp.mpf(repr(v["q"]))
    d0, d1, d2 = (mp.mpf(repr(v[k])) for k in ("delta0", "delta1", "delta2"))
    K, T, N, S = v["K"], v["T"], v["N"], v["scheme"].s
    e1 = 2 * dl * mp.sqrt(eta * mp.log(mp.mpf("1.25") / d0) / (tau * (1 - rho ** 2) * min_pc))
    adv = mp.sqrt(2 * K * mp.log(1 / d1)) + K * (mp.e ** e1 - 1)
    eK = e1 * min(adv, K)
    dK = K * q * d0 + d1
    eT = mp.log(1 + mp.mpf(S) / N * (mp.e ** eK - 1))
    dT = mp.mpf(S) / N * dK
    rounds = T // K
    adv2 = mp.sqrt(2 * rounds * mp.log(1 / d2)) * eT + rounds * eT * (mp.e ** eT - 1)
    eps = min(adv2, rounds * eT)
    delta = rounds * dT + d2
    return float(eps), float(delta)


def test_account_desk_golden():
    params = desk(scheme=SchemeII(5))
    budget = account_report(params)
    eps, delta = mp_account_scheme2(dict(DESK, scheme=SchemeII(5)))
    assert budget["epsilon_total"] == pytest.approx(eps, rel=1e-12)
    assert budget["delta_total"] == pytest.approx(delta, rel=1e-12)


def test_account_monotone_ladders():
    base = desk()
    eps0 = account_report(base)["epsilon_total"]
    for field, values in (
        ("eta", (1e-6, 2e-6, 4e-6)),
        ("T", (100, 1000, 10000)),
        ("delta_l", (0.5, 1.0, 2.0)),
    ):
        ladder = [account_report(desk(**{field: v}))["epsilon_total"] for v in values]
        assert ladder[0] < ladder[1] < ladder[2], field
    s_ladder = [account_report(desk(scheme=SchemeII(s)))["epsilon_total"] for s in (2, 5, 10)]
    assert s_ladder[0] < s_ladder[1] < s_ladder[2]
    tau_ladder = [account_report(desk(tau=t, eta=1e-6))["epsilon_total"] for t in (1.0, 2.0, 4.0)]
    assert tau_ladder[0] > tau_ladder[1] > tau_ladder[2]
    rho_ladder = [account_report(desk(rho=r, eta=1e-7))["epsilon_total"] for r in (0.0, 0.5, 0.9)]
    assert rho_ladder[0] < rho_ladder[1] < rho_ladder[2]


def test_account_diverges_toward_rho_one():
    lo = account_report(desk(rho=0.0, eta=1e-8))["epsilon_total"]
    hi = account_report(desk(rho=0.999, eta=1e-8))["epsilon_total"]
    assert hi > 10 * lo


def test_account_eta_zero_boundary():
    budget = account_report(desk(eta=0.0))
    assert budget["epsilon_total"] == 0.0
    assert 0 < budget["delta_total"] < 1


def test_composed_epsilon_never_beats_linear_branch():
    for eta in (1e-7, 1e-6, 5e-6):
        params = desk(eta=eta)
        rep = account_report(params)
        rounds = params.T // params.K
        assert rep["epsilon_total"] <= rounds * rep["epsilon_tilde_K"] + 1e-15
        assert rep["epsilon_K"] <= params.K * rep["epsilon_1"] + 1e-15


def test_report_contains_both_round_composition_forms():
    rep = account_report(desk(scheme=SchemeII(5)))
    assert "epsilon_total_scheme2_form" in rep
    spec_form = compose_rounds_scheme2(
        rep["epsilon_tilde_K"], rep["epsilon_K"], 5, DESK["N"], DESK["T"], DESK["K"],
        rep["delta_tilde_K"], DESK["delta2"],
    )
    assert rep["epsilon_total_scheme2_form"] == pytest.approx(spec_form.epsilon, rel=1e-15)


def test_full_device_accounts_as_scheme2_all_devices():
    full = account_report(desk(scheme=FullDevice()))
    s_n = account_report(desk(scheme=SchemeII(10)))
    assert full["epsilon_total"] == pytest.approx(s_n["epsilon_total"], rel=1e-15)
    assert full["delta_total"] == pytest.approx(s_n["delta_total"], rel=1e-15)


def test_delta_clamp_flag():
    budget = compose_rounds(0.1, 0.9, rounds=100, delta2=0.5)
    assert budget.delta == 1.0
    assert budget.clamped


# ---------------------------------------------------------------------------
# budget search


def test_budget_search_unconstrained_returns_largest_grid_point():
    params = desk(eta=1e-8)
    assert budget_search(math.inf, 1.0, params) == (0.99, 10)


def test_budget_search_zero_budget_infeasible():
    params = desk(eta=1e-8)
    assert budget_search(1e-12, 1.0, params) is None


def test_budget_search_matches_exhaustive_enumeration():
    params = desk(eta=2e-7, T=1000)
    eps_star, delta_star = 3.0, 2e-3
    got = budget_search(eps_star, delta_star, params)

    best = None
    from fald.privacy import DEFAULT_RHO_GRID

    for rho in DEFAULT_RHO_GRID:
        for S in range(1, params.N + 1):
            trial = replace(params, rho=rho, scheme=SchemeII(S))
            if trial.eta > eta_max_dp(trial):
                continue
            budget = account_report(trial)
            if budget["delta_clamped"] or budget["epsilon_total"] > eps_star or budget["delta_total"] > delta_star:
                continue
            if best is None or (rho, S) > best:
                best = (rho, S)
    assert got == best
    assert got is not None


def test_budget_search_respects_admissibility():
    # eta admissible at rho=0 only; large rho grid points must be skipped
    params = desk(eta=eta_max_dp(desk()) * 0.9)
    found = budget_search(math.inf, 1.0, params)
    assert found is not None
    rho, s = found
    trial = replace(params, rho=rho, scheme=SchemeII(s))
    assert trial.eta <= eta_max_dp(trial)
