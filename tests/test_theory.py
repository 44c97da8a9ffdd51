import mpmath as mp
import numpy as np
import pytest

from fald.engine import FullDevice, SchemeI, SchemeII
from fald.theory import (
    BoundInputs,
    TheoryError,
    bound_decaying,
    bound_full_fixed,
    bound_partial,
    h_rho,
    optimal_local_steps,
    plan_steps,
    round_factor,
    scheme_factor,
    temperature,
)

mp.mp.dps = 50

# the pinned evaluation point: d=2, D=1, tau=1, m=1, L=2, K=1, rho=0,
# two uniform clients, no heterogeneity or gradient noise, eta=1/4
PINNED = dict(L=2.0, m=1.0, D=1.0, gamma_het=0.0, sigma_sg=0.0, tau=1.0,
              d=2, K=1, rho=0.0, N=2, min_pc=0.5, eta=0.25)

# desk-scale constants resembling the Gaussian simulation federation
DESK = dict(L=1165.7, m=34.31, D=0.21, gamma_het=650.0, sigma_sg=0.0, tau=1.0,
            d=2, K=10, rho=0.0, N=10, min_pc=0.1, eta=1e-4)


def mp_h_rho(v):
    worst = mp.mpf(v["tau"]) * (mp.mpf(v["rho"]) ** 2 + (1 - mp.mpf(v["rho"]) ** 2) / mp.mpf(v["min_pc"]))
    return (
        mp.mpf(v["D"]) ** 2
        + worst / mp.mpf(v["m"])
        + mp.mpf(v["gamma_het"]) ** 2 / (mp.mpf(v["m"]) ** 2 * v["d"])
        + mp.mpf(v["sigma_sg"]) ** 2 / mp.mpf(v["m"]) ** 2
    )


def mp_bound_full(v, k):
    eta, m, d = mp.mpf(v["eta"]), mp.mpf(v["m"]), mp.mpf(v["d"])
    kappa = mp.mpf(v["L"]) / m
    init = mp.sqrt(2 * d) * (mp.mpf(v["D"]) + mp.sqrt(mp.mpf(v["tau"]) / m))
    asym = 30 * kappa * mp.sqrt(eta * m * d) * mp.sqrt(((v["K"] - 1) ** 2 + kappa) * mp_h_rho(v))
    return (1 - eta * m / 4) ** k * init + asym


# ---------------------------------------------------------------------------
# temperature and H


def test_temperature_rho_one_is_tau():
    assert temperature(0.7, 1.0, 0.05) == pytest.approx(0.7, rel=1e-15)


def test_temperature_rho_zero_is_tau_over_weight():
    assert temperature(1.0, 0.0, 0.2) == pytest.approx(5.0, rel=1e-15)


def test_temperature_single_client_always_tau():
    for rho in (0.0, 0.3, 1.0):
        assert temperature(2.0, rho, 1.0) == pytest.approx(2.0, rel=1e-15)


def test_h_rho_single_surviving_term():
    inp = BoundInputs(L=2.0, m=1.0, D=0.0, gamma_het=0.0, sigma_sg=0.0, tau=0.8,
                      d=3, K=1, rho=1.0, N=4, min_pc=0.25)
    assert h_rho(inp) == pytest.approx(0.8, rel=1e-15)


def test_h_rho_injected_noise_uses_smallest_weight():
    inp = BoundInputs(L=2.0, m=2.0, D=0.0, gamma_het=0.0, sigma_sg=0.0, tau=1.0,
                      d=2, K=1, rho=0.0, N=3, min_pc=0.1)
    assert h_rho(inp) == pytest.approx(1.0 / (2.0 * 0.1), rel=1e-15)


def test_h_rho_desk_golden():
    inp = BoundInputs(**DESK, scheme=FullDevice())
    assert h_rho(inp) == pytest.approx(float(mp_h_rho(DESK)), rel=1e-12)


# ---------------------------------------------------------------------------
# fixed-step full-device bound


def test_bound_pinned_golden_value():
    inp = BoundInputs(**PINNED)
    # at k=0 the value is 4 + 60 sqrt(3) exactly
    expected = float(4 + 60 * mp.sqrt(3))
    assert bound_full_fixed(inp, 0) == pytest.approx(expected, rel=1e-12)


def test_bound_geometric_decay_limit():
    inp = BoundInputs(**DESK)
    tail = bound_full_fixed(inp, 10**7)
    asym = float(mp_bound_full(DESK, mp.inf)) if False else None
    kappa = DESK["L"] / DESK["m"]
    expected = 30 * kappa * np.sqrt(DESK["eta"] * DESK["m"] * DESK["d"]) * np.sqrt(
        ((DESK["K"] - 1) ** 2 + kappa) * h_rho(inp)
    )
    assert tail == pytest.approx(expected, rel=1e-9)


def test_bound_sqrt_eta_scaling_of_asymptote():
    half = dict(DESK, eta=DESK["eta"] / 2, K=1)
    full = dict(DESK, K=1)
    a = bound_full_fixed(BoundInputs(**full), 10**7)
    b = bound_full_fixed(BoundInputs(**half), 10**7)
    assert a / b == pytest.approx(np.sqrt(2.0), rel=1e-9)


def test_bound_desk_golden():
    inp = BoundInputs(**DESK)
    for k in (0, 100, 5000):
        assert bound_full_fixed(inp, k) == pytest.approx(float(mp_bound_full(DESK, k)), rel=1e-12)


def test_bound_monotonicities():
    base = BoundInputs(**DESK)
    ks = [0, 10, 100, 1000]
    values = [bound_full_fixed(base, k) for k in ks]
    assert all(a >= b for a, b in zip(values, values[1:]))
    for field, factor in (("K", 2), ("gamma_het", 2), ("sigma_sg", None), ("tau", 2), ("D", 2)):
        bumped = dict(DESK)
        bumped[field] = 5.0 if bumped[field] == 0 else bumped[field] * (factor or 1)
        assert bound_full_fixed(BoundInputs(**bumped), 1000) > bound_full_fixed(base, 1000)


def test_bound_rejects_large_eta():
    with pytest.raises(TheoryError, match="admissible"):
        bound_full_fixed(BoundInputs(**dict(DESK, eta=1.0)), 0)


# ---------------------------------------------------------------------------
# decaying-step bound


def test_decaying_ratio_follows_step_sizes():
    inp = BoundInputs(**DESK)
    k = 500
    eta_k = 1.0 / (2 * DESK["L"] + DESK["m"] * k / 12)
    eta_0 = 1.0 / (2 * DESK["L"])
    assert bound_decaying(inp, k) / bound_decaying(inp, 0) == pytest.approx(
        np.sqrt(eta_k / eta_0), rel=1e-12
    )


def test_decaying_vanishes_like_inverse_sqrt():
    inp = BoundInputs(**DESK)
    big = bound_decaying(inp, 10**8)
    bigger = bound_decaying(inp, 4 * 10**8)
    assert bigger == pytest.approx(big / 2, rel=1e-3)


@pytest.mark.parametrize("scheme", [SchemeI(5), SchemeII(5)])
def test_decaying_bound_rejects_partial_devices(scheme):
    with pytest.raises(TheoryError, match="full device participation only"):
        bound_decaying(BoundInputs(**DESK, scheme=scheme), 0)


def test_decaying_golden_at_k100():
    inp = BoundInputs(**DESK)
    v = DESK
    eta_k = 1 / (2 * mp.mpf(v["L"]) + mp.mpf(v["m"]) * 100 / 12)
    kappa = mp.mpf(v["L"]) / mp.mpf(v["m"])
    h0 = mp_h_rho(dict(v, rho=0.0))
    expected = 45 * kappa * mp.sqrt(((v["K"] - 1) ** 2 + kappa) * h0) * mp.sqrt(eta_k * v["m"] * v["d"])
    assert bound_decaying(inp, 100) == pytest.approx(float(expected), rel=1e-12)


# ---------------------------------------------------------------------------
# partial-participation bound


def test_round_factor_small_limit_is_two():
    assert abs(round_factor(1e-8, 1.0, 1) - 2.0) < 1e-6


def test_round_factor_increasing_and_at_least_two():
    xs = np.linspace(1e-6, 5.0, 50)
    values = [round_factor(x, 1.0, 1) for x in xs]
    assert all(v >= 2.0 - 1e-12 for v in values)
    assert all(a < b for a, b in zip(values, values[1:]))


def test_partial_scheme2_all_devices_recovers_full_structure():
    inp = BoundInputs(**DESK, scheme=SchemeII(10))
    full_k2 = bound_partial(inp, 0)
    # C_S = 0 removes the bias term; what remains is the full bound with K^2
    kappa = DESK["L"] / DESK["m"]
    expected = np.sqrt(2 * DESK["d"]) * (DESK["D"] + np.sqrt(DESK["tau"] / DESK["m"])) + 30 * kappa * np.sqrt(
        DESK["eta"] * DESK["m"] * DESK["d"]
    ) * np.sqrt((DESK["K"] ** 2 + kappa) * h_rho(BoundInputs(**DESK)))
    assert full_k2 == pytest.approx(expected, rel=1e-12)


def test_partial_rho_one_minimizes_participation_noise():
    values = {}
    for rho in (0.0, 0.5, 1.0):
        inp = BoundInputs(**dict(DESK, rho=rho), scheme=SchemeI(5))
        values[rho] = bound_partial(inp, 10**7)
    assert values[1.0] < values[0.5] < values[0.0]


def test_scheme_factors():
    assert scheme_factor(SchemeI(3), 10) == 1.0
    assert scheme_factor(SchemeII(10), 10) == 0.0
    assert scheme_factor(SchemeII(1), 10) == pytest.approx(1.0)  # matches scheme I at S=1
    assert scheme_factor(SchemeII(4), 10) == pytest.approx(6.0 / 9.0)


def test_scheme2_bound_never_above_scheme1():
    for s in (1, 3, 5, 9, 10):
        b1 = bound_partial(BoundInputs(**DESK, scheme=SchemeI(s)), 100)
        b2 = bound_partial(BoundInputs(**DESK, scheme=SchemeII(s)), 100)
        assert b2 <= b1 + 1e-12
        if s == 1:
            assert b2 == pytest.approx(b1, rel=1e-12)


def test_partial_bound_dominates_full_asymptote():
    full = bound_full_fixed(BoundInputs(**DESK), 10**7)
    part = bound_partial(BoundInputs(**DESK, scheme=SchemeI(5)), 10**7)
    assert part >= full


def test_partial_oversized_s_rejected():
    with pytest.raises(TheoryError):
        bound_partial(BoundInputs(**DESK, scheme=SchemeI(11)), 0)


@pytest.mark.parametrize("scheme", [SchemeI(0), SchemeII(-1), SchemeII(11)], ids=["I-0", "II-minus-1", "II-11"])
def test_bound_inputs_need_1_le_s_le_n(scheme):
    with pytest.raises(TheoryError, match=r"need 1 <= S <= N"):
        BoundInputs(**DESK, scheme=scheme)


@pytest.mark.parametrize("scheme", [SchemeI(5), SchemeII(5)])
def test_full_device_fixed_step_bound_rejects_partial_devices(scheme):
    with pytest.raises(TheoryError, match="full device participation only"):
        bound_full_fixed(BoundInputs(**DESK, scheme=scheme), 0)


# ---------------------------------------------------------------------------
# planning


def test_plan_eta_quadruples_when_epsilon_doubles():
    inp = BoundInputs(**dict(DESK, eta=None))
    eta1, t1, _ = plan_steps(1e-4, inp)
    eta2, t2, _ = plan_steps(2e-4, inp)
    assert eta2 == pytest.approx(4 * eta1, rel=1e-12)
    assert 3.2 < t1 / t2 < 4.8  # ~ x4 shrink up to the log factor


def test_plan_respects_step_cap():
    inp = BoundInputs(**dict(DESK, eta=None))
    eta, _, _ = plan_steps(1e6, inp)
    assert eta == pytest.approx(1.0 / (2 * DESK["L"]), rel=1e-12)


def test_plan_horizon_is_round_multiple():
    inp = BoundInputs(**dict(DESK, eta=None))
    _, t_eps, rounds = plan_steps(1e-3, inp)
    assert t_eps % DESK["K"] == 0
    assert rounds == t_eps // DESK["K"]


def test_plan_golden_desk():
    v = dict(DESK, eta=None)
    inp = BoundInputs(**v)
    eps = mp.mpf("1e-3")
    kappa = mp.mpf(v["L"]) / mp.mpf(v["m"])
    h0 = mp_h_rho(dict(v, rho=0.0))
    eta_star = eps ** 2 / (3600 * kappa ** 2 * v["m"] * v["d"] * (v["K"] ** 2 + kappa) * h0)
    eta_star = min(eta_star, 1 / (2 * mp.mpf(v["L"])))
    init = mp.sqrt(2 * v["d"]) * (mp.mpf(v["D"]) + mp.sqrt(mp.mpf(v["tau"]) / v["m"]))
    t_min = 4 / (eta_star * v["m"]) * mp.log(2 * init / eps)
    expected_t = int(mp.ceil(t_min / v["K"])) * v["K"]
    eta, t_eps, rounds = plan_steps(1e-3, inp)
    assert eta == pytest.approx(float(eta_star), rel=1e-9)
    # horizons at this accuracy exceed 2^53, so the integers are compared
    # relatively; exact multiples of K are still guaranteed
    assert t_eps == pytest.approx(float(expected_t), rel=1e-9)
    assert t_eps % v["K"] == 0
    assert rounds == t_eps // v["K"]


def test_plan_rounds_follow_k_plus_kappa_over_k():
    # communication rounds scale as K + kappa/K, so the grid minimum is interior
    v = dict(DESK, eta=None)
    kappa = v["L"] / v["m"]
    rounds = {}
    for k in (1, 5, 10, 25):
        _, _, r = plan_steps(1e-4, BoundInputs(**dict(v, K=k)))
        rounds[k] = r
    ratio = rounds[1] / rounds[5]
    assert ratio == pytest.approx((1 + kappa) / (5 + kappa / 5), rel=0.01)


# ---------------------------------------------------------------------------
# optimal K


def test_optimal_k_trivial_cases():
    assert optimal_local_steps(1.0) == 1
    assert optimal_local_steps(2.0) == 1  # tie between K=1 and K=2 goes low
    assert optimal_local_steps(100.0) == 10


def test_optimal_k_brute_force_small():
    for kappa in range(1, 500):
        ks = np.arange(1, 60)
        values = ks + kappa / ks
        assert optimal_local_steps(float(kappa)) == int(ks[np.argmin(values)])


def test_optimal_k_stays_near_sqrt_kappa():
    for kappa in (3.0, 7.5, 40.0, 1234.0, 9999.0):
        k = optimal_local_steps(kappa)
        root = np.sqrt(kappa)
        assert np.floor(root) - 1 <= k <= np.ceil(root) + 1
        assert k + kappa / k <= (k + 1) + kappa / (k + 1) + 1e-9
