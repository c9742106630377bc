"""Achievability and converse bounds, walk constants, parameter schedules."""

import math
import re

import numpy as np
import pytest
from scipy import integrate, special
from scipy.optimize import minimize

from vlf import bounds
from vlf.bounds import (
    VlfParams,
    achievability_bound,
    asymptotic_schedule,
    asymptotic_schedule_for_message_count,
    channel_stats,
    converse_bound,
    optimize_params,
    overshoot_constant,
    scaled_m_exp,
    single_phase_bound,
    tail_exponents,
    universal_schedule,
)
from vlf.channel import Dmc, GaussianChannel, bsc, control_pair
from vlf.errors import (
    EpsTooSmall,
    HorizonTooSmall,
    Infeasible,
    NotADistribution,
    VlfError,
)

LN2 = math.log(2.0)
CH = bsc(0.11)
UNIFORM2 = np.array([0.5, 0.5])

# frozen outputs of the exact recomputation path
BSC11_C = 0.3466318436
BSC11_B = 0.5766133643
BSC11_DIV = 1.6307780556
BSC11_B_HT = 2.0907410969
GAUSS1_B_COMM = 1.3930610
GAUSS1_B_HT = 3.8493204

GAUSS_SNRS = [1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3, 1e4]


def _quad(f, lo, hi):
    return integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]


def _reference_comm_b(snr):
    """E[(i^+)^2]/C with i = C + (W^2 - Z^2)/2 for unit normals W, Z of
    correlation 1/sqrt(1 + S), by quadrature over W - Z: given it, i is
    Gaussian in W + Z, and E[(i^+)^2] has the normal second-moment form."""
    c = 0.5 * math.log1p(snr)
    one_minus_rho = -math.expm1(-0.5 * math.log1p(snr))
    sd_minus = math.sqrt(2.0 * one_minus_rho)
    sd_plus = math.sqrt(4.0 - 2.0 * one_minus_rho)

    def given(d):
        # i = C + d (W + Z)/2, W + Z ~ N(0, sd_plus^2) independent of d
        sd = 0.5 * abs(d) * sd_plus
        r = c / sd
        return ((c * c + sd * sd) * special.ndtr(r)
                + c * sd * math.exp(-0.5 * r * r) / math.sqrt(2.0 * math.pi))

    def weighted(d):
        # d = W - Z ~ N(0, sd_minus^2)
        return given(d) * math.exp(-0.5 * (d / sd_minus) ** 2) / (
            sd_minus * math.sqrt(2.0 * math.pi))

    # given() turns over at |d| ~ c, far inside the normal at low SNR
    return 2.0 * (_quad(weighted, 0.0, c) + _quad(weighted, c, math.inf)) / c


def _reference_ht_b(snr):
    """E[(X^+)^2]/E[X] for X ~ N(2S, 4S), by quadrature in the standardized
    variable z = (X - 2S)/(2 sqrt S)."""
    mu, sd = 2.0 * snr, 2.0 * math.sqrt(snr)
    moment = _quad(lambda z: (mu + sd * z) ** 2 * math.exp(-0.5 * z * z),
                   -mu / sd, 40.0) / math.sqrt(2.0 * math.pi)
    return moment / mu


class TestOvershootConstant:
    def test_single_positive_step_gives_the_step(self):
        assert overshoot_constant([0.7], [1.0]) == pytest.approx(0.7)

    def test_never_exceeds_largest_step(self):
        vals = [-1.0, 0.3, 2.4]
        probs = [0.5, 0.3, 0.2]
        assert overshoot_constant(vals, probs) <= 2.4 + 1e-12

    def test_information_density_walk_constant(self):
        s = channel_stats(CH, UNIFORM2)
        assert s.drift == pytest.approx(BSC11_C, abs=1e-9)
        assert s.b == pytest.approx(BSC11_B, abs=1e-9)

    def test_confirmation_walk_constants(self):
        s = channel_stats(CH, UNIFORM2)
        assert s.div_accept == pytest.approx(BSC11_DIV, abs=1e-9)
        assert s.div_reject == pytest.approx(BSC11_DIV, abs=1e-9)
        assert s.b_accept == pytest.approx(BSC11_B_HT, abs=1e-9)
        # symmetric channel: accept and reject walks mirror each other
        assert s.b_reject == pytest.approx(s.b_accept, abs=1e-12)

    def test_gaussian_walk_constants(self):
        s = channel_stats(GaussianChannel(1.0))
        assert s.drift == pytest.approx(0.5 * LN2, abs=1e-9)
        assert s.b == pytest.approx(GAUSS1_B_COMM, abs=1e-6)
        assert s.b_accept == pytest.approx(GAUSS1_B_HT, abs=1e-6)
        assert s.div_accept == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("snr", GAUSS_SNRS)
    def test_gaussian_closed_forms_match_quadrature(self, snr):
        s = channel_stats(GaussianChannel(snr))
        assert s.b == pytest.approx(_reference_comm_b(snr), rel=1e-12)
        assert s.b_accept == pytest.approx(_reference_ht_b(snr), rel=1e-12)
        assert s.b_reject == s.b_accept

    def test_container_mirrors_stats(self):
        # an asymmetric channel, where the accept and reject walks differ
        ch = Dmc(np.array([[0.9, 0.1], [0.3, 0.7]]))
        s = channel_stats(ch, UNIFORM2)
        xa, xr, _ = control_pair(ch)
        row_a, row_r = ch.matrix[xa], ch.matrix[xr]
        llr = np.log(row_a) - np.log(row_r)
        assert (s.b_accept, s.b_reject) == (
            overshoot_constant(llr, row_a),
            overshoot_constant(-llr, row_r),
        )
        assert s.b_accept != s.b_reject


class TestAchievabilityBound:
    def test_error_splits_into_confirmation_and_continuation_terms(self):
        p = VlfParams(log_m=10.0, gamma1=14.0, gamma2=18.0,
                      a_accept=3.0, a_reject=3.0)
        rep = achievability_bound(p, CH, UNIFORM2)
        expect = scaled_m_exp(10.0, 14.0 + 3.0) + scaled_m_exp(10.0, 18.0)
        assert rep.eps_prime == pytest.approx(expect, rel=1e-12)

    def test_time_sharing_scales_error_and_length(self):
        p0 = VlfParams(10.0, 14.0, 18.0, 3.0, 3.0, eps0=0.0)
        p1 = VlfParams(10.0, 14.0, 18.0, 3.0, 3.0, eps0=0.25)
        r0 = achievability_bound(p0, CH, UNIFORM2)
        r1 = achievability_bound(p1, CH, UNIFORM2)
        assert r1.eps == pytest.approx(0.25 + 0.75 * r0.eps, rel=1e-12)
        assert r1.n_avg == pytest.approx(0.75 * r0.n_avg, rel=1e-12)

    def test_frozen_schedule_evaluation(self):
        p = asymptotic_schedule_for_message_count(100 * LN2, CH, UNIFORM2)
        assert p.gamma1 == pytest.approx(70.9880869246, abs=1e-8)
        assert p.gamma2 == pytest.approx(74.6448120273, abs=1e-8)
        assert p.a_accept == pytest.approx(5.3300939713, abs=1e-8)
        rep = achievability_bound(p, CH, UNIFORM2)
        assert rep.eps == pytest.approx(5.752344556e-3, rel=1e-8)
        assert rep.n_avg == pytest.approx(214.2120386, abs=1e-5)

    def test_overflow_safe_error_terms(self):
        assert scaled_m_exp(1e6, 10.0) == math.inf
        assert scaled_m_exp(10.0, 1e6) == pytest.approx(0.0, abs=1e-300)


class TestConverse:
    def test_formula(self):
        c, eps, n = 0.3466318436, 1e-3, 1000.0
        hb = -eps * math.log(eps) - (1 - eps) * math.log1p(-eps)
        assert converse_bound(c, eps, n) == pytest.approx(
            (n * c + hb) / (1 - eps), rel=1e-12
        )

    def test_monotone_in_length_and_error(self):
        c = 0.3466318436
        assert converse_bound(c, 1e-3, 2000) > converse_bound(c, 1e-3, 1000)
        assert converse_bound(c, 1e-2, 1000) > converse_bound(c, 1e-3, 1000)

    def test_rejects_degenerate_error_targets(self):
        with pytest.raises(VlfError):
            converse_bound(0.3, 0.0, 100)
        with pytest.raises(VlfError):
            converse_bound(0.3, 1.0, 100)


class TestOptimization:
    def test_meets_both_targets(self):
        eps, n = 1e-3, 500.0
        params, rep = optimize_params(channel_stats(CH, UNIFORM2), eps, n)
        assert rep.eps <= eps
        assert rep.n_avg <= n
        assert params.log_m == rep.log_m

    def test_two_phase_beats_single_phase_and_respects_converse(self):
        eps, n = 1e-3, 500.0
        _, rep = optimize_params(channel_stats(CH, UNIFORM2), eps, n)
        vl = single_phase_bound(channel_stats(CH, UNIFORM2), eps, n)
        cv = converse_bound(BSC11_C, eps, n)
        assert rep.log_m > vl.log_m
        assert rep.log_m <= cv
        assert vl.log_m <= cv

    def test_single_phase_meets_targets(self):
        eps, n = 1e-3, 500.0
        rep = single_phase_bound(channel_stats(CH, UNIFORM2), eps, n)
        assert rep.eps <= eps
        assert rep.n_avg <= n

    def test_rate_grows_with_length(self):
        rates = [
            optimize_params(channel_stats(CH, UNIFORM2), 1e-3, n)[1].rate
            for n in (300.0, 600.0, 1200.0)
        ]
        assert rates[0] < rates[1] < rates[2]

    def test_impossible_targets_raise(self):
        with pytest.raises(Infeasible):
            single_phase_bound(channel_stats(CH, UNIFORM2), 1e-3, 0.5)

    @pytest.mark.parametrize("solve", [optimize_params, single_phase_bound])
    def test_infinite_target_length_is_bad_input(self, solve):
        with pytest.raises(NotADistribution):
            solve(channel_stats(CH, UNIFORM2), 1e-3, math.inf)

    def test_gaussian_targets(self):
        eps, n = 1e-3, 800.0
        params, rep = optimize_params(channel_stats(GaussianChannel(1.0)),
                                      eps, n)
        assert rep.eps <= eps
        assert rep.n_avg <= n
        assert rep.log_m > 0


# BSC 0.11 and AWGN at SNR 1, two error targets, five horizons
CHANNELS = {"bsc": (CH, UNIFORM2), "awgn": (GaussianChannel(1.0), None)}
REFERENCE_GRID = [
    (name, eps, n)
    for name in CHANNELS
    for eps in (1e-3, 0.05)
    for n in (134.0, 200.0, 400.0, 1000.0, 4000.0)
]


def _g_terms(x, s, k):
    """(eps', G) at x = (u, dg, a_accept, a_reject), written out from
    Theorem 1 with gamma_1 = log(M-1) + u: G = K (1 - eps') - C N' + log(M-1)."""
    u, dg, a_acc, a_rej = x
    wrong1 = math.exp(-u)
    eps_prime = wrong1 * (math.exp(-a_acc) + math.exp(-dg))
    rest = (
        (u + s.b) / s.drift
        + (wrong1 + math.exp(-a_rej)) * (dg + s.b) / s.drift
        + (a_acc + s.b_accept) / s.div_accept
        + wrong1 * (a_rej + s.b_reject) / s.div_reject
    )
    return eps_prime, k * (1.0 - eps_prime) - s.drift * rest


def _reference_log_m(s, eps, n):
    """softplus of the best feasible G over six SLSQP starts."""
    k = s.drift * n / (1.0 - eps)
    ell, slack = math.log(k), math.log(1.0 / eps)
    starts = [
        (ell, ell, ell, ell), (slack + 1.0, 2 * ell, ell / 2, ell),
        (ell / 2, ell / 2, 2 * ell, ell / 2), (2 * ell, ell, ell, 2 * ell),
        (slack, slack, slack, slack), (ell + slack, ell, slack, ell),
    ]
    feasible = {"type": "ineq",
                "fun": lambda x: math.log(eps / _g_terms(x, s, k)[0])}
    best = -math.inf
    for x0 in starts:
        res = minimize(lambda x: -_g_terms(x, s, k)[1], np.array(x0),
                       method="SLSQP", bounds=[(1e-6, None)] * 4,
                       constraints=[feasible],
                       options={"ftol": 1e-14, "maxiter": 500})
        eps_prime, g = _g_terms(res.x, s, k)
        if eps_prime <= eps * (1 + 1e-12):
            best = max(best, g)
    return best + math.log1p(math.exp(-best))


class TestOptimumInU:
    def test_terms_are_free_of_m_at_fixed_u(self):
        # gamma_1 = log(M-1) + u: eps' stays, N' moves by log(M-1)/C
        s = channel_stats(CH, UNIFORM2)
        log_m = 50.0
        lm1 = log_m + math.log1p(-math.exp(-log_m))
        at_two = achievability_bound(VlfParams(LN2, 9.0, 14.0, 4.0, 6.0),
                                     CH, UNIFORM2)
        at_m = achievability_bound(
            VlfParams(log_m, lm1 + 9.0, lm1 + 14.0, 4.0, 6.0), CH, UNIFORM2)
        assert at_m.eps_prime == pytest.approx(at_two.eps_prime, rel=1e-12)
        assert at_m.n_prime - lm1 / s.drift == pytest.approx(
            at_two.n_prime, rel=1e-12)

    @pytest.mark.parametrize("name,eps,n", REFERENCE_GRID)
    def test_targets_met_under_a_plain_le(self, name, eps, n):
        ch, px = CHANNELS[name]
        params, rep = optimize_params(channel_stats(ch, px), eps, n)
        assert rep == achievability_bound(params, ch, px)
        single = single_phase_bound(channel_stats(ch, px), eps, n)
        for r in (rep, single):
            assert r.eps <= eps
            assert r.n_avg <= n

    @pytest.mark.parametrize("name,eps,n", REFERENCE_GRID)
    def test_reaches_the_multistart_reference(self, name, eps, n):
        ch, px = CHANNELS[name]
        params, rep = optimize_params(channel_stats(ch, px), eps, n)
        assert rep.log_m >= _reference_log_m(channel_stats(ch, px), eps, n) - 1e-9
        check = achievability_bound(params, ch, px)
        assert check.eps <= eps
        assert check.n_avg <= n

    def test_active_error_constraint_is_not_under_reported(self):
        # eps' = eps binds here; a search that stalls on it reports 63.674
        _, rep = optimize_params(channel_stats(CH, UNIFORM2), 1e-3, 200.0)
        assert rep.log_m >= 64.12

    def test_single_phase_closed_form(self):
        # e^{-u} = min(1/K, eps) with gamma = log(M-1) + u
        s = channel_stats(CH, UNIFORM2)
        eps, n = 1e-3, 500.0
        k = s.drift * n / (1.0 - eps)
        u = -math.log(min(1.0 / k, eps))
        g = k * (1.0 - math.exp(-u)) - u - s.b
        rep = single_phase_bound(channel_stats(CH, UNIFORM2), eps, n)
        assert rep.log_m == pytest.approx(g + math.log1p(math.exp(-g)),
                                          abs=1e-9)

    def test_gamma2_gap_takes_its_boundary_when_g_falls_in_it(self):
        # BSC 0.45: psi(x) = e^x (1 + c_R/(x + b)) dips to about 2.2, so at
        # K = 2 the gamma_2 - gamma_1 part of G falls on (0, inf)
        ch = bsc(0.45)
        s = channel_stats(ch, UNIFORM2)
        u, dg, a_acc, a_rej = bounds._stationary_point(0.0, 2.0, s)
        assert dg == 0.0
        at = [_g_terms((u, x, a_acc, a_rej), s, 2.0)[1]
              for x in (0.0, 0.1, 0.3, 1.0)]
        assert at[0] == max(at)
        # away from the dip the interior root is taken
        assert bounds._stationary_point(0.0, 3.0, s)[1] > 0.0


def _bisect(f, lo, hi):
    """Root of f on [lo, hi], where f changes sign, by bisection down to
    adjacent floats."""
    above = f(lo) > 0.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if (f(mid) > 0.0) == above:
            lo = mid
        else:
            hi = mid
    return lo


def _infeasible_at(k, s):
    try:
        bounds._stationary_point(0.0, k, s)
    except Infeasible:
        return True
    return False


def _k_grid(s):
    """25 values of K = K_lam on a log grid from the smallest K that leaves
    a stationary point to just under 2^40."""
    lo, hi = 1e-6, 1e3
    assert _infeasible_at(lo, s) and not _infeasible_at(hi, s)
    while hi / lo > 1.0 + 1e-12:
        mid = math.sqrt(lo * hi)
        lo, hi = (mid, hi) if _infeasible_at(mid, s) else (lo, mid)
    return np.geomspace(hi, 2.0 ** 40 * (1.0 - 1e-9), 25)


SOLVER_CHANNELS = {"bsc0.11": (CH, UNIFORM2), "bsc0.3": (bsc(0.3), UNIFORM2),
                   "bsc0.45": (bsc(0.45), UNIFORM2),
                   "awgn1": (GaussianChannel(1.0), None)}


def _ulps(residual, scale):
    return abs(residual) / math.ulp(max(abs(scale), 1.0))


class TestSolverRoots:
    """_stationary_point's two Newton roots against bisection, and the
    multiplier's fixed point against its target, on a log grid of K."""

    @pytest.mark.parametrize("name", SOLVER_CHANNELS)
    def test_gamma2_gap_root(self, name):
        s = channel_stats(*SOLVER_CHANNELS[name])
        c_rej = s.drift / s.div_reject
        valley = max(0.0, 0.5 * (math.sqrt(c_rej * (c_rej + 4.0)) - c_rej)
                     - s.b)

        def log_psi(x):
            return x + math.log1p(c_rej / (x + s.b))

        interior = 0
        for k in _k_grid(s):
            dg = bounds._stationary_point(0.0, k, s)[1]
            log_k = math.log(k)
            if log_psi(valley) >= log_k:
                assert dg == 0.0
                continue
            root = _bisect(lambda x: log_psi(x) - log_k, valley, log_k)
            if dg == 0.0:
                # the interior root does not beat the boundary dg = 0
                phi = (lambda x: k * math.exp(-x) + x
                       + c_rej * math.log(x + s.b))
                assert phi(root) >= phi(0.0)
                continue
            interior += 1
            assert _ulps(log_psi(dg) - log_k, log_k) <= 4
            assert dg == pytest.approx(root, rel=1e-12)
        assert interior >= 20

    @pytest.mark.parametrize("name", SOLVER_CHANNELS)
    def test_phase1_threshold_root(self, name):
        s = channel_stats(*SOLVER_CHANNELS[name])
        c_acc, c_rej = s.drift / s.div_accept, s.drift / s.div_reject
        for k in _k_grid(s):
            u, dg, _, _ = bounds._stationary_point(0.0, k, s)
            w = dg + s.b
            q = k * math.exp(-dg) + w + c_rej * (math.log(w / c_rej)
                                                 + s.b_reject)

            def f(x):
                return math.log(q + c_rej * x) - x - math.log1p(-c_acc)

            lo = math.log(q) - math.log1p(-c_acc)
            hi = 2.0 * lo + 1.0
            while f(hi) > 0.0:
                hi *= 2.0
            assert _ulps(f(u), u) <= 4
            assert u == pytest.approx(_bisect(f, lo, hi), rel=1e-12)

    @pytest.mark.parametrize("name", SOLVER_CHANNELS)
    @pytest.mark.parametrize("eps", [1e-6, 1e-3, 0.05])
    def test_multiplier_meets_the_target(self, name, eps):
        s = channel_stats(*SOLVER_CHANNELS[name])
        bound = 0
        for k in _k_grid(s):
            eps_prime = bounds._theorem1_terms(
                LN2, *bounds._stationary_point(0.0, k, s), s)[0]
            if eps_prime <= eps:
                continue
            bound += 1
            point, got, _ = bounds._binding_point(k, s, eps, eps_prime)
            assert abs(got / eps - 1.0) <= 1e-13
            # K_lam = c_A e^{a_accept + u} >= K, so lam >= 0
            u, _, a_acc, _ = point
            assert s.drift / s.div_accept * math.exp(a_acc + u) >= k * (
                1.0 - 1e-12)
        assert bound >= 2

    @pytest.mark.parametrize("eps,n", [(0.3, 251.18864315095797),
                                       (0.27, 150.0)])
    def test_jump_in_eps_prime_ends_below_the_target(self, eps, n):
        # BSC 0.45: as K_lam grows past about 2.43, dg jumps from 0 to its
        # interior root and eps' from above the target to 0.263, so no lam
        # has eps' = eps; the search ends on the jump's feasible side
        s = channel_stats(bsc(0.45), UNIFORM2)
        k = bounds._scaled_length(s, eps, n)
        eps_prime = bounds._theorem1_terms(
            LN2, *bounds._stationary_point(0.0, k, s), s)[0]
        assert eps_prime > eps
        (u, dg, a_acc, _), got, _ = bounds._binding_point(k, s, eps, eps_prime)
        assert got < eps and dg > 0.0
        k_lam = s.drift / s.div_accept * math.exp(a_acc + u)
        before = bounds._stationary_point(k_lam * (1.0 - 1e-12) - k, k, s)
        assert before[1] == 0.0
        assert bounds._theorem1_terms(LN2, *before, s)[0] > eps
        with pytest.raises(Infeasible):
            optimize_params(s, eps, n)

    def test_slow_contraction_falls_back_to_bisection(self, monkeypatch):
        # near that jump the fixed-point map barely contracts; bisecting
        # after each step that does not halve |log(eps'/eps)| keeps the
        # search to 38 stationary points, against 97 without it
        s = channel_stats(bsc(0.45), UNIFORM2)
        k = bounds._scaled_length(s, 0.25, 300.0)
        eps_prime = bounds._theorem1_terms(
            LN2, *bounds._stationary_point(0.0, k, s), s)[0]
        calls = []
        point_at = bounds._stationary_point
        monkeypatch.setattr(bounds, "_stationary_point",
                            lambda *a: calls.append(a) or point_at(*a))
        got = bounds._binding_point(k, s, 0.25, eps_prime)[1]
        assert abs(got / 0.25 - 1.0) <= 1e-13
        assert len(calls) <= 50

    @pytest.mark.parametrize("ch,k,name", [
        (CH, 300.0, "gamma_2 gap"),
        # psi dips to about 2.2 on BSC 0.45, so at K = 2 only u is solved
        (bsc(0.45), 2.0, "phase-1 threshold"),
    ], ids=["gap", "u"])
    def test_exhausted_newton_cap_raises(self, ch, k, name, monkeypatch):
        s = channel_stats(ch, UNIFORM2)
        monkeypatch.setattr(bounds, "_MAX_STEPS", 1)
        with pytest.raises(VlfError, match=f"^the {name} did not settle"):
            bounds._stationary_point(0.0, k, s)

    def test_exhausted_multiplier_cap_raises(self, monkeypatch):
        def uncapped_newton(f, x, name):
            for _ in range(60):
                value, slope = f(x)
                x -= value / slope
            return x

        # 60 plain Newton steps per root: only the multiplier meets the cap
        monkeypatch.setattr(bounds, "_newton", uncapped_newton)
        s = channel_stats(CH, UNIFORM2)
        assert optimize_params(s, 1e-3, 500.0)[1].log_m == pytest.approx(
            168.119757, abs=1e-6)
        monkeypatch.setattr(bounds, "_MAX_STEPS", 1)
        with pytest.raises(VlfError, match="^the multiplier did not settle"):
            optimize_params(s, 1e-3, 500.0)

    def test_multiplier_past_the_float_range_is_bad_input(self):
        # K + lambda is near C/(D_accept eps), past 1.8e308 for a subnormal eps
        s = channel_stats(CH, UNIFORM2)
        with pytest.raises(VlfError, match="past the float range") as caught:
            optimize_params(s, 5e-324, 1000.0)
        assert not isinstance(caught.value, Infeasible)

    def test_exhausted_cap_is_a_cli_error(self, monkeypatch, capsys,
                                          tmp_path):
        from vlf.cli import main

        monkeypatch.setattr(bounds, "_MAX_STEPS", 1)
        assert main(["sweep", "--channel", "bsc:0.11", "--eps", "1e-3",
                     "--N", "500", "--schemes", "thm1",
                     "--out", str(tmp_path / "s.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the ") and "Traceback" not in err


def _schedule_by_composition(log_m, channel, px, eps):
    """Reference inversion: N1 from the fixed point of
    N1 = (log M + log log N1 + b)/C, then the forward recipe at that N1."""
    s = channel_stats(channel, px)
    n1 = max(3.0, (log_m + s.b) / s.drift)
    for _ in range(200):
        nxt = (log_m + math.log(max(math.log(n1), 1e-9)) + s.b) / s.drift
        done = abs(nxt - n1) < 1e-12 * max(1.0, n1)
        n1 = nxt
        if done:
            break
    return asymptotic_schedule(n1, channel, px, eps)


class TestLengthRange:
    # the solvers keep u = gamma_1 - log(M-1) to the float spacing at
    # K = C N/(1 - eps); N = 1e12 is as far as they must reach
    @pytest.mark.parametrize("ch,px", [
        (CH, UNIFORM2), (bsc(0.3), UNIFORM2), (GaussianChannel(1.0), None),
    ], ids=["bsc0.11", "bsc0.3", "awgn1"])
    @pytest.mark.parametrize("eps", [1e-3, 0.1])
    def test_solvers_reach_length_1e12(self, ch, px, eps):
        s = channel_stats(ch, px)
        _, rep = optimize_params(s, eps, 1e12)
        single = single_phase_bound(s, eps, 1e12)
        for r in (rep, single):
            assert r.eps <= eps
            assert r.n_avg <= 1e12
        assert rep.log_m > single.log_m

    @pytest.mark.parametrize("solve", [optimize_params, single_phase_bound])
    def test_k_past_2_to_the_40_is_refused_by_n(self, solve):
        s = channel_stats(CH, UNIFORM2)
        n = 1.0001 * 2.0 ** 40 * (1.0 - 1e-3) / s.drift
        with pytest.raises(VlfError, match=re.escape(f"N = {n:g} gives K")):
            solve(s, 1e-3, n)


class TestKnownChannelSchedule:
    def test_threshold_identities(self):
        s = channel_stats(CH, UNIFORM2)
        n1 = 2000.0
        p = asymptotic_schedule(n1, CH, UNIFORM2, eps=1e-3)
        assert (p.gamma1 + s.b) / s.drift == pytest.approx(n1, rel=1e-12)
        assert p.a_accept == pytest.approx(math.log(n1), rel=1e-12)
        assert p.a_reject == p.a_accept
        assert p.gamma2 - p.log_m == pytest.approx(math.log(n1), rel=1e-12)
        assert p.gamma1 - p.log_m == pytest.approx(
            math.log(math.log(n1)), rel=1e-12
        )

    def test_error_floor_raises(self):
        with pytest.raises(EpsTooSmall):
            asymptotic_schedule(1000.0, CH, UNIFORM2, eps=1e-3)

    @pytest.mark.parametrize("n1,eps", [(2000.0, 1e-3), (60.0, 0.2),
                                        (3000.0, 0.05)])
    def test_time_sharing_weight_is_exact(self, n1, eps):
        floor = (1.0 / n1) * (1.0 + 1.0 / math.log(n1))
        p = asymptotic_schedule(n1, CH, UNIFORM2, eps=eps)
        assert p.eps0 == (eps - floor) / (1.0 - floor)

    def test_tiny_horizon_raises(self):
        with pytest.raises(HorizonTooSmall):
            asymptotic_schedule(2.0, CH, UNIFORM2)

    def test_message_count_inversion_roundtrip(self):
        p = asymptotic_schedule_for_message_count(100 * LN2, CH, UNIFORM2)
        s = channel_stats(CH, UNIFORM2)
        n1 = (p.gamma1 + s.b) / s.drift
        p2 = asymptotic_schedule(n1, CH, UNIFORM2)
        assert p2.log_m == pytest.approx(100 * LN2, rel=1e-9)

    @pytest.mark.parametrize("channel,px", [
        (CH, UNIFORM2), (GaussianChannel(1.0), None),
    ], ids=["bsc0.11", "awgn1"])
    def test_message_count_inversion_computes_the_stats_once(
        self, channel, px, monkeypatch
    ):
        cases = [(bits * LN2, eps) for bits in (20, 100, 500)
                 for eps in (None, 0.05)]
        expected = [_schedule_by_composition(lm, channel, px, eps)
                    for lm, eps in cases]
        calls = []
        stats = bounds.channel_stats
        monkeypatch.setattr(bounds, "channel_stats",
                            lambda *a: calls.append(a) or stats(*a))
        for (lm, eps), want in zip(cases, expected):
            calls.clear()
            got = asymptotic_schedule_for_message_count(lm, channel, px, eps)
            assert got == want
            assert len(calls) == 1


class TestUniversalSchedule:
    def test_binary_schedule_values(self):
        log_m = 60 * LN2
        p = universal_schedule(log_m, 2, 2, 0.05, d=1.0)
        n1 = int(log_m / 2)  # 20
        log_n1 = math.log(n1)
        loglog = math.log(log_n1)
        assert p.gamma1 == pytest.approx(log_m + log_n1 + 1.1 * loglog, rel=1e-12)
        assert p.gamma2 == pytest.approx(log_m + 2 * log_n1 + 0.1 * loglog, rel=1e-12)
        assert p.a_accept == pytest.approx(log_n1, rel=1e-12)
        assert p.eps0 == pytest.approx(0.0, abs=1e-15)  # eps exactly 1/n1

    @pytest.mark.parametrize("log_m,num_x,eps,d", [
        (60 * LN2, 2, 0.05, 1.0), (60 * LN2, 2, 0.05, 0.5),
        (100.0, 3, 0.2, None), (50.0, 1, 0.1, 0.5), (7.5, 2, 1 / 3, 1.0),
    ])
    def test_schedule_is_the_recipe_bit_for_bit(self, log_m, num_x, eps, d):
        # delta = 0.1 and the time-sharing weight (eps - 1/n1)/(1 - 1/n1),
        # each in the recipe's own float operations
        p = universal_schedule(log_m, num_x, num_x, eps, d=d)
        n1 = int(log_m / num_x)
        d = tail_exponents(num_x, num_x)[1] if d is None else d
        log_n1 = math.log(n1)
        loglog = math.log(log_n1)
        assert p == VlfParams(
            log_m, log_m + d * log_n1 + (1.0 + 0.1) * loglog,
            log_m + (d + 1.0) * log_n1 + 0.1 * loglog, log_n1, log_n1,
            (eps - 1.0 / n1) / (1.0 - 1.0 / n1))

    def test_default_exponent_comes_from_alphabet(self):
        log_m = 60 * LN2
        assert universal_schedule(log_m, 2, 2, 0.05).gamma1 == pytest.approx(
            universal_schedule(log_m, 2, 2, 0.05, d=1.0).gamma1
        )
        # log M = 60 nats gives n1 = floor(60 / 3) = 20 on a 3x3 alphabet
        assert universal_schedule(60.0, 3, 3, 0.2).gamma1 == \
            pytest.approx(universal_schedule(60.0, 3, 3, 0.2, d=3.0).gamma1)

    def test_error_below_floor_raises(self):
        with pytest.raises(EpsTooSmall):
            universal_schedule(60 * LN2, 2, 2, 0.01)

    @pytest.mark.parametrize("kw,name", [
        ({"eps": 0.0}, "eps"), ({"eps": 1.0}, "eps"), ({"eps": math.nan}, "eps"),
        ({"d": math.inf}, "d"), ({"d": 0.0}, "d"), ({"d": -1.0}, "d"),
    ])
    def test_bad_inputs_name_their_argument(self, kw, name):
        args = {"eps": 0.05, "d": 1.0, **kw}
        with pytest.raises(VlfError, match=f"^{name} must be"):
            universal_schedule(60 * LN2, 2, 2, **args)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, 1.5, 0.0])
    def test_asymptotic_schedule_rejects_bad_eps(self, eps):
        with pytest.raises(VlfError, match="^eps must be"):
            asymptotic_schedule(2000, CH, UNIFORM2, eps=eps)

    def test_gaussian_variant_uses_message_length_block(self):
        # |X| = |Y| = 1: n1 = floor(log M) = 50, the binary recipe's n1 at
        # log M = 100
        log_m = 50.0
        p = universal_schedule(log_m, 1, 1, 0.1, d=0.5)
        q = universal_schedule(2.0 * log_m, 2, 2, 0.1, d=0.5)
        assert p.a_accept == q.a_accept == math.log(50)
        assert p.gamma1 + log_m == pytest.approx(q.gamma1, rel=1e-15)
        assert p.gamma2 + log_m == pytest.approx(q.gamma2, rel=1e-15)


class TestTailExponents:
    def test_known_alphabet_values(self):
        assert tail_exponents(2, 2) == (0.0, 1.0)
        assert tail_exponents(2, 3) == (0.5, 1.5)
        assert tail_exponents(3, 3) == (2.0, 3.0)

    def test_monotone_in_alphabet_size(self):
        k1, d1 = tail_exponents(2, 2)
        k2, d2 = tail_exponents(4, 4)
        assert k2 > k1 and d2 > d1

    def test_degenerate_alphabets_raise(self):
        with pytest.raises(VlfError):
            tail_exponents(1, 2)
