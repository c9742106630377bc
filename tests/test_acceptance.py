"""End-to-end acceptance criteria.

Each test prints one ``CRITERION k: PASS/FAIL`` line (run pytest with ``-s``
to see them) and then asserts the same condition, so the suite both reports
and enforces.  Budgets are generous on a single core; the heavyweight runs
(10 and 11) take about a minute each.
"""

import math

import numpy as np
import pytest

from vlf.bounds import (
    achievability_bound,
    asymptotic_schedule,
    asymptotic_schedule_for_message_count,
    channel_stats,
    converse_bound,
    optimize_params,
    single_phase_bound,
    universal_schedule,
)
from vlf.channel import (
    GaussianChannel,
    bsc,
    control_pair,
    information_density_table,
)
from vlf.engine import SchemeConfig, empirical_mi_passage_times, run_monte_carlo
from vlf.oracle import (
    LatticeWalkSpec,
    corr_tail_mc,
    exact_eta_expectation,
    exact_mi_tail,
    exact_passage_time,
    exact_sprt,
    gaussian_corr_tail,
    mi_tail_bound,
    passage_time_expansion,
    renewal_overshoot,
    sprt_mc,
)

pytestmark = pytest.mark.acceptance

LN2 = math.log(2.0)
CH = bsc(0.11)
UNIFORM2 = np.array([0.5, 0.5])
BSC11_C = 0.3466318436
BSC11_B = 0.5766133643


def _report(k, ok, detail):
    print(f"\nCRITERION {k}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def test_criterion_1_rate_ordering_across_blocklengths():
    eps = 1e-3
    checks = []
    details = []
    for n in (500.0, 1000.0, 2000.0, 4000.0):
        _, two_phase = optimize_params(channel_stats(CH, UNIFORM2), eps, n)
        single = single_phase_bound(channel_stats(CH, UNIFORM2), eps, n)
        cv = converse_bound(BSC11_C, eps, n)
        checks.append(
            two_phase.log_m > single.log_m
            and two_phase.log_m <= cv
            and single.log_m <= cv
        )
        details.append(f"N={n:g}: {single.rate:.4f}<{two_phase.rate:.4f}<={cv / n:.4f}")
    rates = [
        optimize_params(channel_stats(CH, UNIFORM2), eps, n)[1].rate
        for n in (500.0, 1000.0, 2000.0, 4000.0)
    ]
    checks.append(all(a < b for a, b in zip(rates, rates[1:])))
    ok = all(checks)
    assert _report(1, ok, "; ".join(details) + "; rates increase in N")


def test_criterion_2_simulation_stays_inside_the_bound():
    params = asymptotic_schedule_for_message_count(100 * LN2, CH, UNIFORM2)
    bound = achievability_bound(params, CH, UNIFORM2)
    cfg = SchemeConfig(variant="vlf_dmc", channel=CH, px=UNIFORM2,
                       params=params, seed=0)
    est = run_monte_carlo(cfg, 100_000)
    ok = est.eps_hi <= bound.eps and est.n_hi <= bound.n_avg
    assert _report(
        2,
        ok,
        f"eps_hi={est.eps_hi:.3e} <= {bound.eps:.3e}, "
        f"n_hi={est.n_hi:.3f} <= {bound.n_avg:.3f} (100k trials)",
    )


def test_criterion_3_confirmation_test_error_exponents():
    xa, xr, _ = control_pair(CH)
    llr = np.log(CH.matrix[xa]) - np.log(CH.matrix[xr])
    details = []
    ok = True
    for a in (2.0, 4.0, 6.0):
        spec = LatticeWalkSpec(tuple(llr), tuple(CH.matrix[xr]), a, a)
        exact = exact_sprt(spec)
        mc, _, se = sprt_mc(spec, 1_000_000, seed=3)
        dev = abs(mc - exact.p_accept) / se
        ok = ok and (
            exact.p_accept <= math.exp(-a) + 1e-12
            and exact.residual <= 1e-12
            and dev <= 4.0
        )
        details.append(f"a={a:g}: {exact.p_accept:.3e}<=e^-a, mc dev {dev:.1f} SE")
    assert _report(3, ok, "; ".join(details))


def test_criterion_4_mean_crossing_time_bound_and_expansion():
    dens = information_density_table(UNIFORM2, CH).ravel()
    joint = (UNIFORM2[:, None] * CH.matrix).ravel()
    stats = channel_stats(CH, UNIFORM2)
    details = []
    ok = abs(stats.b - BSC11_B) < 1e-6
    for gamma in (10.0, 20.0, 40.0):
        mean, _ = exact_passage_time(dens, joint, gamma)
        bound = (gamma + BSC11_B) / BSC11_C
        ok = ok and mean <= bound
        details.append(f"g={gamma:g}: {mean:.3f}<={bound:.3f}")
    overshoot = renewal_overshoot(dens, joint, samples=400_000, seed=1)
    mean40, _ = exact_passage_time(dens, joint, 40.0)
    approx = passage_time_expansion(40.0, stats.drift, overshoot.rho,
                                    overshoot.span)
    rel = abs(approx - mean40) / mean40
    ok = ok and rel <= 0.02
    assert _report(4, ok, "; ".join(details) + f"; expansion dev {rel:.2%}")


def test_criterion_5_information_tail_polynomial_bound():
    grid = np.arange(0.5, 6.01, 0.5)
    worst = 0.0
    ok = True
    for n in range(2, 15):
        exact = exact_mi_tail(n, UNIFORM2, UNIFORM2, grid)
        bound = np.array([mi_tail_bound(n, g, 0.0) for g in grid])
        ok = ok and bool(np.all(exact <= bound))
        worst = max(worst, float(np.max(exact / bound)))
    assert _report(
        5, ok, f"n<=14, 12-point grid, worst exact/bound ratio {worst:.3f}"
    )


def test_criterion_6_partition_sum_square_root_growth():
    ns = np.array([100, 1_000, 10_000, 100_000])
    vals = np.array([exact_eta_expectation(int(n)) for n in ns])
    slope = float(np.polyfit(np.log(ns), np.log(vals), 1)[0])
    ratios = vals / np.sqrt(ns)
    ok = abs(slope - 0.5) <= 0.05 and bool(
        np.all((ratios >= 1.0) & (ratios <= 2.0))
    )
    assert _report(
        6,
        ok,
        f"fitted exponent {slope:.3f} (target 0.50±0.05), "
        f"sum/sqrt(n) in [{ratios.min():.3f}, {ratios.max():.3f}]",
    )


def test_criterion_7_adaptive_stopping_time_slope():
    gammas = np.array([20.0, 40.0, 80.0])
    means = np.array([
        float(empirical_mi_passage_times(CH, UNIFORM2, g, 10_000, seed=0).mean())
        for g in gammas
    ])
    slope = float(np.polyfit(gammas, means, 1)[0])
    target = 1.0 / BSC11_C
    rel = abs(slope - target) / target
    ok = rel <= 0.05
    assert _report(
        7,
        ok,
        f"slope {slope:.4f} vs 1/C {target:.4f} ({rel:.2%} off, 10k trials/point)",
    )


def test_criterion_8_second_order_logarithmic_penalty():
    eps = 1e-3
    grid = np.array([1e4, 1e5, 1e6])
    gaps = []
    for n in grid:
        _, rep = optimize_params(channel_stats(CH, UNIFORM2), eps, float(n))
        gaps.append(n * BSC11_C / (1.0 - eps) - rep.log_m)
    coef = float(np.polyfit(np.log(grid), gaps, 1)[0])
    lo, hi = 0.2126 - 0.15, 0.2126 + 1.15
    ok = lo <= coef <= hi
    assert _report(
        8, ok, f"log N coefficient {coef:.4f} in [{lo:.4f}, {hi:.4f}]"
    )


def test_criterion_9_gaussian_power_and_error_accounting():
    chan = GaussianChannel(1.0)
    params = asymptotic_schedule(1200.0, chan, eps=1e-3)
    bound = achievability_bound(params, chan)
    cfg = SchemeConfig(variant="vlf_awgn", channel=chan, px=None,
                       params=params, seed=0)
    est = run_monte_carlo(cfg, 10_000)
    power_ok = est.power_lo <= 1.0  # E[sum x^2] <= E[tau] P within the CI
    eps_ok = est.eps_hi <= bound.eps
    ok = power_ok and eps_ok
    assert _report(
        9,
        ok,
        f"power ratio {est.power_hat:.5f} (CI low {est.power_lo:.5f} <= 1), "
        f"eps_hi={est.eps_hi:.3e} <= {bound.eps:.3e} (10k trials)",
    )


def test_criterion_10_universal_decoder_tracks_known_channel():
    target_eps = 0.05
    params = universal_schedule(60 * LN2, 2, 2, target_eps, d=1.0)
    cfg = SchemeConfig(variant="uvlf_dmc", channel=CH, px=UNIFORM2,
                       params=params, training_len=100_000, seed=0)
    est = run_monte_carlo(cfg, 10_000, workers=2)
    universal_rate = 60 * LN2 / est.n_hat
    _, known = optimize_params(channel_stats(CH, UNIFORM2), target_eps,
                               est.n_hat)
    ratio = universal_rate / known.rate
    ok = est.eps_hi <= target_eps and ratio >= 0.8
    assert _report(
        10,
        ok,
        f"eps_hi={est.eps_hi:.4f} <= {target_eps}, rate ratio "
        f"{ratio:.3f} >= 0.8 at N={est.n_hat:.1f} (10k trials, 100k training)",
    )


def test_criterion_11_correlation_tail_matches_asymptotic():
    mc, se = corr_tail_mc(200, 0.3, 10_000_000, seed=0, chunk=200_000)
    asym = gaussian_corr_tail(200, 0.3)
    ratio = mc / asym
    ok = 0.5 <= ratio <= 2.0
    assert _report(
        11,
        ok,
        f"mc tail {mc:.3e} (se {se:.1e}) / asymptotic {asym:.3e} = {ratio:.3f}",
    )
