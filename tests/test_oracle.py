"""Exact dynamic-programming recomputations against independent routes."""

import ast
import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlf import oracle
from vlf.bounds import channel_stats
from vlf.channel import (
    Dmc,
    binary_entropy,
    bsc,
    control_pair,
    information_density_table,
)
from vlf.ensemble import count_log_table
from vlf.errors import DimensionMismatch, StateExplosion, VlfError
from vlf.oracle import (
    JointType,
    LatticeWalkSpec,
    corr_tail_exact,
    corr_tail_mc,
    empirical_correlation,
    empirical_mi,
    exact_eta_expectation,
    exact_mi_tail,
    exact_race_law,
    exact_passage_time,
    exact_sprt,
    gaussian_corr_tail,
    joint_type,
    lattice_span,
    mi_tail_bound,
    passage_time_expansion,
    renewal_overshoot,
    sprt_mc,
    type_class_log_bound,
    universal_gaussian_metric,
)

CH = bsc(0.11)
UNIFORM2 = np.array([0.5, 0.5])


def _info_walk():
    dens = information_density_table(UNIFORM2, CH)
    joint = (UNIFORM2[:, None] * CH.matrix).ravel()
    return dens.ravel(), joint


def _confirmation_walk_under_reject():
    xa, xr, _ = control_pair(CH)
    llr = np.log(CH.matrix[xa]) - np.log(CH.matrix[xr])
    return tuple(llr), tuple(CH.matrix[xr])


class TestExactSprt:
    def test_deterministic_climb_accepts_at_strict_crossing(self):
        spec = LatticeWalkSpec((0.5,), (1.0,), a_accept=1.0, a_reject=5.0)
        r = exact_sprt(spec)
        assert r.p_accept == pytest.approx(1.0, abs=1e-12)
        assert r.expected_steps == pytest.approx(3.0, abs=1e-12)

    def test_symmetric_walk_splits_evenly(self):
        spec = LatticeWalkSpec((1.0, -1.0), (0.5, 0.5), 2.5, 2.5)
        r = exact_sprt(spec)
        assert r.p_accept == pytest.approx(0.5, abs=1e-9)
        assert r.p_reject == pytest.approx(0.5, abs=1e-9)
        # gambler's-ruin mean absorption time from 0 to +-3
        assert r.expected_steps == pytest.approx(9.0, abs=1e-6)

    def test_false_accept_probability_frozen_values(self):
        vals, probs = _confirmation_walk_under_reject()
        expect = {2.0: 1.100000e-01, 4.0: 1.504601e-02, 6.0: 1.884468e-03}
        for a, want in expect.items():
            r = exact_sprt(LatticeWalkSpec(vals, probs, a, a))
            assert r.p_accept == pytest.approx(want, rel=1e-5)
            assert r.p_accept <= math.exp(-a) + 1e-12
            assert r.residual <= 1e-12

    def test_monte_carlo_agrees_with_exact(self):
        vals, probs = _confirmation_walk_under_reject()
        spec = LatticeWalkSpec(vals, probs, 4.0, 4.0)
        exact = exact_sprt(spec).p_accept
        mc, _, se = sprt_mc(spec, 100_000, seed=11)
        assert abs(mc - exact) <= 4.0 * se

    def test_validation(self):
        with pytest.raises(VlfError):
            LatticeWalkSpec((1.0,), (0.9,), 1.0, 1.0)
        with pytest.raises(VlfError):
            LatticeWalkSpec((1.0, -1.0), (math.nan, 1.0), 1.0, 1.0)
        with pytest.raises(VlfError):
            LatticeWalkSpec((1.0,), (1.0,), -1.0, 1.0)


class TestPassageTimes:
    def test_deterministic_walk_counts_strict_steps(self):
        assert exact_passage_time([0.3], [1.0], 1.0)[0] == pytest.approx(4.0)
        assert exact_passage_time([0.5], [1.0], 1.0)[0] == pytest.approx(3.0)

    def test_information_walk_frozen_means(self):
        vals, probs = _info_walk()
        expect = {10.0: 29.5458451551, 20.0: 58.4880935161, 40.0: 116.2973787678}
        for gamma, want in expect.items():
            et, resid = exact_passage_time(vals, probs, gamma)
            assert et == pytest.approx(want, rel=1e-8)
            assert resid <= 1e-11

    def test_mean_bounded_by_threshold_plus_overshoot(self):
        vals, probs = _info_walk()
        s = channel_stats(CH, UNIFORM2)
        for gamma in (10.0, 20.0, 40.0):
            et, _ = exact_passage_time(vals, probs, gamma)
            assert gamma / s.drift <= et <= (gamma + s.b) / s.drift

    def test_renewal_expansion_matches_exact(self):
        vals, probs = _info_walk()
        s = channel_stats(CH, UNIFORM2)
        assert lattice_span(vals, probs) == 0.0
        ro = renewal_overshoot(vals, probs, samples=200_000, seed=1)
        assert ro.rho <= s.b + 4 * ro.std_err
        et, _ = exact_passage_time(vals, probs, 20.0)
        approx = passage_time_expansion(20.0, s.drift, ro.rho, ro.span)
        assert approx == pytest.approx(et, rel=0.02)

    def test_negative_drift_rejected(self):
        with pytest.raises(VlfError):
            exact_passage_time([-1.0, 0.5], [0.7, 0.3], 5.0)

    @pytest.mark.parametrize("gamma", [1e300, 1.7e308])
    def test_astronomical_horizon_is_refused_at_once(self, gamma):
        # the horizon 200 gamma / mean + 1000 is about 1e303 steps, or
        # overflows a float; with no lower threshold the live set grows by
        # a value a step, so the DP would never end
        start = time.perf_counter()
        with pytest.raises(StateExplosion, match="max_steps"):
            exact_passage_time([1, -1], [0.6, 0.4], gamma)
        assert time.perf_counter() - start < 0.1

    def test_work_cap_keeps_a_long_exact_passage_time(self):
        # the value before the cap: about 4e7 value-steps at the most
        assert exact_passage_time([1, -1], [0.6, 0.4], 50.0) == (
            254.99999999995202, 9.837931758996708e-13)


_paired = st.integers(2, 30).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 2), min_size=n, max_size=n),
        st.lists(st.integers(0, 2), min_size=n, max_size=n),
    )
)


class TestJointType:
    def test_counts_from_known_sequences(self):
        t = joint_type([0, 0, 1, 1, 0], [1, 0, 1, 1, 0])
        np.testing.assert_array_equal(t.counts, [[2, 1], [0, 2]])
        assert t.n == 5

    def test_explicit_alphabet_keeps_zero_rows(self):
        t = joint_type([0, 0], [1, 0], num_x=3, num_y=2)
        assert t.counts.shape == (3, 2)
        assert t.counts[2].sum() == 0

    def test_mismatched_lengths_raise(self):
        with pytest.raises(VlfError):
            joint_type([0, 1], [0])
        with pytest.raises(VlfError):
            joint_type([], [])
        with pytest.raises(VlfError):
            joint_type([0, 3], [0, 0], num_x=2)

    @given(_paired)
    @settings(max_examples=60, deadline=None)
    def test_marginals_sum_to_length(self, xy):
        xn, yn = xy
        t = joint_type(xn, yn, num_x=3, num_y=3)
        assert t.counts.sum() == len(xn)
        np.testing.assert_array_equal(
            t.counts.sum(axis=1), np.bincount(xn, minlength=3)
        )
        np.testing.assert_array_equal(
            t.counts.sum(axis=0), np.bincount(yn, minlength=3)
        )


class TestEmpiricalMi:
    def test_product_type_has_zero_information(self):
        t = JointType(np.array([[4, 4], [4, 4]]), 16)
        assert empirical_mi(t) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_type_has_full_information(self):
        t = JointType(np.array([[5, 0], [0, 5]]), 10)
        assert empirical_mi(t) == pytest.approx(math.log(2), abs=1e-12)

    def test_matches_plugin_mutual_information(self):
        counts = np.array([[3, 1], [2, 6]])
        t = JointType(counts, 12)
        p = counts / 12.0
        px, py = p.sum(axis=1), p.sum(axis=0)
        direct = sum(
            p[i, j] * math.log(p[i, j] / (px[i] * py[j]))
            for i in range(2)
            for j in range(2)
            if p[i, j] > 0
        )
        assert empirical_mi(t) == pytest.approx(direct, abs=1e-12)

    @given(_paired)
    @settings(max_examples=60, deadline=None)
    def test_nonnegative_and_bounded_by_log_alphabet(self, xy):
        xn, yn = xy
        v = empirical_mi(joint_type(xn, yn, num_x=3, num_y=3))
        assert 0.0 <= v <= math.log(3) + 1e-12

    @given(_paired)
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_symbol_relabeling(self, xy):
        xn, yn = xy
        perm = np.array([2, 0, 1])
        a = empirical_mi(joint_type(xn, yn, num_x=3, num_y=3))
        b = empirical_mi(
            joint_type(perm[np.array(xn)], perm[np.array(yn)], num_x=3, num_y=3)
        )
        assert a == pytest.approx(b, abs=1e-12)

    def test_count_log_identity_reproduces_scaled_information(self):
        # sum c log c over cells - rows - cols + n log n == n * I(type)
        tbl = count_log_table(64)
        counts = np.array([[9, 3], [4, 16]])
        n = counts.sum()
        t = JointType(counts, int(n))
        via_table = (
            tbl[counts].sum()
            - tbl[counts.sum(axis=1)].sum()
            - tbl[counts.sum(axis=0)].sum()
            + tbl[n]
        )
        assert via_table == pytest.approx(n * empirical_mi(t), abs=1e-10)


class TestCorrelationMetric:
    def test_known_correlation(self):
        rho = empirical_correlation([1.0, 0.0], [1.0, 1.0])
        assert rho == pytest.approx(1 / math.sqrt(2), rel=1e-12)

    def test_aligned_sequences_have_unit_correlation(self):
        x = np.array([0.3, -1.2, 2.0])
        assert empirical_correlation(x, 2.5 * x) == pytest.approx(1.0)
        assert universal_gaussian_metric(x, 2.5 * x) == math.inf

    def test_metric_formula(self):
        x = np.array([1.0, 2.0, -1.0, 0.5])
        y = np.array([0.8, 1.1, -1.4, 2.0])
        rho = empirical_correlation(x, y)
        expect = -0.5 * 4 * math.log1p(-rho * rho)
        assert universal_gaussian_metric(x, y) == pytest.approx(expect)

    def test_zero_energy_raises(self):
        with pytest.raises(VlfError):
            empirical_correlation([0.0, 0.0], [1.0, 1.0])


class TestInformationTail:
    def test_matches_full_enumeration_at_small_length(self):
        n = 4
        grid = np.array([0.5, 1.0, 2.0])
        via_types = exact_mi_tail(n, UNIFORM2, UNIFORM2, grid)
        hits = np.zeros_like(grid)
        for xs in itertools.product((0, 1), repeat=n):
            for ys in itertools.product((0, 1), repeat=n):
                stat = n * empirical_mi(joint_type(xs, ys, num_x=2, num_y=2))
                hits += (stat >= grid - 1e-12) * (0.5 ** (2 * n))
        np.testing.assert_allclose(via_types, hits, atol=1e-12)

    def test_frozen_values(self):
        got = exact_mi_tail(4, UNIFORM2, UNIFORM2, np.array([0.5, 1.0, 2.0]))
        np.testing.assert_allclose(
            got, [0.484375, 0.109375, 0.109375], atol=1e-12
        )

    def test_polynomial_bound_dominates(self):
        grid = np.arange(0.5, 6.01, 0.5)
        for n in range(2, 11):
            exact = exact_mi_tail(n, UNIFORM2, UNIFORM2, grid)
            bound = np.array([mi_tail_bound(n, g, 0.0) for g in grid])
            assert np.all(exact <= bound)

    def test_tail_decreases_in_threshold(self):
        grid = np.array([0.5, 1.0, 2.0, 4.0])
        vals = exact_mi_tail(8, UNIFORM2, UNIFORM2, grid)
        assert np.all(np.diff(vals) <= 1e-15)


def _enumerated_race_law(y, px, gamma1, score):
    """exact_race_law's (p, law) one codeword at a time, each prefix scored
    by `score`."""
    law = np.zeros(len(y))
    for x in itertools.product(range(len(px)), repeat=len(y)):
        prob = math.prod(px[a] for a in x)
        for n in range(1, len(y) + 1):
            if score(x[:n], y[:n]) > gamma1:
                law[n - 1] += prob
                break
    return law.sum(), law


class TestExactRaceLaw:
    W32 = Dmc(np.array([[0.7, 0.3], [0.2, 0.8], [0.5, 0.5]]))
    PX3 = np.array([0.2, 0.5, 0.3])
    Y = [1, 0, 0, 1, 1, 1, 0]

    @pytest.mark.parametrize("metric", ["mi", "density", "flip"])
    def test_equals_a_codeword_by_codeword_enumeration(self, metric):
        dens = information_density_table(self.PX3, self.W32)
        px, gamma1 = self.PX3, 1.3
        if metric == "mi":
            def score(x, y):
                return len(x) * empirical_mi(joint_type(x, y, 3, 2))
        elif metric == "density":
            def score(x, y):
                return sum(dens[a, b] for a, b in zip(x, y))
        else:
            px = np.array([0.4, 0.6])

            def score(x, y):
                n, k = len(x), sum(a != b for a, b in zip(x, y))
                return n * (math.log(2.0) - binary_entropy(k / n))
        p, law = exact_race_law(self.Y, px, gamma1, metric, self.W32)
        want_p, want_law = _enumerated_race_law(self.Y, px, gamma1, score)
        assert p > 0.0 and law.sum() == pytest.approx(p, rel=1e-15)
        assert p == pytest.approx(want_p, rel=1e-12)
        np.testing.assert_allclose(law, want_law, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("args,kwargs,error,match", [
        (([[0, 1]], UNIFORM2, 1.0), {}, DimensionMismatch, "1-D"),
        (([], UNIFORM2, 1.0), {}, DimensionMismatch, "nonempty"),
        (([0, -1], UNIFORM2, 1.0), {}, DimensionMismatch, "output indices"),
        (([0.5, 1.0], UNIFORM2, 1.0), {}, DimensionMismatch, "output indices"),
        (([0, 1], UNIFORM2, math.nan), {}, VlfError, "gamma1"),
        (([0, 1], UNIFORM2, 1.0), {"metric": "nI"}, VlfError, "metric must"),
        (([0, 1], UNIFORM2, 1.0), {"metric": "density"}, VlfError,
         "needs a channel"),
        (([0, 1], [0.2, 0.3, 0.5], 1.0), {"metric": "flip"},
         DimensionMismatch, "binary inputs"),
        (([0] * 17, UNIFORM2, 1.0), {}, StateExplosion, "2\\^17"),
        (([0] * 11, [0.2, 0.3, 0.5], 1.0), {}, StateExplosion, "3\\^11"),
    ])
    def test_refusals_name_the_argument(self, args, kwargs, error, match):
        with pytest.raises(error, match=match):
            exact_race_law(*args, **kwargs)

    def test_depends_on_no_engine_module(self):
        # the oracle checks the engine's races, so it must not share code
        # with them
        tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert imported == {"__future__", "dataclasses", "math", "numpy",
                            "scipy.special", "channel", "errors"}


class TestTypeClassBound:
    @given(
        st.integers(2, 12),
        st.lists(st.floats(0.05, 1.0), min_size=2, max_size=2),
    )
    @settings(max_examples=40, deadline=None)
    def test_bound_dominates_exact_multinomial_count(self, n, weights):
        # realize an integer composition of n from the weights
        w = np.array(weights)
        k0 = int(round(n * w[0] / w.sum()))
        counts = np.array([k0, n - k0])
        probs = counts / n
        exact = math.lgamma(n + 1) - sum(math.lgamma(c + 1) for c in counts)
        assert type_class_log_bound(probs, n) >= exact - 1e-9


class TestEtaExpectation:
    def test_frozen_values(self):
        expect = {1: 2.0, 2: 2.5, 4: 3.21875,
                  8: 4.245018005371, 64: 10.705781250786}
        for n, want in expect.items():
            assert exact_eta_expectation(n) == pytest.approx(want, rel=1e-10)

    def test_tiny_case_by_hand(self):
        # n=2: C(2,0) e^0 + C(2,1) e^{-2 log 2} + C(2,2) e^0 = 1 + 0.5 + 1
        assert exact_eta_expectation(2) == pytest.approx(2.5, abs=1e-12)

    def test_square_root_growth(self):
        r1 = exact_eta_expectation(1024) / math.sqrt(1024)
        r2 = exact_eta_expectation(4096) / math.sqrt(4096)
        assert 1.0 <= r2 <= r1 <= 2.0


def _corr_tail_brute(n, a, samples, seed):
    """Reference for corr_tail_mc: rho_hat of explicit pairs of length-n
    standard normal sequences, 2n normals per sample."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((samples, n))
    y = rng.standard_normal((samples, n))
    num = np.einsum("ij,ij->i", x, y)
    den = np.sqrt(np.einsum("ij,ij->i", x, x) * np.einsum("ij,ij->i", y, y))
    p = np.count_nonzero(num >= a * den) / samples
    return p, math.sqrt(p * (1.0 - p) / samples)


class TestCorrelationTail:
    def test_exact_against_monte_carlo(self):
        exact = corr_tail_exact(10, 0.5)
        mc, se = corr_tail_mc(10, 0.5, 200_000, seed=2)
        assert abs(mc - exact) <= 4.0 * se

    def test_brute_force_sampler_against_exact(self):
        exact = corr_tail_exact(10, 0.5)
        mc, se = _corr_tail_brute(10, 0.5, 200_000, seed=2)
        assert abs(mc - exact) <= 4.0 * se

    @pytest.mark.parametrize("n,a", [(10, 0.5), (40, 0.3)])
    def test_rotated_sampler_agrees_with_brute_force(self, n, a):
        fast, se_fast = corr_tail_mc(n, a, 200_000, seed=3, chunk=30_000)
        brute, se_brute = _corr_tail_brute(n, a, 200_000, seed=4)
        assert fast > 0 and brute > 0
        assert abs(fast - brute) <= 4.0 * math.hypot(se_fast, se_brute)

    def test_asymptotic_tracks_exact_at_moderate_size(self):
        exact = corr_tail_exact(200, 0.3)
        asym = gaussian_corr_tail(200, 0.3)
        assert exact == pytest.approx(7.564951e-06, rel=1e-5)
        assert asym == pytest.approx(9.079508e-06, rel=1e-5)
        assert 0.5 <= exact / asym <= 2.0

    def test_tail_decreases_in_threshold_and_length(self):
        assert corr_tail_exact(50, 0.4) > corr_tail_exact(50, 0.6)
        assert corr_tail_exact(50, 0.4) > corr_tail_exact(100, 0.4)

    def test_exact_tail_is_the_beta_survival_function(self):
        # the incomplete-beta form is what scipy.stats.beta.sf evaluates,
        # so the two agree to the last bit
        from scipy.stats import beta

        for n, a in itertools.product(
            (2, 3, 5, 10, 50, 200, 1000, 10**5),
            (1e-6, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999999),
        ):
            assert corr_tail_exact(n, a) == 0.5 * float(
                beta.sf(a * a, 0.5, (n - 1) / 2.0)), (n, a)


class TestOvershootEstimate:
    def test_ladder_height_moments_against_closed_form(self):
        # deterministic unit-step walk: every ladder height is exactly 1
        ro = renewal_overshoot([1.0], [1.0], samples=10_000, seed=0)
        assert ro.rho == pytest.approx(0.5, abs=1e-12)
        assert ro.std_err == pytest.approx(0.0, abs=1e-12)

    def test_span_of_unit_lattice(self):
        assert lattice_span([1.0, -1.0], [0.5, 0.5]) == pytest.approx(1.0)
        assert lattice_span([0.5766133643, -1.5141277326], [0.5, 0.5]) == 0.0
        # incommensurate steps: Euclid's last remainder divides neither
        assert lattice_span([1.0, math.sqrt(2)], [0.5, 0.5]) == 0.0
        # no support point off zero
        assert lattice_span([0.0, 1.0], [1.0, 0.0]) == 0.0
