"""Channel models, capacity, and information density."""

import dataclasses
import math
import numbers
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlf.channel import (
    Dmc,
    GaussianChannel,
    bsc,
    _LLR_CAP,
    capacity,
    control_llr,
    control_pair,
    entropy,
    gaussian_information_density,
    information_density_table,
    kl_divergence,
    load_dmc,
    mutual_information,
    output_distribution,
    parse_channel_spec,
)
from vlf.bounds import (
    VlfParams,
    asymptotic_schedule,
    asymptotic_schedule_for_message_count,
    channel_stats,
    converse_bound,
    dmc_stats,
    optimize_params,
    overshoot_constant,
    single_phase_bound,
    tail_exponents,
    universal_schedule,
)
from vlf.engine import (
    SchemeConfig,
    empirical_mi_passage_times,
    info_density_passage_times,
    trial_records,
)
from vlf.errors import (
    DimensionMismatch,
    HorizonTooSmall,
    NonPositiveDrift,
    NotADistribution,
    StateExplosion,
    VlfError,
)
from vlf.oracle import (
    LatticeWalkSpec,
    corr_tail_exact,
    corr_tail_mc,
    exact_eta_expectation,
    exact_mi_tail,
    exact_passage_time,
    gaussian_corr_tail,
    mi_tail_bound,
    passage_time_expansion,
    renewal_overshoot,
    sprt_mc,
    type_class_log_bound,
)

UNIFORM2 = np.array([0.5, 0.5])


def _h2(p):
    return -p * math.log(p) - (1 - p) * math.log1p(-p)


def _random_dist(draw_floats):
    v = np.array(draw_floats, dtype=float) + 1e-9
    return v / v.sum()


class TestEntropyAndDivergence:
    def test_uniform_entropy_is_log_alphabet_size(self):
        for k in (2, 3, 7):
            assert entropy(np.full(k, 1.0 / k)) == pytest.approx(math.log(k))

    def test_point_mass_entropy_is_zero(self):
        assert entropy(np.array([1.0, 0.0, 0.0])) == pytest.approx(0.0)

    def test_divergence_of_identical_distributions_is_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert kl_divergence(p, p) == pytest.approx(0.0)

    @given(
        st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
        st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
    )
    @settings(max_examples=50, deadline=None)
    def test_divergence_is_nonnegative(self, a, b):
        p, q = _random_dist(a), _random_dist(b)
        assert kl_divergence(p, q) >= -1e-12

    def test_divergence_known_value(self):
        p = np.array([0.89, 0.11])
        q = np.array([0.11, 0.89])
        expect = 0.78 * math.log(0.89 / 0.11)
        assert kl_divergence(p, q) == pytest.approx(expect, rel=1e-12)


class TestCapacity:
    def test_binary_symmetric_capacity_formula(self):
        c, px = capacity(bsc(0.11))
        assert c == pytest.approx(math.log(2) - _h2(0.11), abs=1e-9)
        assert c == pytest.approx(0.3466318436, abs=1e-9)
        np.testing.assert_allclose(px, UNIFORM2, atol=1e-6)

    def test_capacity_matches_mutual_information_at_its_input(self):
        dmc = Dmc(np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]]))
        c, px = capacity(dmc)
        assert mutual_information(px, dmc) == pytest.approx(c, abs=1e-8)

    def test_capacity_dominates_any_fixed_input(self):
        dmc = Dmc(np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]]))
        c, _ = capacity(dmc)
        for px in ([0.5, 0.5], [0.9, 0.1], [0.2, 0.8]):
            assert mutual_information(np.array(px), dmc) <= c + 1e-9

    def test_gaussian_capacity(self):
        assert GaussianChannel(1.0).capacity == pytest.approx(
            0.5 * math.log(2.0)
        )
        # unit noise: the power is the SNR, and the one field
        assert GaussianChannel(2.0).control_divergence == 4.0  # 2S
        assert [f.name for f in dataclasses.fields(GaussianChannel)] == [
            "power"]


class TestMutualInformation:
    def test_identical_rows_give_zero(self):
        dmc = Dmc(np.array([[0.3, 0.7], [0.3, 0.7]]))
        assert mutual_information(UNIFORM2, dmc) == pytest.approx(0.0, abs=1e-12)

    def test_near_noiseless_channel_approaches_log_alphabet(self):
        dmc = bsc(1e-9)
        assert mutual_information(UNIFORM2, dmc) == pytest.approx(
            math.log(2), abs=1e-7
        )

    def test_mean_information_density_is_mutual_information(self):
        dmc = bsc(0.11)
        dens = information_density_table(UNIFORM2, dmc)
        joint = UNIFORM2[:, None] * dmc.matrix
        assert float((joint * dens).sum()) == pytest.approx(
            mutual_information(UNIFORM2, dmc), abs=1e-12
        )

    def test_output_distribution_marginalizes_joint(self):
        dmc = Dmc(np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]]))
        px = np.array([0.4, 0.6])
        np.testing.assert_allclose(
            output_distribution(px, dmc), px @ dmc.matrix
        )

    # [0.3, 0.3] gave 0.5145 nats, above the capacity 0.3466; NaN and
    # infinite entries make the sum NaN or infinite
    @pytest.mark.parametrize("px", [[0.3, 0.3], [math.nan, 1.0],
                                    [math.inf, 1.0]])
    def test_input_must_be_a_distribution(self, px):
        with pytest.raises(NotADistribution):
            mutual_information(px, bsc(0.11))


class TestOneDistributionCheck:
    # every function taking a probability vector checks it through
    # channel._as_prob_vector; before, the first returned nan, the second
    # 0.0, the third 0.062775 (0.484375 for the normalized input) and the
    # fourth raised numpy's ValueError
    @pytest.mark.parametrize("call", [
        lambda: overshoot_constant([1.0, -1.0], [math.nan, 1.0]),
        lambda: type_class_log_bound([math.nan, 1.0], 4),
        lambda: exact_mi_tail(4, [0.3, 0.3], [0.5, 0.5], [0.5]),
        lambda: renewal_overshoot([1.0, -1.0], [math.nan, 1.0], samples=10),
    ], ids=["overshoot_constant", "type_class_log_bound", "exact_mi_tail",
            "renewal_overshoot"])
    def test_bad_distribution_raises(self, call):
        with pytest.raises(VlfError):
            call()


def _nan_row_file(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("0.5 0.5\nnan nan\n")
    return str(path)


def _sim_cfg(px):
    return SchemeConfig("vlf_dmc", bsc(0.11), np.asarray(px, dtype=float),
                        VlfParams(6 * math.log(2), 8.0, 13.0, 3.0, 3.0))


THIRDS = np.full(3, 1.0 / 3.0)
ZERO_DRIFT_PX = np.array([1.0, 0.0])  # I(px, W) = 0 on any channel
WALK_LAW = ([1.0, -1.0], [0.6, 0.4])  # a walk with positive drift
WALK = LatticeWalkSpec(*WALK_LAW, 3.0, 3.0)
SEED_CHECK = "^seed must be an integer >= 0, got "


class TestOneInputCheck:
    # each of the channel matrix, input law, step law, drift and seed checks
    # has one definition in vlf.channel; every entry point reaches it.
    # Before, the NaN matrices loaded, the zero-drift runtime raised
    # HorizonTooSmall (an "infeasible" exit 2), the NaN mean gave a NaN
    # passage time, the zero-drift passage times divided by zero and the
    # oracles' samplers passed a bad seed to numpy, whose error named none;
    # the zero counts divided by zero, n = 1 gave numpy's "df <= 0", and
    # one ladder height a NaN standard error; a walk's max_steps of 0 or
    # 2.5 gave residual 1, and -5 a silent zero estimate from sprt_mc; a
    # chunk of 0 drew no sample and looped for ever.  The rows from
    # kl_divergence-shapes on pin refusals that no other test reached.
    @pytest.mark.parametrize("call,error,match", [
        (lambda tmp: Dmc(np.array([[0.5, 0.5], [math.nan, math.nan]])),
         NotADistribution, "row 2, column 1"),
        (lambda tmp: Dmc(np.array([[0.5, math.nan], [0.5, 0.5]])),
         NotADistribution, "row 1, column 2"),
        (lambda tmp: load_dmc(_nan_row_file(tmp)),
         NotADistribution, "w.txt: row 2, column 1"),
        (lambda tmp: mutual_information(THIRDS, bsc(0.11)),
         DimensionMismatch, "px has 3 entries"),
        (lambda tmp: output_distribution(THIRDS, bsc(0.11)),
         DimensionMismatch, "px has 3 entries"),
        (lambda tmp: dmc_stats(bsc(0.11), THIRDS),
         DimensionMismatch, "px has 3 entries"),
        (lambda tmp: _sim_cfg(THIRDS),
         DimensionMismatch, "px has 3 entries"),
        (lambda tmp: LatticeWalkSpec((1.0, -1.0), (1.0,), 1.0, 1.0),
         NotADistribution, "matching"),
        (lambda tmp: overshoot_constant([1.0, -1.0], [0.5, 0.5]),
         NonPositiveDrift, "not positive"),
        (lambda tmp: renewal_overshoot([1.0, -1.0], [0.5, 0.5], samples=10),
         NonPositiveDrift, "not positive"),
        (lambda tmp: dmc_stats(bsc(0.11), ZERO_DRIFT_PX),
         NonPositiveDrift, "I\\(px, W\\)"),
        (lambda tmp: exact_passage_time([1.0, -1.0], [0.5, 0.5], 3.0),
         NonPositiveDrift, "not positive"),
        (lambda tmp: exact_passage_time([1, -1], [math.nan, 1], 3),
         NotADistribution, "step probabilities sums to nan"),
        (lambda tmp: passage_time_expansion(3.0, math.nan, 0.5),
         NotADistribution, r"mean must be a finite number in \(0, inf\), "
         "got nan"),
        (lambda tmp: _sim_cfg(ZERO_DRIFT_PX),
         NonPositiveDrift, "metric drift"),
        (lambda tmp: info_density_passage_times(bsc(0.11), ZERO_DRIFT_PX,
                                                5.0, 10),
         NonPositiveDrift, "metric drift"),
        (lambda tmp: sprt_mc(WALK, 10, seed=-1), VlfError, SEED_CHECK),
        (lambda tmp: sprt_mc(WALK, 10, seed=1.5), VlfError, SEED_CHECK),
        (lambda tmp: renewal_overshoot(*WALK_LAW, samples=10, seed=-1),
         VlfError, SEED_CHECK),
        (lambda tmp: renewal_overshoot(*WALK_LAW, samples=10, seed=1.5),
         VlfError, SEED_CHECK),
        (lambda tmp: corr_tail_mc(10, 0.5, 100, seed=-1), VlfError, SEED_CHECK),
        (lambda tmp: corr_tail_mc(10, 0.5, 100, seed=1.5),
         VlfError, SEED_CHECK),
        (lambda tmp: type_class_log_bound([0.5, 0.5], 0),
         VlfError, "n must be an integer >= 1, got 0"),
        (lambda tmp: sprt_mc(WALK, 0), VlfError,
         "samples must be an integer >= 1, got 0"),
        (lambda tmp: corr_tail_mc(10, 0.5, 0), VlfError,
         "samples must be an integer >= 1, got 0"),
        (lambda tmp: corr_tail_mc(1, 0.5, 10), VlfError,
         "n must be an integer >= 2, got 1"),
        (lambda tmp: renewal_overshoot(*WALK_LAW, samples=1), VlfError,
         "samples must be an integer >= 2, got 1"),
        (lambda tmp: LatticeWalkSpec(*WALK_LAW, 3.0, 3.0, max_steps=0),
         VlfError, "max_steps must be an integer >= 1, got 0"),
        (lambda tmp: LatticeWalkSpec(*WALK_LAW, 3.0, 3.0, max_steps=-5),
         VlfError, "max_steps must be an integer >= 1, got -5"),
        (lambda tmp: LatticeWalkSpec(*WALK_LAW, 3.0, 3.0, max_steps=2.5),
         VlfError, "max_steps must be an integer >= 1, got 2.5"),
        (lambda tmp: corr_tail_mc(10, 0.5, 10, chunk=0),
         VlfError, "^chunk must be an integer >= 1, got 0$"),
        (lambda tmp: kl_divergence([0.5, 0.5], THIRDS),
         DimensionMismatch, r"shapes differ: \(2,\) vs \(3,\)"),
        (lambda tmp: kl_divergence([0.5, 0.5], [1.0, 0.0]),
         NotADistribution, r"p\[1\] = 0.5 > 0 but q\[1\] = 0"),
        (lambda tmp: entropy([[0.5, 0.5]]),
         DimensionMismatch, "p must be a nonempty 1-D vector"),
        (lambda tmp: entropy([1.5, -0.5]),
         NotADistribution, "p has negative entries"),
        (lambda tmp: Dmc(np.array([0.5, 0.5])),
         DimensionMismatch, r"got shape \(2,\)"),
        (lambda tmp: Dmc(np.array([[1.0]])),
         DimensionMismatch, r"got shape \(1, 1\)"),
        # 0.5 * 5e-324 rounds to 0, so the second output has no mass
        (lambda tmp: information_density_table(
            UNIFORM2, Dmc(np.array([[1.0, 5e-324], [1.0, 5e-324]]))),
         NotADistribution, "^output 2 has zero marginal mass"),
        (lambda tmp: SchemeConfig("uvlf_dmc", Dmc(np.array([[0.3, 0.7]])),
                                  [1.0], _FUZZ_PARAMS, training_len=5),
         DimensionMismatch, "at least two channel inputs"),
        (lambda tmp: channel_stats(bsc(0.11)),
         NotADistribution, "explicit input distribution"),
        (lambda tmp: asymptotic_schedule(3.0, bsc(0.45), UNIFORM2),
         HorizonTooSmall, "yields log M"),
        (lambda tmp: gaussian_corr_tail(100, 0.5),
         VlfError, "prefactor complex"),
        (lambda tmp: exact_mi_tail(400, THIRDS, THIRDS, [1.0]),
         StateExplosion, "joint types exceeds"),
    ], ids=["Dmc-nan-row", "Dmc-nan-entry", "load_dmc-nan-row",
            "mutual_information-px", "output_distribution-px",
            "dmc_stats-px", "SchemeConfig-px", "LatticeWalkSpec-law",
            "overshoot_constant-drift", "renewal_overshoot-drift",
            "dmc_stats-drift", "exact_passage_time-drift",
            "exact_passage_time-law",
            "passage_time_expansion-nan", "SchemeConfig-drift",
            "passage_times-drift", "sprt_mc-seed-1", "sprt_mc-seed1.5",
            "renewal_overshoot-seed-1", "renewal_overshoot-seed1.5",
            "corr_tail_mc-seed-1", "corr_tail_mc-seed1.5",
            "type_class_log_bound-n0", "sprt_mc-samples0",
            "corr_tail_mc-samples0", "corr_tail_mc-n1",
            "renewal_overshoot-samples1", "LatticeWalkSpec-max_steps0",
            "LatticeWalkSpec-max_steps-5", "LatticeWalkSpec-max_steps2.5",
            "corr_tail_mc-chunk0", "kl_divergence-shapes",
            "kl_divergence-infinite", "entropy-2d", "entropy-negative",
            "Dmc-1d", "Dmc-one-output", "information_density_table-zero-py",
            "SchemeConfig-one-input", "channel_stats-no-px",
            "asymptotic_schedule-log-m", "gaussian_corr_tail-complex",
            "exact_mi_tail-states"])
    def test_bad_input_raises_its_error(self, call, error, match, tmp_path):
        with pytest.raises(error, match=match):
            call(tmp_path)


_FUZZ_PARAMS = VlfParams(6 * math.log(2), 8.0, 13.0, 3.0, 3.0)
# (callable, valid keyword arguments, the scalar parameters fuzzed); every
# sampler gets a small samples and n, so a valid draw runs in milliseconds
_SCALAR_TABLE = [
    (bsc, {"p": 0.11}, ["p"]),
    (GaussianChannel, {"power": 1.0}, ["power"]),
    (VlfParams, dataclasses.asdict(_FUZZ_PARAMS),
     ["log_m", "gamma1", "gamma2", "a_accept", "a_reject", "eps0"]),
    (SchemeConfig, {"variant": "uvlf_bsc", "channel": bsc(0.11),
                    "px": UNIFORM2, "params": _FUZZ_PARAMS,
                    "training_len": 64},
     ["params", "training_len", "n_max", "seed", "c2"]),
    (universal_schedule, {"log_m": 60 * math.log(2), "num_x": 2, "num_y": 2,
                          "eps": 0.05, "d": 1.0},
     ["log_m", "num_x", "num_y", "eps", "d"]),
    (asymptotic_schedule, {"n1": 2000.0, "channel": bsc(0.11),
                           "px": UNIFORM2, "eps": 1e-3}, ["n1", "eps"]),
    (tail_exponents, {"num_x": 2, "num_y": 3}, ["num_x", "num_y"]),
    (optimize_params, {"s": channel_stats(bsc(0.11), UNIFORM2),
                       "target_eps": 1e-3, "target_n": 500.0},
     ["target_eps", "target_n"]),
    (single_phase_bound, {"s": channel_stats(bsc(0.11), UNIFORM2),
                          "target_eps": 1e-3, "target_n": 500.0},
     ["target_eps", "target_n"]),
    (converse_bound, {"cap_nats": 0.3, "eps": 1e-3, "n_avg": 500.0},
     ["cap_nats", "eps", "n_avg"]),
    (trial_records, {"cfg": _sim_cfg(UNIFORM2), "trials": 3, "workers": 1},
     ["trials", "workers"]),
    (LatticeWalkSpec, {"values": (1.0, -1.0), "probs": (0.6, 0.4),
                       "a_accept": 3.0, "a_reject": 3.0, "max_steps": 100},
     ["a_accept", "a_reject", "max_steps"]),
    (exact_passage_time, {"values": [1.0, -1.0], "probs": [0.6, 0.4],
                          "gamma": 2.0}, ["gamma"]),
    (passage_time_expansion, {"gamma": 3.0, "mean": 0.2, "rho": 0.5,
                              "span": 0.0}, ["gamma", "mean", "rho", "span"]),
    (info_density_passage_times, {"dmc": bsc(0.11), "px": UNIFORM2,
                                  "gamma": 5.0, "trials": 3, "seed": 0},
     ["gamma", "trials", "seed"]),
    (empirical_mi_passage_times, {"dmc": bsc(0.11), "px": UNIFORM2,
                                  "gamma": 5.0, "trials": 3, "seed": 0},
     ["gamma", "trials", "seed"]),
    (asymptotic_schedule_for_message_count,
     {"log_m": 20 * math.log(2), "channel": bsc(0.11), "px": UNIFORM2,
      "eps": 1e-3}, ["log_m", "eps"]),
    (mi_tail_bound, {"n": 4, "gamma": 1.0, "k_exp": 0.5},
     ["n", "gamma", "k_exp"]),
    (exact_mi_tail, {"n": 4, "px": UNIFORM2, "py": UNIFORM2,
                     "gamma_grid": [0.5, 1.0]}, ["n"]),
    (exact_eta_expectation, {"n": 4}, ["n"]),
    (type_class_log_bound, {"type_probs": UNIFORM2, "n": 2}, ["n"]),
    (gaussian_corr_tail, {"n": 200, "a": 0.3}, ["n", "a"]),
    (corr_tail_exact, {"n": 10, "a": 0.5}, ["n", "a"]),
    (corr_tail_mc, {"n": 10, "a": 0.5, "samples": 20, "seed": 0},
     ["n", "a", "samples", "seed"]),
    (sprt_mc, {"spec": WALK, "samples": 20, "seed": 0}, ["samples", "seed"]),
    (renewal_overshoot, {"values": [1.0, -1.0], "probs": [0.6, 0.4],
                         "samples": 20, "seed": 0}, ["samples", "seed"]),
]
_SCALAR_BAD = [None, "1", True, math.nan, math.inf, -math.inf, -1, 0, 2.5,
               1e300]
# what a refusal may name besides the parameter: the symbol its message
# uses (eps, N, N1), or a quantity derived from it.  At 1e300 a schedule's
# gamma1 absorbs the gap to gamma2, which VlfParams refuses, and a short
# log M or N is infeasible by n1 or n_avg.
_ALSO_NAMED = {
    (VlfParams, "gamma1"): "gamma2",
    (universal_schedule, "log_m"): "n1|gamma2",
    (universal_schedule, "d"): "gamma2",
    (asymptotic_schedule, "n1"): "N1|gamma2",
    (optimize_params, "target_eps"): "eps",
    (optimize_params, "target_n"): "N|n_avg",
    (single_phase_bound, "target_eps"): "eps",
    (single_phase_bound, "target_n"): "N|n_avg",
    (exact_passage_time, "gamma"): "max_steps",
    (asymptotic_schedule_for_message_count, "log_m"): "N1|gamma2",
}


def _numbers(obj):
    """Every number obj holds: itself, or its fields, items or entries."""
    if dataclasses.is_dataclass(obj):
        obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    if isinstance(obj, np.ndarray):
        return obj.ravel().tolist() if obj.dtype.kind in "biuf" else []
    if isinstance(obj, (tuple, list)):
        return [v for item in obj for v in _numbers(item)]
    return [obj] if isinstance(obj, numbers.Real) else []


@st.composite
def _scalar_case(draw):
    func, kwargs, params = draw(st.sampled_from(_SCALAR_TABLE))
    param = draw(st.sampled_from(params))
    bad = draw(st.sampled_from(_SCALAR_BAD))
    return func, {**kwargs, param: bad}, param, bad


class TestScalarInputFuzz:
    """One bad value in one scalar parameter of a library call: the call
    returns finite numbers (an infinite one only where the drawn value is
    stored as given) or raises a VlfError whose message names the
    parameter, and no other exception escapes."""

    # more examples than the table has cases: hypothesis draws each case
    # once and stops
    @given(_scalar_case())
    @settings(max_examples=1000, deadline=None, derandomize=True,
              database=None)
    def test_result_is_finite_or_refusal_names_the_parameter(self, case):
        func, kwargs, param, bad = case
        try:
            result = func(**kwargs)
        except VlfError as exc:
            also = _ALSO_NAMED.get((func, param), param)
            assert re.search(rf"\b({param}|{also})\b", str(exc)), (
                param, bad, exc)
            return
        assert all(math.isfinite(v) or v == bad for v in _numbers(result)), (
            param, bad, result)


class TestControlPair:
    def test_binary_symmetric_pair_and_divergence(self):
        xa, xr, d = control_pair(bsc(0.11))
        assert {xa, xr} == {0, 1}
        assert d == pytest.approx(1.6307780556, abs=1e-9)

    def test_pair_maximizes_divergence(self):
        dmc = Dmc(np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6], [0.4, 0.4, 0.2]]))
        xa, xr, d = control_pair(dmc)
        best = max(
            kl_divergence(dmc.matrix[i], dmc.matrix[j])
            for i in range(3)
            for j in range(3)
            if i != j
        )
        # one sum computes both, so they agree bit for bit
        assert d == best

    def test_empirical_kernel_with_zeros(self):
        # row 1 puts mass on output 1, which row 0 never produces
        kernel = np.array([[1.0, 0.0], [0.5, 0.5]])
        assert control_pair(kernel) == (1, 0, math.inf)
        # both orders diverge: the tie breaks to the smallest pair
        assert control_pair(np.array([[1.0, 0.0], [0.0, 1.0]])) == (0, 1, math.inf)
        # an output neither row produces adds nothing
        rows = [[0.5, 0.5, 0.0], [0.25, 0.75, 0.0]]
        xa, xr, d = control_pair(np.array(rows))
        assert (xa, xr) == (0, 1)
        assert d == pytest.approx(0.5 * math.log(4.0 / 3.0), abs=1e-12)
        # and its LLR is 0, from an array or from a nested list
        for kernel in (np.array(rows), rows):
            xa, xr, llr = control_llr(kernel)
            assert (xa, xr) == (0, 1)
            assert llr[:2] == pytest.approx([math.log(2.0), math.log(2.0 / 3.0)])
            assert llr[2] == 0.0


def _reference_divergences(rows):
    """D(W_a || W_r) of every ordered pair a != r, by loops over the
    outputs: 0 log(0/q) = 0 and +inf where q lacks mass.  Logs and each
    pair's sum come from numpy (np.log of one float, np.sum of one pair's
    terms), so equal definitions give equal floats."""
    def divergence(p, q):
        terms = []
        for pi, qi in zip(p, q):
            if pi == 0.0:
                terms.append(0.0)
            elif qi == 0.0:
                terms.append(math.inf)
            else:
                terms.append(pi * (float(np.log(pi)) - float(np.log(qi))))
        return float(np.sum(terms))

    nx = len(rows)
    return {(a, r): divergence(rows[a], rows[r])
            for a in range(nx) for r in range(nx) if a != r}


def _tied_pairs(div):
    """The ordered pairs within 1e-15 of the largest divergence."""
    top = max(div.values())
    return sorted(pair for pair, d in div.items() if d >= top - 1e-15)


def _reference_control_llr(rows):
    """control_llr by loops: the lexicographically first tied pair, and per
    output the LLR, 0 where neither row has mass and +-_LLR_CAP where one
    row lacks it."""
    div = _reference_divergences(rows)
    xa, xr = _tied_pairs(div)[0]
    llr = []
    for pa, pr in zip(rows[xa], rows[xr]):
        if pa == 0.0 and pr == 0.0:
            llr.append(0.0)
        elif pr == 0.0:
            llr.append(_LLR_CAP)
        elif pa == 0.0:
            llr.append(-_LLR_CAP)
        else:
            llr.append(float(np.log(pa)) - float(np.log(pr)))
    return xa, xr, div[xa, xr], llr


def _random_kernel(rng, case):
    """A random kernel of 2-5 inputs and 2-11 outputs: "plain", "one_row"
    (zero cells in one row), "all_rows" (an output no row gives), "ties"
    (at least three rows alternating one row and its mirror image, so
    several pairs score the same) or "mixed" (zero cells anywhere)."""
    nx, ny = int(rng.integers(2, 6)), int(rng.integers(2, 12))
    w = rng.random((nx, ny)) ** 2 + 1e-3
    w[np.arange(nx), rng.integers(ny, size=nx)] += 0.5  # every row has mass
    if case == "one_row":
        w[rng.integers(nx), rng.random(ny) < 0.4] = 0.0
    elif case == "all_rows":
        w[:, rng.integers(ny)] = 0.0
    elif case == "ties":
        row = w[0] / w[0].sum()
        w = np.array([row, row[::-1]] * 3)[: max(nx, 3)]
    elif case == "mixed":
        w[rng.random((nx, ny)) < 0.3] = 0.0
    w[w.sum(axis=1) == 0.0, 0] = 1.0
    return w / w.sum(axis=1, keepdims=True)


class TestControlPairReference:
    CASES = ("plain", "one_row", "all_rows", "ties", "mixed")

    @pytest.mark.parametrize("case", CASES)
    def test_pair_and_llr_equal_the_loop_reference(self, case):
        # 60 seeded kernels per case, 300 in all
        rng = np.random.default_rng(self.CASES.index(case))
        for _ in range(60):
            w = _random_kernel(rng, case)
            xa, xr, d, llr = _reference_control_llr(w.tolist())
            assert control_pair(w) == (xa, xr, d)
            got = control_llr(w)
            assert got[:2] == (xa, xr)
            assert got[2].tolist() == llr
            if case == "ties":
                assert len(_tied_pairs(_reference_divergences(w.tolist()))) >= 2

    def test_stacked_kernels_score_as_their_own_calls(self):
        # the same 300 kernels, grouped by shape and shuffled, so a stack
        # mixes clipped and unclipped rows and tied pairs
        groups = {}
        for case in self.CASES:
            rng = np.random.default_rng(self.CASES.index(case))
            for _ in range(60):
                w = _random_kernel(rng, case)
                groups.setdefault(w.shape, []).append((case, w))
        order = np.random.default_rng(7)
        mixed = set()
        for (nx, ny), block in groups.items():
            order.shuffle(block)
            kernels = np.stack([w for _, w in block])
            xa, xr, llr = control_llr(kernels)
            assert xa.shape == xr.shape == (len(block),)
            assert llr.shape == (len(block), ny)
            for (case, w), a, r, row in zip(block, xa.tolist(), xr.tolist(),
                                            llr):
                one = control_llr(w)
                assert (a, r) == one[:2]
                assert row.tobytes() == one[2].tobytes()
            capped = (np.abs(llr) == _LLR_CAP).any(axis=1)
            if capped.any() and not capped.all():
                mixed.add("clipped")
            if len({case == "ties" for case, _ in block}) == 2:
                mixed.add("ties")
            # two leading axes score as one
            even = 2 * (len(block) // 2)
            xa2, xr2, llr2 = control_llr(
                kernels[:even].reshape(2, even // 2, nx, ny))
            assert xa2.ravel().tolist() == xa[:even].tolist()
            assert xr2.ravel().tolist() == xr[:even].tolist()
            assert llr2.reshape(even, ny).tobytes() == llr[:even].tobytes()
        assert mixed == {"clipped", "ties"}


class TestGaussianInformationDensity:
    def test_mean_density_matches_capacity_by_quadrature(self):
        chan = GaussianChannel(1.0)
        # E over x ~ N(0, P), y = x + z: two-dimensional Gauss-Hermite grid
        from numpy.polynomial.hermite_e import hermegauss

        nodes, weights = hermegauss(80)
        weights = weights / math.sqrt(2 * math.pi)
        x = nodes[:, None] * math.sqrt(chan.power)
        z = nodes[None, :]  # unit noise
        dens = np.vectorize(gaussian_information_density)(chan, x, x + z)
        mean = float((weights[:, None] * weights[None, :] * dens).sum())
        assert mean == pytest.approx(chan.capacity, abs=1e-6)

    def test_density_is_symmetric_in_sign(self):
        chan = GaussianChannel(2.0)
        a = gaussian_information_density(chan, 1.3, 0.4)
        b = gaussian_information_density(chan, -1.3, -0.4)
        assert a == pytest.approx(b, rel=1e-12)


class TestParsingAndValidation:
    def test_parse_bsc_and_awgn(self):
        ch = parse_channel_spec("bsc:0.11")
        assert isinstance(ch, Dmc)
        np.testing.assert_allclose(ch.matrix, [[0.89, 0.11], [0.11, 0.89]])
        g = parse_channel_spec("awgn:2.5")
        assert isinstance(g, GaussianChannel)
        assert g.power == pytest.approx(2.5)

    def test_parse_dmc_file_roundtrip(self, tmp_path):
        path = tmp_path / "chan.csv"
        path.write_text("0.7 0.2 0.1\n0.1 0.3 0.6\n")
        ch = parse_channel_spec(f"dmc:{path}")
        np.testing.assert_allclose(
            ch.matrix, [[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]]
        )

    def test_bad_specs_raise(self, tmp_path):
        for spec in ("noise:0.1", "bsc:1.2", "awgn:-1", "bsc:abc", "bsc"):
            with pytest.raises(VlfError):
                parse_channel_spec(spec)
        bad = tmp_path / "bad.csv"
        bad.write_text("0.5 0.4\n0.5 0.5\n")
        with pytest.raises(VlfError):
            load_dmc(str(bad))

    def test_load_dmc_skips_blank_and_comment_lines(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("# a binary channel\n\n0.7 0.3  # row 1\n   \n"
                        "0.2 0.8\n# end\n", encoding="utf-8")
        assert load_dmc(str(path)).matrix.tolist() == [[0.7, 0.3], [0.2, 0.8]]

    # a line number counts every line of the file, blank and comment ones
    # too; a binary file ended in a bare UnicodeDecodeError, "'utf-8' codec
    # can't decode byte 0xff in position 0", which named no file, and a
    # missing one in a FileNotFoundError
    @pytest.mark.parametrize("content,error,match", [
        (None, NotADistribution, "No such file or directory"),
        (b"0.7 0.3\n\n0.2 x\n", NotADistribution,
         "line 3: unparseable entry"),
        (b"", NotADistribution, "no matrix rows found"),
        (b"# only a comment\n\n", NotADistribution, "no matrix rows found"),
        (b"# 2 columns\n0.7 0.3\n0.2 0.3 0.5\n", DimensionMismatch,
         "line 3 has 3 columns, expected 2"),
        (b"\xff\xfe0.7 0.3\n", NotADistribution,
         "not UTF-8 text \\(invalid start byte at byte 0\\)"),
    ], ids=["missing", "unparseable", "empty", "comments-only", "ragged",
            "binary"])
    def test_load_dmc_failure_names_the_file(self, content, error, match,
                                             tmp_path):
        path = tmp_path / "w.txt"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(error, match=match) as err:
            load_dmc(str(path))
        assert str(err.value).startswith(f"dmc matrix file {path}: ")

    def test_dmc_rejects_nonstochastic_matrices(self):
        with pytest.raises(NotADistribution):
            Dmc(np.array([[0.5, 0.6], [0.5, 0.5]]))
        with pytest.raises(VlfError):
            Dmc(np.array([[1.0, 0.0], [0.0, 1.0]]))  # zeros break log kernels

    def test_gaussian_rejects_bad_parameters(self):
        with pytest.raises(VlfError):
            GaussianChannel(0.0)
        with pytest.raises(VlfError):
            GaussianChannel(-1.0)

    @pytest.mark.parametrize("power", [math.inf, math.nan])
    def test_gaussian_parameters_must_be_finite(self, power):
        with pytest.raises(NotADistribution, match="finite"):
            GaussianChannel(power)

    @pytest.mark.parametrize("spec", ["awgn:inf", "awgn:1e400"])
    def test_infinite_snr_spec_rejected(self, spec):
        with pytest.raises(NotADistribution, match=re.escape(
                "power must be a finite number in (0, inf), got inf")):
            parse_channel_spec(spec)
