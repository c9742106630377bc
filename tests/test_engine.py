"""Monte Carlo engine: trial mechanics, determinism, estimates."""

import ast
import dataclasses
import math
import os
import pickle
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import vlf
from vlf import engine
from vlf.bounds import VlfParams, channel_stats
from vlf.channel import (
    Dmc,
    GaussianChannel,
    binary_entropy,
    bsc,
    gaussian_information_density,
    information_density_table,
)
from vlf.empirical import empirical_mi, joint_type, universal_gaussian_metric
from vlf.engine import (
    METRICS,
    VARIANTS,
    AdditiveDmc,
    AdditiveGaussian,
    Correlation,
    EmpiricalMi,
    FlipEntropy,
    SchemeConfig,
    TrialOutcome,
    aggregate_records,
    empirical_mi_passage_times,
    estimate_channel,
    info_density_passage_times,
    run_monte_carlo,
    simulate_trial,
    trial_records,
)
from vlf.ensemble import FlipEntropyAbsorption
from vlf.errors import (
    HorizonTooSmall,
    InsufficientTraining,
    StateExplosion,
    VlfError,
)

LN2 = math.log(2.0)
CH = bsc(0.11)
UNIFORM2 = np.array([0.5, 0.5])


def _params(log2m=8.0, g1=8.0, g2=14.0, a=3.0, eps0=0.0):
    return VlfParams(log_m=log2m * LN2, gamma1=g1, gamma2=g2,
                     a_accept=a, a_reject=a, eps0=eps0)


def _cfg(**kw):
    base = dict(variant="vlf_dmc", channel=CH, px=UNIFORM2,
                params=_params(), seed=0)
    base.update(kw)
    return SchemeConfig(**base)


# channel, codebook and training length of each variant's test setup
VARIANT_SETUPS = {
    "vlf_dmc": (CH, UNIFORM2, 0),
    "uvlf_dmc": (CH, UNIFORM2, 64),
    "uvlf_bsc": (CH, UNIFORM2, 64),
    "vlf_awgn": (GaussianChannel(1.0), None, 0),
    "uvlf_awgn": (GaussianChannel(1.0), None, 64),
}
ENSEMBLE_VARIANTS = ("vlf_dmc", "vlf_awgn", "uvlf_dmc", "uvlf_bsc")
# every (variant, competitor mode) pair the engine runs
VARIANT_MODES = ([(v, "literal") for v in VARIANT_SETUPS]
                 + [(v, "ensemble") for v in ENSEMBLE_VARIANTS])


def _variant_cfg(variant, params, **kw):
    channel, px, training = VARIANT_SETUPS[variant]
    return SchemeConfig(variant=variant, channel=channel, px=px, params=params,
                        training_len=training, **kw)


def _llr_list(values):
    """An LLR sampler for _block_sprt that hands out `values` in order and
    then runs dry."""
    rest = list(values)

    def draw(b):
        out = np.array(rest[:b], dtype=float)
        del rest[:b]
        return out

    return draw


def _sprt(values, a_accept, a_reject, budget=math.inf):
    return engine._block_sprt(_llr_list(values), a_accept, a_reject, budget)


class TestSprt:
    def test_accepts_at_first_strict_upcrossing(self):
        decision, steps, s = _sprt([0.5, 0.6, 2.1, 9.9], 3.0, 3.0)
        assert (decision, steps) == ("accept", 3)
        assert s == pytest.approx(3.2)

    def test_rejects_on_downcrossing(self):
        decision, steps, s = _sprt([-4.0], 3.0, 3.0)
        assert (decision, steps) == ("reject", 1)
        assert s == pytest.approx(-4.0)

    def test_landing_exactly_on_threshold_continues(self):
        decision, steps, _ = _sprt([1.0, 1.0, 1.0], 2.0, 2.0)
        assert (decision, steps) == ("accept", 3)

    def test_exhausted_stream_is_undecided(self):
        assert _sprt([0.1, -0.1, 0.1], 3.0, 3.0)[0] is None

    def test_step_budget_leaves_it_undecided(self):
        assert _sprt([0.1] * 100, 3.0, 3.0, budget=5)[0] is None

    def test_thresholds_must_be_positive(self):
        with pytest.raises(VlfError):
            VlfParams(LN2, 8.0, 14.0, 0.0, 3.0)
        with pytest.raises(VlfError):
            VlfParams(LN2, 8.0, 14.0, 3.0, -1.0)


class TestConfigValidation:
    def test_unknown_variant(self):
        with pytest.raises(VlfError):
            _cfg(variant="vlf_quantum")

    def test_channel_kind_must_match_variant(self):
        with pytest.raises(VlfError):
            _cfg(variant="vlf_awgn")  # finite-alphabet channel given
        with pytest.raises(VlfError):
            _cfg(variant="vlf_dmc", channel=GaussianChannel(1.0), px=None)

    def test_input_distribution_must_fit_channel(self):
        with pytest.raises(VlfError):
            _cfg(px=np.array([0.2, 0.3, 0.5]))
        with pytest.raises(VlfError):
            _cfg(px=np.array([0.9, 0.3]))
        with pytest.raises(VlfError):
            _cfg(px=np.array([math.nan, 1.0]))  # its sum is NaN

    def test_binary_specialization_needs_binary_channel(self):
        tri = Dmc(np.full((3, 3), 1.0 / 3.0))
        with pytest.raises(VlfError):
            _cfg(variant="uvlf_bsc", channel=tri,
                 px=np.full(3, 1.0 / 3.0), training_len=10)

    def test_training_shorter_than_input_alphabet(self):
        with pytest.raises(InsufficientTraining):
            _cfg(variant="uvlf_dmc", training_len=1)

    def test_horizon_below_safety_floor(self):
        with pytest.raises(HorizonTooSmall):
            run_monte_carlo(_cfg(n_max=10), 1)

    def test_second_phase_cap_must_exceed_one(self):
        with pytest.raises(VlfError):
            _cfg(c2=1.0)

    def test_bad_competitor_mode(self):
        with pytest.raises(VlfError):
            _cfg(competitor_mode="psychic")

    def test_trial_count_validated(self):
        with pytest.raises(VlfError):
            run_monte_carlo(_cfg(), 0)


class TestVariantRegistry:
    def test_no_comparison_against_a_variant_name(self):
        # variant dispatch goes through engine.METRICS, never through
        # if-chains on variant strings
        def names_a_variant(node):
            if isinstance(node, ast.Constant):
                return node.value in VARIANTS
            if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                return any(names_a_variant(e) for e in node.elts)
            return False

        ops = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)
        found = []
        for path in sorted(Path(vlf.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (
                    isinstance(node, ast.Compare)
                    and any(isinstance(op, ops) for op in node.ops)
                    and any(map(names_a_variant, [node.left, *node.comparators]))
                ):
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []

    def test_no_isinstance_dispatch_on_a_channel_class(self):
        # channel-family behaviour lives on the metric classes; a check of a
        # config against its registered kind (kind.channel_type) stays
        channel_classes = {"Dmc", "GaussianChannel"}
        found = []
        for name in ("engine.py", "ensemble.py"):
            path = Path(vlf.__file__).parent / name
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"
                    and len(node.args) == 2
                    and channel_classes & set(_referenced_names(node.args[1]))
                ):
                    found.append(f"{name}:{node.lineno}")
        assert found == []


class TestNoUnusedImports:
    def test_every_package_import_is_used(self):
        # no linter ships with the project; this is pyflakes' unused-import
        # check.  __init__.py is skipped: its imports are the re-exports.
        found = []
        for path in sorted(Path(vlf.__file__).parent.glob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            for node in ast.walk(tree):
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno} {name}")
        assert found == []


def _referenced_names(node):
    """Every name the code under node refers to: identifiers, attribute
    names, imported names and strings (for look-ups by name)."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name.rsplit(".", 1)[-1]
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield n.value


class TestNoUnreferencedDefinitions:
    def test_every_package_definition_is_referenced(self):
        # a module-level function or class, or a method or property, that
        # nothing outside its own body calls is dead code.  __init__.py only
        # re-exports, so its imports do not count; dunder methods are called
        # implicitly.
        package = Path(vlf.__file__).parent
        repo = Path(__file__).resolve().parent.parent
        modules = [p for p in sorted(package.glob("*.py"))
                   if p.name != "__init__.py"]
        readers = modules + sorted((repo / "tests").glob("*.py")) + sorted(
            (repo / "perfbench").glob("*.py"))
        trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in readers}
        refs = Counter()
        for tree in trees.values():
            refs.update(_referenced_names(tree))
        found = []
        for path in modules:
            for top in trees[path].body:
                defs = [top]
                if isinstance(top, ast.ClassDef):
                    defs += [d for d in top.body if isinstance(
                        d, (ast.FunctionDef, ast.AsyncFunctionDef))]
                for d in defs:
                    if not isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef,
                                          ast.ClassDef)):
                        continue
                    if d.name.startswith("__") and d.name.endswith("__"):
                        continue
                    own = Counter(_referenced_names(d))[d.name]
                    if refs[d.name] <= own:
                        found.append(f"{path.name}:{d.lineno} {d.name}")
        assert found == []


class TestCompetitorModeResolution:
    def test_huge_message_count_cannot_run_literally(self):
        cfg = _cfg(params=_params(log2m=100.0, g1=72.0, g2=76.0, a=5.0),
                   competitor_mode="literal")
        with pytest.raises(StateExplosion):
            run_monte_carlo(cfg, 1)

    def test_gaussian_universal_has_no_large_scale_strategy(self):
        cfg = SchemeConfig(
            variant="uvlf_awgn", channel=GaussianChannel(1.0), px=None,
            params=_params(log2m=100.0, g1=75.0, g2=80.0, a=4.0),
            training_len=32, seed=0, competitor_mode="ensemble",
        )
        with pytest.raises(StateExplosion):
            run_monte_carlo(cfg, 1)

    def test_binary_specialization_ensemble_needs_uniform_input(self):
        cfg = _cfg(variant="uvlf_bsc", px=np.array([0.7, 0.3]),
                   training_len=16, competitor_mode="ensemble")
        with pytest.raises(StateExplosion):
            run_monte_carlo(cfg, 1)


class TestTrainingEstimates:
    def test_deterministic_given_seed_and_trial(self):
        cfg = _cfg(variant="uvlf_dmc", training_len=100)
        a = estimate_channel(cfg, trial_index=7)
        b = estimate_channel(cfg, trial_index=7)
        c = estimate_channel(cfg, trial_index=8)
        np.testing.assert_array_equal(a.kernel, b.kernel)
        assert not np.array_equal(a.kernel, c.kernel)

    def test_training_budget_split_across_inputs(self):
        cfg = _cfg(variant="uvlf_dmc", training_len=7)
        est = estimate_channel(cfg)
        np.testing.assert_array_equal(est.counts, [4, 3])
        np.testing.assert_allclose(est.kernel.sum(axis=1), [1.0, 1.0])

    def test_long_training_concentrates_on_the_true_kernel(self):
        cfg = _cfg(variant="uvlf_dmc", training_len=1_000_000)
        est = estimate_channel(cfg)
        assert float(np.max(np.abs(est.kernel - CH.matrix))) < 0.005

    def test_known_channel_config_draws_no_training(self):
        with pytest.raises(InsufficientTraining):
            estimate_channel(_cfg(training_len=100))

    def test_gaussian_noise_variance_estimate(self):
        cfg = SchemeConfig(
            variant="uvlf_awgn", channel=GaussianChannel(1.0, 2.0), px=None,
            params=_params(log2m=6.0, g1=6.0, g2=10.0, a=3.0),
            training_len=10_000, seed=3,
        )
        est = estimate_channel(cfg)
        assert est.kernel is None
        assert 0.95 * 2.0 <= est.noise_variance <= 1.05 * 2.0


class TestTrialOutcomes:
    def test_lengths_partition_the_stopping_time(self):
        cfg = _cfg()
        for i in range(200):
            o = simulate_trial(cfg, i)
            if o.stopped_at_zero:
                assert o.tau == 0
            else:
                assert o.tau == o.len_c1 + o.len_ht + o.len_c2
            assert o.energy == 0.0  # finite-alphabet runs carry no power cost

    def test_stop_at_time_zero_always(self):
        cfg = _cfg(params=_params(eps0=1.0))
        outs = [TrialOutcome.from_record(r) for r in trial_records(cfg, 50)]
        assert all(o.stopped_at_zero and o.tau == 0 for o in outs)
        assert not any(o.correct for o in outs)

    def test_honest_time_zero_guesses_uniformly(self):
        cfg = _cfg(params=VlfParams(LN2, 8.0, 14.0, 3.0, 3.0, eps0=1.0),
                   honest_time_zero=True)
        est = run_monte_carlo(cfg, 2000)
        # guessing one of two messages: about half the trials decode right
        assert 0.4 <= 1.0 - est.eps_hat <= 0.6

    def test_near_noiseless_channel_decodes_fast_and_clean(self):
        clean = bsc(1e-4)
        cfg = SchemeConfig(
            variant="vlf_dmc", channel=clean, px=UNIFORM2,
            params=VlfParams(LN2, 0.6, 1.2, 3.0, 3.0), seed=1,
        )
        est = run_monte_carlo(cfg, 500)
        assert est.eps_hat == 0.0
        # one symbol clears the first threshold, one confirms
        assert 1.9 <= est.n_hat <= 3.0
        assert est.censor_rate == 0.0

    def test_single_trial_interval_is_degenerate(self):
        est = run_monte_carlo(_cfg(), 1)
        assert est.degenerate
        assert math.isnan(est.n_lo) and math.isnan(est.n_hi)

    def test_simulate_trial_matches_generator(self):
        cfg = _cfg()
        gen = [TrialOutcome.from_record(r) for r in trial_records(cfg, 5)]
        solo = [simulate_trial(cfg, i) for i in range(5)]
        assert gen == solo


def _pair_cfg(variant, mode):
    return _variant_cfg(variant, _params(log2m=6.0, g1=8.0, g2=13.0, a=3.0),
                        seed=5, competitor_mode=mode)


def _walk_energy(cfg, rt, trial_index):
    """The running input energy of a trial's true walk, replayed from the
    trial's RNG stream."""
    rng = engine._trial_rng(cfg.seed, trial_index)
    if rt.metric.universal:
        rt.metric.draw_training(rng, cfg.channel, cfg.training_len)
    rng.random()  # the stop-at-time-zero draw
    return engine._true_walk(rng, rt)[3]


class TestCensoringRule:
    @pytest.mark.parametrize("variant", ["vlf_dmc", "vlf_awgn"])
    def test_reject_then_overrun_is_charged_in_protocol_order(
        self, variant, monkeypatch
    ):
        # the test rejects 5 steps before its budget n_max - tau_first, so
        # the walk's gamma_2 crossing plus the control symbols pass n_max
        budgets = []

        def late_reject(draw_llr, a_accept, a_reject, budget):
            budgets.append(budget)
            return "reject", budget - 5, -a_reject - 1.0

        monkeypatch.setattr(engine, "_block_sprt", late_reject)
        cfg = _pair_cfg(variant, "literal")
        rt = engine._Runtime(cfg)
        o = simulate_trial(cfg, 0, _runtime=rt)
        n_max = rt.n_max
        assert o.censored and not o.correct
        assert o.tau == n_max
        assert o.len_c1 == n_max - budgets[0]  # the phase-1 time
        assert o.len_ht == budgets[0] - 5
        assert o.len_c2 == n_max - o.len_c1 - o.len_ht
        if rt.metric.gaussian:
            walk = float(_walk_energy(cfg, rt, 0)[o.len_c1 + o.len_c2 - 1])
            assert o.energy - o.len_ht * rt.metric.power == pytest.approx(
                walk, rel=1e-12
            )

    @pytest.mark.parametrize("variant", ["vlf_awgn", "uvlf_awgn"])
    def test_censored_energy_counts_only_the_charged_symbols(self, variant):
        # long confirmation tests at a tight horizon censor about a third of
        # the runs, through every branch that reaches n_max
        cfg = _variant_cfg(
            variant, VlfParams(6.0 * LN2, 2.0, 13.0, 680.0, 680.0),
            seed=2, n_max=376,
        )
        rt = engine._Runtime(cfg)
        censored = 0
        for i in range(60):
            o = simulate_trial(cfg, i, _runtime=rt)
            if not o.censored:
                continue
            censored += 1
            assert o.tau == rt.n_max == o.len_c1 + o.len_ht + o.len_c2
            ecum = _walk_energy(cfg, rt, i)
            walk = float(ecum[min(o.len_c1 + o.len_c2, ecum.size) - 1])
            assert o.energy - o.len_ht * rt.metric.power == pytest.approx(
                walk, rel=1e-12
            )
        assert censored >= 10

    def test_c2_capped_energy_counts_every_charged_symbol(self):
        # a universal run stopped by the c2 cap is charged n_max - len_ht
        # walk symbols, far past the block that held its gamma_2 crossing
        cfg = _pair_cfg("uvlf_awgn", "literal")
        long_runs = 0
        for row in trial_records(cfg, 2000):
            o = TrialOutcome.from_record(row)
            if o.censored and o.len_c1 + o.len_c2 >= 500:
                long_runs += 1
                assert 0.8 <= o.energy / o.tau <= 1.2  # P = 1
        assert long_runs > 0


class TestDeterminismAndAggregation:
    @pytest.mark.parametrize("variant,mode", VARIANT_MODES)
    def test_worker_count_does_not_change_the_estimate(self, variant, mode):
        cfg = _pair_cfg(variant, mode)
        a = run_monte_carlo(cfg, 200, workers=1)
        b = run_monte_carlo(cfg, 200, workers=2)
        assert a == b

    @pytest.mark.parametrize("variant,mode", VARIANT_MODES)
    def test_runtime_pickles_to_an_equivalent_copy(self, variant, mode):
        # a pool started by spawn or forkserver pickles the runtime it hands
        # to its workers
        cfg = _pair_cfg(variant, mode)
        rt = engine._Runtime(cfg)
        copy = pickle.loads(pickle.dumps(rt))
        assert copy.mode == mode
        for i in range(6):
            assert (simulate_trial(cfg, i, _runtime=copy)
                    == simulate_trial(cfg, i, _runtime=rt))

    def test_pool_workers_use_the_runtime_built_in_the_parent(self, monkeypatch):
        # forked workers inherit the patch: a runtime built in one fails it
        test_pid = os.getpid()
        builds = []
        build = engine._Runtime.__init__

        def parent_only(rt, cfg):
            if os.getpid() != test_pid:
                raise AssertionError("a pool worker built a runtime")
            builds.append(cfg)
            build(rt, cfg)

        monkeypatch.setattr(engine._Runtime, "__init__", parent_only)
        cfg = _pair_cfg("uvlf_bsc", "ensemble")
        pooled = trial_records(cfg, 40, workers=2)
        assert len(builds) == 1
        assert np.array_equal(pooled, trial_records(cfg, 40, workers=1))

    def test_streaming_aggregation_equals_batch(self):
        cfg = _cfg()
        streamed = aggregate_records(cfg, np.array(
            [dataclasses.astuple(simulate_trial(cfg, i)) for i in range(300)]
        ))
        batch = run_monte_carlo(cfg, 300)
        assert streamed == batch

    def test_different_seeds_differ(self):
        a = run_monte_carlo(_cfg(seed=1), 200)
        b = run_monte_carlo(_cfg(seed=2), 200)
        assert a.n_hat != b.n_hat


class TestCompetitorStrategiesAgree:
    @pytest.mark.parametrize("variant", ENSEMBLE_VARIANTS)
    def test_small_scale_and_large_scale_runs_are_consistent(self, variant):
        params = _params(log2m=6.0, g1=7.0, g2=12.0, a=3.0)
        lit = run_monte_carlo(
            _variant_cfg(variant, params, seed=0, competitor_mode="literal"), 4000
        )
        ens = run_monte_carlo(
            _variant_cfg(variant, params, seed=0, competitor_mode="ensemble"), 4000
        )
        # same protocol, two competitor implementations: CIs must overlap
        assert lit.eps_lo <= ens.eps_hi and ens.eps_lo <= lit.eps_hi
        assert lit.n_lo <= ens.n_hi and ens.n_lo <= lit.n_hi


def _flip_entropy_reference(m, x, y):
    n = np.arange(1, x.size + 1)
    k = np.cumsum(x != y)
    return np.array([i * (LN2 - binary_entropy(j / i)) for i, j in zip(n, k)])


# each metric's reference definition along one path: the metric after
# steps 1..n, NaN where the kernel does not evaluate it (uvlf_awgn below
# n_min)
KERNEL_REFERENCES = {
    AdditiveDmc: lambda m, x, y: np.cumsum(
        information_density_table(m.px, m.channel)[x, y]),
    AdditiveGaussian: lambda m, x, y: np.cumsum(
        gaussian_information_density(m.channel, x, y)),
    EmpiricalMi: lambda m, x, y: np.array([
        n * empirical_mi(joint_type(x[:n], y[:n], m.num_x, m.num_y))
        for n in range(1, x.size + 1)]),
    FlipEntropy: _flip_entropy_reference,
    Correlation: lambda m, x, y: np.array([
        universal_gaussian_metric(x[:n], y[:n]) if n >= m.n_min else math.nan
        for n in range(1, x.size + 1)]),
}


class TestMetricKernelsMatchTheirDefinitions:
    LENGTH, SPLIT, ROWS = 150, 37, 5

    def _run(self, metric, x, y):
        """The kernel over x and y in two calls, carrying its state."""
        state = metric.start(x.shape[0])
        a, state = metric.metric(state, x[:, :self.SPLIT], y[:, :self.SPLIT])
        b, _ = metric.metric(state, x[:, self.SPLIT:], y[:, self.SPLIT:])
        return np.concatenate([a, b], axis=1)

    def _check(self, metric, got, x, y):
        want = KERNEL_REFERENCES[type(metric)](metric, x, y)
        live = ~np.isnan(want)
        np.testing.assert_allclose(got[live], want[live], rtol=1e-12,
                                   atol=1e-9)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_one_row_and_chunked_rows(self, variant):
        channel, px, _ = VARIANT_SETUPS[variant]
        metric = METRICS[variant](channel, px, 400, n_min=6)
        rng = np.random.default_rng(11)
        # one row: the true walk's case, symbols and outputs drawn jointly
        x, y = metric.draw_true(rng, (1, self.LENGTH))
        self._check(metric, self._run(metric, x, y)[0], x[0], y[0])
        # chunked rows: the literal race's case, competitors against one y
        xs = metric.draw_inputs(rng, self.ROWS, y)
        got = self._run(metric, xs, y)
        for r in range(self.ROWS):
            self._check(metric, got[r], xs[r], y[0])


def _full_grid_absorption(metric, gamma1):
    """Reference for FlipEntropyAbsorption: the flip-count DP over every
    count 0..t at every step t, with no band."""
    mass = np.ones(1)
    absorbed = []  # (times, flip counts, masses)
    cum = np.zeros(metric.n_max + 1)
    for t in range(1, metric.n_max + 1):
        grown = np.zeros(t + 1)
        grown[:-1] += mass * 0.5
        grown[1:] += mass * 0.5
        mass = grown
        k = np.arange(t + 1)
        hit = (metric.count_metric(t, k) > gamma1) & (mass > 0.0)
        cum[t] = cum[t - 1]
        ki = np.nonzero(hit)[0]
        if ki.size:
            absorbed.append((np.full(ki.size, t), ki, mass[ki]))
            cum[t] += float(mass[ki].sum())
            mass[ki] = 0.0
    return cum, absorbed


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


class TestFlipEntropyAbsorption:
    # 0.5 absorbs all mass at t = 1 (the metric is log 2 there); 500 exceeds
    # the largest value at n_max, 300 log 2, so nothing is absorbed
    @pytest.mark.parametrize("gamma1", [0.5, 3.0, 10.0, 25.0, 500.0])
    def test_band_dp_equals_full_grid_dp(self, gamma1):
        metric = FlipEntropy(CH, UNIFORM2, 300)
        band = FlipEntropyAbsorption(metric, gamma1)
        cum, absorbed = _full_grid_absorption(metric, gamma1)
        assert _same(band.cum, cum)
        if not absorbed:
            assert band.absorbed is None
            return
        t, k, w = (np.concatenate(part) for part in zip(*absorbed))
        times, values, counts, masses = band.absorbed
        assert _same(times, t) and _same(counts, k[:, None])
        assert _same(masses, w)
        assert _same(values, metric.count_metric(t, k))


class TestAllVariantsRun:
    @pytest.mark.parametrize(
        "variant,channel,px,training",
        [
            ("vlf_dmc", CH, UNIFORM2, 0),
            ("uvlf_dmc", CH, UNIFORM2, 64),
            ("uvlf_bsc", CH, UNIFORM2, 64),
            ("vlf_awgn", GaussianChannel(1.0), None, 0),
            ("uvlf_awgn", GaussianChannel(1.0), None, 64),
        ],
    )
    def test_every_variant_completes(self, variant, channel, px, training):
        gaussian = isinstance(channel, GaussianChannel)
        cfg = SchemeConfig(
            variant=variant, channel=channel, px=px,
            params=_params(log2m=6.0, g1=8.0, g2=13.0, a=3.0),
            training_len=training, seed=5,
        )
        est = run_monte_carlo(cfg, 200)
        assert est.trials == 200
        assert est.eps_hat <= 0.5
        assert est.censor_rate <= 0.05
        assert (est.power_hat is not None) == gaussian
        if gaussian:
            assert 0.5 <= est.power_hat <= 1.5


class TestSecondPhaseCap:
    def test_tight_cap_censors_slow_continuations(self):
        common = dict(
            variant="uvlf_bsc", training_len=64,
            params=_params(log2m=6.0, g1=7.0, g2=10.0, a=3.0),
        )
        relaxed = run_monte_carlo(_cfg(**common), 2000)
        tight = run_monte_carlo(_cfg(c2=1.0001, **common), 2000)
        assert tight.censor_rate > relaxed.censor_rate


class TestPassageTimeHelpers:
    def test_adaptive_statistic_slope_near_inverse_drift(self):
        taus = empirical_mi_passage_times(CH, UNIFORM2, 20.0, 5000, seed=4)
        ratio = float(taus.mean()) / 20.0
        assert 2.6 <= ratio <= 3.2  # near 1/C = 2.885

    def test_known_statistic_obeys_overshoot_bound(self):
        s = channel_stats(CH, UNIFORM2)
        taus = info_density_passage_times(CH, UNIFORM2, 20.0, 5000, seed=4)
        mean = float(taus.mean())
        se = float(taus.std(ddof=1)) / math.sqrt(taus.size)
        assert mean <= (20.0 + s.b) / s.drift + 4 * se
        assert mean >= 20.0 / s.drift - 4 * se

    def test_input_must_be_a_distribution(self):
        # [0.3, 0.3] gave a mean of 11.4 against 29.3 with a uniform input
        with pytest.raises(VlfError):
            info_density_passage_times(CH, [0.3, 0.3], 10.0, 2000)

    def test_adaptive_statistic_crosses_earlier_from_estimation_bias(self):
        # the plug-in statistic overestimates information at finite length,
        # so its crossing times sit slightly below the known-statistic ones
        emp = empirical_mi_passage_times(CH, UNIFORM2, 20.0, 3000, seed=9)
        known = info_density_passage_times(CH, UNIFORM2, 20.0, 3000, seed=9)
        assert float(emp.mean()) < float(known.mean())
