"""Monte Carlo engine: trial mechanics, determinism, estimates."""

import ast
import dataclasses
import functools
import math
import multiprocessing
import os
import pickle
import types
import warnings
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import vlf
from vlf import cli, engine, ensemble
from vlf.bounds import VlfParams, channel_stats
from vlf.channel import (
    _LLR_CAP,
    Dmc,
    GaussianChannel,
    binary_entropy,
    bsc,
    control_llr,
    gaussian_information_density,
    information_density_table,
)
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
    info_density_passage_times,
    run_monte_carlo,
    simulate_trial,
    trial_records,
)
from vlf.ensemble import FlipEntropyAbsorption, count_log_table, count_mi
from vlf.errors import (
    DimensionMismatch,
    HorizonTooSmall,
    Infeasible,
    InsufficientTraining,
    NonPositiveDrift,
    NotADistribution,
    StateExplosion,
    VlfError,
)
from vlf.oracle import (
    _compositions,
    empirical_mi,
    exact_race_law,
    joint_type,
    universal_gaussian_metric,
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
# every (variant, competitor race) pair the engine runs
VARIANT_MODES = ([(v, "literal") for v in VARIANT_SETUPS]
                 + [(v, "ensemble") for v in ENSEMBLE_VARIANTS])


@pytest.fixture
def force_ensemble(monkeypatch):
    """The ensemble race at any M.  The runtime races literally whenever
    ensemble.literal_count gives a count, so this is how a test reaches the
    ensemble at a small M and checks it against the literal race."""
    monkeypatch.setattr(ensemble, "literal_count", lambda log_m: None)


@pytest.fixture
def mode(request):
    """The race a test parametrizes indirectly: "literal", which the runtime
    picks at the pair config's M = 2^6, or "ensemble" through
    force_ensemble."""
    if request.param == "ensemble":
        request.getfixturevalue("force_ensemble")
    return request.param


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


def _mask_sprt(draw_llr, a_accept, a_reject, budget):
    """_block_sprt with its exit found by a mask over each block's partial
    sums, .any() and .argmax(), for the exit scan to be checked against."""
    s = 0.0
    used = 0
    while used < budget:
        vals = draw_llr(min(engine._HT_BLOCK, budget - used))
        if vals.size == 0:
            break
        csum = s + np.add.accumulate(vals)
        exit_mask = (csum > a_accept) | (csum < -a_reject)
        if exit_mask.any():
            i = int(exit_mask.argmax())
            decision = "accept" if csum[i] > a_accept else "reject"
            return decision, used + i + 1, float(csum[i])
        s = float(csum[-1])
        used += vals.size
    return None, used, s


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

    def test_infinite_llrs_decide_as_their_cap(self):
        # a training estimate that never saw output 1 from input 0 nor
        # output 0 from input 1 makes both LLRs of the test infinite
        cap = _LLR_CAP
        _, _, llr = control_llr(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert sorted(llr.tolist()) == [-cap, cap]
        for head, tail in ((0.5, -1.0), (-0.5, 1.0)):
            # the first infinity exits; the opposite one after it in the
            # same block sums to NaN, which the SPRT must not read
            raw = [head, math.copysign(math.inf, head),
                   -math.copysign(math.inf, head), tail]
            capped = np.clip(raw, -cap, cap).tolist()
            with np.errstate(invalid="ignore"):
                want = _sprt(raw, 3.0, 3.0)
            got = _sprt(capped, 3.0, 3.0)  # RuntimeWarnings fail the test
            assert got[:2] == want[:2] == (
                "accept" if head > 0 else "reject", 2)
            assert got[2] == math.copysign(cap, head)

    @pytest.mark.parametrize("seed", range(40))
    def test_exit_scan_equals_the_mask_form(self, seed):
        # LLRs of a few exact binary fractions, so partial sums land on the
        # thresholds exactly, the caps, and runs over several blocks whose
        # sums carry from one block to the next
        rng = np.random.default_rng(seed)
        if seed % 2:  # a drift small enough to last several blocks
            pool, p = [-0.25, 0.25, 0.5], None
        else:
            pool = [-1.0, -0.5, 0.25, 0.5, 1.0, _LLR_CAP, -_LLR_CAP]
            p = [0.2, 0.2, 0.2, 0.2, 0.16, 0.02, 0.02]
        a, r = rng.choice([0.5, 2.0, 3.0, 8.0, 40.0], size=2).tolist()
        for n in (1, 63, 64, 65, 200):
            values = rng.choice(pool, size=n, p=p)
            for budget in (math.inf, 1, 64, 100):
                got = _sprt(values, a, r, budget)
                want = _mask_sprt(_llr_list(values), a, r, budget)
                assert got == want and type(got[2]) is float

    def test_exit_scan_at_exact_thresholds_over_blocks(self):
        # the sum sits on the threshold at the end of the second block and
        # exits on the first step of the third
        for values, want in (([0.5] * 129, ("accept", 129, 64.5)),
                             ([-0.5] * 150, ("reject", 129, -64.5))):
            got = _sprt(values, 64.0, 64.0)
            assert got == _mask_sprt(_llr_list(values), 64.0, 64.0,
                                     math.inf) == want

    def test_thresholds_must_be_positive(self):
        with pytest.raises(VlfError):
            VlfParams(LN2, 8.0, 14.0, 0.0, 3.0)
        with pytest.raises(VlfError):
            VlfParams(LN2, 8.0, 14.0, 3.0, -1.0)


class TestZeroCellTraining:
    def test_infinite_llrs_leave_no_warning_and_no_trace(self):
        # four training symbols on bsc(0.11) often see no flip: trials 1
        # and 2 estimate the kernel [[1, 0], [0, 1]], whose LLRs are both
        # infinite, and trials 0 and 3 a kernel with one zero cell
        cfg = SchemeConfig(variant="uvlf_dmc", channel=CH, px=UNIFORM2,
                           params=_params(log2m=6.0, g1=8.0, g2=13.0, a=3.0),
                           training_len=4, seed=3)
        kernels = [_estimate(cfg, i) for i in range(4)]
        assert all((k == 0.0).any() for k in kernels)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = trial_records(cfg, 4)
        # the records the SPRT gave before infinite LLRs were capped
        assert rec.tolist() == [
            [1, 37, 36, 1, 0, 0.0, 0, 0],
            [1, 29, 28, 1, 0, 0.0, 0, 0],
            [1, 14, 13, 1, 0, 0.0, 0, 0],
            [1, 42, 40, 2, 0, 0.0, 0, 0],
        ]


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
        # a flag value, not the targets, is at fault: bad input (exit 1),
        # where the first trial raised HorizonTooSmall, an Infeasible
        with pytest.raises(VlfError, match=r"^n_max = 10 is below") as err:
            _cfg(n_max=10)
        assert not isinstance(err.value, Infeasible)

    def test_horizon_cap(self):
        # a horizon past it asked numpy for a count table of GiB
        cap = engine._HORIZON_CAP
        assert _cfg(n_max=cap).horizon == cap
        with pytest.raises(VlfError, match=f"n_max = {cap + 1} is above"):
            _cfg(n_max=cap + 1)

    # each of these configs constructed and then failed, or ran wrongly, in
    # its trials: zero drift and the derived horizon failed in the runtime,
    # n_max 500.5 ran to 501, nan failed as "above the cap", training_len
    # 64.5 ended in a TypeError traceback and 2.5 drew chi2 with 2.5
    # degrees of freedom; params None and c2 "3" ended in an AttributeError
    # and a TypeError traceback, and seed True ran as seed 1
    @pytest.mark.parametrize("variant,kw,error,match", [
        ("vlf_dmc", {"px": np.array([1.0, 0.0])}, NonPositiveDrift,
         "metric drift"),
        ("vlf_dmc", {"params": _params(g2=1e6)}, VlfError,
         r"^the horizon 50\*gamma2/C = 1\.442e\+08 at gamma2 = 1e\+06 is "
         "above the cap"),
        ("vlf_dmc", {"n_max": 500.5}, VlfError,
         "^n_max must be an integer >= 1, got 500.5$"),
        ("vlf_dmc", {"n_max": math.nan}, VlfError,
         "^n_max must be an integer >= 1, got nan$"),
        ("uvlf_bsc", {"training_len": 64.5}, VlfError,
         "^training_len must be an integer >= 0, got 64.5$"),
        ("uvlf_awgn", {"training_len": 2.5}, VlfError,
         "^training_len must be an integer >= 0, got 2.5$"),
        ("vlf_dmc", {"params": None}, VlfError,
         "^params must be a VlfParams, got None$"),
        ("uvlf_bsc", {"c2": "3"}, NotADistribution,
         r"^c2 must be a finite number in \(1, inf\), got '3'$"),
        ("vlf_dmc", {"seed": True}, VlfError,
         "^seed must be an integer >= 0, got True$"),
    ], ids=["zero-drift", "derived-horizon-above-cap", "n_max-500.5",
            "n_max-nan", "uvlf_bsc-training-64.5", "uvlf_awgn-training-2.5",
            "params-None", "c2-string", "seed-bool"])
    def test_config_itself_rejects_a_bad_run_input(self, variant, kw, error,
                                                   match):
        channel, px, training = VARIANT_SETUPS[variant]
        args = {"variant": variant, "channel": channel, "px": px,
                "params": _params(), "training_len": training, **kw}
        with pytest.raises(error, match=match):
            SchemeConfig(**args)

    def test_replaced_params_resolve_the_horizon_and_cap_anew(self):
        cfg = _variant_cfg("uvlf_bsc", _params(g2=14.0))
        wide = dataclasses.replace(cfg, params=_params(g2=28.0))
        drift = FlipEntropy.walk_drift(CH, UNIFORM2)
        for c, g2 in ((cfg, 14.0), (wide, 28.0)):
            assert c.horizon == math.ceil(50.0 * g2 / drift)
            assert c.c2_cap == math.ceil(2.0 * g2 / drift)
        assert wide.horizon > cfg.horizon and wide.c2_cap > cfg.c2_cap
        assert _variant_cfg("vlf_dmc", _params()).c2_cap is None
        # derived, never set: not a constructor argument nor replaceable
        with pytest.raises(TypeError):
            _cfg(horizon=5)
        with pytest.raises(ValueError):
            dataclasses.replace(cfg, c2_cap=5)

    @pytest.mark.parametrize("n_max", [0, -3])
    def test_non_positive_horizon_is_bad_input_not_infeasible(self, n_max):
        with pytest.raises(VlfError) as err:
            _cfg(n_max=n_max)
        assert not isinstance(err.value, HorizonTooSmall)

    def test_second_phase_cap_must_exceed_one(self):
        with pytest.raises(VlfError):
            _cfg(c2=1.0)
        with pytest.raises(VlfError):
            _cfg(c2=math.inf)

    def test_trial_count_validated(self):
        with pytest.raises(VlfError):
            run_monte_carlo(_cfg(), 0)

    def test_worker_count_must_be_an_integer(self):
        # range(1.5) in the pool's chunking raised a bare TypeError
        with pytest.raises(VlfError,
                           match="^workers must be an integer >= 1, got 1.5$"):
            trial_records(_cfg(), 5, workers=1.5)

    @pytest.mark.parametrize("seed", [-3, -1, 1.5, "7", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # -3 reached numpy's bare "expected non-negative integer" inside
        # the first trial
        with pytest.raises(VlfError, match="seed"):
            _cfg(seed=seed)

    def test_numpy_integer_seed_is_stored_as_an_int(self):
        cfg = _cfg(seed=np.int64(5))
        assert type(cfg.seed) is int
        assert np.array_equal(trial_records(cfg, 20),
                              trial_records(_cfg(seed=5), 20))


class TestVariantRegistry:
    def test_no_comparison_against_a_variant_name(self):
        # variant dispatch goes through engine.METRICS and sweep-scheme
        # dispatch through cli._SCHEMES, never through if-chains on their
        # name strings
        names = set(VARIANTS) | set(cli._SCHEMES)

        def names_a_variant(node):
            if isinstance(node, ast.Constant):
                return node.value in names
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


@pytest.mark.usefixtures("force_ensemble")
class TestCompetitorModeResolution:
    def test_gaussian_universal_has_no_large_scale_strategy(self):
        cfg = SchemeConfig(
            variant="uvlf_awgn", channel=GaussianChannel(1.0), px=None,
            params=_params(log2m=100.0, g1=75.0, g2=80.0, a=4.0),
            training_len=32, seed=0,
        )
        with pytest.raises(StateExplosion):
            run_monte_carlo(cfg, 1)

    def test_binary_specialization_ensemble_needs_uniform_input(self):
        cfg = _cfg(variant="uvlf_bsc", px=np.array([0.7, 0.3]),
                   training_len=16)
        with pytest.raises(StateExplosion):
            run_monte_carlo(cfg, 1)

    def test_mixture_race_needs_a_binary_binary_channel(self):
        ternary = Dmc(np.full((3, 3), 0.1) + 0.7 * np.eye(3))
        cfg = SchemeConfig(
            variant="uvlf_dmc", channel=ternary, px=np.full(3, 1.0 / 3.0),
            params=_params(log2m=60.0, g1=50.0, g2=60.0), training_len=64,
        )
        with pytest.raises(StateExplosion, match="binary-binary channel"):
            run_monte_carlo(cfg, 1)


def _estimate(cfg, trial_index=0):
    """The channel estimate trial `trial_index` draws first: its training."""
    return METRICS[cfg.variant].draw_training(
        engine._trial_rng(cfg.seed, trial_index), cfg.channel,
        cfg.training_len)


class TestTrainingEstimates:
    def test_deterministic_given_seed_and_trial(self):
        cfg = _cfg(variant="uvlf_dmc", training_len=100)
        a = _estimate(cfg, trial_index=7)
        b = _estimate(cfg, trial_index=7)
        c = _estimate(cfg, trial_index=8)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_training_budget_split_across_inputs(self):
        # 7 symbols round-robin: input 0 is sent 4 times, input 1 3 times
        cfg = _cfg(variant="uvlf_dmc", training_len=7)
        rng = engine._trial_rng(cfg.seed, 0)
        want = [rng.multinomial(n, row) / n
                for n, row in zip((4, 3), CH.matrix)]
        np.testing.assert_array_equal(_estimate(cfg), want)
        np.testing.assert_allclose(_estimate(cfg).sum(axis=1), [1.0, 1.0])

    def test_long_training_concentrates_on_the_true_kernel(self):
        cfg = _cfg(variant="uvlf_dmc", training_len=1_000_000)
        assert float(np.max(np.abs(_estimate(cfg) - CH.matrix))) < 0.005

    def test_gaussian_noise_variance_estimate(self):
        cfg = SchemeConfig(
            variant="uvlf_awgn", channel=GaussianChannel(1.0), px=None,
            params=_params(log2m=6.0, g1=6.0, g2=10.0, a=3.0),
            training_len=10_000, seed=3,
        )
        assert 0.95 <= _estimate(cfg) <= 1.05


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


# seeds of one to five 32-bit words
STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 7, 10**41]


class TestTrialStreams:
    """Each trial's generator draws the stream of
    Generator(Philox(SeedSequence(seed, spawn_key=(trial_index,)))), numpy's
    own derivation, which these tests alone construct."""

    @staticmethod
    def _reference_key(seed, i):
        seq = np.random.SeedSequence(seed, spawn_key=(i,))
        return seq.generate_state(2, np.uint64).tolist()

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    @pytest.mark.parametrize("lo,hi", [
        (0, 3), (engine._KEY_BLOCK - 3, engine._KEY_BLOCK + 3),
        (2**32 - 3, 2**32),
    ])
    def test_block_keys_match_numpy_seed_sequence(self, seed, lo, hi):
        keys = [k.tolist() for k in engine._trial_keys(seed, lo, hi)]
        assert keys == [self._reference_key(seed, i) for i in range(lo, hi)]

    @pytest.mark.parametrize("seed", [0, 2**64 + 7])
    def test_rekeyed_generator_draws_each_fresh_stream(self, seed):
        # each trial leaves a half-used 32-bit draw and a part-read Philox
        # buffer behind; the next trial's stream must not see either
        def draws(g):
            return [g.random(5), g.standard_normal(3),
                    g.integers(0, 2**32, 3, dtype=np.uint32)]

        rngs = engine._generators(engine._trial_keys(seed, 5, 9))
        for i, rng in enumerate(rngs, 5):
            fresh = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(seed, spawn_key=(i,))))
            for a, b in zip(draws(rng), draws(fresh)):
                np.testing.assert_array_equal(a, b)
            assert rng.bit_generator.state["has_uint32"] == 1

    def test_trial_rng_is_the_fresh_stream(self):
        fresh = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(10**41, spawn_key=(12,))))
        rng = engine._trial_rng(10**41, 12)
        np.testing.assert_array_equal(rng.random(9), fresh.random(9))

    def test_trial_index_past_one_spawn_word_is_rejected(self):
        # index 2^32 would be a two-word spawn key
        cfg = _cfg()
        for index in (2**32, -1):
            with pytest.raises(VlfError, match="trial index"):
                simulate_trial(cfg, index)
        with pytest.raises(VlfError, match=r"^trials must be an integer in "
                           r"\[1, 4294967296\], got 4294967297$"):
            trial_records(cfg, 2**32 + 1)

    def test_one_philox_per_chunk(self, monkeypatch):
        # a Philox per trial built a SeedSequence per trial: 20% of a
        # known-channel trial
        built = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            built.append(args)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        trial_records(_cfg(), 500, workers=1)
        assert len(built) == 1


def _pair_cfg(variant):
    return _variant_cfg(variant, _params(log2m=6.0, g1=8.0, g2=13.0, a=3.0),
                        seed=5)


class TestTrialBlocks:
    """A chunk scores a block of universal trials' estimates in one call,
    between a pass that draws each trial's training and one that plays the
    rest; every record must be the trial's own, at any block boundary."""

    # variant, channel, px, training_len, race; four training symbols on
    # bsc(0.11) and nine on the 2x3 channel leave zero cells in many
    # estimates, so a block holds clipped and unclipped LLRs
    CASES = {
        "uvlf_bsc": ("uvlf_bsc", CH, UNIFORM2, 4, "literal"),
        "uvlf_dmc-2x2": ("uvlf_dmc", CH, UNIFORM2, 4, "ensemble"),
        "uvlf_dmc-2x3": ("uvlf_dmc", Dmc([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]]),
                         UNIFORM2, 9, "literal"),
        "uvlf_awgn": ("uvlf_awgn", GaussianChannel(1.0), None, 64, "literal"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_records_at_block_boundaries_are_each_trials_own(
            self, case, request):
        variant, channel, px, training, race = self.CASES[case]
        if race == "ensemble":
            request.getfixturevalue("force_ensemble")
        cfg = SchemeConfig(variant=variant, channel=channel, px=px,
                           params=_params(log2m=6.0, g1=8.0, g2=13.0, a=3.0),
                           training_len=training, seed=5)
        rt = engine._Runtime(cfg)
        assert (rt.race.func is ensemble.literal_race) == (race == "literal")
        B = engine._TRIAL_BLOCK
        n = 2 * B + 3
        solo = np.array([simulate_trial(cfg, i, _runtime=rt)
                         for i in range(n)])
        if not rt.metric.gaussian:
            capped = [(np.abs(control_llr(_estimate(cfg, i))[2])
                       == _LLR_CAP).any() for i in range(B)]
            assert any(capped) and not all(capped)
        for trials in (1, B - 1, B, B + 1, n):
            assert np.array_equal(trial_records(cfg, trials), solo[:trials])
        assert np.array_equal(engine._run_chunk(cfg, 3, n), solo[3:])
        assert np.array_equal(trial_records(cfg, n, workers=2), solo)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_chunk_plays_each_trial_through_simulate_trial_once(
            self, variant, monkeypatch):
        # the benchmark's tracer counts trials and times them by wrapping
        # the module-level simulate_trial, which _run_chunk must call
        played = Counter()
        play = engine.simulate_trial

        def counting(cfg, trial_index, *args, **kwargs):
            played[trial_index] += 1
            return play(cfg, trial_index, *args, **kwargs)

        monkeypatch.setattr(engine, "_TRIAL_BLOCK", 4)
        monkeypatch.setattr(engine, "simulate_trial", counting)
        cfg = _pair_cfg(variant)
        rec = engine._run_chunk(cfg, 3, 14)
        assert played == Counter(range(3, 14))
        assert np.array_equal(rec, [play(cfg, i) for i in range(3, 14)])


def _walk_energy(cfg, rt, trial_index):
    """The running input energy of a trial's true walk, replayed from the
    trial's RNG stream."""
    rng = engine._trial_rng(cfg.seed, trial_index)
    if rt.metric.universal:
        rt.metric.draw_training(rng, cfg.channel, cfg.training_len)
    rng.random()  # the stop-at-time-zero draw
    return engine._true_walk(rng, cfg, rt.metric)[3]


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
        cfg = _pair_cfg(variant)
        rt = engine._Runtime(cfg)
        o = simulate_trial(cfg, 0, _runtime=rt)
        n_max = cfg.horizon
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

    @pytest.mark.parametrize("variant", ["vlf_dmc", "vlf_awgn"])
    def test_walk_short_of_gamma1_by_n_max_is_charged_n_max(self, variant):
        # gamma_1 = 8 is out of the true walk's reach in 5 steps: the run is
        # censored with all n_max = 5 symbols in phase 1, and a Gaussian
        # one is charged the energy of the 5 symbols drawn
        cfg = _variant_cfg(variant, _params(), seed=0)
        # no config has so short a horizon (its floor is 10 gamma2 / C)
        object.__setattr__(cfg, "horizon", 5)
        rt = engine._Runtime(cfg)
        o = simulate_trial(cfg, 0, _runtime=rt)
        assert o._replace(energy=0.0) == (0, 5, 5, 0, 0, 0.0, 1, 0)
        rng = engine._trial_rng(cfg.seed, 0)
        rng.random()  # the stop-at-time-zero draw
        x, _ = rt.metric.draw_true(rng, (1, 5))
        energy = float(np.sum(x * x)) if rt.metric.gaussian else 0.0
        assert o.energy == pytest.approx(energy, rel=1e-12)

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
            assert o.tau == cfg.horizon == o.len_c1 + o.len_ht + o.len_c2
            ecum = _walk_energy(cfg, rt, i)
            walk = float(ecum[min(o.len_c1 + o.len_c2, ecum.size) - 1])
            assert o.energy - o.len_ht * rt.metric.power == pytest.approx(
                walk, rel=1e-12
            )
        assert censored >= 10

    def test_c2_capped_energy_counts_every_charged_symbol(self):
        # a universal run stopped by the c2 cap is charged n_max - len_ht
        # walk symbols, far past the block that held its gamma_2 crossing
        cfg = _pair_cfg("uvlf_awgn")
        long_runs = 0
        for row in trial_records(cfg, 2000):
            o = TrialOutcome.from_record(row)
            if o.censored and o.len_c1 + o.len_c2 >= 500:
                long_runs += 1
                assert 0.8 <= o.energy / o.tau <= 1.2  # P = 1
        assert long_runs > 0


class TestFirstStepCrossing:
    @pytest.mark.parametrize(
        "variant,mode",
        [(v, m) for v in ("vlf_dmc", "uvlf_bsc", "vlf_awgn")
         for m in ("literal", "ensemble")],
        indirect=["mode"],
    )
    def test_true_walk_past_gamma2_at_step_one_races_no_outputs(
        self, variant, mode
    ):
        # gamma_2 = 0.5 lies below a vlf_dmc step without a flip,
        # log(2 * 0.89) = 0.577, and below uvlf_bsc's first value log 2, so
        # many races get the horizon tau_2 - 1 = 0
        cfg = _variant_cfg(variant, _params(log2m=6.0, g1=0.1, g2=0.5),
                           seed=5)
        rt = engine._Runtime(cfg)
        race, empty = rt.race, []
        assert (race.func is ensemble.literal_race) == (mode == "literal")

        def spy(rng, y):
            result = race(rng, y)
            if y.size == 0:
                empty.append(result)
            return result

        rt.race = spy
        outs = [simulate_trial(cfg, i, _runtime=rt) for i in range(200)]
        assert empty
        assert all(r == ensemble.RaceResult(None, None) for r in empty)
        assert all(o.len_c1 == 1 for o in outs)

    @pytest.mark.parametrize("kind", [AdditiveDmc, EmpiricalMi])
    def test_proposal_race_over_an_empty_prefix_keeps_nothing(self, kind):
        # n I of one joint sample is 0, so uvlf_dmc never races an empty
        # prefix from a trial; called directly, the race draws its Poisson
        # count, as a vlf_* race over an empty prefix must to keep its
        # stream, and then nothing: no path over no outputs crosses, so no
        # proposal is kept and no uniform is drawn
        metric = kind(CH, UNIFORM2, 300)
        y = np.zeros(0, np.int64)
        log_m, gamma1 = 12.0 * LN2, 6.0
        rng, replay = np.random.default_rng(5), np.random.default_rng(5)
        result = ensemble.proposal_race(rng, y, metric, log_m, gamma1, 8.0)
        assert result == ensemble.RaceResult(None, None)
        assert metric.proposal_bound(y) == 0.0
        proposals = replay.poisson(ensemble.poisson_crosser_rate(log_m,
                                                                 -gamma1))
        assert proposals > 0
        assert rng.bit_generator.state == replay.bit_generator.state
        paths = metric.draw_proposal(replay, y, proposals)
        assert paths.shape == (proposals, 0)


class _ScriptedWalk:
    """A one-row metric whose true walk takes the given values."""

    gaussian = False

    def __init__(self, values):
        self.values = np.asarray(values, float)

    def start(self, rows):
        return 0, None

    def draw_true(self, rng, shape):
        return np.zeros(shape, np.int64), np.zeros(shape, np.int64)

    def metric(self, state, x, y):
        t, b = state[0], x.shape[1]
        return self.values[None, t:t + b], (t + b, None)


class TestTrueWalkCrossings:
    """_true_walk's first times strictly above gamma_1 = 2 and gamma_2 = 5,
    over blocks of four symbols."""

    @pytest.mark.parametrize("values,taus", [
        # a value equal to gamma does not cross it
        ([2, 2, 1, 2, 2, 2.5, 5, 5.5], (6, 8)),
        # crossings at a block's first symbol
        ([0, 1, 2, 2, 3, 4, 5, 5, 6, 0, 0, 0], (5, 9)),
        # both thresholds first crossed at the same symbol
        ([0, 1, 9, 0, 0, 0, 0, 0], (3, 3)),
        # gamma_1 crossed in one block, gamma_2 in the next
        ([0, 1, 3, 0, 4, 6, 0, 0], (3, 6)),
        # no crossing before the horizon, then gamma_1 alone
        ([0, 1, 2, 1, 0, 2, 2, 1], (None, None)),
        ([0, 1, 2, 1, 0, 4, 5, 1], (6, None)),
    ])
    def test_first_times_above_each_threshold(self, values, taus,
                                              monkeypatch):
        monkeypatch.setattr(engine, "_BLOCK", 4)
        params = dataclasses.replace(_params(), gamma1=2.0, gamma2=5.0)
        cfg = types.SimpleNamespace(horizon=len(values), params=params)
        tau1, tau2, y, energy = engine._true_walk(
            None, cfg, _ScriptedWalk(values))
        assert (tau1, tau2) == taus
        # the walk draws whole blocks up to the gamma_2 crossing
        assert y.size == (len(values) if tau2 is None else -(-tau2 // 4) * 4)
        assert energy is None


class TestPoissonCrosserRate:
    def test_no_crossing_mass_expects_no_crossers(self):
        assert ensemble.poisson_crosser_rate(60.0 * LN2, -math.inf) == 0.0

    def test_too_many_expected_crossers_is_a_state_explosion(self):
        # (M - 1) e^{-gamma_1} at M = 2^60 and gamma_1 = 10 is e^31.59
        with pytest.raises(StateExplosion, match=r"e\^31\.59 exceeds 10000"):
            ensemble.poisson_crosser_rate(60.0 * LN2, -10.0)


class TestDeterminismAndAggregation:
    @pytest.mark.parametrize("variant,mode", VARIANT_MODES, indirect=["mode"])
    def test_worker_count_does_not_change_the_estimate(self, variant, mode):
        cfg = _pair_cfg(variant)
        a = run_monte_carlo(cfg, 200, workers=1)
        b = run_monte_carlo(cfg, 200, workers=2)
        assert a == b

    @pytest.mark.parametrize("variant,mode", VARIANT_MODES, indirect=["mode"])
    def test_runtime_pickles_to_an_equivalent_copy(self, variant, mode):
        # a pool started by spawn or forkserver pickles the runtime it hands
        # to its workers
        cfg = _pair_cfg(variant)
        rt = engine._Runtime(cfg)
        copy = pickle.loads(pickle.dumps(rt))
        assert (rt.race.func is ensemble.literal_race) == (mode == "literal")
        assert copy.race.func.__qualname__ == rt.race.func.__qualname__
        for i in range(6):
            assert (simulate_trial(cfg, i, _runtime=copy)
                    == simulate_trial(cfg, i, _runtime=rt))

    @pytest.mark.usefixtures("force_ensemble")
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
        cfg = _pair_cfg("uvlf_bsc")
        pooled = trial_records(cfg, 40, workers=2)
        assert len(builds) == 1
        assert np.array_equal(pooled, trial_records(cfg, 40, workers=1))

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    @pytest.mark.parametrize("variant", ["vlf_dmc", "uvlf_bsc"])
    @pytest.mark.usefixtures("force_ensemble")
    def test_pools_started_by_spawn_and_forkserver_match_one_worker(
            self, method, variant, monkeypatch):
        # such workers import vlf afresh and unpickle the parent's runtime,
        # the ensemble race with it (the forced literal_count stays here)
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        monkeypatch.setattr(engine, "ProcessPoolExecutor", functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context(method)))
        cfg = _pair_cfg(variant)
        assert engine._Runtime(cfg).race.func is not ensemble.literal_race
        assert np.array_equal(trial_records(cfg, 40, workers=2),
                              trial_records(cfg, 40, workers=1))

    def test_pool_starts_no_more_workers_than_chunks(self, monkeypatch):
        # under fork every worker starts with the pool: --workers 64
        # --trials 3 forked 64 processes for 3 chunks.  The stand-in runs
        # the chunks in this process and records the pool size.
        sizes = []

        class InlinePool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                engine._set_worker_runtime(None)

            def map(self, fn, *args):
                return map(fn, *args)

        monkeypatch.setattr(engine, "ProcessPoolExecutor", InlinePool)
        cfg = _cfg()
        for trials, workers, size in [(3, 64, 3), (40, 2, 2), (6, 8, 6)]:
            records = trial_records(cfg, trials, workers=workers)
            assert np.array_equal(records, trial_records(cfg, trials))
            assert sizes.pop() == size

    def test_streaming_aggregation_equals_batch(self):
        cfg = _cfg()
        streamed = aggregate_records(cfg, np.array(
            [simulate_trial(cfg, i) for i in range(300)]
        ))
        batch = run_monte_carlo(cfg, 300)
        assert streamed == batch

    def test_empty_records_are_rejected(self):
        # they gave an all-NaN estimate of 0 trials and numpy's warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(VlfError, match="trials must be an integer >= 1, got 0"):
                aggregate_records(_cfg(), np.empty((0, 8)))

    # a 1-D array was read as 8 one-value trials (eps_hat 0.125 and numpy's
    # "Degrees of freedom <= 0"), 9 columns ended in a TypeError and a list
    # in an AttributeError
    @pytest.mark.parametrize("rec", [np.zeros(8), np.zeros((3, 9)),
                                     [[0.0] * 8]], ids=["1-D", "9-columns",
                                                        "list"])
    def test_records_must_be_a_2d_array_of_outcome_rows(self, rec):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionMismatch, match="^records must be a "
                               "2-D array, one TrialOutcome row per trial$"):
                aggregate_records(_cfg(), rec)

    def test_power_of_runs_that_send_nothing_is_none(self):
        # eps0 = 1 stops every trial at time zero: no symbol, no power ratio
        cfg = _variant_cfg("vlf_awgn", _params(log2m=6.0, eps0=1.0), seed=1)
        est = run_monte_carlo(cfg, 5)
        assert est.n_hat == 0.0
        assert (est.power_hat, est.power_lo, est.power_hi) == (None,) * 3

    def test_one_trial_power_interval_is_nan(self):
        cfg = _variant_cfg("vlf_awgn", _params(log2m=6.0, g2=13.0), seed=1)
        est = run_monte_carlo(cfg, 1)
        assert est.degenerate and est.power_hat > 0
        assert math.isnan(est.power_lo) and math.isnan(est.power_hi)

    def test_different_seeds_differ(self):
        a = run_monte_carlo(_cfg(seed=1), 200)
        b = run_monte_carlo(_cfg(seed=2), 200)
        assert a.n_hat != b.n_hat


class TestCompetitorStrategiesAgree:
    @pytest.mark.parametrize("variant", ENSEMBLE_VARIANTS)
    def test_small_scale_and_large_scale_runs_are_consistent(
        self, variant, request
    ):
        cfg = _variant_cfg(variant, _params(log2m=6.0, g1=7.0, g2=12.0, a=3.0),
                           seed=0)
        lit = run_monte_carlo(cfg, 4000)
        request.getfixturevalue("force_ensemble")
        ens = run_monte_carlo(cfg, 4000)
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


class _TopUniform:
    """A generator stand-in whose every uniform is the largest float
    below 1."""

    def random(self, size=None):
        return np.full(size, np.nextafter(1.0, 0.0))


def _random_dmc(rng, shape):
    w = rng.random(shape)
    return Dmc(w / w.sum(axis=1, keepdims=True))


class TestCdfTables:
    def test_tilted_draw_at_the_top_uniform_stays_in_the_alphabet(self):
        rng = np.random.default_rng(0)
        dmc = _random_dmc(rng, (2, 3))
        px = rng.random(2)
        m = AdditiveDmc(dmc, px / px.sum(), 100)
        joint = m.px[:, None] * m.w
        raw = np.cumsum((joint / (m.px @ m.w)).T, axis=1)
        assert (raw[:, -1] < 1.0).any()  # a posterior row sums below 1
        y = np.arange(3)
        # input index 2 = num_x, then an IndexError in dens[x, y], before
        x = m.draw_proposal(_TopUniform(), y, 1)[0]
        assert x.tolist() == [1, 1, 1]
        assert np.isfinite(m.step(x, y)).all()

    @pytest.mark.parametrize("seed", range(10))
    def test_every_table_is_one_from_its_last_held_cell(self, seed):
        # a zero input weight leaves cells of zero mass at the tables' ends
        rng = np.random.default_rng(seed)
        dmc = _random_dmc(rng, (3, 4))
        px = np.append(rng.dirichlet(np.ones(2)), 0.0)
        m = AdditiveDmc(dmc, px, 100)
        joint = px[:, None] * dmc.matrix
        tables = [(m.joint_cdf, joint.ravel()), (m.px_cdf, px),
                  (m.row_cdfs, dmc.matrix),
                  (m.post_cdfs, (joint / (px @ dmc.matrix)).T)]
        for cdf, mass in tables:
            for row, p in zip(np.atleast_2d(cdf), np.atleast_2d(mass)):
                last = np.flatnonzero(p > 0)[-1]
                assert (row[last:] == 1.0).all()
                np.testing.assert_array_equal(
                    row[:last], np.minimum(np.cumsum(p), 1.0)[:last])
                top = row.searchsorted(np.nextafter(1.0, 0.0), side="right")
                assert top == last
        y = np.arange(4)
        assert (m.draw_proposal(_TopUniform(), y, 1) == 1).all()
        x, y = m.draw_true(_TopUniform(), (1, 3))
        assert (x == 1).all() and (y == 3).all()
        assert (m.draw_inputs(_TopUniform(), 2, y) == 1).all()


class _SparseDraws:
    """A generator stand-in: about 35% of its gamma draws are zero, with at
    least one positive draw per row, so mixture CDF rows hold zero-mass
    cells in the middle and at the end, and every seventh uniform is the
    largest float below 1."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def standard_gamma(self, shape, size):
        g = self.rng.standard_gamma(shape, size)
        zero = self.rng.random(g.shape) < 0.35
        zero[zero.all(axis=-1), -1] = False
        g[zero] = 0.0
        return g

    def random(self, size):
        u = self.rng.random(size)
        u.reshape(-1)[::7] = np.nextafter(1.0, 0.0)
        return u


def _broadcast_proposal(metric, rng, y, rows):
    """draw_proposal by the (rows, h, |X|) broadcast compare of each uniform
    against its whole CDF row, the last column included."""
    if isinstance(metric, EmpiricalMi):
        g = rng.standard_gamma(0.5, size=(rows, metric.num_y, metric.num_x))
        cdfs = engine._cdf(g * (1.0 / g.cumsum(axis=-1)[..., -1:]))
        u = rng.random((rows, y.size))
        return (u[..., None] >= cdfs[np.arange(rows)[:, None], y]).sum(axis=-1)
    u = rng.random((rows, y.size))
    return (u[..., None] >= metric.post_cdfs[y]).sum(axis=-1)


class TestProposalDraws:
    """draw_proposal(rng, y, rows): one call hands out `rows` proposal
    paths, shape (rows, h), for one kernel call over them."""

    @pytest.mark.parametrize("make", [
        lambda rng: AdditiveDmc(CH, UNIFORM2, 100),
        lambda rng: AdditiveDmc(_random_dmc(rng, (3, 2)),
                                rng.dirichlet(np.ones(3)), 100),
        lambda rng: AdditiveGaussian(GaussianChannel(1.0), None, 100),
    ], ids=["bsc", "3x2", "awgn"])
    def test_rows_are_consecutive_one_row_draws(self, make):
        # so a race of 0 or 1 proposals draws what a race drawing one path
        # at a time draws, and keeps its records
        rng = np.random.default_rng(3)
        metric = make(rng)
        y = metric.draw_true(rng, (1, 100))[1][0]
        many, one = np.random.default_rng(4), np.random.default_rng(4)
        got = metric.draw_proposal(many, y, 7)
        want = np.concatenate([metric.draw_proposal(one, y, 1)
                               for _ in range(7)])
        assert got.shape == (7, y.size)
        assert _same(got, want)
        assert many.bit_generator.state == one.bit_generator.state

    def test_mixture_draws_a_theta_per_row_and_output(self):
        # with theta_b ~ Dirichlet(1/2, 1/2) per output b, the codeword ones
        # among a row's n outputs b are Beta-Binomial(n, 1/2, 1/2), and
        # independent across b and across rows; one theta shared by the
        # rows would make them Binomial(n, theta)
        n, rows = 20, 4000
        metric = EmpiricalMi(CH, UNIFORM2, 2 * n)
        y = np.repeat([0, 1], n)
        x = metric.draw_proposal(np.random.default_rng(8), y, rows)
        ones = [x[:, :n].sum(axis=1), x[:, n:].sum(axis=1)]
        want = scipy.stats.betabinom.pmf(np.arange(n + 1), n, 0.5, 0.5) * rows
        for k in ones:
            seen = np.bincount(k, minlength=n + 1)
            assert scipy.stats.chisquare(seen, want).pvalue > 1e-3
        assert abs(np.corrcoef(*ones)[0, 1]) < 4.0 / math.sqrt(rows)

    @pytest.mark.parametrize("nx", [2, 3, 4, 9])
    def test_gamma_mixture_is_numpys_dirichlet(self, nx, monkeypatch):
        # rng.dirichlet at alpha >= 0.1 scales each row of gammas by the
        # reciprocal of their sequential sum; a pairwise sum, as
        # np.add.reduce takes from 8 cells on, could differ in the last bit
        thetas = []

        def spy(mass):
            thetas.append(mass)
            return cdf(mass)

        cdf = engine._cdf
        monkeypatch.setattr(engine, "_cdf", spy)
        rng = np.random.default_rng(nx)
        metric = EmpiricalMi(_random_dmc(rng, (nx, 3)),
                             rng.dirichlet(np.ones(nx)), 100)
        y = rng.integers(3, size=40)
        for rows in (1, 3, 256):
            got, want = np.random.default_rng(rows), np.random.default_rng(rows)
            metric.draw_proposal(got, y, rows)
            theta = want.dirichlet(np.full(nx, 0.5), size=(rows, 3))
            want.random((rows, y.size))
            assert _same(thetas.pop(), theta), rows
            assert got.bit_generator.state == want.bit_generator.state

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2)])
    @pytest.mark.parametrize("kind", [AdditiveDmc, EmpiricalMi])
    def test_gather_equals_the_broadcast_form(self, kind, shape, sparse):
        # one flat take per inner cut point, the last (exactly 1.0) skipped,
        # draws what the (rows, h, |X|) compare with every cut point draws
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        px = rng.dirichlet(np.ones(shape[0]))
        if sparse:
            # an input never sent: a zero-mass cell in every tilted
            # posterior, at the end of a binary one, in the middle otherwise
            px[shape[0] // 2] = 0.0
            px /= px.sum()
        metric = kind(_random_dmc(rng, shape), px, 200)
        y = rng.integers(shape[1], size=60)
        make = _SparseDraws if sparse else np.random.default_rng
        for rows in (1, 5):
            got = metric.draw_proposal(make(rows), y, rows)
            want = _broadcast_proposal(metric, make(rows), y, rows)
            assert _same(got, want), rows


class TestCountLogTable:
    def test_values_and_zero_convention(self):
        tbl = count_log_table(10)
        assert tbl.shape == (11,)
        assert tbl[0] == 0.0
        assert tbl[1] == 0.0
        assert tbl[3] == pytest.approx(3 * math.log(3))


def _random_metric(kind, shape):
    """A metric of `kind` on a random DMC of `shape` with a random codebook
    law, and the generator, seeded by the shape, that drew them."""
    rng = np.random.default_rng(shape[1])
    return kind(_random_dmc(rng, shape), rng.dirichlet(np.ones(shape[0])),
                400), rng


def _views_empirical_mi(metric, state, x, y):
    """The EmpiricalMi kernel before the stacked gather: a (rows, cells, b)
    one-hot, and n I summed over transposed views of the cell, row and
    column counts, one log-table gather for each count array."""
    t, counts = state
    nx, ny = metric.num_x, metric.num_y
    rows, b = x.shape
    tbl = metric.log_tbl
    onehot = (x * ny + y)[:, None, :] == np.arange(nx * ny)[:, None]
    cum = counts[:, :, None] + np.cumsum(onehot, axis=2)
    grid = cum.reshape(rows, nx, ny, b)

    def total(parts):
        out = tbl[parts[0]]
        for part in parts[1:]:
            out = out + tbl[part]
        return out

    cells, row_sums, col_sums = (
        a.transpose(1, 0, 2) for a in (cum, grid.sum(axis=2), grid.sum(axis=1)))
    s = (total(cells) - total(row_sums) - total(col_sums)
         + tbl[np.arange(t + 1, t + b + 1)])
    return s, (t + b, counts + onehot.sum(axis=2))


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

    def _one_row_and_chunked_rows(self, metric, rng):
        # one row: the true walk's case, symbols and outputs drawn jointly
        x, y = metric.draw_true(rng, (1, self.LENGTH))
        self._check(metric, self._run(metric, x, y)[0], x[0], y[0])
        # chunked rows: the literal race's case, competitors against one y
        xs = metric.draw_inputs(rng, self.ROWS, y)
        got = self._run(metric, xs, y)
        for r in range(self.ROWS):
            self._check(metric, got[r], xs[r], y[0])

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_one_row_and_chunked_rows(self, variant):
        channel, px, _ = VARIANT_SETUPS[variant]
        metric = METRICS[variant](channel, px, 400, n_min=6)
        self._one_row_and_chunked_rows(metric, np.random.default_rng(11))

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
    @pytest.mark.parametrize("kind", [AdditiveDmc, EmpiricalMi])
    def test_one_row_and_chunked_rows_off_the_binary_channel(self, kind,
                                                             shape):
        self._one_row_and_chunked_rows(*_random_metric(kind, shape))

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2)])
    @pytest.mark.parametrize("kind", [AdditiveDmc, EmpiricalMi])
    def test_lockstep_rows(self, kind, shape):
        # the passage-time helpers' case: each row its own outputs, y of
        # shape (rows, 1), one symbol a call, the state carried between calls
        metric, rng = _random_metric(kind, shape)
        x, y = metric.draw_true(rng, (self.ROWS, self.SPLIT))
        state, got = metric.start(self.ROWS), []
        for t in range(self.SPLIT):
            s, state = metric.metric(state, x[:, t:t + 1], y[:, t:t + 1])
            got.append(s)
        got = np.concatenate(got, axis=1)
        for r in range(self.ROWS):
            self._check(metric, got[r], x[r], y[r])

    @pytest.mark.parametrize("make", [
        *(functools.partial(METRICS[v], *VARIANT_SETUPS[v][:2], 400, n_min=6)
          for v in VARIANTS),
        lambda: _random_metric(EmpiricalMi, (2, 3))[0],
        lambda: _random_metric(EmpiricalMi, (3, 2))[0],
    ], ids=[*VARIANTS, "uvlf_dmc-2x3", "uvlf_dmc-3x2"])
    def test_over_no_symbols_keeps_its_state(self, make):
        metric = make()
        x, y = metric.draw_true(np.random.default_rng(12),
                                (self.ROWS, self.SPLIT))
        for state in (metric.start(self.ROWS), metric.metric(
                metric.start(self.ROWS), x, y)[1]):
            s, kept = metric.metric(state, x[:, :0], y[:, :0])
            assert s.shape == (self.ROWS, 0)
            assert kept[0] == state[0]
            assert _same(kept[1], state[1])

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2), (3, 4)])
    def test_stacked_empirical_mi_equals_the_per_view_kernel(self, shape):
        # one gather of the stacked cell, row and column counts sums n I in
        # the per-view kernel's order, bit for bit
        metric, rng = _random_metric(EmpiricalMi, shape)
        nx, ny = shape
        for rows in (1, 3, 256):
            # a carried state: each kernel's own end state after 40 symbols
            x0 = rng.integers(nx, size=(rows, 40))
            y0 = rng.integers(ny, size=(1, 40))
            starts = [(metric.start(rows), metric.start(rows)),
                      (metric.metric(metric.start(rows), x0, y0)[1],
                       _views_empirical_mi(metric, metric.start(rows), x0,
                                           y0)[1])]
            for b in (0, 1, 150):
                x = rng.integers(nx, size=(rows, b))
                # one output row for all paths, and one per path
                for y in (rng.integers(ny, size=(1, b)),
                          rng.integers(ny, size=(rows, b))):
                    for new, old in starts:
                        got, (t, counts) = metric.metric(new, x, y)
                        want, (t_want, counts_want) = _views_empirical_mi(
                            metric, old, x, y)
                        assert _same(got, want), (rows, b)
                        assert t == t_want
                        assert _same(counts, counts_want), (rows, b)


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


def _binary_type(u, v, j, n):
    """Counts of the 2x2 joint type with u codeword ones against the j output
    ones and v against the n - j output zeros, stacked as count_mi reads
    them: cells (x, y) = 00, 10, 01, 11, row sums and column sums."""
    return np.stack(np.broadcast_arrays(
        n - j - v, v, j - u, u, n - u - v, u + v, n - j, j))


def _full_grid_binary_mi_mass(y, metric, gamma1):
    """The exact absorbed mass P[tau <= h] of the empirical-MI race on a
    binary-binary channel: the count DP over (u, v) = (codeword ones against
    output ones, against output zeros), the mass grown by one row or column
    from zeros at every step, and count_mi evaluated over the whole grid."""
    log_tbl, px1 = metric.log_tbl, metric.px[1]
    j = 0
    mass = np.ones((1, 1))
    total = 0.0
    for t in range(1, y.size + 1):
        if int(y[t - 1]) == 1:
            grown = np.zeros((mass.shape[0] + 1, mass.shape[1]))
            grown[:-1, :] += mass * (1.0 - px1)
            grown[1:, :] += mass * px1
            j += 1
        else:
            grown = np.zeros((mass.shape[0], mass.shape[1] + 1))
            grown[:, :-1] += mass * (1.0 - px1)
            grown[:, 1:] += mass * px1
        mass = grown
        uu = np.arange(mass.shape[0])[:, None]
        vv = np.arange(mass.shape[1])[None, :]
        grid = count_mi(log_tbl, _binary_type(uu, vv, j, t), 2, 2, t)
        hit = grid > gamma1
        total += float(mass[hit].sum())
        mass[hit] = 0.0
    return total


def _random_case(seed, kind, h):
    """A random 2x2 DMC with crossovers in [0.02, 0.3], a random codebook
    law with px_1 in [0.3, 0.7], a metric of `kind` on them and an output
    string of h symbols drawn through the channel."""
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0.02, 0.3, 2)
    channel = Dmc(np.array([[1.0 - a, a], [b, 1.0 - b]]))
    px1 = rng.uniform(0.3, 0.7)
    metric = kind(channel, np.array([1.0 - px1, px1]), h)
    return metric, metric.draw_true(rng, (1, h))[1][0]


def _weighed_races(metric, y, gamma1, proposals, seed, monkeypatch):
    """Races of about `proposals` proposals in all over the outputs y, 100
    proposals a race: the acceptance weight P / Q 1{tau <= h} of each
    proposal, the keep log-probability log_ratio + gamma_1 - B of each
    crossing one, and the first-crossing times of the kept crossers."""
    bound = metric.proposal_bound(y)
    ratios, kept, count = [], [], [0]
    draw, ratio = metric.draw_proposal, metric.log_ratio

    def counted_draw(rng, y, rows):
        count[0] += rows
        return draw(rng, y, rows)

    def recorded_ratio(value, state):
        ratios.append(ratio(value, state))
        return ratios[-1]

    monkeypatch.setattr(metric, "draw_proposal", counted_draw)
    monkeypatch.setattr(metric, "log_ratio", recorded_ratio)
    monkeypatch.setattr(ensemble, "_first_to_gamma2",
                        lambda rng, metric, crossers, y, gamma2:
                        kept.extend(c[0] for c in crossers))
    log_m = math.log(100.0) + gamma1 - bound
    rng = np.random.default_rng(seed)
    for _ in range(proposals // 100):
        ensemble.proposal_race(rng, y, metric, log_m, gamma1, gamma1 + 1.0)
    weights = np.zeros(count[0])
    weights[:len(ratios)] = np.exp(ratios)
    return weights, np.array(ratios) + gamma1 - bound, np.array(kept)


def _within_4_se(weights, p):
    se = float(weights.std(ddof=1)) / math.sqrt(weights.size)
    return abs(float(weights.mean()) - p) <= 4.0 * se


class TestProposalRace:
    """proposal_race against exact laws: the proposals' acceptance weights
    estimate P[tau <= h], and the kept crossers' first-crossing times follow
    the exact law of tau given tau <= h."""

    @pytest.mark.parametrize("kind,score", [(AdditiveDmc, "density"),
                                            (EmpiricalMi, "mi")])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_enumerated_law(self, kind, score, seed, monkeypatch):
        # every codeword of 14 symbols, enumerated by the oracle; gamma_1
        # is n I = 3, or half the highest density path any codeword has
        metric, y = _random_case(seed, kind, 14)
        gamma1 = 3.0 if score == "mi" else 0.5 * float(
            np.cumsum(metric.dens[:, y].max(axis=0)).max())
        p, law = exact_race_law(y, metric.px, gamma1, score, metric.channel)
        assert p > 0.0
        weights, keep, kept = _weighed_races(metric, y, gamma1, 4000, seed,
                                             monkeypatch)
        assert _within_4_se(weights, p)
        assert (keep <= 0.0).all()
        assert kept.size >= 50
        seen = np.bincount(kept - 1, minlength=y.size)
        assert seen[law == 0.0].sum() == 0
        want = law / p * kept.size
        # the least likely times, pooled until they are expected 5 times
        order = np.argsort(want)
        cut = int(np.searchsorted(np.cumsum(want[order]), 5.0)) + 1
        pooled, rest = order[:cut], order[cut:]
        assert rest.size >= 1
        obs = [seen[pooled].sum(), *seen[rest]]
        exp = [want[pooled].sum(), *want[rest]]
        assert scipy.stats.chisquare(obs, exp).pvalue > 1e-3

    @pytest.mark.parametrize("px1", [0.5, 0.3])
    def test_mixture_weights_estimate_the_full_grid_mass(self, px1,
                                                         monkeypatch):
        # random output strings of 60 to 120 symbols at gamma_1 = 12
        metric = EmpiricalMi(CH, np.array([1.0 - px1, px1]), 120)
        strings = np.random.default_rng(int(px1 * 10))
        for i in range(2):
            h = int(strings.integers(60, 121))
            y = (strings.random(h) < strings.uniform(0.3, 0.7)).astype(np.int64)
            mass = _full_grid_binary_mi_mass(y, metric, 12.0)
            assert mass > 0.0
            with monkeypatch.context() as patch:
                weights, keep, _ = _weighed_races(metric, y, 12.0, 3000, i,
                                                  patch)
            assert _within_4_se(weights, mass), (i, h)
            assert (keep <= 0.0).all()

    @pytest.mark.parametrize("size,most", [(2, 200), (3, 40)])
    def test_regret_bound_is_the_largest_regret(self, size, most):
        # log of the maximum-likelihood probability over the KT mixture's,
        # at every count vector of n symbols
        for n in range(most + 1):
            worst = max(
                sum(c * math.log(c / n) for c in counts if c)
                - math.lgamma(0.5 * size) + math.lgamma(n + 0.5 * size)
                - sum(math.lgamma(c + 0.5) - math.lgamma(0.5) for c in counts)
                for counts in _compositions(n, size))
            assert engine._kt_regret(n, size) == pytest.approx(
                worst, rel=1e-12, abs=1e-12), n

    def test_tiny_gamma1_is_a_state_explosion(self):
        # at M = 2^20 and gamma_1 = 6, (M - 1) e^{-gamma_1} = e^7.86 is
        # below the cap of 10^4 = e^9.21, but the mixture race proposes
        # e^B times as many paths, B = 2 R(75) = 5.47 over 75 output ones
        # and 75 zeros: e^13.33, past the cap
        metric = EmpiricalMi(CH, UNIFORM2, 300)
        y = np.arange(150) % 2
        assert metric.proposal_bound(y) == pytest.approx(5.47, abs=0.01)
        with pytest.raises(StateExplosion, match=r"^expected number of "
                           r"proposals or crossers e\^13\.33 exceeds 10000"):
            ensemble.proposal_race(np.random.default_rng(0), y, metric,
                                   20 * LN2, 6.0, 8.0)

    @pytest.mark.parametrize("variant", ["vlf_dmc", "vlf_awgn", "uvlf_dmc"])
    def test_state_at_equals_a_call_over_the_prefix(self, variant):
        # the race reads each crossing row's kernel state at tau off the
        # chunk's kernel call; at every row and every tau a crossing can
        # take, 1 and h among them, it is a call over x[r, :tau]'s state
        metric = METRICS[variant](*VARIANT_SETUPS[variant][:2], 100)
        rng = np.random.default_rng(21)
        h, rows = 12, 6
        y = metric.draw_true(rng, (1, h))[1][0]
        x = metric.draw_proposal(rng, y, rows)
        s, _ = metric.metric(metric.start(rows), x, y[None, :])
        for r in range(rows):
            for t in range(1, h + 1):
                want = metric.metric(metric.start(1), x[r:r + 1, :t],
                                     y[None, :t])[1]
                got = metric.state_at(s, x, y, r, t)
                assert got[0] == want[0] == t
                assert _same(got[1], want[1]), (r, t)


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


class TestFlipEntropyAbsorption:
    # 0.5 absorbs all mass at t = 1 (the metric is log 2 there); 500 exceeds
    # the largest value at n_max, 300 log 2, so nothing is absorbed
    GAMMAS = [0.5, 3.0, 10.0, 25.0, 500.0]

    @pytest.mark.parametrize("gamma1", GAMMAS)
    def test_band_dp_equals_full_grid_dp(self, gamma1):
        metric = FlipEntropy(CH, UNIFORM2, 300)
        band = FlipEntropyAbsorption(metric, gamma1)
        band.advance(metric.n_max)
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

    @pytest.mark.parametrize("gamma1", GAMMAS)
    def test_advancing_in_pieces_equals_one_advance(self, gamma1):
        metric = FlipEntropy(CH, UNIFORM2, 300)
        whole = FlipEntropyAbsorption(metric, gamma1)
        whole.advance(metric.n_max)
        pieces = FlipEntropyAbsorption(metric, gamma1)
        for h in (7, 50, metric.n_max):
            pieces.advance(h)
            reached = pieces.t
            assert reached == h or reached == metric.n_max  # all absorbed
            assert _same(pieces.cum[:reached + 1], whole.cum[:reached + 1])
        assert _same(pieces.cum, whole.cum)
        if whole.absorbed is None:
            assert pieces.absorbed is None
            return
        for got, want in zip(pieces.absorbed, whole.absorbed):
            assert _same(got, want)

    def test_race_reads_the_same_law_at_any_advance(self):
        # one instance raced over horizons in any order, and fresh ones
        # raced at steps that absorb, against the law advanced to n_max; the
        # next value of each generator compares the draws too
        metric = FlipEntropy(CH, UNIFORM2, 300)
        full = FlipEntropyAbsorption(metric, 10.0)
        full.advance(metric.n_max)
        y = np.random.default_rng(4).integers(0, 2, metric.n_max)

        def same_race(lazy, h):
            got, want = np.random.default_rng(h), np.random.default_rng(h)
            result = lazy.race(got, y[:h], 16 * LN2, 14.0)
            assert lazy.t >= h
            assert result == full.race(want, y[:h], 16 * LN2, 14.0)
            assert got.random() == want.random()
            return result.t1 is not None

        lazy = FlipEntropyAbsorption(metric, 10.0)
        hits = sum(same_race(lazy, h) for h in (1, 20, 21, 40, 41, 30, 97,
                                                 120, 300, 200, 299))
        absorbing = np.flatnonzero(np.diff(full.cum)) + 1
        hits += sum(same_race(FlipEntropyAbsorption(metric, 10.0), int(h))
                    for h in absorbing[:6])
        assert hits >= 8

    @pytest.mark.parametrize("gamma1", [2.0, 3.37, 5.1])
    def test_law_equals_the_enumerated_law(self, gamma1):
        # against every codeword of 16 symbols, enumerated by the oracle;
        # the law is the same for any output string
        metric = FlipEntropy(CH, UNIFORM2, 16)
        law = FlipEntropyAbsorption(metric, gamma1)
        law.advance(16)
        y = np.random.default_rng(16).integers(0, 2, 16)
        p, tau = exact_race_law(y, UNIFORM2, gamma1, "flip")
        assert p > 0.0
        assert law.cum[16] == pytest.approx(p, rel=1e-12)
        np.testing.assert_allclose(law.cum[1:], np.cumsum(tau), rtol=1e-12)

    @pytest.mark.usefixtures("force_ensemble")
    def test_partly_advanced_runtime_pickles_to_an_equivalent_copy(self):
        cfg = _pair_cfg("uvlf_bsc")
        rt = engine._Runtime(cfg)
        law = rt.race.func.__self__
        assert law.t == 0
        for i in range(5):
            simulate_trial(cfg, i, _runtime=rt)
        assert 0 < law.t < law.horizon
        copy = pickle.loads(pickle.dumps(rt))
        assert copy.race.func.__self__.t == law.t
        for i in range(5, 40):
            assert (simulate_trial(cfg, i, _runtime=copy)
                    == simulate_trial(cfg, i, _runtime=rt))
        assert np.array_equal(trial_records(cfg, 40)[5:],
                              [simulate_trial(cfg, i, _runtime=copy)
                               for i in range(5, 40)])


class TestCrosserDraw:
    def test_draw_equals_generator_choice(self, monkeypatch):
        # _absorbed_crossers picks its cells as rng.choice(w.size, k, p=...)
        # does and leaves the generator where choice leaves it; laws of 1 to
        # 3,000 cells with masses down to 1e-20
        seen = []
        monkeypatch.setattr(ensemble, "_first_to_gamma2",
                            lambda rng, metric, crossers, y, gamma2:
                            seen.append([c[0] for c in crossers]))
        laws = np.random.default_rng(7)
        for seed in range(300):
            size = int(laws.integers(1, 3001))
            w = laws.random(size) * 10.0 ** laws.uniform(-20.0, 0.0, size)
            k = int(laws.integers(1, 5))
            cells = np.arange(size)
            got, want = np.random.default_rng(seed), np.random.default_rng(seed)
            ensemble._absorbed_crossers(got, None, None, None, k, cells,
                                        cells.astype(float), cells[:, None], w)
            assert seen.pop() == want.choice(size, size=k,
                                             p=w / w.sum()).tolist()
            assert got.random() == want.random()


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

    @pytest.mark.parametrize("helper", [empirical_mi_passage_times,
                                        info_density_passage_times])
    def test_seed_must_be_a_non_negative_integer(self, helper):
        with pytest.raises(VlfError, match="seed"):
            helper(CH, UNIFORM2, 10.0, 20, seed=-1)

    # the first passage times over gamma = 5 of 8 walks, drawn from the
    # stream of Philox(seed); the values were recorded while the helpers
    # still keyed it through the engine's own replay of SeedSequence(seed)
    @pytest.mark.parametrize("seed,mi,dens", [
        (0, [8, 20, 39, 13, 8, 8, 21, 8], [9, 24, 49, 13, 9, 9, 16, 9]),
        (2**64 + 7, [23, 15, 8, 17, 15, 8, 33, 8],
         [20, 16, 13, 27, 16, 9, 45, 9]),
        (10**41, [8, 8, 16, 20, 9, 14, 12, 15], [9, 9, 16, 13, 9, 16, 9, 20]),
    ])
    def test_outputs_are_pinned(self, seed, mi, dens):
        assert empirical_mi_passage_times(CH, UNIFORM2, 5.0, 8,
                                          seed=seed).tolist() == mi
        assert info_density_passage_times(CH, UNIFORM2, 5.0, 8,
                                          seed=seed).tolist() == dens

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
