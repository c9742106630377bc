"""Monte Carlo engine for the three-phase variable-length feedback protocol.

A trial plays the full protocol for one message: an optional stop-at-time-zero
branch, a first communication phase in which every message's metric
accumulator races to gamma_1, a confirmation phase in which the transmitter
tells the receiver (through a sequential probability ratio test on control
symbols) whether the tentative decision was right, and — on rejection — a
second communication phase that continues the same accumulators to gamma_2.

The variants differ only in their decoding metric.  ``METRICS`` maps each
variant name to its ``Metric`` class: ``vlf_dmc`` (known DMC, information
density), ``uvlf_dmc`` (unknown DMC, empirical mutual information of the
joint type), ``uvlf_bsc`` (unknown binary channel, flip entropy
n(log 2 - h_b(flip rate))), ``vlf_awgn`` (known Gaussian channel,
information density) and ``uvlf_awgn`` (unknown noise, empirical correlation
-(n/2) log(1 - rho_hat^2)); the universal ones estimate the channel from a
training sequence.  Each metric has one vectorized kernel: the true
message's walk is its one-row case, the literal competitor race its
chunked-rows case and the passage-time helpers its lockstep case.  The M-1
competitors are resolved by the strategies in ``ensemble``.  Each trial is
driven by an independent RNG stream derived from (seed, trial_index), so
results are bit-identical regardless of how trials are scheduled across
workers.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import ensemble
from .channel import (
    Dmc,
    GaussianChannel,
    _as_prob_vector,
    binary_entropy,
    control_pair,
    gaussian_information_density,
    information_density_table,
    mutual_information,
)
from .empirical import count_log_table, count_mi
from .errors import (
    DimensionMismatch,
    HorizonTooSmall,
    InsufficientTraining,
    InvalidWorkerCount,
    StateExplosion,
    VlfError,
)

_Z95 = 1.959963984540054
_BLOCK = 256
_HT_BLOCK = 64
_HORIZON_MULT = 50.0  # default n_max in units of gamma2 / C
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class SchemeConfig:
    """Everything that determines a simulation run.

    ``px`` is the codebook input distribution (DMC variants; Gaussian
    codebooks are i.i.d. N(0, P) with P taken from the channel).
    ``competitor_mode`` picks how the M-1 wrong codewords are resolved:
    "literal" materializes them (M bounded), "ensemble" samples the Poisson
    process of threshold crossers (huge M), "auto" prefers literal when M is
    small enough.  ``n_max`` is the horizon, by default
    ceil(50 * gamma2 / C): a run whose walk plus control symbols do not
    stop by it is censored at tau = n_max, counted as an error, its symbols
    charged in protocol order (phase 1, control, phase 2) and its energy
    summed over the charged symbols only.  ``c2`` truncates the second
    communication phase of the universal variants at walk time
    c2 * gamma2 / C (the analysis horizon of the universal scheme; must
    exceed 1): a run that would pass it is censored too; None disables the
    extra cap.  uvlf_awgn recognizes crossings from length floor(log M) on,
    the schedule's block length, since its correlation metric is vacuously
    infinite at length 1.
    """

    variant: str
    channel: object
    px: object
    params: object
    training_len: int = 0
    n_max: int | None = None
    seed: int = 0
    honest_time_zero: bool = False
    competitor_mode: str = "auto"
    c2: float | None = 2.0

    def __post_init__(self):
        kind = metric_kind(self.variant)
        if self.competitor_mode not in ("auto", "literal", "ensemble"):
            raise VlfError(
                f"competitor_mode must be auto, literal or ensemble, "
                f"got {self.competitor_mode!r}"
            )
        if not isinstance(self.channel, kind.channel_type):
            raise DimensionMismatch(
                f"variant {self.variant} needs a {kind.channel_type.__name__}"
            )
        if not kind.gaussian:
            p = _as_prob_vector(self.px, "px")
            shape = self.channel.matrix.shape
            if p.size != shape[0]:
                raise DimensionMismatch(
                    f"px has {p.size} entries for {shape[0]} inputs"
                )
            object.__setattr__(self, "px", np.array(p, dtype=float))
            if kind.shape is not None and shape != kind.shape:
                raise DimensionMismatch(
                    f"variant {self.variant} needs a channel of shape "
                    f"{kind.shape}, got shape {shape}"
                )
        if self.training_len < 0:
            raise VlfError(f"training_len must be >= 0, got {self.training_len}")
        if kind.universal:
            need = 1 if kind.gaussian else self.channel.matrix.shape[0]
            if self.training_len < need:
                raise InsufficientTraining(
                    f"variant {self.variant} needs training_len >= {need}, "
                    f"got {self.training_len}"
                )
            if not kind.gaussian and self.channel.matrix.shape[0] < 2:
                raise DimensionMismatch(
                    "universal confirmation needs at least two channel inputs"
                )
        if self.n_max is not None and self.n_max < 1:
            raise HorizonTooSmall(f"n_max must be positive, got {self.n_max}")
        if self.c2 is not None and not (self.c2 > 1):
            raise VlfError(f"c2 must exceed 1, got {self.c2}")


@dataclass(frozen=True)
class TrialOutcome:
    """One simulated protocol run."""

    correct: bool
    tau: int
    len_c1: int
    len_ht: int
    len_c2: int
    energy: float
    censored: bool
    stopped_at_zero: bool

    @classmethod
    def from_record(cls, row):
        """The outcome one row of ``trial_records`` stores."""
        correct, tau, len_c1, len_ht, len_c2, energy, censored, zero = (
            float(v) for v in row
        )
        return cls(bool(correct), int(tau), int(len_c1), int(len_ht),
                   int(len_c2), energy, bool(censored), bool(zero))


@dataclass(frozen=True)
class McEstimate:
    """Aggregated Monte Carlo results with 95% confidence intervals.

    eps uses a Wilson interval, n and power normal/delta-method intervals.
    power fields are None on finite-alphabet channels.  ``degenerate`` marks
    runs with too few trials for a spread estimate (CI bounds are NaN then).
    """

    eps_hat: float
    eps_lo: float
    eps_hi: float
    n_hat: float
    n_lo: float
    n_hi: float
    power_hat: float | None
    power_lo: float | None
    power_hi: float | None
    censor_rate: float
    trials: int
    degenerate: bool


@dataclass(frozen=True)
class EmpiricalChannel:
    """Channel estimate built from one trial's training sequence.

    Exactly one of ``kernel`` (per-row empirical conditional distributions)
    and ``noise_variance`` is set.  ``counts`` holds the per-input training
    lengths (a single entry for the Gaussian all-zero training input).
    """

    kernel: np.ndarray | None
    noise_variance: float | None
    counts: np.ndarray


def _trial_rng(seed, trial_index):
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(trial_index,)))
    )


# ---------------------------------------------------------------------------
# training / channel estimation


def estimate_channel(cfg, trial_index=0):
    """The channel estimate the given trial's training phase produces, by
    the draw a trial makes first (see ``Metric.draw_training``)."""
    kind = metric_kind(cfg.variant)
    if not kind.universal:
        raise InsufficientTraining(
            f"variant {cfg.variant} knows its channel and draws no training"
        )
    return kind.draw_training(_trial_rng(cfg.seed, trial_index), cfg.channel,
                              cfg.training_len)


# ---------------------------------------------------------------------------
# sequential probability ratio test


def _block_sprt(draw_llr, a_accept, a_reject, budget):
    """The confirmation phase's SPRT over the LLR values that draw_llr(b)
    hands out, _HT_BLOCK at a time; exits the first step the sum leaves
    [-a_reject, a_accept] strictly, "accept" iff above a_accept.

    Returns (decision, steps, terminal sum); decision is None when `budget`
    steps pass, or draw_llr runs dry, undecided.  An infinite LLR exits at
    its own index, so the NaN sums that may follow it are never read.
    """
    s = 0.0
    used = 0
    while used < budget:
        vals = draw_llr(min(_HT_BLOCK, budget - used))
        if vals.size == 0:
            break
        with np.errstate(invalid="ignore"):
            csum = s + np.add.accumulate(vals)
        exit_mask = (csum > a_accept) | (csum < -a_reject)
        if exit_mask.any():
            i = int(exit_mask.argmax())
            decision = "accept" if csum[i] > a_accept else "reject"
            return decision, used + i + 1, float(csum[i])
        s = float(csum[-1])
        used += vals.size
    return None, used, s


# ---------------------------------------------------------------------------
# the metric registry


def _categorical(rng, cdf, size):
    u = rng.random(size)
    return np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)


class Metric:
    """Decoding metric of one variant over walks of at most n_max steps.

    An instance holds the read-only tables every trial of a configuration
    shares.  The kernel ``metric(state, x, y)`` extends `rows` paths by b
    steps: state is ``(t, stats)``, the steps taken so far and a
    (rows, width) array of sufficient statistics; x holds the codeword
    symbols, shape (rows, b), and y the outputs, shape (1, b) or (rows, b).
    It returns the metric after each step, shape (rows, b), and the new
    state.  The base kernel sums per-symbol steps ``step(x, y)``, and its
    ensemble strategy tilts toward ``draw_tilted(rng, y)``, the posterior of
    the input given each output.  Subclasses add ``walk_drift(channel, px)``,
    the training draw ``draw_training(rng, channel, training_len)`` (an
    EmpiricalChannel), the samplers ``draw_true(rng, shape)`` (true symbols
    and outputs) and ``draw_inputs(rng, rows, y)`` (competitor symbols), and
    the LLR sampler ``confirmation(rng, emp, right)`` of the confirmation
    test.
    """

    channel_type = Dmc
    gaussian = universal = False
    shape = None  # the channel shape the metric needs, if any
    schedule_d = None  # union-bound exponent d of the universal schedule
    block = _BLOCK  # true-walk symbols per kernel call
    width, dtype = 1, float

    def __init__(self, channel, px, n_max, n_min=1):
        self.channel, self.px, self.n_max, self.n_min = channel, px, n_max, n_min

    def start(self, rows):
        return 0, np.zeros((rows, self.width), self.dtype)

    def metric(self, state, x, y):
        t, s = state
        v = s + np.add.accumulate(self.step(x, y), axis=1)
        return v, (t + v.shape[1], v[:, -1:])

    def ensemble_strategy(self, log_m, gamma1, gamma2):
        """The ensemble race at these thresholds, as a picklable callable
        (rng, y); raises StateExplosion when the metric has none."""
        return functools.partial(ensemble.tilted_race, metric=self,
                                 log_m=log_m, gamma1=gamma1, gamma2=gamma2)

    @staticmethod
    def _no_ensemble(log_m, why):
        raise StateExplosion(
            f"ensemble competitors unavailable at log M = {log_m:.3f}: {why}"
        )


class _DmcMetric(Metric):
    """Finite alphabets: categorical samplers, count tables for the universal
    metrics, and a confirmation test between the control pair of the
    decoder's kernel (the true one or the training estimate)."""

    @staticmethod
    def walk_drift(channel, px):
        return mutual_information(px, channel)

    @staticmethod
    def draw_training(rng, channel, lt):
        """Each input sent round-robin (ell_x = floor(lt/|X|), plus one for
        the first lt mod |X| inputs); only the per-row output counts
        matter, so each row is one multinomial draw."""
        w = channel.matrix
        nx = w.shape[0]
        ells = np.full(nx, lt // nx)
        ells[: lt % nx] += 1
        rows = np.empty_like(w)
        for x in range(nx):
            rows[x] = rng.multinomial(ells[x], w[x]) / ells[x]
        return EmpiricalChannel(kernel=rows, noise_variance=None, counts=ells)

    def __init__(self, channel, px, n_max, n_min=1):
        super().__init__(channel, px, n_max, n_min)
        self.w = channel.matrix
        self.num_x, self.num_y = self.w.shape
        self.joint_cdf = np.cumsum((px[:, None] * self.w).ravel())
        self.px_cdf = np.cumsum(px)
        if self.universal:
            self.log_tbl = count_log_table(n_max + 1)
        else:
            self.known_test = self._test_tables(self.w)

    def draw_true(self, rng, shape):
        cells = _categorical(rng, self.joint_cdf, shape)
        return cells // self.num_y, cells % self.num_y

    def draw_inputs(self, rng, rows, y):
        return _categorical(rng, self.px_cdf, (rows, y.shape[1]))

    def _test_tables(self, kernel):
        xa, xr, _ = control_pair(kernel)
        pa, pr = kernel[xa], kernel[xr]
        with np.errstate(divide="ignore", invalid="ignore"):
            llr = np.log(pa) - np.log(pr)
        llr[(pa == 0) & (pr == 0)] = 0.0  # an output never seen tells nothing
        return llr, (np.cumsum(self.w[xa]), np.cumsum(self.w[xr]))

    def confirmation(self, rng, emp, right):
        test = self.known_test if emp is None else self._test_tables(emp.kernel)
        llr, cdf = test[0], test[1][0 if right else 1]
        return lambda b: llr[_categorical(rng, cdf, b)]


class _GaussianMetric(Metric):
    """Codebooks N(0, P): normal samplers, and antipodal controls scored
    with the known or estimated noise variance."""

    channel_type = GaussianChannel
    gaussian = True

    @staticmethod
    def walk_drift(channel, px):
        return channel.capacity

    @staticmethod
    def draw_training(rng, channel, lt):
        """lt zeros sent; the noise variance estimate has the law
        sigma0^2 chi2_lt / lt."""
        var = channel.noise_variance * rng.chisquare(lt) / lt
        return EmpiricalChannel(
            kernel=None, noise_variance=float(var), counts=np.array([lt])
        )

    def __init__(self, channel, px, n_max, n_min=1):
        super().__init__(channel, px, n_max, n_min)
        self.power = channel.power
        self.sd_x = math.sqrt(channel.power)
        self.sd_z = math.sqrt(channel.noise_variance)

    def draw_true(self, rng, shape):
        x = self.sd_x * rng.standard_normal(shape)
        return x, x + self.sd_z * rng.standard_normal(shape)

    def draw_inputs(self, rng, rows, y):
        return rng.standard_normal((rows, y.shape[1])) * self.sd_x

    def confirmation(self, rng, emp, right):
        var = self.channel.noise_variance if emp is None else emp.noise_variance
        slope = 2.0 * self.sd_x / var
        mean = self.sd_x if right else -self.sd_x
        return lambda b: slope * (mean + self.sd_z * rng.standard_normal(b))


class AdditiveDmc(_DmcMetric):
    """vlf_dmc: cumulative information density log W(y|x) / P_Y(y)."""

    def __init__(self, channel, px, n_max, n_min=1):
        super().__init__(channel, px, n_max, n_min)
        self.dens = information_density_table(px, channel)
        joint = px[:, None] * self.w
        self.post_cdfs = np.cumsum((joint / (px @ self.w)[None, :]).T, axis=1)

    def step(self, x, y):
        return self.dens[x, y]

    def draw_tilted(self, rng, y):
        u = rng.random(y.shape)
        return (u[..., None] >= self.post_cdfs[y]).sum(axis=-1)


class AdditiveGaussian(_GaussianMetric):
    """vlf_awgn: cumulative Gaussian information density."""

    def step(self, x, y):
        return gaussian_information_density(self.channel, x, y)

    def draw_tilted(self, rng, y):
        p, s2 = self.power, self.channel.noise_variance
        post_sd = math.sqrt(p * s2 / (p + s2))
        return y * (p / (p + s2)) + post_sd * rng.standard_normal(y.size)


class EmpiricalMi(_DmcMetric):
    """uvlf_dmc: n * I(joint type of the codeword and output prefixes)."""

    universal = True
    block = 2 * _HT_BLOCK
    dtype = np.int64

    def start(self, rows):
        return 0, np.zeros((rows, self.num_x * self.num_y), self.dtype)

    def metric(self, state, x, y):
        t, counts = state
        nx, ny = self.num_x, self.num_y
        onehot = (x * ny + y)[..., None] == np.arange(nx * ny)
        cum = counts[:, None, :] + np.cumsum(onehot, axis=1)
        grid = cum.reshape(cum.shape[:2] + (nx, ny))
        b = x.shape[1]
        cells, rows, cols = (
            np.moveaxis(a, 2, 0) for a in (cum, grid.sum(axis=3), grid.sum(axis=2))
        )
        n = np.arange(t + 1, t + b + 1)
        return count_mi(self.log_tbl, cells, rows, cols, n), (t + b, cum[:, -1])

    def ensemble_strategy(self, log_m, gamma1, gamma2):
        if (self.num_x, self.num_y) != (2, 2):
            self._no_ensemble(
                log_m, "the count dynamic program needs a binary-binary channel"
            )
        return functools.partial(ensemble.ensemble_binary_mi_race, metric=self,
                                 log_m=log_m, gamma1=gamma1, gamma2=gamma2)


class FlipEntropy(_DmcMetric):
    """uvlf_bsc: n(log 2 - h_b(k/n)), k the flips between codeword and outputs."""

    universal = True
    shape = (2, 2)
    schedule_d = 0.5  # the binary-symmetric specialization
    dtype = np.int64

    @staticmethod
    def walk_drift(channel, px):
        joint = px[:, None] * channel.matrix
        return _LN2 - binary_entropy(float(joint[0, 1] + joint[1, 0]))

    def count_metric(self, n, k):
        L = self.log_tbl
        return n * _LN2 - L[n] + L[k] + L[n - k]

    def metric(self, state, x, y):
        t, k = state
        b = x.shape[1]
        k = k + np.cumsum(x != y, axis=1)
        return self.count_metric(np.arange(t + 1, t + b + 1), k), (t + b, k[:, -1:])

    def draw_inputs(self, rng, rows, y):
        # a uniform per symbol decides the flip; y xor flip has law px
        px1 = self.px[1]
        flip = rng.random((rows, y.shape[1])) < np.where(y == 1, 1.0 - px1, px1)
        return y ^ flip

    def ensemble_strategy(self, log_m, gamma1, gamma2):
        if not np.all(np.abs(self.px - 0.5) < 1e-12):
            self._no_ensemble(
                log_m, "the shared absorption law needs a uniform codebook"
            )
        absorption = ensemble.FlipEntropyAbsorption(self, gamma1)
        return functools.partial(absorption.race, log_m=log_m, gamma2=gamma2)


class Correlation(_GaussianMetric):
    """uvlf_awgn: -(n/2) log(1 - rho_hat^2), recognized from length n_min on
    (the metric is vacuously infinite at length 1)."""

    universal = True
    width = 3

    def metric(self, state, x, y):
        t, stats = state
        sxy = stats[:, :1] + np.cumsum(x * y, axis=1)
        sxx = stats[:, 1:2] + np.cumsum(x * x, axis=1)
        syy = stats[:, 2:] + np.cumsum(y * y, axis=1)
        n = np.arange(t + 1, t + x.shape[1] + 1, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            r2 = np.clip(sxy * sxy / (sxx * syy), 0.0, 1.0)
            v = -0.5 * n * np.log1p(-r2)
        np.nan_to_num(v, copy=False, nan=-math.inf, posinf=math.inf)
        v[:, : max(0, self.n_min - t - 1)] = -math.inf
        last = np.stack([sxy[:, -1], sxx[:, -1], syy[:, -1]], axis=1)
        return v, (t + x.shape[1], last)

    def ensemble_strategy(self, log_m, gamma1, gamma2):
        self._no_ensemble(
            log_m, "no exact crossing law is available for the correlation metric"
        )


METRICS = {
    "vlf_dmc": AdditiveDmc,
    "uvlf_dmc": EmpiricalMi,
    "uvlf_bsc": FlipEntropy,
    "vlf_awgn": AdditiveGaussian,
    "uvlf_awgn": Correlation,
}
VARIANTS = tuple(METRICS)


def metric_kind(variant):
    """The Metric class registered for a variant name."""
    if variant not in METRICS:
        raise VlfError(
            f"unknown variant {variant!r}; expected one of {VARIANTS}"
        )
    return METRICS[variant]


# ---------------------------------------------------------------------------
# per-config runtime state


class _Runtime:
    """Thresholds, horizons, metric and competitor race of one
    configuration, shared by all its trials (read-only).  ``race(rng, y)``
    is the resolved strategy, literal or ensemble, over the outputs y.
    Picklable, so a pool can hand it to workers started by spawn or
    forkserver too."""

    def __init__(self, cfg):
        kind = metric_kind(cfg.variant)
        p = cfg.params
        self.g1, self.g2, self.log_m = p.gamma1, p.gamma2, p.log_m
        drift = kind.walk_drift(cfg.channel, cfg.px)
        if drift <= 0:
            raise HorizonTooSmall(
                f"metric drift {drift} is not positive; no finite horizon works"
            )
        self.n_max = (
            cfg.n_max
            if cfg.n_max is not None
            else int(math.ceil(_HORIZON_MULT * self.g2 / drift))
        )
        if self.n_max < 10.0 * self.g2 / drift:
            raise HorizonTooSmall(
                f"n_max = {self.n_max} is below 10*gamma2/C = "
                f"{10.0 * self.g2 / drift:.1f}"
            )
        self.c2_cap = (
            int(math.ceil(cfg.c2 * self.g2 / drift))
            if cfg.c2 is not None and kind.universal
            else None
        )
        # uvlf_awgn's first evaluated length is the schedule's block length
        self.metric = kind(cfg.channel, cfg.px, self.n_max,
                           max(1, int(self.log_m)))
        m1 = ensemble.literal_count(self.log_m)
        self.mode = cfg.competitor_mode
        if self.mode == "auto":
            self.mode = "literal" if m1 is not None else "ensemble"
        if self.mode == "ensemble":
            self.race = self.metric.ensemble_strategy(self.log_m, self.g1,
                                                      self.g2)
        elif m1 is None:
            raise StateExplosion(
                f"literal competitors need an integer count of at most 4096 "
                f"messages, got M = e^{self.log_m:.6f}"
            )
        else:
            self.race = functools.partial(
                ensemble.literal_race, m1=m1, metric=self.metric,
                gamma1=self.g1, gamma2=self.g2,
            )


# ---------------------------------------------------------------------------
# one trial


def _true_walk(rng, rt):
    """The true codeword's path, the one-row case of the metric kernel,
    drawn block by block until it clears gamma_2 or reaches n_max: first
    walk times above gamma_1 and gamma_2 (or None), the outputs drawn and,
    for Gaussian codebooks, the running input energy (else None)."""
    m = rt.metric
    taus = [None, None]
    state = m.start(1)
    ys, energy = [], []
    while state[0] < rt.n_max and taus[1] is None:
        t = state[0]
        x, y = m.draw_true(rng, (1, min(m.block, rt.n_max - t)))
        s, state = m.metric(state, x, y)
        for i, gamma in enumerate((rt.g1, rt.g2)):
            if taus[i] is None and (hit := s[0] > gamma).any():
                taus[i] = t + int(hit.argmax()) + 1
        ys.append(y[0])
        if m.gaussian:
            carry = energy[-1][-1] if energy else 0.0
            energy.append(carry + np.cumsum(x[0] * x[0]))
    ecum = np.concatenate(energy) if energy else None
    return taus[0], taus[1], np.concatenate(ys), ecum


def _outcome(rt, rng, ecum, len_c1, len_ht, stop, correct=False):
    """The record of a run by the censoring rule ``simulate_trial`` states:
    phase 1 took len_c1 walk symbols, the confirmation test len_ht control
    symbols (its budget keeps len_c1 + len_ht <= n_max), and the walk stops
    at walk time `stop`, or None when it does not stop.  ecum is the
    running input energy of the walk as drawn (None for finite alphabets);
    the k charged walk symbols past it, if any, get energy P chi2_k drawn
    from rng, the trial's last draw.
    """
    censored = stop is None or stop + len_ht > rt.n_max
    if censored:
        stop = rt.n_max - len_ht
    energy = 0.0
    if ecum is not None:
        walked = min(stop, ecum.size)
        energy = float(ecum[walked - 1]) + len_ht * rt.metric.power
        if stop > walked:
            energy += rt.metric.power * rng.chisquare(stop - walked)
    return TrialOutcome(
        correct=bool(correct) and not censored,
        tau=int(stop + len_ht),
        len_c1=int(len_c1),
        len_ht=int(len_ht),
        len_c2=int(stop - len_c1),
        energy=energy,
        censored=censored,
        stopped_at_zero=False,
    )


def simulate_trial(cfg, trial_index, _runtime=None):
    """Play one full protocol run; deterministic in (cfg.seed, trial_index).

    The run's timeline is phase 1 (up to walk time tau_first, the first
    gamma_1 crossing of the true walk or a competitor), the confirmation
    test's control symbols, then, on rejection, phase 2 (the walk continued
    to the first gamma_2 crossing).  Censoring rule: a run that does not
    stop, or whose walk plus control symbols pass n_max, is censored at
    tau = n_max and counts as an error.  Its symbols are charged in
    protocol order (phase 1, the control symbols, then phase 2 up to
    n_max), and the Gaussian energy sums exactly the charged symbols: the
    walk's plus len_ht * P.  Charged walk symbols past the block that held
    the gamma_2 crossing (a universal run stopped by the c2 cap) were never
    drawn; their energy is drawn as P chi2_k after every other draw.
    """
    rt = _runtime if _runtime is not None else _Runtime(cfg)
    m = rt.metric
    rng = _trial_rng(cfg.seed, trial_index)
    emp = (m.draw_training(rng, cfg.channel, cfg.training_len)
           if m.universal else None)

    if rng.random() < cfg.params.eps0:
        correct = cfg.honest_time_zero and rng.random() < math.exp(-rt.log_m)
        return TrialOutcome(
            correct=correct, tau=0, len_c1=0, len_ht=0, len_c2=0,
            energy=0.0, censored=False, stopped_at_zero=True,
        )

    tau1_true, tau2_true, y, ecum = _true_walk(rng, rt)
    if tau1_true is None:
        return _outcome(rt, rng, ecum, rt.n_max, 0, None)

    # competitors only matter strictly before the true gamma_2 crossing
    horizon = (tau2_true - 1) if tau2_true is not None else y.size
    race = rt.race(rng, y[:horizon])

    c1_correct = race.t1 is None or race.t1 >= tau1_true
    tau_first = tau1_true if c1_correct else race.t1

    decision, len_ht, _ = _block_sprt(
        m.confirmation(rng, emp, c1_correct),
        cfg.params.a_accept, cfg.params.a_reject, rt.n_max - tau_first,
    )
    stop, correct = None, False
    if decision == "accept":
        stop, correct = tau_first, c1_correct
    elif decision == "reject":
        cand = [t for t in (tau2_true, race.t2) if t is not None]
        if cand and (rt.c2_cap is None or min(cand) <= rt.c2_cap):
            stop = min(cand)
            correct = race.t2 is None or (
                tau2_true is not None and tau2_true <= race.t2
            )
    return _outcome(rt, rng, ecum, tau_first, len_ht, stop, correct)


# ---------------------------------------------------------------------------
# Monte Carlo aggregation


def _record(o):
    return (
        float(o.correct), float(o.tau), float(o.len_c1), float(o.len_ht),
        float(o.len_c2), o.energy, float(o.censored), float(o.stopped_at_zero),
    )


# The runtime of the configuration a pool worker serves, set once per
# worker by the pool initializer; None outside pool workers.
_WORKER_RUNTIME = None


def _set_worker_runtime(rt):
    global _WORKER_RUNTIME
    _WORKER_RUNTIME = rt


def _run_chunk(cfg, lo, hi):
    """Records of trials lo..hi-1, from the worker's runtime, or from a
    runtime built here outside a pool."""
    rt = _WORKER_RUNTIME if _WORKER_RUNTIME is not None else _Runtime(cfg)
    out = np.empty((hi - lo, 8))
    for i in range(lo, hi):
        out[i - lo] = _record(simulate_trial(cfg, i, _runtime=rt))
    return out


def _wilson(errors, trials):
    if trials == 0:
        return math.nan, math.nan, math.nan
    p = errors / trials
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = (
        _Z95
        * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
        / denom
    )
    lo = 0.0 if errors == 0 else max(0.0, center - half)
    hi = 1.0 if errors == trials else min(1.0, center + half)
    return p, lo, hi


def trial_records(cfg, trials, workers=1):
    """Records of trials 0..trials-1 in index order, one row per trial with
    the TrialOutcome fields as floats (see ``TrialOutcome.from_record``).

    Per-trial randomness depends only on (cfg.seed, trial index), so the
    records are bit-identical for any worker count.  The configuration's
    runtime (thresholds, metric tables and competitor strategy, including
    uvlf_bsc's absorption law) is built once per call: with workers > 1 it
    is built in this process and handed to each pool worker by the pool
    initializer, and the 4 * workers chunks of trials share it.
    """
    if trials < 1:
        raise VlfError(f"trials must be >= 1, got {trials}")
    if workers < 1:
        raise InvalidWorkerCount(f"workers must be >= 1, got {workers}")
    if workers == 1:
        return _run_chunk(cfg, 0, trials)
    rt = _Runtime(cfg)  # also validates the configuration before spawning
    n_chunks = min(trials, workers * 4)
    bounds = np.linspace(0, trials, n_chunks + 1).astype(int)
    with ProcessPoolExecutor(max_workers=workers,
                             initializer=_set_worker_runtime,
                             initargs=(rt,)) as pool:
        parts = list(
            pool.map(
                _run_chunk,
                [cfg] * n_chunks,
                bounds[:-1].tolist(),
                bounds[1:].tolist(),
            )
        )
    return np.concatenate(parts, axis=0)


def run_monte_carlo(cfg, trials, workers=1):
    """Aggregate `trials` independent protocol runs into an McEstimate,
    bit-identical for any worker count."""
    return aggregate_records(cfg, trial_records(cfg, trials, workers))


def aggregate_records(cfg, rec):
    """McEstimate over the in-order records of ``trial_records``."""
    trials = rec.shape[0]
    correct, tau = rec[:, 0], rec[:, 1]
    energy, censored = rec[:, 5], rec[:, 6]
    errors = float(np.sum(1.0 - correct))
    eps_hat, eps_lo, eps_hi = _wilson(errors, trials)
    n_hat = float(tau.mean())
    degenerate = trials < 2
    if degenerate:
        n_lo = n_hi = math.nan
    else:
        half = _Z95 * float(tau.std(ddof=1)) / math.sqrt(trials)
        n_lo, n_hi = n_hat - half, n_hat + half
    gaussian = metric_kind(cfg.variant).gaussian
    power_hat = power_lo = power_hi = None
    if gaussian:
        tot_tau = float(tau.sum())
        if tot_tau > 0:
            power_hat = float(energy.sum()) / tot_tau
            if degenerate:
                power_lo = power_hi = math.nan
            else:
                resid = energy - power_hat * tau
                se = (
                    math.sqrt(float(np.sum(resid * resid)) / (trials - 1))
                    / math.sqrt(trials)
                    / float(tau.mean())
                )
                power_lo = power_hat - _Z95 * se
                power_hi = power_hat + _Z95 * se
        else:
            power_hat = math.nan
            power_lo = power_hi = math.nan
    return McEstimate(
        eps_hat=eps_hat,
        eps_lo=eps_lo,
        eps_hi=eps_hi,
        n_hat=n_hat,
        n_lo=n_lo,
        n_hi=n_hi,
        power_hat=power_hat,
        power_lo=power_lo,
        power_hi=power_hi,
        censor_rate=float(censored.mean()),
        trials=int(trials),
        degenerate=degenerate,
    )


# ---------------------------------------------------------------------------
# lockstep passage-time utilities (used by drift diagnostics and tests)


def _passage_times(kind, dmc, px, gamma, trials, seed, max_steps):
    """First times `trials` independent walks of a metric exceed gamma.

    The lockstep case of the kernel: all walks advance together, one
    joint-cell draw per live walk per step, so the cost is O(max reached
    time) vectorized over trials.  Walks that do not cross within max_steps
    (default: a generous multiple of gamma over the drift) are reported at
    max_steps.
    """
    p = _as_prob_vector(px, "px")
    if max_steps is None:
        max_steps = int(math.ceil(50.0 * gamma / kind.walk_drift(dmc, p))) + 200
    metric = kind(dmc, p, max_steps)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    stats = metric.start(trials)[1]
    taus = np.full(trials, max_steps, dtype=np.int64)
    alive = np.ones(trials, dtype=bool)
    for t in range(max_steps):
        idx = np.nonzero(alive)[0]
        if idx.size == 0:
            break
        x, y = metric.draw_true(rng, (idx.size, 1))
        s, (_, stats[idx]) = metric.metric((t, stats[idx]), x, y)
        hit = idx[s[:, 0] > gamma]
        taus[hit] = t + 1
        alive[hit] = False
    return taus


def empirical_mi_passage_times(dmc, px, gamma, trials, seed=0, max_steps=None):
    """First times n * I(joint type) > gamma for `trials` independent walks."""
    return _passage_times(EmpiricalMi, dmc, px, gamma, trials, seed, max_steps)


def info_density_passage_times(dmc, px, gamma, trials, seed=0, max_steps=None):
    """First times the cumulative information density exceeds gamma."""
    return _passage_times(AdditiveDmc, dmc, px, gamma, trials, seed, max_steps)
