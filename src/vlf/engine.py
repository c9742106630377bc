"""Monte Carlo engine for the three-phase variable-length feedback protocol.

A trial plays the full protocol for one message: an optional stop at time
zero (always an error), a first communication phase in which every
message's metric accumulator races to gamma_1, a confirmation phase in which
the transmitter tells the receiver (through a sequential probability ratio
test on control symbols) whether the tentative decision was right, and — on
rejection — a second communication phase that continues the same
accumulators to gamma_2.

The variants differ only in their decoding metric.  ``METRICS`` maps each
variant name to its ``Metric`` class: ``vlf_dmc`` (known DMC, information
density), ``uvlf_dmc`` (unknown DMC, empirical mutual information of the
joint type), ``uvlf_bsc`` (unknown binary channel, flip entropy
n(log 2 - h_b(flip rate))), ``vlf_awgn`` (known Gaussian channel,
information density) and ``uvlf_awgn`` (unknown noise, empirical correlation
-(n/2) log(1 - rho_hat^2)); the universal ones estimate the channel from a
training sequence.  Each metric has one vectorized kernel: a block of
trials' first true-walk blocks are its stacked-rows case and the rest of a
true walk its one-row case, the literal competitor race its chunked-rows
case and the passage-time helpers its lockstep case.  The M-1 competitors
are resolved by the strategies in ``ensemble``.

Trial i draws the stream of ``Philox(seed).jumped(i)`` bit for bit: the
seed's one Philox key, with the trial index in counter word 2.  Results
are thus bit-identical however trials are scheduled across workers.  A
chunk builds one Philox and sets its counter to each trial's in turn.
"""

from __future__ import annotations

import functools
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple, get_type_hints

import numpy as np

from . import ensemble
from .bounds import LN2, VlfParams
from .channel import (
    Dmc,
    GaussianChannel,
    _as_input_law,
    _check_count,
    _check_real,
    _positive_drift,
    binary_entropy,
    control_llr,
    gaussian_information_density,
    information_density_table,
    mutual_information,
)
from .ensemble import count_log_table, count_mi
from .errors import (
    DimensionMismatch,
    InsufficientTraining,
    StateExplosion,
    VlfError,
)

_Z95 = 1.959963984540054
_BLOCK = 256  # true-walk symbols per kernel call
_HT_BLOCK = 64
_HORIZON_MULT = 50.0  # default horizon in units of gamma / C
_HORIZON_CAP = 10**7  # largest n_max: each per-horizon table is then 80 MB


def _horizon(gamma, drift, name, n_max=None):
    """(horizon, what names it): the given n_max, or by default
    50 * gamma / C for the threshold gamma called `name` and the metric
    drift C; either is refused above _HORIZON_CAP."""
    if n_max is None:
        horizon = _HORIZON_MULT * gamma / drift
        what = (f"the horizon 50*{name}/C = {horizon:.4g} at {name} = "
                f"{gamma:.4g}")
    else:
        horizon = _check_count(n_max, "n_max")
        what = f"n_max = {horizon}"
    if horizon > _HORIZON_CAP:
        raise VlfError(f"{what} is above the cap of {_HORIZON_CAP} symbols")
    return horizon, what


@dataclass(frozen=True)
class SchemeConfig:
    """Everything that determines a simulation run, checked and resolved
    once, when the config is constructed (``dataclasses.replace`` resolves
    the copy anew).

    ``px`` is the codebook input distribution (DMC variants; Gaussian
    codebooks are i.i.d. N(0, P) with P taken from the channel).  ``n_max``
    is the given horizon, an integer of at least 10 * gamma2 / C, or None;
    ``horizon``, derived, is n_max or by default ceil(50 * gamma2 / C), at
    most 10^7 symbols either way: a run whose walk plus control symbols do
    not stop by it is censored at tau = horizon, counted as an error, its
    symbols charged in protocol order (phase 1, control, phase 2) and its
    energy summed over the charged symbols only.  ``c2`` truncates the
    second communication phase of the universal variants at walk time
    ``c2_cap`` = ceil(min(c2 * gamma2 / C, horizon)) (the analysis horizon
    of the universal scheme; c2 a float, finite and above 1): a run that
    would pass it is censored too.  A known-channel variant has no such cap
    (``c2_cap`` is None) and ignores c2.  C is the metric's drift.  The M-1
    wrong codewords race literally when M is an integer count small enough
    (``ensemble.literal_count``) and through the metric's ensemble strategy
    otherwise.  uvlf_awgn recognizes crossings from length floor(log M) on,
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
    c2: float = 2.0
    horizon: int = field(init=False)
    c2_cap: int | None = field(init=False)

    def __post_init__(self):
        kind = metric_kind(self.variant, self.channel)
        if not isinstance(self.params, VlfParams):
            raise VlfError(f"params must be a VlfParams, got {self.params!r}")
        if not kind.gaussian:
            p = _as_input_law(self.px, self.channel)
            shape = self.channel.matrix.shape
            object.__setattr__(self, "px", np.array(p, dtype=float))
            if kind.shape is not None and shape != kind.shape:
                raise DimensionMismatch(
                    f"variant {self.variant} needs a channel of shape "
                    f"{kind.shape}, got shape {shape}"
                )
        _check_count(self.training_len, "training_len", least=0)
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
        object.__setattr__(self, "seed", _check_count(self.seed, "seed", 0))
        _check_real(self.c2, "c2", 1, math.inf)
        drift = _positive_drift(kind.walk_drift(self.channel, self.px),
                                "metric drift")
        g2 = self.params.gamma2
        horizon, what = _horizon(g2, drift, "gamma2", self.n_max)
        if horizon < 10.0 * g2 / drift:  # never a derived one, 50 gamma2/C
            raise VlfError(f"{what} is below 10*gamma2/C = "
                           f"{10.0 * g2 / drift:.1f}")
        object.__setattr__(self, "horizon", math.ceil(horizon))
        # a cap past the horizon cuts nothing (and c2 * gamma2/C may be inf)
        cap = math.ceil(min(self.c2 * g2 / drift, self.horizon))
        object.__setattr__(self, "c2_cap", cap if kind.universal else None)


class TrialOutcome(NamedTuple):
    """One simulated protocol run.  Its fields, as floats in this order,
    are one row of ``trial_records``."""

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
        """The outcome one row of ``trial_records`` stores, each value cast
        back to its field's type."""
        return cls(*(kind(v) for kind, v in zip(_FIELD_TYPES, row)))


_FIELD_TYPES = tuple(get_type_hints(TrialOutcome).values())


@dataclass(frozen=True)
class McEstimate:
    """Aggregated Monte Carlo results with 95% confidence intervals.

    eps uses a Wilson interval, n and power normal/delta-method intervals.
    power fields are None on finite-alphabet channels and when no trial
    sent a symbol (the power ratio is then undefined).  ``degenerate`` marks
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


# ---------------------------------------------------------------------------
# per-trial RNG streams

_TRIAL_BLOCK = 256  # trials whose first draws are scored at once
_WALK_STAGE = 32  # first walk blocks per kernel call in a block of trials
_MAX_TRIALS = 1 << 32  # trials in one run


def _generators(seed, lo, hi):
    """One Generator, set to the stream of ``Philox(seed).jumped(i)`` for
    each trial i of lo..hi-1 in turn and yielded: the seed's Philox key at
    counter (0, 0, i, 0), with an empty buffer and no spare half."""
    rng = np.random.Generator(np.random.Philox(seed))
    state = rng.bit_generator.state  # counter 0, empty buffer, no spare half
    for i in range(lo, hi):
        state["state"]["counter"][2] = i
        rng.bit_generator.state = state
        yield rng


def _trial_rng(seed, trial_index):
    """Trial `trial_index`'s generator, the stream of
    ``Philox(seed).jumped(trial_index)`` bit for bit.  The one-trial case
    of ``_generators``, whose one Philox serves a chunk."""
    i = _check_count(trial_index, "trial index", 0, _MAX_TRIALS - 1)
    return next(_generators(seed, i, i + 1))


# ---------------------------------------------------------------------------
# sequential probability ratio test


def _block_sprt(draw_llr, a_accept, a_reject, budget):
    """The confirmation phase's SPRT over the LLR values that draw_llr(b)
    hands out, _HT_BLOCK at a time; exits the first step the sum leaves
    [-a_reject, a_accept] strictly, "accept" iff above a_accept.

    Returns (decision, steps, terminal sum); decision is None when `budget`
    steps pass, or draw_llr runs dry, undecided.
    """
    s = 0.0
    used = 0
    while used < budget:
        vals = draw_llr(min(_HT_BLOCK, budget - used))
        if vals.size == 0:
            break
        csum = (s + np.add.accumulate(vals)).tolist()
        for i, c in enumerate(csum):
            if c > a_accept or c < -a_reject:
                decision = "accept" if c > a_accept else "reject"
                return decision, used + i + 1, c
        s = csum[-1]
        used += len(csum)
    return None, used, s


# ---------------------------------------------------------------------------
# the metric registry


def _cdf(mass):
    """Cumulative sums of `mass` along its last axis, at most 1.0 and
    exactly 1.0 from the first cell where the running sum reaches the row's
    total, so that a uniform draw u < 1 falls in a cell of positive mass,
    however the sums round."""
    cdf = np.minimum(np.cumsum(mass, axis=-1), 1.0)
    cdf[cdf == cdf[..., -1:]] = 1.0
    return cdf


def _categorical(rng, cdf, size):
    return cdf.searchsorted(rng.random(size), side="right")


def _through_cdfs(u, cdfs, row):
    """The categorical draw of each uniform u < 1: the number of values at
    or below u in its CDF row, ``cdfs[..., j].take(row)`` for cut point j
    (CDFs along the last axis of ``cdfs``, each from ``_cdf``).  One flat
    take per inner cut point; the last, exactly 1.0, is never at or below
    u."""
    x = np.zeros(u.shape, np.int64)
    for j in range(cdfs.shape[-1] - 1):
        x += u >= cdfs[..., j].take(row)
    return x


class Metric:
    """Decoding metric of one variant over walks of at most n_max steps.

    An instance holds the read-only tables every trial of a configuration
    shares.  The kernel ``metric(state, x, y)`` extends `rows` paths by b
    steps: state is ``(t, stats)``, the steps taken so far and a
    (rows, width) array of sufficient statistics; x holds the codeword
    symbols, shape (rows, b), and y the outputs, shape (1, b) or (rows, b).
    It returns the metric after each step, shape (rows, b), and the new
    state; over b = 0 symbols, the state unchanged.  The base kernel sums
    per-symbol steps ``step(x, y)``.  Its ensemble strategy is
    ``ensemble.proposal_race`` over four hooks: the proposal sampler
    ``draw_proposal(rng, y, rows)``, `rows` paths of shape (rows, y.size),
    which here draws each input from its posterior given the output
    (exponential tilting) as `rows` one-path draws would; the log bound
    ``proposal_bound(y)`` on the likelihood ratio above gamma_1, here 0;
    ``state_at(s, x, y, r, t)``, the kernel state at step t of row r of a
    call from the start over x against the outputs y (1-D) that returned
    the metric s, equal to a call's over x[r, :t] alone, here
    (t, s[r:r + 1, t - 1:t]); and ``log_ratio(value, state)``, the log of
    P(x^tau) / Q(x^tau | y) at a crossing, here -value: the metric is the
    log likelihood ratio itself.  Subclasses add ``walk_drift(channel, px)``,
    the training draw ``draw_training(rng, channel, training_len)`` (the
    estimated kernel, or noise variance, as plain data), the true walk's
    sampler in two parts, ``draw_raw(rng, shape)`` (the raw draws of the
    true symbols and outputs, all of them the rng makes) and
    ``true_symbols(raw)`` (the symbols and outputs they map to, element by
    element, so raw draws stacked along axis -2 map to stacked rows), the
    competitor sampler ``draw_inputs(rng, rows, y)``, and the
    confirmation test in two parts: the block hook ``scorers(ests)``, which
    maps a block of trials' estimates to one scorer per trial (the known
    channel's for an estimate of None) and draws nothing, and the LLR
    sampler ``confirmation(rng, scorer, right)``.
    """

    channel_type = Dmc
    gaussian = universal = False
    shape = None  # the channel shape the metric needs, if any
    schedule_d = None  # union-bound exponent d of the universal schedule
    width, dtype = 1, float

    def __init__(self, channel, px, n_max, n_min=1):
        self.channel, self.px, self.n_max, self.n_min = channel, px, n_max, n_min

    def start(self, rows):
        return 0, np.zeros((rows, self.width), self.dtype)

    def draw_true(self, rng, shape):
        """The true symbols and outputs, shape `shape` each."""
        return self.true_symbols(self.draw_raw(rng, shape))

    def metric(self, state, x, y):
        t, s = state
        v = s + np.add.accumulate(self.step(x, y), axis=1)
        return v, (t + v.shape[1], v[:, -1:] if v.shape[1] else s)

    def proposal_bound(self, y):
        return 0.0

    def state_at(self, s, x, y, r, t):
        return t, s[r:r + 1, t - 1:t]

    def log_ratio(self, value, state):
        return -value

    def ensemble_strategy(self, log_m, gamma1, gamma2):
        """The ensemble race at these thresholds, as a picklable callable
        (rng, y); raises StateExplosion when the metric has none."""
        return functools.partial(ensemble.proposal_race, metric=self,
                                 log_m=log_m, gamma1=gamma1, gamma2=gamma2)

    @staticmethod
    def _no_ensemble(log_m, why):
        raise StateExplosion(
            f"ensemble competitors unavailable at log M = {log_m:.3f}: {why}"
        )


class _DmcMetric(Metric):
    """Finite alphabets: categorical samplers, count tables for the universal
    metrics, and a confirmation test scored by ``control_llr`` of the
    decoder's kernel (the true one or the training estimate), its control
    symbols drawn from the true channel's rows.  A scorer is the
    (x_accept, x_reject, llr) of one kernel."""

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
        ells = [lt // nx + (x < lt % nx) for x in range(nx)]
        rows = [rng.multinomial(ell, row) for ell, row in zip(ells, w)]
        return np.array(rows) / np.array(ells)[:, None]

    def __init__(self, channel, px, n_max, n_min=1):
        super().__init__(channel, px, n_max, n_min)
        self.w = channel.matrix
        self.num_x, self.num_y = self.w.shape
        self.joint_cdf = _cdf((px[:, None] * self.w).ravel())
        self.px_cdf = _cdf(px)
        self.row_cdfs = _cdf(self.w)
        if self.universal:
            self.log_tbl = count_log_table(n_max + 1)
        else:
            self.known_llr = control_llr(self.w)

    @staticmethod
    def draw_raw(rng, shape):
        return rng.random(shape)

    def true_symbols(self, u):
        cell = _through_cdfs(u, self.joint_cdf, 0)
        x = cell // self.num_y
        return x, cell - x * self.num_y

    def draw_inputs(self, rng, rows, y):
        return _categorical(rng, self.px_cdf, (rows, y.shape[1]))

    def scorers(self, ests):
        """The known kernel's scorer per trial, or one ``control_llr`` call
        over the block's stacked estimates."""
        if not self.universal:
            return [self.known_llr] * len(ests)
        xa, xr, llr = control_llr(np.stack(ests))
        return [*zip(xa.tolist(), xr.tolist(), llr)]

    def confirmation(self, rng, scorer, right):
        xa, xr, llr = scorer
        cdf = self.row_cdfs[xa if right else xr]
        return lambda b: llr[_categorical(rng, cdf, b)]


class _GaussianMetric(Metric):
    """Codebooks N(0, P) over unit noise: normal samplers, and antipodal
    controls scored with the known (unit) or estimated noise variance.  A
    scorer is the LLR's slope 2 sqrt(P) / sigma^2 in the control output."""

    channel_type = GaussianChannel
    gaussian = True
    schedule_d = 0.5  # the Gaussian recipe's exponent

    @staticmethod
    def walk_drift(channel, px):
        return channel.capacity

    @staticmethod
    def draw_training(rng, channel, lt):
        """lt zeros sent; the noise variance estimate has the law
        chi2_lt / lt."""
        return rng.chisquare(lt) / lt

    def __init__(self, channel, px, n_max, n_min=1):
        super().__init__(channel, px, n_max, n_min)
        self.power = channel.power
        self.sd_x = math.sqrt(channel.power)

    @staticmethod
    def draw_raw(rng, shape):
        # the inputs' normals, then the noise's: two draws of `shape`
        return rng.standard_normal((2, *shape))

    def true_symbols(self, z):
        x = self.sd_x * z[0]
        return x, x + z[1]

    def draw_inputs(self, rng, rows, y):
        return rng.standard_normal((rows, y.shape[1])) * self.sd_x

    def scorers(self, ests):
        return [2.0 * self.sd_x / (1.0 if est is None else est) for est in ests]

    def confirmation(self, rng, slope, right):
        mean = self.sd_x if right else -self.sd_x
        return lambda b: slope * (mean + rng.standard_normal(b))


class AdditiveDmc(_DmcMetric):
    """vlf_dmc: cumulative information density log W(y|x) / P_Y(y)."""

    def __init__(self, channel, px, n_max, n_min=1):
        super().__init__(channel, px, n_max, n_min)
        self.dens = information_density_table(px, channel)
        joint = px[:, None] * self.w
        self.post_cdfs = _cdf((joint / (px @ self.w)[None, :]).T)

    def step(self, x, y):
        return self.dens.take(x * self.num_y + y)

    def draw_proposal(self, rng, y, rows):
        return _through_cdfs(rng.random((rows, y.size)), self.post_cdfs, y)


class AdditiveGaussian(_GaussianMetric):
    """vlf_awgn: cumulative Gaussian information density."""

    def step(self, x, y):
        return gaussian_information_density(self.channel, x, y)

    def draw_proposal(self, rng, y, rows):
        p = self.power
        post_sd = math.sqrt(p / (p + 1.0))
        return y * (p / (p + 1.0)) + post_sd * rng.standard_normal(
            (rows, y.size))


def _kt_regret(n, size):
    """R(n), the largest log-ratio over count vectors of n symbols on an
    alphabet of `size` between the maximum-likelihood i.i.d. probability
    and the Krichevsky-Trofimov (Dirichlet(1/2)) mixture's: its value on a
    constant sequence.  R rises with n."""
    half = 0.5 * size
    return (math.lgamma(n + half) + math.lgamma(0.5) - math.lgamma(n + 0.5)
            - math.lgamma(half))


class EmpiricalMi(_DmcMetric):
    """uvlf_dmc: n * I(joint type of the codeword and output prefixes).

    Its ensemble race proposes from a Krichevsky-Trofimov mixture per
    output symbol b: theta_b ~ Dirichlet(1/2, ..., 1/2) over the inputs,
    drawn afresh for each proposal path, then x_t ~ theta_{y_t}.  For n_b
    outputs b among t, that mixture's probability is at most e^{R(n_b)}
    below the maximum-likelihood one (``_kt_regret``), and P(x^t) is at
    most the maximum-likelihood law of the input type, so
    P / Q <= e^{-t I_t + sum_b R(n_b)}: at a gamma_1 crossing within the
    horizon, log P / Q < sum_b R(n_b(h)) - gamma_1, the bound
    ``proposal_bound`` returns.  Nothing here assumes an alphabet size, so
    every finite alphabet gets this race.  Its rate (M - 1) e^{B - gamma_1}
    has B about ((|X| - 1) |Y| / 2) log h over h outputs: under the
    universal schedule, gamma_1 - log M = d log n1 + 1.1 log log n1, it
    grows with the horizon where d < (|X| - 1) |Y| / 2, as on 3x2.
    """

    universal = True

    def __init__(self, channel, px, n_max, n_min=1):
        super().__init__(channel, px, n_max, n_min)
        # counts are at most n_max; narrow ones halve the kernel's stack
        self.dtype = np.int16 if n_max < 2**15 else np.int32
        # 0 log 0 = 0: a zero-mass input makes P zero only where it occurs
        self.log_px = [math.log(p) if p > 0 else -math.inf for p in px]

    def proposal_bound(self, y):
        return sum(_kt_regret(int(n), self.num_x)
                   for n in np.bincount(y, minlength=self.num_y))

    def draw_proposal(self, rng, y, rows):
        ny = self.num_y
        # rng.dirichlet's own gamma path: each theta is its gammas times the
        # reciprocal of their sequential sum, bit for bit
        g = rng.standard_gamma(0.5, size=(rows, ny, self.num_x))
        cdfs = _cdf(g * (1.0 / g.cumsum(axis=-1)[..., -1:]))
        u = rng.random((rows, y.size))
        return _through_cdfs(u, cdfs, np.arange(0, rows * ny, ny)[:, None] + y)

    def state_at(self, s, x, y, r, t):
        counts = np.bincount(x[r, :t] * self.num_y + y[:t],
                             minlength=self.num_x * self.num_y)
        return t, counts.astype(self.dtype)[None, :]

    def log_ratio(self, value, state):
        """log P(x^t) - log Q(x^t | y^t) from the joint counts c[x, b] of
        the kernel state at t."""
        c = state[1].reshape(self.num_x, self.num_y).tolist()
        half = 0.5 * self.num_x
        log_p = sum(n * lp for n, lp in zip(map(sum, c), self.log_px) if n)
        log_q = 0.0
        for col in zip(*c):
            log_q += math.lgamma(half) - math.lgamma(sum(col) + half)
            log_q += sum(math.lgamma(k + 0.5) - math.lgamma(0.5) for k in col)
        return log_p - log_q

    def start(self, rows):
        return 0, np.zeros((rows, self.num_x * self.num_y), self.dtype)

    def metric(self, state, x, y):
        t, counts = state
        nx, ny = self.num_x, self.num_y
        cells = nx * ny
        rows, b = x.shape
        # cell-outer, (cells, rows, b): the running counts run along the
        # contiguous last axis, and the cell, row and column counts share
        # one stack for count_mi
        onehot = (x * ny + y)[None] == np.arange(cells)[:, None, None]
        stack = np.empty((cells + nx + ny, rows, b), self.dtype)
        cum = np.add.accumulate(onehot, axis=2, dtype=self.dtype,
                                out=stack[:cells])
        cum += counts.T[:, :, None]
        grid = cum.reshape(nx, ny, rows, b)
        np.add.reduce(grid, axis=1, out=stack[cells:cells + nx])
        np.add.reduce(grid, axis=0, out=stack[cells + nx:])
        s = count_mi(self.log_tbl, stack, nx, ny, slice(t + 1, t + b + 1))
        return s, (t + b, cum[:, :, -1].T if b else counts)


class FlipEntropy(_DmcMetric):
    """uvlf_bsc: n(log 2 - h_b(k/n)), k the flips between codeword and outputs."""

    universal = True
    shape = (2, 2)
    schedule_d = 0.5  # the binary-symmetric specialization
    dtype = np.int64

    @staticmethod
    def walk_drift(channel, px):
        joint = px[:, None] * channel.matrix
        return LN2 - binary_entropy(float(joint[0, 1] + joint[1, 0]))

    def __init__(self, channel, px, n_max, n_min=1):
        super().__init__(channel, px, n_max, n_min)
        self.base_tbl = np.arange(n_max + 2) * LN2 - self.log_tbl  # n log 2 - L[n]

    def count_metric(self, n, k):
        L = self.log_tbl
        return self.base_tbl[n] + L[k] + L[n - k]

    def metric(self, state, x, y):
        t, k0 = state
        b = x.shape[1]
        k = k0 + np.cumsum(x != y, axis=1)
        return (self.count_metric(np.arange(t + 1, t + b + 1), k),
                (t + b, k[:, -1:] if b else k0))

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
        last = (np.stack([sxy[:, -1], sxx[:, -1], syy[:, -1]], axis=1)
                if x.shape[1] else stats)
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


def metric_kind(variant, channel=None):
    """The Metric class registered for a variant name, checked to fit the
    channel when one is given."""
    if variant not in METRICS:
        raise VlfError(
            f"unknown variant {variant!r}; expected one of {VARIANTS}"
        )
    kind = METRICS[variant]
    if channel is not None and not isinstance(channel, kind.channel_type):
        raise DimensionMismatch(
            f"variant {variant} needs a {kind.channel_type.__name__}"
        )
    return kind


# ---------------------------------------------------------------------------
# per-config runtime state


class _Runtime:
    """Metric tables and competitor race of one configuration, shared by
    all its trials; every other value a trial reads is on its config.
    ``race(rng, y)`` is the competitor race over the outputs y: literal
    when ``ensemble.literal_count`` gives a count, the metric's ensemble
    strategy otherwise.  All of it is read-only but uvlf_bsc's absorption
    law, which its races advance as far as they read it; the law is
    sequential, so no result depends on how far it has got.  Picklable, so
    a pool can hand it to workers started by spawn or forkserver too."""

    def __init__(self, cfg):
        p = cfg.params
        # uvlf_awgn's first evaluated length is the schedule's block length
        self.metric = METRICS[cfg.variant](cfg.channel, cfg.px, cfg.horizon,
                                           max(1, int(p.log_m)))
        m1 = ensemble.literal_count(p.log_m)
        if m1 is None:
            self.race = self.metric.ensemble_strategy(p.log_m, p.gamma1,
                                                      p.gamma2)
        else:
            self.race = functools.partial(
                ensemble.literal_race, m1=m1, metric=self.metric,
                gamma1=p.gamma1, gamma2=p.gamma2,
            )


# ---------------------------------------------------------------------------
# one trial


def _walk_block(m, gammas, state, x, y):
    """The walks of the kernel state `state` extended by the symbols x
    against the outputs y, shape (rows, b) each: the new state and, per
    row, the first walk time in the block strictly above each gamma, or
    None."""
    t = state[0]
    s, state = m.metric(state, x, y)
    firsts = []
    for g in gammas:
        above = s > g
        firsts.append([t + j + 1 if hit else None for j, hit in zip(
            above.argmax(axis=1).tolist(), above.any(axis=1).tolist())])
    return state, list(zip(*firsts))


def _true_walk(rng, cfg, m, walk=None):
    """The true codeword's path under the metric m, the one-row case of its
    kernel, drawn block by block until it clears gamma_2 or reaches the
    horizon: first walk times above gamma_1 and gamma_2 (or None), the
    outputs drawn and, for Gaussian codebooks, the running input energy
    (else None).  `walk`, when given, is a walk already drawn to a block's
    end, (first times, kernel state, output blocks, energy blocks), as
    ``_first_blocks`` stages it; the path continues from there, and draws
    nothing if that block held its gamma_2 crossing."""
    n_max, gammas = cfg.horizon, (cfg.params.gamma1, cfg.params.gamma2)
    taus, state, ys, energy = walk or ((None, None), m.start(1), [], [])
    while state[0] < n_max and taus[1] is None:
        x, y = m.draw_true(rng, (1, min(_BLOCK, n_max - state[0])))
        state, (crossed,) = _walk_block(m, gammas, state, x, y)
        taus = [old if old is not None else new
                for old, new in zip(taus, crossed)]
        ys.append(y[0])
        if m.gaussian:
            carry = energy[-1][-1] if energy else 0.0
            energy.append(carry + np.cumsum(x[0] * x[0]))
    return taus[0], taus[1], _joined(ys), _joined(energy)


def _joined(blocks):
    """The blocks as one array: the block itself if there is one, None if
    there are none."""
    if len(blocks) > 1:
        return np.concatenate(blocks)
    return blocks[0] if blocks else None


def _first_draws(cfg, m, rng):
    """A trial's draws before its first kernel call, in stream order: the
    training (universal metrics), the stop-at-time-zero uniform and, unless
    it stops the run, the raw draws of the first walk block.  Returns
    (estimate or None, raw draws or None)."""
    est = (m.draw_training(rng, cfg.channel, cfg.training_len)
           if m.universal else None)
    if rng.random() < cfg.params.eps0:  # an error, as Theorem 1 counts it
        return est, None
    return est, m.draw_raw(rng, (min(_BLOCK, cfg.horizon),))


def _first_blocks(cfg, m, raws):
    """The first walk block of each raw draw of `raws` (one trial's each,
    ``_first_draws``), as ``_true_walk`` continues it, scored _WALK_STAGE
    walks to a kernel call: stacked rows, one mapping to symbols, one
    kernel call, one crossing search.  A generator, so that only one
    call's rows are held at a time."""
    gammas = (cfg.params.gamma1, cfg.params.gamma2)
    for j in range(0, len(raws), _WALK_STAGE):
        x, y = m.true_symbols(np.stack(raws[j:j + _WALK_STAGE], axis=-2))
        (t, stats), crossed = _walk_block(m, gammas, m.start(len(y)), x, y)
        ecum = np.cumsum(x * x, axis=1) if m.gaussian else None
        for r, taus in enumerate(crossed):
            yield (taus, (t, stats[r:r + 1]), [y[r]],
                   [] if ecum is None else [ecum[r]])


def _score_block(cfg, m, drawn):
    """The block scoring of a block of trials' draws `drawn`, in trial
    order (``_first_draws``): per trial, (scorer, first walk block or None
    for a run stopped at time zero), lazily.  One ``scorers`` call scores
    the block's estimates, and ``_first_blocks`` the walks."""
    walks = _first_blocks(cfg, m, [raw for _, raw in drawn if raw is not None])
    for scorer, (_, raw) in zip(m.scorers([est for est, _ in drawn]), drawn):
        yield scorer, None if raw is None else next(walks)


def _outcome(cfg, m, rng, ecum, len_c1, len_ht, stop, correct=False):
    """The record of a run under the metric m by the censoring rule
    ``simulate_trial`` states: phase 1 took len_c1 walk symbols, the
    confirmation test len_ht control symbols (its budget keeps
    len_c1 + len_ht <= n_max, the config's horizon), and the walk stops at
    walk time `stop`, or None when it does not stop.  Only the stop at time
    zero has stop = len_c1 = len_ht = 0, so tau = 0 marks it.  ecum is the
    running input energy of the walk as drawn (None for finite alphabets,
    and at time zero); the k charged walk symbols past it, if any, get
    energy P chi2_k drawn from rng, the trial's last draw.
    """
    censored = stop is None or stop + len_ht > cfg.horizon
    if censored:
        stop = cfg.horizon - len_ht
    energy = 0.0
    if ecum is not None:
        walked = min(stop, ecum.size)
        energy = float(ecum[walked - 1]) + len_ht * m.power
        if stop > walked:
            energy += m.power * rng.chisquare(stop - walked)
    tau = int(stop + len_ht)
    return TrialOutcome(
        correct=bool(correct) and not censored,
        tau=tau,
        len_c1=int(len_c1),
        len_ht=int(len_ht),
        len_c2=int(stop - len_c1),
        energy=energy,
        censored=censored,
        stopped_at_zero=tau == 0,
    )


def simulate_trial(cfg, trial_index, _runtime=None, _staged=None):
    """Play one full protocol run; deterministic in (cfg.seed, trial_index).

    The run's timeline is phase 1 (up to walk time tau_first, the first
    gamma_1 crossing of the true walk or a competitor), the confirmation
    test's control symbols, then, on rejection, phase 2 (the walk continued
    to the first gamma_2 crossing).  Censoring rule: a run that does not
    stop, or whose walk plus control symbols pass the horizon n_max
    (``cfg.horizon``), is censored at tau = n_max and counts as an error.
    Its symbols are charged in protocol order (phase 1, the control
    symbols, then phase 2 up to n_max), and the Gaussian energy sums
    exactly the charged symbols: the walk's plus len_ht * P.  Charged walk
    symbols past the block that held the gamma_2 crossing (a universal run
    stopped by ``cfg.c2_cap``) were never drawn; their energy is drawn as
    P chi2_k after every other draw.
    A run's first draws, up to its first kernel call, are its training
    (universal metrics), the stop-at-time-zero uniform and the first walk
    block's (``_first_draws``).  They are scored as a block of one trial
    here: ``Metric.scorers`` over the one estimate, which draws nothing,
    and the kernel over the first block (``_first_blocks``).  ``_staged``,
    when given, is (generator, scorer, first walk block) from a larger
    block, the generator keyed to the trial and past those draws (see
    ``_run_chunk``).
    """
    rt = _runtime if _runtime is not None else _Runtime(cfg)
    m = rt.metric
    if _staged is None:
        rng = _trial_rng(cfg.seed, trial_index)
        _staged = rng, *next(_score_block(cfg, m, [_first_draws(cfg, m, rng)]))
    rng, scorer, walk = _staged
    if walk is None:  # stopped at time zero, an error
        return _outcome(cfg, m, rng, None, 0, 0, 0)

    tau1_true, tau2_true, y, ecum = _true_walk(rng, cfg, m, walk)
    if tau1_true is None:
        return _outcome(cfg, m, rng, ecum, cfg.horizon, 0, None)

    # competitors only matter strictly before the true gamma_2 crossing
    horizon = (tau2_true - 1) if tau2_true is not None else y.size
    race = rt.race(rng, y[:horizon])

    c1_correct = race.t1 is None or race.t1 >= tau1_true
    tau_first = tau1_true if c1_correct else race.t1

    decision, len_ht, _ = _block_sprt(
        m.confirmation(rng, scorer, c1_correct),
        cfg.params.a_accept, cfg.params.a_reject, cfg.horizon - tau_first,
    )
    stop, correct = None, False
    if decision == "accept":
        stop, correct = tau_first, c1_correct
    elif decision == "reject":
        cand = [t for t in (tau2_true, race.t2) if t is not None]
        if cand and (cfg.c2_cap is None or min(cand) <= cfg.c2_cap):
            stop = min(cand)
            correct = race.t2 is None or (
                tau2_true is not None and tau2_true <= race.t2
            )
    return _outcome(cfg, m, rng, ecum, tau_first, len_ht, stop, correct)


# ---------------------------------------------------------------------------
# Monte Carlo aggregation


# The runtime of the configuration a pool worker serves, set once per
# worker by the pool initializer; None outside pool workers.
_WORKER_RUNTIME = None


def _set_worker_runtime(rt):
    global _WORKER_RUNTIME
    _WORKER_RUNTIME = rt


def _run_chunk(cfg, lo, hi):
    """Records of trials lo..hi-1, from the worker's runtime, or from a
    runtime built here outside a pool.  One generator serves the chunk,
    set before each trial to that trial's own stream (``_generators``), and
    ``simulate_trial`` plays each trial once.

    Every variant runs its trials in blocks, in two passes.  The first
    makes each trial's draws up to its first kernel call (``_first_draws``:
    the training, the stop-at-time-zero uniform, the first walk block's raw
    draws) and saves the generator state they leave.  The block is then
    scored at once (``_score_block``: one ``scorers`` call over the
    estimates, one kernel call per _WALK_STAGE first walk blocks), and the
    second pass restores each state and plays the rest of the trial,
    continuing its walk only where the first block did not clear gamma_2.
    A universal block holds _TRIAL_BLOCK trials, so that one
    ``control_llr`` call scores them all; a known one, whose scorers batch
    nothing, holds one walk stage.  Every trial draws the same numbers in
    the same order as alone.
    """
    rt = _WORKER_RUNTIME if _WORKER_RUNTIME is not None else _Runtime(cfg)
    m = rt.metric
    out = np.empty((hi - lo, len(TrialOutcome._fields)))
    rngs = _generators(cfg.seed, lo, hi)
    # a known block holds no more trials' draws than one walk stage needs
    size = _TRIAL_BLOCK if m.universal else _WALK_STAGE
    for start in range(lo, hi, size):
        drawn, states = [], []
        for rng in itertools.islice(rngs, size):
            drawn.append(_first_draws(cfg, m, rng))
            states.append(rng.bit_generator.state)
        # rng is the chunk's one generator, set to each trial's state in turn
        for i, (state, staged) in enumerate(
                zip(states, _score_block(cfg, m, drawn)), start):
            rng.bit_generator.state = state
            out[i - lo] = simulate_trial(cfg, i, _runtime=rt,
                                         _staged=(rng, *staged))
    return out


def _wilson(errors, trials):
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

    Trial i draws the stream of ``Philox(cfg.seed).jumped(i)`` bit for
    bit (see ``_trial_rng``), so the records are bit-identical for any
    worker count.  At most 2^32 trials.  The configuration's runtime
    (metric tables and competitor strategy) is built once per call: with
    workers > 1 it is built in this process and
    handed to each pool worker by the pool initializer, and the
    min(trials, 4 * workers) chunks of trials share it.  uvlf_bsc's
    absorption law is handed over unadvanced, and each worker's copy runs
    only as far as its own races read; a race reads the same values at any
    advance.  The pool starts no more workers than there are chunks.
    """
    trials = _check_count(trials, "trials", most=_MAX_TRIALS)
    workers = _check_count(workers, "workers")
    if workers == 1:
        return _run_chunk(cfg, 0, trials)
    rt = _Runtime(cfg)
    n_chunks = min(trials, workers * 4)
    bounds = np.linspace(0, trials, n_chunks + 1).astype(int)
    with ProcessPoolExecutor(max_workers=min(workers, n_chunks),
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
    """McEstimate over the in-order records of ``trial_records``: a 2-D
    array of one row per trial."""
    if not (isinstance(rec, np.ndarray) and rec.ndim == 2
            and rec.shape[1] == len(TrialOutcome._fields)):
        raise DimensionMismatch("records must be a 2-D array, one "
                                "TrialOutcome row per trial")
    trials = _check_count(rec.shape[0], "trials")
    runs = TrialOutcome(*rec.T)
    tau, energy = runs.tau, runs.energy
    errors = float(np.sum(1.0 - runs.correct))
    eps_hat, eps_lo, eps_hi = _wilson(errors, trials)
    n_hat = float(tau.mean())
    degenerate = trials < 2
    if degenerate:
        n_lo = n_hi = math.nan
    else:
        half = _Z95 * float(tau.std(ddof=1)) / math.sqrt(trials)
        n_lo, n_hi = n_hat - half, n_hat + half
    power_hat = power_lo = power_hi = None
    tot_tau = float(tau.sum())
    if metric_kind(cfg.variant).gaussian and tot_tau > 0:
        power_hat = float(energy.sum()) / tot_tau
        if degenerate:
            power_lo = power_hi = math.nan
        else:
            resid = energy - power_hat * tau
            se = (math.sqrt(float(np.sum(resid * resid)) / (trials - 1))
                  / math.sqrt(trials) / n_hat)
            power_lo = power_hat - _Z95 * se
            power_hi = power_hat + _Z95 * se
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
        censor_rate=float(runs.censored.mean()),
        trials=int(trials),
        degenerate=degenerate,
    )


# ---------------------------------------------------------------------------
# lockstep passage-time utilities (used by drift diagnostics and tests)


def _passage_times(kind, dmc, px, gamma, trials, seed):
    """First times `trials` independent walks of a metric exceed gamma.

    The lockstep case of the kernel: all walks advance together, one
    joint-cell draw per live walk per step, so the cost is O(max reached
    time) vectorized over trials, on the stream of ``Philox(seed)``.  Walks
    that do not cross within max_steps, a generous multiple of gamma over
    the drift, are reported at max_steps.
    """
    p = _as_input_law(px, dmc)
    _check_real(gamma, "gamma", 0, math.inf)
    trials = _check_count(trials, "trials")
    drift = _positive_drift(kind.walk_drift(dmc, p), "metric drift")
    max_steps = math.ceil(_horizon(gamma, drift, "gamma")[0]) + 200
    metric = kind(dmc, p, max_steps)
    rng = np.random.Generator(np.random.Philox(_check_count(seed, "seed", 0)))
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


def empirical_mi_passage_times(dmc, px, gamma, trials, seed=0):
    """First times n * I(joint type) > gamma for `trials` independent walks."""
    return _passage_times(EmpiricalMi, dmc, px, gamma, trials, seed)


def info_density_passage_times(dmc, px, gamma, trials, seed=0):
    """First times the cumulative information density exceeds gamma."""
    return _passage_times(AdditiveDmc, dmc, px, gamma, trials, seed)
