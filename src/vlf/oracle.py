"""Exact small-scale computations that validate the stochastic engine.

Everything here is brute force on purpose: dynamic programming over reachable
walk values, full enumeration of joint types, log-domain sums.  These results
are frozen into the test suite and cross-checked against the Monte Carlo
engine, so they must be independent of it.  The slow reference definitions
of the universal metrics live here too: the joint type and its empirical
mutual information, and the empirical correlation with its Gaussian metric
-(n/2) log(1 - rho_hat^2), which the engine's ``EmpiricalMi`` and
``Correlation`` kernels compute in vectorized form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincc, gammaln, logsumexp

from .channel import (
    _as_prob_vector,
    _as_step_law,
    _check_count,
    _check_real,
    _positive_drift,
    entropy,
    information_density_table,
)
from .errors import (
    DimensionMismatch,
    NotADistribution,
    StateExplosion,
    VlfError,
)

_ABSORB_TOL = 1e-12
_STATE_CAP = 10**7
# live walk values times the steps left to max_steps: the DP's work ahead if
# its live set stopped changing.  The tests reach 4e7 at the most (gamma = 50
# on a +-1 walk with no lower threshold, about a second).
_WORK_CAP = 10**10
_QUANT = 1e-12
_SPAN_TOL = 1e-9  # lattice_span's smallest span
_RACE_CODEWORDS = 2**16  # exact_race_law's largest enumeration


@dataclass(frozen=True)
class LatticeWalkSpec:
    """A random walk with finitely many step values, watched against two
    thresholds: accept when the running sum exceeds a_accept, reject when it
    falls below -a_reject.  Crossing is strict; landing exactly on a threshold
    continues the walk."""

    values: tuple
    probs: tuple
    a_accept: float
    a_reject: float
    max_steps: int = 100_000

    def __post_init__(self):
        _as_step_law(self.values, self.probs)
        _check_real(self.a_accept, "a_accept", 0, math.inf, hi_in=True)
        _check_real(self.a_reject, "a_reject", 0, math.inf, hi_in=True)
        object.__setattr__(self, "max_steps",
                           _check_count(self.max_steps, "max_steps"))


@dataclass(frozen=True)
class SprtExact:
    """Absorption split of a two-threshold walk.  p_accept + p_reject +
    residual = 1; residual is the mass still in flight at max_steps, and
    expected_steps charges that mass the full horizon (an upper estimate)."""

    p_accept: float
    p_reject: float
    expected_steps: float
    residual: float


def _qkey(x):
    return int(round(x / _QUANT))


def exact_sprt(spec):
    """Exact absorption probabilities and mean stopping time by value-hashed DP.

    States are running sums inside [-a_reject, a_accept], quantized at 1e-12
    to merge lattice points; iteration stops when at most 1e-12 of mass
    remains unabsorbed (or at max_steps).  A live set of more than
    _STATE_CAP values, or one whose size times the steps left exceeds
    _WORK_CAP, is a StateExplosion."""
    vals = [float(v) for v in spec.values]
    probs = [float(p) for p in spec.probs]
    live = {0: (0.0, 1.0)}  # key -> (value, prob)
    p_acc = 0.0
    p_rej = 0.0
    steps_sum = 0.0
    step = 0
    while live and step < spec.max_steps:
        step += 1
        nxt = {}
        for _, (s, pr) in live.items():
            for v, pv in zip(vals, probs):
                if pv == 0.0:
                    continue
                s2 = s + v
                w = pr * pv
                if s2 > spec.a_accept:
                    p_acc += w
                    steps_sum += w * step
                elif s2 < -spec.a_reject:
                    p_rej += w
                    steps_sum += w * step
                else:
                    k = _qkey(s2)
                    if k in nxt:
                        nxt[k] = (nxt[k][0], nxt[k][1] + w)
                    else:
                        nxt[k] = (s2, w)
        left = spec.max_steps - step
        if len(nxt) > _STATE_CAP or len(nxt) * left > _WORK_CAP:
            raise StateExplosion(
                f"{len(nxt)} live walk values with {left} of max_steps = "
                f"{spec.max_steps} steps left: the DP's caps are "
                f"{_STATE_CAP} values and {_WORK_CAP:.0e} value-steps")
        live = nxt
        if sum(pr for _, pr in live.values()) <= _ABSORB_TOL:
            break
    residual = sum(pr for _, pr in live.values())
    steps_sum += residual * step
    return SprtExact(p_acc, p_rej, steps_sum, residual)


def sprt_mc(spec, samples, seed=0):
    """Monte Carlo absorption frequencies of a two-threshold walk.

    Returns (p_accept_hat, p_reject_hat, se_accept).  Walks still in flight
    at spec.max_steps count toward neither numerator.
    """
    v, p = _as_step_law(spec.values, spec.probs)
    rng = np.random.default_rng(_check_count(seed, "seed", 0))
    samples = _check_count(samples, "samples")
    accepts = 0
    rejects = 0
    left = samples
    while left > 0:
        take = min(left, 1_000_000)
        s = np.zeros(take)
        for _ in range(spec.max_steps):
            if s.size == 0:
                break
            s = s + rng.choice(v, size=s.size, p=p)
            acc = s > spec.a_accept
            rej = s < -spec.a_reject
            accepts += int(np.count_nonzero(acc))
            rejects += int(np.count_nonzero(rej))
            s = s[~(acc | rej)]
        left -= take
    p_acc = accepts / samples
    p_rej = rejects / samples
    se = math.sqrt(max(p_acc * (1.0 - p_acc), 1e-300) / samples)
    return p_acc, p_rej, se


def exact_passage_time(values, probs, gamma):
    """Exact E[first time the walk strictly exceeds gamma]: ``exact_sprt``
    with no lower threshold (a_reject = inf) over a horizon of
    200 max(gamma, 1) / mean + 1000 steps, which exact_sprt refuses past
    its work cap.  Returns (expected_steps, residual)."""
    v, p = _as_step_law(values, probs)
    _check_real(gamma, "gamma", 0, math.inf)
    mean = _positive_drift(sum(float(a) * float(b) for a, b in zip(v, p)))
    # clipped to a float that converts: past _WORK_CAP steps even one live
    # value exceeds the work cap
    max_steps = int(min(200.0 * max(gamma, 1.0) / mean, _WORK_CAP)) + 1000
    res = exact_sprt(LatticeWalkSpec(values, probs, gamma, math.inf, max_steps))
    return res.expected_steps, res.residual


# ---------------------------------------------------------------------------
# reference universal metrics


@dataclass(frozen=True)
class JointType:
    """Count matrix of a paired sequence; counts[x, y] sums to n."""

    counts: np.ndarray
    n: int

    def __post_init__(self):
        c = np.asarray(self.counts)
        if c.ndim != 2:
            raise DimensionMismatch(f"counts must be 2-D, got shape {c.shape}")
        if np.any(c < 0):
            raise NotADistribution("counts must be nonnegative")
        if int(c.sum()) != self.n:
            raise DimensionMismatch(
                f"counts sum to {int(c.sum())}, expected n = {self.n}"
            )
        c = c.astype(np.int64).copy()
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)


def _sequence_pair(xn, yn, dtype):
    """xn and yn as arrays of dtype, checked to be two nonempty 1-D
    sequences of one length."""
    x = np.asarray(xn, dtype=dtype)
    y = np.asarray(yn, dtype=dtype)
    if x.ndim != 1 or y.ndim != 1:
        raise DimensionMismatch("sequences must be 1-D")
    if x.size != y.size:
        raise DimensionMismatch(f"lengths differ: {x.size} vs {y.size}")
    if x.size == 0:
        raise DimensionMismatch("need at least one sample")
    return x, y


def joint_type(xn, yn, num_x=None, num_y=None):
    """Joint type of two equal-length symbol sequences.

    Alphabet sizes default to max symbol + 1; pass them explicitly to keep
    trailing all-zero rows or columns.
    """
    x, y = _sequence_pair(xn, yn, np.int64)
    if np.any(x < 0) or np.any(y < 0):
        raise NotADistribution("symbols must be nonnegative integers")
    ax = int(x.max()) + 1 if num_x is None else int(num_x)
    ay = int(y.max()) + 1 if num_y is None else int(num_y)
    if int(x.max()) >= ax or int(y.max()) >= ay:
        raise DimensionMismatch("symbol out of range for the declared alphabet")
    flat = np.bincount(x * ay + y, minlength=ax * ay)
    return JointType(flat.reshape(ax, ay), int(x.size))


def _xlogx(v):
    out = np.zeros_like(v, dtype=float)
    nz = v > 0
    out[nz] = v[nz] * np.log(v[nz])
    return out


def empirical_mi(t):
    """Mutual information of the normalized type, 0 log 0 = 0, in nats.

    n * I equals sum c log c over cells minus the same sum over row and
    column marginals plus n log n.
    """
    c = t.counts.astype(float)
    n = float(t.n)
    if n == 0:
        raise DimensionMismatch("empty type")
    rows = c.sum(axis=1)
    cols = c.sum(axis=0)
    n_i = _xlogx(c).sum() - _xlogx(rows).sum() - _xlogx(cols).sum() + n * math.log(n)
    return max(float(n_i) / n, 0.0)


def empirical_correlation(xn, yn):
    """Uncentered empirical correlation sum(x y) / sqrt(sum x^2 sum y^2)."""
    x, y = _sequence_pair(xn, yn, float)
    ex = float(np.dot(x, x))
    ey = float(np.dot(y, y))
    if ex == 0.0 or ey == 0.0:
        raise VlfError("zero-energy sequence; correlation undefined")
    return float(np.dot(x, y)) / math.sqrt(ex * ey)


def universal_gaussian_metric(xn, yn):
    """-(n/2) log(1 - rho_hat^2); +inf signalled (not raised) at |rho_hat| = 1."""
    rho = empirical_correlation(xn, yn)
    n = len(xn)
    r2 = min(rho * rho, 1.0)
    if r2 >= 1.0:
        return math.inf
    return -0.5 * n * math.log1p(-r2)


# ---------------------------------------------------------------------------
# joint-type enumeration


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def exact_mi_tail(n, px, py, gamma_grid):
    """P[n * I(empirical joint type) >= gamma] under independence px x py,
    by summing exact multinomial masses over every joint type of length n."""
    n = _check_count(n, "n")
    px = _as_prob_vector(px, "px")
    py = _as_prob_vector(py, "py")
    kx, ky = px.size, py.size
    cells = kx * ky
    count = (n + 1) ** (cells - 1)
    if count > _STATE_CAP:
        raise StateExplosion(
            f"(n+1)^(|X||Y|-1) = {count} joint types exceeds {_STATE_CAP}"
        )
    cell_p = (px[:, None] * py[None, :]).ravel()
    log_cell = np.full(cells, -np.inf)
    nz = cell_p > 0
    log_cell[nz] = np.log(cell_p[nz])
    lg_n = gammaln(n + 1)
    grid = np.asarray(gamma_grid, dtype=float)
    tails = np.zeros(grid.shape)
    for counts in _compositions(n, cells):
        c = np.asarray(counts)
        if np.any((c > 0) & ~nz):
            continue
        logp = lg_n - gammaln(c + 1).sum() + float(np.dot(c[nz], log_cell[nz]))
        t = JointType(counts=c.reshape(kx, ky), n=n)
        ni = n * empirical_mi(t)
        tails[ni >= grid - 1e-15] += math.exp(logp)
    return np.minimum(tails, 1.0)


def exact_race_law(y, px, gamma1, metric="mi", channel=None):
    """The exact first-crossing law of one competitor codeword against the
    output string y, by enumerating every codeword x in X^h, h = len(y)
    (at most _RACE_CODEWORDS of them: h <= 16 for binary inputs, h <= 10
    for ternary), each of probability prod px(x_t).

    Each prefix of length n is scored by `metric`: "mi", n * I of the joint
    type of x^n and y^n; "flip", n (log 2 - h_b(k/n)) with k the flips
    between x^n and y^n (binary inputs); or "density", the cumulative
    information density of `channel` under px.  tau is the first n whose
    score exceeds gamma1.  Returns (p, law): law[n - 1] = P[tau = n] for
    n = 1..h, and p = P[tau <= h], their sum.
    """
    yv = np.asarray(y)
    if yv.ndim != 1 or yv.size == 0 or yv.dtype.kind not in "iu" \
            or np.any(yv < 0):
        raise DimensionMismatch("y must be a nonempty 1-D sequence of "
                                "output indices")
    p = _as_prob_vector(px, "px")
    _check_real(gamma1, "gamma1", -math.inf, math.inf)
    kx, h = p.size, yv.size
    if kx ** h > _RACE_CODEWORDS:
        raise StateExplosion(f"|X|^h = {kx}^{h} codewords exceeds "
                             f"{_RACE_CODEWORDS}")
    x = np.indices((kx,) * h).reshape(h, -1).T  # every codeword, one a row
    n = np.arange(1, h + 1)
    if metric == "density":
        if channel is None:
            raise VlfError('metric "density" needs a channel')
        score = np.cumsum(information_density_table(p, channel)[x, yv],
                          axis=1)
    elif metric == "flip":
        if kx != 2:
            raise DimensionMismatch('metric "flip" needs binary inputs')
        k = np.cumsum(x != yv, axis=1)
        score = n * math.log(2.0) - (_xlogx(n) - _xlogx(k) - _xlogx(n - k))
    elif metric == "mi":
        outputs = range(int(yv.max()) + 1)
        score = _xlogx(n) - sum(_xlogx(np.cumsum(yv == b)) for b in outputs)
        for a in range(kx):
            row = [np.cumsum((x == a) & (yv == b), axis=1) for b in outputs]
            score = score + sum(map(_xlogx, row)) - _xlogx(sum(row))
    else:
        raise VlfError(f'metric must be "mi", "flip" or "density", got '
                       f"{metric!r}")
    above = score > gamma1
    crossed = above.any(axis=1)
    law = np.bincount(above.argmax(axis=1)[crossed],
                      weights=p[x[crossed]].prod(axis=1), minlength=h)
    return float(law.sum()), law


def mi_tail_bound(n, gamma, k_exp):
    """The polynomial-prefactor tail bound K1 (n+1)^k e^{-gamma}, K1 = 10."""
    _check_count(n, "n")
    _check_real(gamma, "gamma", 0, math.inf, lo_in=True)
    # below its top, (n + 1)^k_exp is a float
    _check_real(k_exp, "k_exp", 0, 700.0 / math.log1p(n), lo_in=True)
    return 10.0 * (n + 1.0) ** k_exp * math.exp(-gamma)


def type_class_log_bound(type_probs, n):
    """Log of the refined type-class size bound.

    n H(Q) - ((|A| - 1)/2) log(2 pi n) - (1/2) sum_a log Qtilde(a), where
    Qtilde(a) = Q(a) on the support and 1/(2 pi n) at zero entries. The bound
    dominates log |T_n(Q)| for every type and improves on exp(n H(Q)) by the
    polynomial factor.
    """
    q = _as_prob_vector(type_probs, "type")
    n = _check_count(n, "n")
    scaled = q * n
    if np.any(np.abs(scaled - np.round(scaled)) > 1e-9):
        a = int(np.argmax(np.abs(scaled - np.round(scaled))))
        raise NotADistribution(
            f"entry {a}: {q[a]} * n = {scaled[a]} is not an integer count"
        )
    two_pi_n = 2.0 * math.pi * n
    qtilde = np.where(q > 0, q, 1.0 / two_pi_n)
    return (
        n * entropy(q)
        - 0.5 * (q.size - 1) * math.log(two_pi_n)
        - 0.5 * float(np.log(qtilde).sum())
    )


def exact_eta_expectation(n):
    """sum_{i=0}^n C(n, i) exp(-n h_b(i/n)), computed in the log domain."""
    n = _check_count(n, "n")
    i = np.arange(n + 1, dtype=float)
    log_binom = gammaln(n + 1.0) - gammaln(i + 1.0) - gammaln(n - i + 1.0)
    frac = i / n
    with np.errstate(divide="ignore", invalid="ignore"):
        hb = -(np.where(frac > 0, frac * np.log(frac), 0.0)
               + np.where(frac < 1, (1 - frac) * np.log1p(-frac), 0.0))
    return float(np.exp(logsumexp(log_binom - n * hb)))


# ---------------------------------------------------------------------------
# renewal theory


@dataclass(frozen=True)
class OvershootEstimate:
    rho: float
    std_err: float
    span: float          # lattice span h; 0.0 means non-arithmetic
    samples: int = 0


def lattice_span(values, probs):
    """Span h of the step lattice: largest h with every support point (a
    value of positive probability) an integer multiple of h.  Returns 0.0
    when no such h >= _SPAN_TOL exists (non-arithmetic law).  Walks with a
    zero-valued step keep the span of the remaining points."""
    v = [abs(float(x)) for x, p in zip(values, probs)
         if abs(float(x)) > _SPAN_TOL and p > 0]
    if not v:
        return 0.0
    g = v[0]
    for x in v[1:]:
        a, b = max(g, x), min(g, x)
        while b > _SPAN_TOL:
            a, b = b, a % b
        g = a  # the last remainder above _SPAN_TOL
    for x in v:
        if abs(x / g - round(x / g)) > 1e-6:
            return 0.0
    return g


def renewal_overshoot(values, probs, samples=1_000_000, seed=0):
    """Estimate rho = E[S_{tau+}^2] / (2 E[S_{tau+}]) by simulating ascending
    ladder epochs (first strictly positive partial sum) of the walk."""
    v, p = _as_step_law(values, probs)
    _positive_drift(float(np.dot(v, p)))
    rng = np.random.default_rng(_check_count(seed, "seed", 0))
    samples = _check_count(samples, "samples", least=2)  # for a covariance
    heights = np.empty(samples)
    done = 0
    active = np.zeros(0)
    while done < samples:
        if active.size == 0:
            take = min(samples - done, 1_000_000)
            active = np.zeros(take)
        steps = rng.choice(v, size=active.size, p=p)
        active = active + steps
        up = active > 0
        hit = active[up]
        heights[done:done + hit.size] = hit
        done += hit.size
        active = active[~up]
    s1 = float(heights.mean())
    s2 = float((heights ** 2).mean())
    rho = s2 / (2.0 * s1)
    # delta-method standard error of the ratio
    cov = np.cov(heights ** 2, heights)
    grad = np.array([1.0 / (2.0 * s1), -s2 / (2.0 * s1 * s1)])
    var = float(grad @ cov @ grad) / samples
    return OvershootEstimate(rho, math.sqrt(max(var, 0.0)), lattice_span(v, p), samples)


def passage_time_expansion(gamma, mean, rho, span=0.0):
    """(gamma + rho + h/2) / mu — the renewal expansion of E[first passage];
    h = 0 drops the lattice correction for non-arithmetic walks."""
    for name, x in (("gamma", gamma), ("rho", rho), ("span", span)):
        _check_real(x, name, 0, math.inf, lo_in=True)
    return (gamma + rho + 0.5 * span) / _check_real(mean, "mean", 0, math.inf)


# ---------------------------------------------------------------------------
# empirical correlation tails


def gaussian_corr_tail(n, a):
    """Closed-form asymptotic for P[rho_hat >= a] under independence:
    (1 - 4 lam^2)^{-1/4} / (lam sigma sqrt(2 pi n)) * exp{(n/2) log(1 - a^2)},
    with sigma = (1-a^2)/sqrt(1+a^2) and lam = a/(1-a^2).  The sqrt(2 pi)
    belongs in the denominator: the exact law rho_hat^2 ~ Beta(1/2, (n-1)/2)
    confirms the ratio exact/asymptotic tends to 1 with it and to ~0.38
    without it (see corr_tail_exact)."""
    _check_count(n, "n", least=2)
    _check_real(a, "a", 0, 1)
    lam = a / (1.0 - a * a)
    disc = 1.0 - 4.0 * lam * lam
    if disc <= 0.0:
        raise VlfError(
            f"4 lambda_a^2 = {4 * lam * lam:.6f} >= 1 at a = {a}; prefactor complex"
        )
    sig = (1.0 - a * a) / math.sqrt(1.0 + a * a)
    return disc ** -0.25 / (lam * sig * math.sqrt(2.0 * math.pi * n)) * math.exp(
        0.5 * n * math.log1p(-a * a)
    )


def corr_tail_exact(n, a):
    """Exact P[rho_hat >= a]: rho_hat^2 ~ Beta(1/2, (n-1)/2) with a symmetric
    sign, so the one-sided tail is half the Beta survival at a^2, the
    regularized upper incomplete beta function."""
    _check_count(n, "n", least=2)
    _check_real(a, "a", 0, 1)
    return 0.5 * float(betaincc(0.5, (n - 1) / 2.0, a * a))


def corr_tail_mc(n, a, samples, seed=0, chunk=50_000):
    """Monte Carlo estimate of P[rho_hat >= a] for independent standard
    normal sequences of length n.  Returns (estimate, standard_error).

    The law of x is invariant under rotations, so rotating y onto e_1 gives
    rho_hat the law of Z / sqrt(Z^2 + chi^2_{n-1}): one normal and one
    chi-square per sample, drawn ``chunk`` samples at a time."""
    rng = np.random.default_rng(_check_count(seed, "seed", 0))
    n = _check_count(n, "n", least=2)
    _check_real(a, "a", 0, 1)
    samples = _check_count(samples, "samples")
    chunk = _check_count(chunk, "chunk")
    hits = 0
    left = samples
    while left > 0:
        take = min(left, chunk)
        z = rng.standard_normal(take)
        rest = rng.chisquare(n - 1, take)
        hits += int(np.count_nonzero(z >= a * np.sqrt(z * z + rest)))
        left -= take
    p = hits / samples
    se = math.sqrt(max(p * (1.0 - p), 1e-300) / samples)
    return p, se
