"""Non-asymptotic bounds for three-phase variable-length feedback codes.

The scheme alternates a communication phase (decode when some message's
accumulated metric clears gamma_1), a confirmation phase (binary sequential
test between an accept and a reject control input, thresholds a_accept and
a_reject), and, on rejection, a second communication phase to the higher
threshold gamma_2.  With stop-at-time-zero sharing eps0, message count M and
per-walk constants (drift C with overshoot constant b; control divergences
D_accept, D_reject with overshoot constants b_accept, b_reject):

    eps' = (M-1) (e^{-(gamma_1 + a_accept)} + e^{-gamma_2})
    N'   = (gamma_1 + b)/C
         + ((M-1) e^{-gamma_1} + e^{-a_reject}) (gamma_2 - gamma_1 + b)/C
         + (a_accept + b_accept)/D_accept
         + (M-1) e^{-gamma_1} (a_reject + b_reject)/D_reject
    eps <= eps0 + (1 - eps0) eps',      n_avg <= (1 - eps0) N'

The b-constants come from the stopping-time bound E[tau] <= (a + b)/E[X] with
b = min{E[(X^+)^2]/E[X], ess sup X}.  Everything is in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    GaussianChannel,
    _as_step_law,
    _check_count,
    _check_real,
    _divergences,
    _positive_drift,
    binary_entropy,
    control_llr,
    information_density_table,
    mutual_information,
)
from .errors import (
    DimensionMismatch,
    EpsTooSmall,
    HorizonTooSmall,
    Infeasible,
    NotADistribution,
    VlfError,
)

LN2 = math.log(2.0)
_EXP_CAP = 700.0
_K_MAX = 2.0 ** 40  # K = C N/(1 - eps) of the solvers stays below it
_DELTA = 0.1  # the universal schedule's slack delta > 0, fixed
_MAX_STEPS = 100  # step cap of each of optimize_params' three iterations
_EPS_RTOL = 1e-14  # the multiplier stops at |eps'/eps - 1| <= _EPS_RTOL


@dataclass(frozen=True)
class VlfParams:
    """Threshold set of one three-phase code. Message count stored as log M (nats)."""

    log_m: float
    gamma1: float
    gamma2: float
    a_accept: float
    a_reject: float
    eps0: float = 0.0

    def __post_init__(self):
        _check_real(self.log_m, "log_m", 0, math.inf, lo_in=True)
        for name in ("gamma1", "a_accept", "a_reject"):
            _check_real(getattr(self, name), name, 0, math.inf)
        _check_real(self.gamma2, "gamma2", self.gamma1, math.inf)
        _check_real(self.eps0, "eps0", 0, 1, lo_in=True, hi_in=True)


@dataclass(frozen=True)
class BoundReport:
    """Evaluated bound: raw phase-1 quantities plus the time-shared pair."""

    log_m: float
    eps_prime: float
    n_prime: float
    eps: float
    n_avg: float
    rate: float          # log M / n_avg, nats per channel use


@dataclass(frozen=True)
class ChannelStats:
    """Walk-level constants the bound formulas consume."""

    drift: float                # communication-walk mean step
    b: float                    # its overshoot constant
    div_accept: float           # confirmation drift under the accept hypothesis
    div_reject: float           # and under the reject hypothesis
    b_accept: float
    b_reject: float


def overshoot_constant(values, probs):
    """b(X) = min{ E[(X^+)^2]/E[X], ess sup X } for a finite discrete law."""
    v, p = _as_step_law(values, probs)
    mean = _positive_drift(float(np.dot(v, p)), "E[X]")
    pos = np.clip(v, 0.0, None)
    ratio = float(np.dot(pos * pos, p)) / mean
    return min(ratio, float(v[p > 0].max()))


def dmc_stats(dmc, px):
    """Walk constants for a DMC with the given input distribution."""
    px = np.asarray(px, dtype=float)
    drift = _positive_drift(mutual_information(px, dmc), "I(px, W)")
    dens = information_density_table(px, dmc)
    w = dmc.matrix
    joint = px[:, None] * w
    b = overshoot_constant(dens.ravel(), joint.ravel())
    xa, xr, llr = control_llr(w)
    d_acc, d_rej = map(float, _divergences(w[[xa, xr]], w[[xr, xa]]))
    b_acc = overshoot_constant(llr, w[xa])
    b_rej = overshoot_constant(-llr, w[xr])
    return ChannelStats(drift, b, d_acc, d_rej, b_acc, b_rej)


def gaussian_stats(chan):
    """Walk constants for a Gaussian channel, in closed form in the SNR S.

    The communication walk steps by the per-symbol information density
    under the N(0, P) ensemble, i = C + (W^2 - Z^2)/2 with W = Y/sqrt(P + s2)
    and Z = (Y - X)/sqrt(s2).  W - Z and W + Z are jointly Gaussian and
    uncorrelated (W and Z have unit variance), so i = C + k U V with
    k = sqrt(S/(1 + S)) and U, V i.i.d. N(0, 1).  UV has density
    K0(|w|)/pi, hence with a = C/k
        E[(i^+)^2] = (1/pi) int_{-a}^inf (C + k w)^2 K0(|w|) dw,
    exact through int_0^inf w^j K0 = pi/2, 1, pi/2 (j = 0, 1, 2),
    int_0^a w K0 = 1 - a K1(a) and
    int_0^a w^2 K0 = int_0^a K0 - a^2 K1(a) - a K0(a).
    Each confirmation walk steps by the control LLR X ~ N(2S, 4S) under its
    own hypothesis, so by symmetry accept and reject share one constant:
    E[(X^+)^2] = (mu^2 + sigma^2) Phi(mu/sigma) + mu sigma phi(mu/sigma),
    and divided by mu = 2S that is 2(1 + S) Phi(sqrt S) + 2 sqrt(S) phi(sqrt S).
    The ess sup branch is +inf for these continuous laws, so only the ratio
    E[(X^+)^2]/E[X] applies.
    """
    from scipy import special

    snr, c = chan.power, chan.capacity
    k = math.sqrt(snr / (1.0 + snr))
    a = c / k
    k0, k1 = special.k0(a), special.k1(a)
    int_k0 = special.iti0k0(a)[1]
    # w >= 0, then -a <= w < 0 folded onto (0, a]
    right = 0.5 * math.pi * (c * c + k * k) + 2.0 * c * k
    left = (c * c * int_k0 - 2.0 * c * k * (1.0 - a * k1)
            + k * k * (int_k0 - a * a * k1 - a * k0))
    r = math.sqrt(snr)
    b_ht = (2.0 * (1.0 + snr) * special.ndtr(r)
            + 2.0 * r * math.exp(-0.5 * snr) / math.sqrt(2.0 * math.pi))
    d = chan.control_divergence
    return ChannelStats(
        drift=c,
        b=float(right + left) / (math.pi * c),
        div_accept=d,
        div_reject=d,
        b_accept=float(b_ht),
        b_reject=float(b_ht),
    )


def channel_stats(channel, px=None):
    if isinstance(channel, GaussianChannel):
        return gaussian_stats(channel)
    if px is None:
        raise NotADistribution("a DMC needs an explicit input distribution")
    return dmc_stats(channel, px)


def scaled_m_exp(log_m, g):
    """(M - 1) e^{-g} for M = e^{log_m}, overflow-safe."""
    t = log_m - g
    if t > _EXP_CAP:
        return math.inf
    return math.exp(t) - math.exp(-min(g, _EXP_CAP))


def _theorem1_terms(log_m, g1, dg, a_acc, a_rej, s):
    """(eps', N') of Theorem 1 at gamma_1 = g1, gamma_2 = g1 + dg and the
    confirmation thresholds a_acc, a_rej, for the walk constants s."""
    eps_prime = scaled_m_exp(log_m, g1 + a_acc) + scaled_m_exp(log_m, g1 + dg)
    wrong1 = scaled_m_exp(log_m, g1)
    n_prime = (
        (g1 + s.b) / s.drift
        + (wrong1 + math.exp(-a_rej)) * (dg + s.b) / s.drift
        + (a_acc + s.b_accept) / s.div_accept
        + wrong1 * (a_rej + s.b_reject) / s.div_reject
    )
    return eps_prime, n_prime


def _report(log_m, eps_prime, n_prime, eps0):
    """The BoundReport of (eps', N') time-shared with stop-at-zero weight eps0."""
    eps = eps0 + (1.0 - eps0) * eps_prime
    n_avg = (1.0 - eps0) * n_prime
    rate = log_m / n_avg if n_avg > 0 else (math.inf if log_m > 0 else 0.0)
    return BoundReport(log_m, eps_prime, n_prime, eps, n_avg, rate)


def achievability_bound(params, channel, px=None):
    """Evaluate the three-phase achievability bound at fixed parameters."""
    s = channel_stats(channel, px)
    g1 = params.gamma1
    eps_prime, n_prime = _theorem1_terms(
        params.log_m, g1, params.gamma2 - g1, params.a_accept,
        params.a_reject, s,
    )
    return _report(params.log_m, eps_prime, n_prime, params.eps0)


def converse_bound(cap_nats, eps, n_avg):
    """Largest log M any variable-length feedback code can reach: NC/(1-eps) + h_b(eps)/(1-eps)."""
    _check_real(cap_nats, "cap_nats", 0, math.inf, lo_in=True)
    _check_real(eps, "eps", 0, 1)
    _check_real(n_avg, "n_avg", 0, math.inf, lo_in=True)
    return (n_avg * cap_nats + binary_entropy(eps)) / (1.0 - eps)


# ---------------------------------------------------------------------------
# parameter schedules


def asymptotic_schedule(n1, channel, px=None, eps=None):
    """Known-channel parameter recipe driven by the phase-1 length N1.

    gamma_1 = log M + log log N1, gamma_2 = log M + log N1,
    a_accept = a_reject = log N1, with log M recovered from
    N1 = (gamma_1 + b)/C.  With a target eps, the time-sharing weight is the
    exact rational form eps0 = (eps - f)/(1 - f), f = (1/N1)(1 + 1/log N1);
    eps=None leaves eps0 = 0.
    """
    return _asymptotic_schedule(n1, channel_stats(channel, px), eps)


def _asymptotic_schedule(n1, s, eps):
    """asymptotic_schedule for the walk constants s."""
    # any N1 short of e, -inf too, is the Infeasible below
    _check_real(n1, "N1", -math.inf, math.inf, lo_in=True)
    if n1 < math.e - 1e-9:
        raise HorizonTooSmall(f"N1 = {n1} below e, where log log N1 turns negative")
    log_n1 = math.log(n1)
    loglog = math.log(log_n1)
    gamma1 = n1 * s.drift - s.b
    log_m = gamma1 - loglog
    if log_m <= 0:
        raise HorizonTooSmall(f"N1 = {n1} yields log M = {log_m} <= 0")
    gamma2 = log_m + log_n1
    eps0 = 0.0
    if eps is not None:
        _check_real(eps, "eps", 0, 1)
        floor = (1.0 / n1) * (1.0 + 1.0 / log_n1)
        if eps < floor:
            raise EpsTooSmall(
                f"target eps {eps} below the schedule floor {floor:.3e} at N1 = {n1}"
            )
        eps0 = _eps0_cap(eps, floor)
    return VlfParams(log_m, gamma1, gamma2, log_n1, log_n1, eps0)


def asymptotic_schedule_for_message_count(log_m, channel, px=None, eps=None):
    """Invert the schedule: find N1 so that the recipe hands back this log M."""
    _check_real(log_m, "log_m", 0, math.inf)
    s = channel_stats(channel, px)
    n1 = max(3.0, (log_m + s.b) / s.drift)
    for _ in range(200):
        nxt = (log_m + math.log(max(math.log(n1), 1e-9)) + s.b) / s.drift
        # below e the schedule refuses N1, and log N1 may be undefined
        done = nxt < math.e or abs(nxt - n1) < 1e-12 * max(1.0, n1)
        n1 = nxt
        if done:
            break
    return _asymptotic_schedule(n1, s, eps)


def tail_exponents(num_x, num_y):
    """Polynomial exponents (k, d) of the universal metric's tail bound
    P[n I_hat >= gamma] under an independent product law:
    k = min{(|X||Y| - 2)/2, (|X| - 3/2)(|Y| - 3/2) - 1/4}, d = k + 1."""
    ax, ay = _check_count(num_x, "num_x"), _check_count(num_y, "num_y")
    if ax < 2 or ay < 2:
        raise DimensionMismatch("alphabets need at least two symbols")
    k = min((ax * ay - 2) / 2.0, (ax - 1.5) * (ay - 1.5) - 0.25)
    d = min(ax * ay / 2.0, (ax - 1.5) * (ay - 1.5) + 0.75)
    return k, d


def universal_schedule(log_m, num_x, num_y, eps, d=None):
    """Channel-independent parameter recipe for the universal decoder.

    gamma_1 = log M + d log n1 + (1 + delta) log log n1,
    gamma_2 = log M + (d + 1) log n1 + delta log log n1,
    a_accept = a_reject = log n1, eps0 = (eps - 1/n1)/(1 - 1/n1),
    with n1 = floor(log M / min(|X|, |Y|)), delta = _DELTA, and d the
    polynomial tail exponent unless a metric passes its own (d = 1/2 for
    the flip-entropy and Gaussian metrics; a Gaussian channel counts as
    |X| = |Y| = 1, so its n1 = floor(log M)).
    """
    _check_real(eps, "eps", 0, 1)
    _check_real(log_m, "log_m", 0, math.inf, lo_in=True)
    n1 = int(log_m / min(_check_count(num_x, "num_x"),
                         _check_count(num_y, "num_y")))
    if n1 < 3:
        raise HorizonTooSmall(f"n1 = {n1} too small (need >= 3)")
    if d is None:
        d = tail_exponents(num_x, num_y)[1]
    _check_real(d, "d", 0, math.inf)
    if eps < 1.0 / n1:
        raise EpsTooSmall(f"target eps {eps} below 1/n1 = {1.0 / n1:.3e}")
    log_n1 = math.log(n1)
    loglog = math.log(log_n1)
    gamma1 = log_m + d * log_n1 + (1.0 + _DELTA) * loglog
    gamma2 = log_m + (d + 1.0) * log_n1 + _DELTA * loglog
    return VlfParams(log_m, gamma1, gamma2, log_n1, log_n1,
                     _eps0_cap(eps, 1.0 / n1))


# ---------------------------------------------------------------------------
# numeric optimization
#
# In u = gamma_1 - log(M-1) and dg = gamma_2 - gamma_1, (M-1) e^{-gamma_1} =
# e^{-u}, so eps' and N' - log(M-1)/C are free of M: they are
# _theorem1_terms at M = 2, where log(M-1) = 0 and gamma_1 = u.  With eps0 at
# its cap, 1 - eps0 = (1 - eps)/(1 - eps'), n_avg <= N reads
#     log(M-1) <= G = K (1 - eps') - C (N' - log(M-1)/C),   K = C N/(1 - eps),
# so the largest log M is softplus(max G), with no search over M.
#
# max G is the stationary point of G - lam eps' (_stationary_point) at the
# smallest multiplier lam >= 0 with eps' <= eps.  Three iterations find it,
# each capped at _MAX_STEPS steps, past which it raises a VlfError:
#   * the gamma_2 gap: Newton on log psi(x) = log K_lam from x = log K_lam,
#     right of the root, where log psi is convex and rising, so the iterates
#     fall monotonically onto the root;
#   * u: Newton from lo = log(Q/(1 - c_A)), left of the root, on a concave,
#     falling function, so the first step overshoots the root and the rest
#     fall monotonically onto it;
#   * lam, when eps' > eps at lam = 0: K_lam <- K_lam eps'(K_lam)/eps from
#     K_lam = K.  eps' K_lam falls only logarithmically in K_lam, so the map
#     contracts, and its iterates alternate about the fixed point inside a
#     bracket that shrinks monotonically (_binding_point).


def _scaled_length(s, target_eps, target_n):
    """K = C N/(1 - eps) of both solvers, for checked targets.

    gamma_1 and log M lie near K, so u = gamma_1 - log(M-1), a few nats,
    keeps only the digits the float spacing at K leaves it: at most 2^-13
    nats below 2^40, as much as u itself from about K = 1e16 on.  A K that
    underflowed to 0 has no logarithm.  So K must lie in (0, 2^40), and an
    error names the N that puts it outside.
    """
    _check_real(target_eps, "eps", 0, 1)
    _check_real(target_n, "N", 0, math.inf)
    k = s.drift * target_n / (1.0 - target_eps)
    if not 0.0 < k < _K_MAX:
        raise VlfError(f"N = {target_n:g} gives K = C N/(1 - eps) = {k:.3g}; "
                       "the solvers need 0 < K < 2^40, where u = gamma1 - "
                       "log(M-1) keeps its digits")
    return k


def _eps0_cap(target_eps, eps_prime):
    """The largest stop-at-zero weight with eps0 + (1 - eps0) eps' <= eps."""
    return max(0.0, (target_eps - eps_prime) / (1.0 - eps_prime))


def _log_m_from(g_max, target_n):
    """log M = softplus(max G); fewer than two messages is Infeasible."""
    if not g_max >= 0.0:
        raise Infeasible(
            f"even two messages miss the targets at n_avg <= {target_n}"
        )
    return g_max + math.log1p(math.exp(-g_max))


def _back_off(report_at, log_m, target_eps, target_n):
    """The optimum lies on the boundary eps = target_eps or n_avg = target_n,
    which rounding can overshoot.  With the thresholds fixed, return the
    largest float log M' <= log_m (to one ulp) whose report_at(log M') meets
    both targets under a plain <=."""

    def ok(lm):
        rep = report_at(lm)
        return rep.eps <= target_eps and rep.n_avg <= target_n

    if ok(log_m):
        return log_m
    bad, step = log_m, math.ulp(log_m)
    while not ok(good := max(0.0, log_m - step)):
        if good == 0.0:
            raise Infeasible(
                f"no log M meets eps <= {target_eps} and n_avg <= {target_n}"
            )
        bad, step = good, 2.0 * step
    while (mid := 0.5 * (good + bad)) not in (good, bad):
        good, bad = (mid, bad) if ok(mid) else (good, mid)
    return good


def _newton(f, x, name):
    """Root of f by Newton's method from x, for an f (returning its value and
    slope) whose iterates from x fall monotonically onto the root after at
    most one step: the first step is taken whatever its direction, and the
    iteration stops at the first step that does not go down, which in floats
    comes within an ulp or two of the root."""
    value, slope = f(x)
    x -= value / slope
    for _ in range(_MAX_STEPS):
        value, slope = f(x)
        nxt = x - value / slope
        if not nxt < x:
            return x
        x = nxt
    raise VlfError(f"the {name} did not settle within {_MAX_STEPS} steps")


def _stationary_point(lam, k, s):
    """(u, dg, a_accept, a_reject) maximizing G - lam eps'.  With
    K_lam = K + lam, c_A = C/D_accept and c_R = C/D_reject:
      * a_accept = log(K_lam/c_A) - u and a_reject = u + log((dg + b)/c_R);
      * dg minimizes phi(x) = K_lam e^{-x} + x + c_R log(x + b) over x >= 0,
        free of u.  phi' = e^{-x} (psi(x) - K_lam) with
        psi(x) = e^x (1 + c_R/(x + b)) falling then rising, so the interior
        candidate is the root on psi's rising branch, and 0 the other one.
        log psi is convex, so right of its valley Newton on
        log psi(x) = log K_lam from x = log K_lam, where log psi exceeds
        log K_lam, falls monotonically onto the root;
      * u is the root of e^{-u} (Q + c_R u) = 1 - c_A, Q = K_lam e^{-dg} + dg
        + b + c_R (log((dg + b)/c_R) + b_reject), where that side falls.
        log(Q + c_R u) - u - log(1 - c_A) is concave and falling, so Newton
        from lo = log(Q/(1 - c_A)), left of the root, overshoots it once and
        then falls monotonically onto it.
    """
    kl = k + lam
    c_acc, c_rej = s.drift / s.div_accept, s.drift / s.div_reject

    def phi(x):
        return kl * math.exp(-x) + x + c_rej * math.log(x + s.b)

    def log_psi(x):
        return x + math.log1p(c_rej / (x + s.b))

    def gap_eq(x):
        return (log_psi(x) - log_kl,
                1.0 + 1.0 / (x + s.b + c_rej) - 1.0 / (x + s.b))

    log_kl = math.log(kl)
    valley = max(0.0, 0.5 * (math.sqrt(c_rej * (c_rej + 4.0)) - c_rej) - s.b)
    dg = 0.0
    if log_psi(valley) < log_kl:
        x = _newton(gap_eq, log_kl, "gamma_2 gap")
        dg = x if phi(x) < phi(0.0) else 0.0
    w = dg + s.b
    log_w = math.log(w / c_rej)
    q = kl * math.exp(-dg) + w + c_rej * (log_w + s.b_reject)
    if not q > max(c_rej, 1.0 - c_acc):
        raise Infeasible(f"K + lambda = {kl:.3f} leaves no phase-1 threshold")
    # log(Q + c_R u) - u falls for Q > c_R; it is > 0 at lo > 0
    lo = math.log(q) - math.log1p(-c_acc)

    def u_eq(x):
        r = q + c_rej * x
        return math.log(r) - x - math.log1p(-c_acc), c_rej / r - 1.0

    u = _newton(u_eq, lo, "phase-1 threshold")
    a_acc = log_kl - math.log(c_acc) - u
    if not a_acc > 0.0:
        raise Infeasible(f"K + lambda = {kl:.3f} leaves no a_accept > 0")
    return u, dg, a_acc, u + log_w


def _binding_point(k, s, target_eps, eps_prime):
    """The stationary point, its eps' and N' - log(M-1)/C at the multiplier
    lam > 0 where eps' = target_eps, for eps' > target_eps at lam = 0.

    With a_accept = log(K_lam/c_A) - u, eps' K_lam = c_A + K_lam e^{-u - dg}
    falls only logarithmically in K_lam = K + lam, so the map
    K_lam <- K_lam eps'/target_eps has slope d log(eps' K_lam)/d log K_lam,
    small and negative (-0.04 at K = 300 on BSC 0.11), and its fixed point
    has eps' = target_eps.  From K_lam = K the iterates land on either side
    of that point in turn, inside a bracket [lo, hi] of lam, with eps' above
    target_eps at lo and below it at hi, that shrinks at each step.  Where
    dg jumps from 0 to its interior root, eps' jumps past target_eps and the
    iterates cycle; after each step that does not halve
    |log(eps'/target_eps)| the bracket is bisected instead, down to the
    jump, where the point on its side below target_eps is returned.  The
    iteration stops at |eps'/target_eps - 1| <= _EPS_RTOL, above the rounding
    noise of eps', about 1e-15.
    """
    lo, hi, lam, halved = 0.0, math.inf, 0.0, True
    for _ in range(_MAX_STEPS):
        nxt = (k + lam) * (eps_prime / target_eps) - k
        if nxt == math.inf:
            raise VlfError(f"eps = {target_eps:g} puts K + lambda, about "
                           "C/(D_accept eps), past the float range")
        if hi < math.inf and not (halved and lo < nxt < hi):
            nxt = 0.5 * (lo + hi)
            if nxt in (lo, hi):
                return below
        point = _stationary_point(nxt, k, s)
        terms = _theorem1_terms(LN2, *point, s)
        if abs(terms[0] / target_eps - 1.0) <= _EPS_RTOL:
            return point, *terms
        halved = (abs(math.log(terms[0] / target_eps))
                  <= 0.5 * abs(math.log(eps_prime / target_eps)))
        if terms[0] > target_eps:
            lo = nxt
        else:
            hi, below = nxt, (point, *terms)
        lam, eps_prime = nxt, terms[0]
    raise VlfError(f"the multiplier did not settle within {_MAX_STEPS} steps")


def optimize_params(s, target_eps, target_n):
    """Maximize log M subject to eps <= target_eps and n_avg <= target_n,
    for the walk constants s = channel_stats(channel, px).

    G is maximized at the stationary point of G - lam eps' with multiplier
    lam = 0, or, when that point has eps' > target_eps, at the lam > 0 with
    eps' = target_eps, the fixed point of K_lam <- K_lam eps'(K_lam)/eps
    (_binding_point).  Returns (params, report).
    """
    k = _scaled_length(s, target_eps, target_n)
    point = _stationary_point(0.0, k, s)
    eps_prime, n_rest = _theorem1_terms(LN2, *point, s)
    if eps_prime > target_eps:
        point, eps_prime, n_rest = _binding_point(k, s, target_eps, eps_prime)
    u, dg, a_acc, a_rej = point
    g_max = k * (1.0 - eps_prime) - s.drift * n_rest
    g1 = g_max + u
    # dg = 0 is a supremum at gamma_2 -> gamma_1; take the next float up
    g2 = g1 + dg if dg > 0.0 else math.nextafter(g1, math.inf)

    def report_at(lm):
        eps_prime, n_prime = _theorem1_terms(lm, g1, g2 - g1, a_acc, a_rej, s)
        return _report(lm, eps_prime, n_prime, _eps0_cap(target_eps, eps_prime))

    log_m = _back_off(report_at, _log_m_from(g_max, target_n),
                      target_eps, target_n)
    report = report_at(log_m)
    eps0 = _eps0_cap(target_eps, report.eps_prime)
    return VlfParams(log_m, g1, g2, a_acc, a_rej, eps0), report


def single_phase_bound(s, target_eps, target_n):
    """Best single-phase (decode-at-threshold, no confirmation) rate, for the
    walk constants s = channel_stats(channel, px).

    eps' = (M-1) e^{-gamma}, N' = (gamma + b)/C, same stop-at-time-zero
    sharing.  In u = gamma - log(M-1), G = K (1 - e^{-u}) - u - b peaks in
    closed form at e^{-u} = min(1/K, target_eps).  Returns the report of the
    best feasible log M.
    """
    k = _scaled_length(s, target_eps, target_n)
    u = max(math.log(k), -math.log(target_eps))
    g_max = k * (1.0 - scaled_m_exp(LN2, u)) - (u + s.b)
    g = g_max + u

    def report_at(lm):
        eps_prime = scaled_m_exp(lm, g)
        return _report(lm, eps_prime, (g + s.b) / s.drift,
                       _eps0_cap(target_eps, eps_prime))

    return report_at(_back_off(report_at, _log_m_from(g_max, target_n),
                               target_eps, target_n))
