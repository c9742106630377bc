"""Competitor-side simulation for the metric race.

A trial needs just two numbers from the M-1 wrong codewords: the earliest
walk time at which any of them clears gamma_1, and the earliest at which any
clears gamma_2, both within the horizon where the race is already decided.
Two interchangeable strategies produce them:

* literal - materialize every competitor's metric path against the realized
  output prefix (fine up to a few thousand messages);
* ensemble - exploit that each competitor clears gamma_1 with probability
  p ~ e^{-gamma_1}: the number of clearing competitors is Binomial(M-1, p),
  and the race draws it as Poisson((M-1)p) instead.  Le Cam's bound on the
  total-variation error, (M-1)p^2, is small only when p is: at M = 2^13
  and gamma_1 = 3 it is about 20 and bounds nothing.  The clearing paths
  are drawn exactly by ``proposal_race``: paths from a proposal law the
  metric supplies, thinned by their likelihood ratio at the first gamma_1
  crossing (the tilted per-symbol posterior for the additive
  information-density metrics, a Krichevsky-Trofimov mixture for the
  empirical mutual information).  Against a uniform codebook the
  flip-entropy metric's absorption law is the same for every trial: one
  count DP, ``FlipEntropyAbsorption``, serves a configuration, and the
  races advance it only as far as they read it.

Both work on the kernel of an ``engine.Metric``: the literal race and the
proposals are its chunked-rows case, and the ensemble strategies continue
each gamma_1 crosser toward gamma_2 with its one-row case.  The
count tables ``count_log_table`` and ``count_mi``, which the engine's
``EmpiricalMi`` and ``FlipEntropy`` kernels sum from, live here too.

Competitor indices all exceed the true message's, so under the smallest-index
decode rule a competitor only wins a phase by crossing strictly earlier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StateExplosion

_LAMBDA_CAP = 1e4
_CHUNK = 256


@dataclass(frozen=True)
class RaceResult:
    """Earliest competitor crossing times (1-based walk time), or None if no
    competitor crosses within the examined horizon."""

    t1: int | None
    t2: int | None


_NONE = RaceResult(None, None)  # frozen, so one instance serves every race


def _first_exceed(s, gamma):
    """Earliest step (1-based column) at which any row of the metric paths s
    exceeds gamma, or None."""
    hit = (s > gamma).any(axis=0)
    return int(hit.argmax()) + 1 if hit.any() else None


def _earlier(a, b):
    """The earlier of two crossing times, either of which may be None."""
    return b if a is None or (b is not None and b < a) else a


def literal_count(log_m):
    """M - 1 when literal competitors can run: an integer message count of
    at most 4096; None otherwise."""
    if log_m > math.log(4096.5):
        return None
    m = int(round(math.exp(log_m)))
    if abs(math.exp(log_m) - m) > 1e-6 * max(m, 1):
        return None
    return m - 1


def poisson_crosser_rate(log_m, log_p_cross):
    """(M-1) * p_cross computed in the log domain: the expected number of
    proposals or crossers a race draws, capped for sanity."""
    if log_p_cross == -math.inf:
        return 0.0
    t = log_m + math.log1p(-math.exp(-max(log_m, 1e-300))) + log_p_cross \
        if log_m > 0 else -math.inf
    if t > math.log(_LAMBDA_CAP):
        raise StateExplosion(
            f"expected number of proposals or crossers e^{t:.2f} exceeds "
            f"{_LAMBDA_CAP:.0f}; thresholds are far too low for this message "
            f"count"
        )
    return math.exp(t)


def _first_to_gamma2(rng, metric, crossers, y, gamma2):
    """Earliest walk time at which one of the gamma_1 crossers exceeds gamma_2.

    ``crossers`` lists (t, metric value at t, kernel state at t).  A crosser
    still at or below gamma_2 continues against the outputs y[t:] with fresh
    codeword symbols, in one call of the one-row kernel.  None if no crosser
    gets there within y.
    """
    best = None
    for t, value, state in crossers:
        if value <= gamma2:
            rest = y[None, t:]
            if rest.size == 0:
                continue
            s, _ = metric.metric(state, metric.draw_inputs(rng, 1, rest), rest)
            hit = _first_exceed(s, gamma2)
            if hit is None:
                continue
            t += hit
        best = _earlier(best, t)
    return best


def _absorbed_crossers(rng, metric, y, gamma2, k, t, values, states, w):
    """RaceResult of k crossers drawn from the absorption law of a count DP.

    The absorbed masses w come with their walk times t and the metric values
    and kernel states there; each drawn crosser continues toward gamma_2.
    The draw is ``rng.choice(w.size, size=k, p=w / w.sum())``'s own
    computation, without its argument checks.
    """
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    picks = cdf.searchsorted(rng.random(k), side="right")
    crossers = [
        (int(t[i]), float(values[i]), (int(t[i]), states[i:i + 1]))
        for i in picks
    ]
    return RaceResult(
        int(t[picks].min()), _first_to_gamma2(rng, metric, crossers, y, gamma2)
    )


# ---------------------------------------------------------------------------
# literal strategy


def literal_race(rng, y, m1, metric, gamma1, gamma2):
    """Race m1 explicit competitors against the outputs y: the chunked-rows
    case of the metric kernel, _CHUNK codewords at a time."""
    if y.size < 1:
        return _NONE
    t1 = t2 = None
    for left in range(m1, 0, -_CHUNK):
        rows = min(left, _CHUNK)
        x = metric.draw_inputs(rng, rows, y[None, :])
        s, _ = metric.metric(metric.start(rows), x, y[None, :])
        t1 = _earlier(t1, _first_exceed(s, gamma1))
        t2 = _earlier(t2, _first_exceed(s, gamma2))
    return RaceResult(t1, t2)


# ---------------------------------------------------------------------------
# ensemble strategy: proposals thinned to the crossers


def proposal_race(rng, y, metric, log_m, gamma1, gamma2):
    """RaceResult from the Poisson point process of competitors that clear
    gamma_1 within the horizon h = y.size, sampled exactly by proposing and
    thinning.

    The metric's proposal law Q(x | y) (``metric.draw_proposal``) bounds
    the competitor law P at every gamma_1 crossing:
    log P(x^tau) / Q(x^tau | y^tau) <= B - gamma_1, with
    B = ``metric.proposal_bound(y)``.  So the race proposes
    Poisson((M-1) e^{B - gamma_1}) paths in chunks of at most _CHUNK rows,
    one kernel call a chunk, takes each path's first gamma_1 crossing
    tau <= h, and keeps it with probability
    e^{log_ratio + gamma_1 - B} <= 1, where log_ratio =
    ``metric.log_ratio(value, state)`` reads the metric value at tau and
    the kernel state there, which ``metric.state_at`` reads off the
    chunk's kernel call.  The kept paths are the crossers,
    Poisson((M-1) P[tau <= h]) of them with the exact law of their first
    gamma_1 crossing; each continues toward gamma_2 with fresh codeword
    symbols.  A chunk draws its paths, then one uniform for each path that
    crosses, in row order.  Over an empty prefix nothing crosses, and the
    race draws only its count.
    """
    bound = metric.proposal_bound(y)
    proposals = rng.poisson(poisson_crosser_rate(log_m, bound - gamma1))
    if y.size == 0:
        return _NONE
    crossers = []
    for left in range(proposals, 0, -_CHUNK):
        rows = min(left, _CHUNK)
        x = metric.draw_proposal(rng, y, rows)
        s, _ = metric.metric(metric.start(rows), x, y[None, :])
        hit = s > gamma1
        for r in hit.any(axis=1).nonzero()[0]:
            t = int(hit[r].argmax()) + 1
            value = float(s[r, t - 1])
            state = metric.state_at(s, x, y, r, t)
            if rng.random() >= math.exp(metric.log_ratio(value, state)
                                        + gamma1 - bound):
                continue
            crossers.append((t, value, state))
    if not crossers:
        return _NONE
    return RaceResult(
        min(c[0] for c in crossers),
        _first_to_gamma2(rng, metric, crossers, y, gamma2),
    )


# ---------------------------------------------------------------------------
# count tables and the flip-entropy absorption law


def count_log_table(n_max):
    """Table L[c] = c log c for c = 0..n_max, L[0] = 0.

    Shared by the metric fast paths: for counts c with row sums r, column sums
    s and total n, n * I = sum L[c] - sum L[r] - sum L[s] + L[n].
    """
    table = np.zeros(n_max + 1)
    k = np.arange(1, n_max + 1, dtype=float)
    table[1:] = k * np.log(k)
    return table


def count_mi(log_tbl, counts, nx, ny, n):
    """n * I of joint types on nx x ny cells given by their counts, from
    L = count_log_table.

    ``counts`` is one int64 stack: along its first axis the nx * ny cell
    counts, then the nx row sums, then the ny column sums.  One gather
    through L serves them all.  Returns sum L[c] - sum L[r] - sum L[s] +
    L[n], each sum taken in order.
    """
    terms = log_tbl.take(counts)

    def total(part):  # in place, into the gathered terms
        out = part[0]
        for term in part[1:]:
            out += term
        return out

    cells = nx * ny
    return (total(terms[:cells]) - total(terms[cells:cells + nx])
            - total(terms[cells + nx:]) + log_tbl[n])


class FlipEntropyAbsorption:
    """Forward DP for the flip-entropy metric with a uniform codebook,
    advanced only as far as the races read it: competitor flips are i.i.d.
    Bernoulli(1/2) regardless of the outputs, so the first-crossing law of
    n(log 2 - h_b(k/n)) > gamma_1 is output-independent and shared by every
    trial of a configuration.

    The DP keeps mass only on the live band [lo, lo + mass.size) of flip
    counts.  The metric is convex in k, so the cells it absorbs are the
    band's tails, and the band is trimmed to its first and last nonzero
    cell after each absorption.  Cells outside the band hold exactly zero,
    so every sum equals the full-grid DP's bit for bit.

    ``advance(h)`` runs the DP through step h; ``cum[:t + 1]`` and
    ``absorbed`` then hold the law through the step t reached.  A race over
    h outputs advances to h first and reads nothing past it.  The DP is
    sequential, so the values at steps up to h are the same however far
    and in whatever pieces it was advanced: each copy of an instance (one
    per pool worker) may advance on its own, and no result changes.
    """

    def __init__(self, metric, gamma1):
        self.metric, self.gamma1 = metric, gamma1
        self.horizon = metric.n_max
        self.cum = np.zeros(self.horizon + 1)
        self.absorbed = None  # (times, metric values, flip counts, masses)
        self.t, self._lo, self._mass = 0, 0, np.ones(1)

    def advance(self, h):
        """Run the DP through step min(h, horizon); a no-op if it is there."""
        h = min(h, self.horizon)
        t, lo, mass, cum = self.t, self._lo, self._mass, self.cum
        parts = []  # (time, flip counts, masses)
        while t < h:
            t += 1
            half = mass * 0.5
            mass = np.zeros(half.size + 1)
            mass[:-1] = half
            mass[1:] += half
            k = np.arange(lo, lo + mass.size)
            hit = (self.metric.count_metric(t, k) > self.gamma1) & (mass > 0.0)
            cum[t] = cum[t - 1]
            ki = hit.nonzero()[0]
            if ki.size:
                w = mass[ki]
                parts.append((t, ki + lo, w))
                cum[t] += float(w.sum())
                mass[ki] = 0.0
                live = mass.nonzero()[0]
                if live.size == 0:  # all mass absorbed: the law is complete
                    cum[t + 1:] = cum[t]
                    t = self.horizon
                    break
                lo += int(live[0])
                mass = mass[live[0]:live[-1] + 1]
        self.t, self._lo, self._mass = t, lo, mass
        if parts:
            times, ks, ws = zip(*parts)
            times = np.repeat(times, [part.size for part in ks])
            k, w = np.concatenate(ks), np.concatenate(ws)
            new = (times, self.metric.count_metric(times, k), k[:, None], w)
            self.absorbed = new if self.absorbed is None else tuple(
                np.concatenate(pair) for pair in zip(self.absorbed, new))

    def race(self, rng, y, log_m, gamma2):
        h = min(y.size, self.horizon)
        if h > self.t:  # at least doubling keeps the concatenations few
            self.advance(max(h, 2 * self.t))
        if h < 1 or self.cum[h] <= 0.0:
            return _NONE
        k = rng.poisson(poisson_crosser_rate(log_m, math.log(self.cum[h])))
        if k == 0:
            return _NONE
        n = self.absorbed[0].searchsorted(h, side="right")  # t <= h
        return _absorbed_crossers(
            rng, self.metric, y[:h], gamma2, k,
            *(part[:n] for part in self.absorbed),
        )
