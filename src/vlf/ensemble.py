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
  and gamma_1 = 3 it is about 20 and bounds nothing.  Given the count,
  each clearing path is drawn exactly, either by exponential tilting to
  the per-symbol posterior (additive information-density metrics, accept
  with probability e^{-overshoot}) or from exact absorption masses of a
  count dynamic program (empirical-mutual-information metrics).  Against a
  uniform codebook the flip-entropy metric's absorption law is the same
  for every trial: one DP serves a configuration, and the races advance it
  only as far as they read it.

Both work on the kernel of an ``engine.Metric``: the literal race is its
chunked-rows case, and the ensemble strategies continue each sampled gamma_1
crosser toward gamma_2 with its one-row case.  The count tables
``count_log_table`` and ``count_mi`` live here, beside the count DP whose
values must equal the engine's ``EmpiricalMi`` kernel's bit for bit: both
sum n * I from the same table in ``count_mi``'s order.

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
    """(M-1) * p_cross computed in the log domain, capped for sanity."""
    if log_p_cross == -math.inf:
        return 0.0
    t = log_m + math.log1p(-math.exp(-max(log_m, 1e-300))) + log_p_cross \
        if log_m > 0 else -math.inf
    if t > math.log(_LAMBDA_CAP):
        raise StateExplosion(
            f"expected number of threshold-clearing competitors e^{t:.2f} "
            f"exceeds {_LAMBDA_CAP:.0f}; thresholds are far too low for this "
            f"message count"
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
        return RaceResult(None, None)
    t1 = t2 = None
    for left in range(m1, 0, -_CHUNK):
        rows = min(left, _CHUNK)
        x = metric.draw_inputs(rng, rows, y[None, :])
        s, _ = metric.metric(metric.start(rows), x, y[None, :])
        t1 = _earlier(t1, _first_exceed(s, gamma1))
        t2 = _earlier(t2, _first_exceed(s, gamma2))
    return RaceResult(t1, t2)


# ---------------------------------------------------------------------------
# ensemble strategy for additive metrics: exponential tilting


def tilted_race(rng, y, metric, log_m, gamma1, gamma2):
    """RaceResult of an additive metric from the Poisson point process of
    competitors that clear gamma_1 within the horizon, sampled exactly by
    tilting + thinning.

    Per competitor and conditional on y, the metric is a sum of independent
    steps (law depending on y_t).  Under the tilted per-symbol law
    (metric.draw_tilted: the posterior on inputs given y_t), exp(metric) is
    the likelihood ratio, so P[cross by H] = E_tilted[e^{-S_tau} ; tau <= H]:
    propose Poisson((M-1)e^{-gamma_1}) tilted paths and keep each with
    probability e^{-(S_tau - gamma_1)} 1{tau <= H}.
    """
    lam = poisson_crosser_rate(log_m, -gamma1)
    crossers = []
    for _ in range(rng.poisson(lam)):
        x = metric.draw_tilted(rng, y)
        s, _ = metric.metric(metric.start(1), x[None, :], y[None, :])
        t = _first_exceed(s, gamma1)
        if t is None or rng.random() >= math.exp(-(s[0, t - 1] - gamma1)):
            continue
        crossers.append((t, float(s[0, t - 1]), (t, s[:, t - 1:t])))
    if not crossers:
        return RaceResult(None, None)
    return RaceResult(
        min(c[0] for c in crossers),
        _first_to_gamma2(rng, metric, crossers, y, gamma2),
    )


# ---------------------------------------------------------------------------
# ensemble strategies for empirical-mutual-information metrics: count DPs


def count_log_table(n_max):
    """Table L[c] = c log c for c = 0..n_max, L[0] = 0.

    Shared by the metric fast paths: for counts c with row sums r, column sums
    s and total n, n * I = sum L[c] - sum L[r] - sum L[s] + L[n].
    """
    table = np.zeros(n_max + 1)
    k = np.arange(1, n_max + 1, dtype=float)
    table[1:] = k * np.log(k)
    return table


def count_mi(log_tbl, cells, rows, cols, n):
    """n * I of joint types given by their counts, from L = count_log_table.

    ``cells``, ``rows`` and ``cols`` are sequences of broadcastable count
    arrays: the cell counts, the row sums and the column sums.  Returns
    sum L[c] - sum L[r] - sum L[s] + L[n], each sum taken in order.
    """

    def total(counts):
        out = log_tbl[counts[0]]
        for c in counts[1:]:
            out = out + log_tbl[c]
        return out

    return total(cells) - total(rows) - total(cols) + log_tbl[n]


def _binary_type(u, v, j, n):
    """Counts of the 2x2 joint type with u codeword ones against the j output
    ones and v against the n - j output zeros: cells (x, y) = 00, 10, 01, 11
    (v and n - j - v first, so a (u, v) grid sums two rows and two columns
    before it broadcasts), row sums and column sums."""
    return [n - j - v, v, j - u, u], [n - u - v, u + v], [n - j, j]


# n I <= n H(Y) = L[t] - L[j] - L[t - j] in exact arithmetic, L = c log c.
# Both sides sum entries of at most L[t] (c log c is superadditive): the
# metric grid nine with eight roundings, n H(Y) three with two, and each
# entry carries a few ulps from the table's log, so either computed value
# strays from its exact one by under 100 * 2^-53 * L[t].  A margin of
# 2^-40 * L[t] = 8192 * 2^-53 * L[t] covers both with room to spare, and
# the rounding of gamma_1 minus the margin too: it is at most
# 2^-53 * gamma_1, and gamma_1 > 2 L[t] >= 2 n H(Y) leaves no hit anyway.
_ENTROPY_SLACK = 2.0 ** -40
_NO_HIT = np.zeros(0, np.int32)  # the memo's entry for a (t, j) without hits
_EXACT_STEPS = 53  # a uniform race's exact start: numerators up to 2^53


def _cannot_absorb(L, t, j, gamma1):
    """True when no joint type of length t against j output ones can clear
    gamma_1: n H(Y) of the output prefix is below it by more than the
    rounding margin."""
    return L[t] - L[j] - L[t - j] < gamma1 - _ENTROPY_SLACK * L[t]


def ensemble_binary_mi_race(rng, y, metric, log_m, gamma1, gamma2, memo):
    """Exact competitor race for the empirical-MI metric on a binary-input,
    binary-output channel, conditional on the realized outputs.

    Given y, a competitor's joint type with y is a Markov chain on
    (u, v) = (# codeword ones against output ones, against output zeros);
    forward dynamic programming yields the exact absorption law of the first
    gamma_1 crossing.  Poisson((M-1) p_cross) crossers are sampled from it and
    continued explicitly toward gamma_2.

    The mass lives in one row-major buffer sized to the final (u, v) box
    plus one cell.  After j output ones and k zeros it fills rows 0..j and
    every cell at v > k is zero, so a step shifts it in place by one row or
    one cell with the float operations of a grid grown from zeros:
    old * (1 - p) + shifted * p, where a shift into an empty cell adds it
    to zero.  A one-cell shift carries each row's last cell, still empty
    while k is below the final zero count, into the next row's first.

    Against a uniform codebook (px_1 = 1/2) the DP starts exactly: its
    first steps only halve and add, and after t <= 53 steps with j ones and
    k zeros every cell is C(j, u) C(k, v) 2^-t, a numerator of at most 2^t,
    so the in-place DP's floats equal the outer product of the exact pmfs
    C(j, u) 2^-j and C(k, v) 2^-k bit for bit (C(53, 26) < 2^53).  The race
    writes that product for the leading steps where _cannot_absorb holds,
    capped at 53 and at h, and runs the loop from the next step; at any
    other px_1 it starts from a single 1.0.  The skipped steps store no
    memo key.

    The hit cells of step t, where the metric exceeds gamma_1, are a
    function of (t, j) alone once the table L = log_tbl and gamma_1 are
    fixed.  The first race to reach a (t, j) evaluates the metric grid over
    [0, j] x [0, k] in count_mi's order from 1-D slices of L: cells
    ((L[k-v] + L[v]) + L[j-u]) + L[u], minus the row sums R[u+v] with
    R[s] = L[t-s] + L[s] (a Hankel view), minus L[k] + L[j], plus L[t];
    a step where _cannot_absorb holds skips it and has no hit cell.  The
    race stores the flat grid indices of the hit cells in ``memo`` under
    (t, j), as int32, or the shared empty _NO_HIT, and every later race at
    that (t, j) reads them instead.  A memo thus belongs to one metric and
    one gamma_1: a runtime passes one dict to all its races.  Hit cells
    that hold no mass are dropped before the law records them.  An empty
    prefix absorbs no mass, so its race returns no crossing before any
    draw.
    """
    h = y.size
    L, px1 = metric.log_tbl, metric.px[1]
    stay = 1.0 - px1
    table = L[:h + 1].tolist()
    bits = y.tolist()
    ones_total = sum(bits)
    width = h - ones_total + 1
    mass = np.zeros((ones_total + 1) * width + 1)
    start = j = 0
    if px1 == 0.5:
        while start < min(h, _EXACT_STEPS) and _cannot_absorb(
                table, start + 1, j + bits[start], gamma1):
            j += bits[start]
            start += 1
    k = start - j
    pmf_u, pmf_v = (np.array([math.comb(n, i) for i in range(n + 1)], float)
                    * 0.5 ** n for n in (j, k))
    box = mass[:(j + 1) * width].reshape(j + 1, width)
    box[:, :k + 1] = np.multiply.outer(pmf_u, pmf_v)
    row_sums = np.zeros(h + 1)
    step = row_sums.strides[0]
    hankel = np.lib.stride_tricks.as_strided(
        row_sums, shape=(ones_total + 1, width), strides=(step, step),
        writeable=False)
    absorbed = []  # (time, buffer cells, masses) of each absorbing step
    total_absorbed = 0.0
    for t, bit in enumerate(bits[start:], start + 1):
        n = (j + 1) * width
        live = mass[:n]
        moved = live * px1
        live *= stay
        if bit:
            j += 1
            mass[width:n + width] += moved
        else:
            k += 1
            mass[1:n + 1] += moved
        cells = memo.get((t, j))
        if cells is None:
            cells = _NO_HIT
            if not _cannot_absorb(table, t, j, gamma1):
                np.add(L[t::-1], L[:t + 1], out=row_sums[:t + 1])
                grid = (L[k::-1] + L[:k + 1]) + L[j::-1, None]
                grid += L[:j + 1, None]
                grid -= hankel[:j + 1, :k + 1]
                grid -= table[k] + table[j]
                grid += table[t]
                hits = (grid > gamma1).ravel().nonzero()[0]
                del grid  # the kept copy may reuse its heap space
                if hits.size:
                    cells = hits.astype(np.int32)
            memo[t, j] = cells
        if cells.size == 0:
            continue
        cells = cells.astype(np.intp)
        cells += cells // (k + 1) * (width - k - 1)  # grid -> buffer index
        w = mass[cells]
        # no mass is negative; .nonzero()[0] skips np.flatnonzero's wrapper,
        # which costs more than the search on a few hundred cells
        held = w.nonzero()[0]
        if held.size == 0:
            continue
        cells, w = cells[held], w[held]
        absorbed.append((t, cells, w))
        total_absorbed += float(w.sum())
        mass[cells] = 0.0
    if total_absorbed <= 0.0:
        return RaceResult(None, None)
    drawn = rng.poisson(poisson_crosser_rate(log_m, math.log(total_absorbed)))
    if drawn == 0:
        return RaceResult(None, None)
    times, cells, w = zip(*absorbed)
    t = np.repeat(times, [part.size for part in w])
    cells, w = np.concatenate(cells), np.concatenate(w)
    u, v = np.divmod(cells, width)
    ones = np.concatenate([[0], np.cumsum(y)])
    counts = _binary_type(u, v, ones[t], t)
    states = np.stack(counts[0], axis=1)[:, [0, 2, 1, 3]]  # kernel order
    return _absorbed_crossers(
        rng, metric, y, gamma2, drawn, t, count_mi(L, *counts, t), states, w
    )


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
            return RaceResult(None, None)
        k = rng.poisson(poisson_crosser_rate(log_m, math.log(self.cum[h])))
        if k == 0:
            return RaceResult(None, None)
        n = self.absorbed[0].searchsorted(h, side="right")  # t <= h
        return _absorbed_crossers(
            rng, self.metric, y[:h], gamma2, k,
            *(part[:n] for part in self.absorbed),
        )
