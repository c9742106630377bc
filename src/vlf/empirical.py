"""Joint types and universal decoding metrics.

A joint type is the empirical count matrix of a paired sequence. The universal
decoders score candidate codewords by the empirical mutual information of that
type (discrete case) or by -(n/2) log(1 - rho_hat^2) with rho_hat the
uncentered empirical correlation (Gaussian case). Refined type-counting
constants: the number of length-n sequences of type Q obeys

    |T_n(Q)| <= exp(n H(Q)) (2 pi n)^{-(|A|-1)/2} prod_a Qtilde(a)^{-1/2}

with Qtilde(a) = 1/(2 pi n) at zero entries, and the polynomial tail exponents
for P[n I_hat >= gamma] under an independent product law are

    k = min{ (|X||Y| - 2)/2, (|X| - 3/2)(|Y| - 3/2) - 1/4 },   d = k + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import _as_prob_vector
from .errors import (
    DegenerateSequence,
    DimensionMismatch,
    EmptySequence,
    LengthMismatch,
    NonIntegerType,
    NotADistribution,
)

TWO_PI = 2.0 * math.pi


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


def joint_type(xn, yn, num_x=None, num_y=None):
    """Joint type of two equal-length symbol sequences.

    Alphabet sizes default to max symbol + 1; pass them explicitly to keep
    trailing all-zero rows or columns.
    """
    x = np.asarray(xn, dtype=np.int64)
    y = np.asarray(yn, dtype=np.int64)
    if x.ndim != 1 or y.ndim != 1:
        raise DimensionMismatch("sequences must be 1-D")
    if x.size != y.size:
        raise LengthMismatch(f"lengths differ: {x.size} vs {y.size}")
    if x.size == 0:
        raise EmptySequence("need at least one sample")
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
        raise EmptySequence("empty type")
    rows = c.sum(axis=1)
    cols = c.sum(axis=0)
    n_i = _xlogx(c).sum() - _xlogx(rows).sum() - _xlogx(cols).sum() + n * math.log(n)
    return max(float(n_i) / n, 0.0)


def empirical_correlation(xn, yn):
    """Uncentered empirical correlation sum(x y) / sqrt(sum x^2 sum y^2)."""
    x = np.asarray(xn, dtype=float)
    y = np.asarray(yn, dtype=float)
    if x.ndim != 1 or y.ndim != 1:
        raise DimensionMismatch("sequences must be 1-D")
    if x.size != y.size:
        raise LengthMismatch(f"lengths differ: {x.size} vs {y.size}")
    if x.size == 0:
        raise EmptySequence("need at least one sample")
    ex = float(np.dot(x, x))
    ey = float(np.dot(y, y))
    if ex == 0.0 or ey == 0.0:
        raise DegenerateSequence("zero-energy sequence; correlation undefined")
    return float(np.dot(x, y)) / math.sqrt(ex * ey)


def universal_gaussian_metric(xn, yn):
    """-(n/2) log(1 - rho_hat^2); +inf signalled (not raised) at |rho_hat| = 1."""
    rho = empirical_correlation(xn, yn)
    n = len(xn)
    r2 = min(rho * rho, 1.0)
    if r2 >= 1.0:
        return math.inf
    return -0.5 * n * math.log1p(-r2)


def tail_exponents(num_x, num_y):
    """Polynomial exponents (k, d) of the universal metric's tail bound."""
    ax, ay = int(num_x), int(num_y)
    if ax < 2 or ay < 2:
        raise DimensionMismatch("alphabets need at least two symbols")
    k = min((ax * ay - 2) / 2.0, (ax - 1.5) * (ay - 1.5) - 0.25)
    d = min(ax * ay / 2.0, (ax - 1.5) * (ay - 1.5) + 0.75)
    return k, d


def type_class_log_bound(type_probs, n):
    """Log of the refined type-class size bound.

    n H(Q) - ((|A| - 1)/2) log(2 pi n) - (1/2) sum_a log Qtilde(a), where
    Qtilde(a) = Q(a) on the support and 1/(2 pi n) at zero entries. The bound
    dominates log |T_n(Q)| for every type and improves on exp(n H(Q)) by the
    polynomial factor.
    """
    q = _as_prob_vector(type_probs, "type")
    scaled = q * n
    if np.any(np.abs(scaled - np.round(scaled)) > 1e-9):
        a = int(np.argmax(np.abs(scaled - np.round(scaled))))
        raise NonIntegerType(
            f"entry {a}: {q[a]} * n = {scaled[a]} is not an integer count"
        )
    ent = float(-np.sum(q[q > 0] * np.log(q[q > 0])))
    qtilde = np.where(q > 0, q, 1.0 / (TWO_PI * n))
    return (
        n * ent
        - 0.5 * (q.size - 1) * math.log(TWO_PI * n)
        - 0.5 * float(np.log(qtilde).sum())
    )


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
