"""Type-counting helpers of the universal decoders.

The universal decoders score candidate codewords by the empirical mutual
information of their joint type with the output (discrete case) or by
-(n/2) log(1 - rho_hat^2) with rho_hat the uncentered empirical correlation
(Gaussian case).  The engine's ``EmpiricalMi`` kernel and the count-DP
race compute the first through ``count_log_table`` and ``count_mi`` below.
The slow reference definitions (``JointType``, ``joint_type``,
``empirical_mi``, ``empirical_correlation``, ``universal_gaussian_metric``)
live in :mod:`vlf.oracle`, and the tests check the ``EmpiricalMi`` and
``Correlation`` kernels against them.  Refined type-counting constants: the
number of length-n sequences of type Q obeys

    |T_n(Q)| <= exp(n H(Q)) (2 pi n)^{-(|A|-1)/2} prod_a Qtilde(a)^{-1/2}

with Qtilde(a) = 1/(2 pi n) at zero entries, and the polynomial tail exponents
for P[n I_hat >= gamma] under an independent product law are

    k = min{ (|X||Y| - 2)/2, (|X| - 3/2)(|Y| - 3/2) - 1/4 },   d = k + 1.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import _as_prob_vector
from .errors import DimensionMismatch, NonIntegerType

TWO_PI = 2.0 * math.pi


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
