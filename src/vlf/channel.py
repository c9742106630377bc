"""Channel models and single-letter information quantities.

Discrete memoryless channels are row-stochastic matrices W[x, y] with strictly
positive entries (every output reachable from every input). The additive-noise
Gaussian channel has unit noise variance, so its input power budget P is its
signal-to-noise ratio S; it gives capacity C(S) = (1/2) log(1+S) and a
binary-antipodal control divergence of 2S. All logarithms are natural;
rates are in nats unless a caller converts for display.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NonPositiveDrift,
    NotADistribution,
    VlfError,
)

ROW_SUM_TOL = 1e-12
DIST_SUM_TOL = 1e-9
_BA_TOL = 1e-10  # Blahut-Arimoto stops at this duality gap (nats)
_BA_MAX_ITER = 10**6
# finite stand-in for an infinite control LLR: beyond any threshold that
# finite LLRs (each at most about 745 in size) could reach, and 64 of them
# sum finitely
_LLR_CAP = 1e300


def _as_prob_vector(p, name="p"):
    """p as a float vector, checked to be a distribution: nonnegative
    entries summing to 1 within DIST_SUM_TOL, so all finite (a NaN or
    infinite entry makes the sum fail the check)."""
    v = np.asarray(p, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise DimensionMismatch(f"{name} must be a nonempty 1-D vector")
    if np.any(v < 0):
        raise NotADistribution(f"{name} has negative entries")
    s = float(v.sum())
    if not abs(s - 1.0) <= DIST_SUM_TOL:  # NaN fails it too
        raise NotADistribution(
            f"{name} sums to {s}, off by more than {DIST_SUM_TOL}"
        )
    return v


def _as_input_law(px, dmc):
    """px as a float vector, checked to be a distribution over the inputs
    of the Dmc `dmc`."""
    p = _as_prob_vector(px, "px")
    if p.size != dmc.matrix.shape[0]:
        raise DimensionMismatch(
            f"px has {p.size} entries for {dmc.matrix.shape[0]} inputs"
        )
    return p


def _as_step_law(values, probs):
    """(values, probs) of a finite discrete step law as float vectors,
    probs checked to be a distribution and values to match it."""
    v = np.asarray(values, dtype=float)
    p = _as_prob_vector(probs, "step probabilities")
    if v.shape != p.shape:
        raise NotADistribution("values and probs must be matching 1-D vectors")
    return v, p


def _check_count(count, name, least=1, most=None):
    """count as an int, checked to be an integer (not a bool) of at least
    `least` and, when `most` is given, at most `most`."""
    if (isinstance(count, bool) or not isinstance(count, (int, np.integer))
            or count < least or (most is not None and count > most)):
        span = f">= {least}" if most is None else f"in [{least}, {most}]"
        raise VlfError(f"{name} must be an integer {span}, got {count!r}")
    return int(count)


def _check_real(x, name, low, high, lo_in=False, hi_in=False):
    """x, checked to be a Python or numpy int or float (not a bool, a
    string, None or an array) in the interval from low to high, each end
    closed when its flag is set; NaN lies in no interval.  The message
    says "finite" unless the interval admits an infinity."""
    real = (isinstance(x, (int, float, np.integer, np.floating))
            and not isinstance(x, bool))
    if not (real and (low <= x if lo_in else low < x)
            and (x <= high if hi_in else x < high)):
        finite = not (lo_in and low == -math.inf or hi_in and high == math.inf)
        raise NotADistribution(
            f"{name} must be a {'finite ' * finite}number in {'[('[not lo_in]}"
            f"{low}, {high}{'])'[not hi_in]}, got {x if real else repr(x)}")
    return x


def _positive_drift(mean, name="mean step"):
    """mean, checked to be a positive walk drift (NaN is not)."""
    if not mean > 0:
        raise NonPositiveDrift(f"{name} = {mean} is not positive")
    return mean


@dataclass(frozen=True)
class Dmc:
    """Discrete memoryless channel with a strictly positive transition
    matrix; a bad entry or row sum is named by its 1-based row and column."""

    matrix: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.matrix, dtype=float)
        if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 2:
            raise DimensionMismatch(
                f"transition matrix must be 2-D with >=2 outputs, got shape {w.shape}"
            )
        bad = ~(w > 0)  # NaN is not positive
        if bad.any():
            x, y = np.argwhere(bad)[0]
            raise NotADistribution(
                f"row {x + 1}, column {y + 1}: entry {w[x, y]} must be "
                "strictly positive"
            )
        sums = w.sum(axis=1)
        bad = ~(np.abs(sums - 1.0) <= ROW_SUM_TOL)
        if bad.any():
            x = int(np.argmax(bad))
            raise NotADistribution(
                f"row {x + 1} sums to {sums[x]!r}, off by more than {ROW_SUM_TOL}"
            )
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "matrix", w)


@dataclass(frozen=True)
class GaussianChannel:
    """Y = X + Z with Z ~ N(0, 1) and power budget E[sum X^2] <= E[tau] *
    power; with unit noise the power is the SNR, the one parameter every
    bound reads."""

    power: float

    def __post_init__(self):
        _check_real(self.power, "power", 0, math.inf)

    @property
    def capacity(self):
        """(1/2) log(1 + S) nats per channel use."""
        return 0.5 * math.log1p(self.power)

    @property
    def control_divergence(self):
        """KL between the antipodal control outputs N(+sqrt(P), 1) and
        N(-sqrt(P), 1) = 2S."""
        return 2.0 * self.power


def bsc(p):
    """Binary symmetric channel with flip probability p in (0, 1)."""
    _check_real(p, "flip probability p", 0, 1)
    return Dmc(np.array([[1.0 - p, p], [p, 1.0 - p]]))


def _divergences(p, q, logs=None):
    """D(p || q) = sum_i p_i (log p_i - log q_i) along the last axis of the
    broadcast arrays p and q, with 0 log(0/q) = 0 and +inf where p has mass
    that q lacks; the one definition every divergence here uses.  ``logs``
    is (log p, log q) when the caller has taken them already."""
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p, log_q = (np.log(p), np.log(q)) if logs is None else logs
        terms = p * (log_p - log_q)
    return np.add.reduce(np.where(p > 0, terms, 0.0), axis=-1)


def kl_divergence(p, q):
    """D(p || q) of two distributions of one shape; an infinite divergence
    raises NotADistribution naming the first index where q lacks mass."""
    pv = _as_prob_vector(p, "p")
    qv = _as_prob_vector(q, "q")
    if pv.shape != qv.shape:
        raise DimensionMismatch(f"shapes differ: {pv.shape} vs {qv.shape}")
    d = float(_divergences(pv, qv))
    if d == math.inf:
        i = int(np.argmax((pv > 0) & (qv == 0)))
        raise NotADistribution(
            f"p[{i}] = {pv[i]} > 0 but q[{i}] = 0; divergence infinite"
        )
    return d


def entropy(p):
    """Shannon entropy -sum p log p in nats. Requires a normalized vector."""
    v = _as_prob_vector(p, "p")
    nz = v[v > 0]
    return float(-np.sum(nz * np.log(nz)))


def mutual_information(px, dmc):
    """I(P_X, W) = sum_x px(x) D(W(.|x) || P_Y) in nats."""
    p = _as_input_law(px, dmc)
    mask = p > 0
    return float(np.sum(p[mask] * _divergences(dmc.matrix[mask], p @ dmc.matrix)))


def capacity(dmc):
    """Channel capacity by Blahut-Arimoto.

    Alternates the capacity-achieving-input update with the duality sandwich
    max_x D(W_x || P_Y) >= C >= I(r, W); stops when the gap is <= _BA_TOL
    and returns (I(r_star, W), r_star). Raises VlfError past
    _BA_MAX_ITER iterations.
    """
    w = dmc.matrix
    nx = w.shape[0]
    r = np.full(nx, 1.0 / nx)
    for _ in range(_BA_MAX_ITER):
        div = _divergences(w, r @ w)  # D(W_x || P_Y) for every input row
        lower = float(r @ div)
        upper = float(div.max())
        if upper - lower <= _BA_TOL:
            return lower, r
        # multiplicative update r <- r * exp(div) / normalizer
        z = r * np.exp(div - div.max())
        r = z / z.sum()
    raise VlfError(
        f"Blahut-Arimoto gap above {_BA_TOL} after {_BA_MAX_ITER} iterations"
    )


def control_pair(channel):
    """Most distinguishable ordered input pair of a Dmc or of a kernel matrix.

    Returns (x_accept, x_reject, divergence) maximizing D(W_xa || W_xr) over
    ordered pairs with xa != xr; the maximum equals the best
    confirmation-phase error exponent.  Kernel rows may contain zeros (an
    empirical kernel): a divergence is +inf when the first row puts mass
    where the second has none.  Ties within 1e-15 break to the
    lexicographically smallest (xa, xr).
    """
    w = channel.matrix if isinstance(channel, Dmc) else np.asarray(channel, float)
    with np.errstate(divide="ignore"):
        xa, xr, d = _control_pair(w, np.log(w))
    return int(xa), int(xr), float(d)


def _control_pair(w, log_w):
    """control_pair of each kernel matrix along the last two axes of w,
    from its logs log_w: (xa, xr, divergence), each indexed by the leading
    axes (a scalar for one kernel)."""
    nx = w.shape[-2]
    div = _divergences(w[..., :, None, :], w[..., None, :, :],
                       (log_w[..., :, None, :], log_w[..., None, :, :]))
    div = div.reshape(w.shape[:-2] + (nx * nx,))
    div[..., ::nx + 1] = -math.inf  # the diagonal, xa == xr
    top = np.maximum.reduce(div, axis=-1, keepdims=True)
    i = (div >= top - 1e-15).argmax(axis=-1)
    xa, xr = np.divmod(i, nx)
    return xa, xr, np.take_along_axis(div, i[..., None], -1)[..., 0]


def _rows(w, x):
    """Row x of each kernel matrix along the last two axes of w, x an array
    over the leading axes."""
    return np.take_along_axis(w, np.expand_dims(x, (-2, -1)), -2)[..., 0, :]


def control_llr(kernel):
    """(x_accept, x_reject, llr): the control pair of a kernel matrix and
    the confirmation test's LLR log W(y|xa) - log W(y|xr) of each output y.

    A stack of kernels along leading axes gives each kernel's own result,
    bit for bit: xa and xr are integer arrays over the leading axes and
    llr has one row per kernel.  A 2-D kernel is the case with no leading
    axis: xa and xr are numpy integers and llr one row.

    An output neither row gives (an empirical kernel's zero cells) tells
    nothing: its LLR is 0.  A zero cell in one row makes an LLR infinite;
    it is clipped to +-_LLR_CAP.  The SPRT exits at a capped value's own
    index as it would at an infinite one, and the 64 values of a block
    cannot overflow, so no inf - inf NaN arises after the exit.
    """
    kernel = np.asarray(kernel, float)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_w = np.log(kernel)
        xa, xr, _ = _control_pair(kernel, log_w)
        llr = _rows(log_w, xa) - _rows(log_w, xr)
    # a finite LLR is below _LLR_CAP, so in a row without a zero cell the
    # mask and the clip change nothing
    if not np.isfinite(llr).all():
        llr[(_rows(kernel, xa) == 0) & (_rows(kernel, xr) == 0)] = 0.0
        np.clip(llr, -_LLR_CAP, _LLR_CAP, out=llr)
    return xa, xr, llr


def binary_entropy(q):
    """h_b(q) = -q log q - (1 - q) log(1 - q) in nats; 0 outside (0, 1)."""
    if q <= 0.0 or q >= 1.0:
        return 0.0
    return -q * math.log(q) - (1.0 - q) * math.log1p(-q)


def output_distribution(px, dmc):
    return _as_input_law(px, dmc) @ dmc.matrix


def information_density_table(px, dmc):
    """Matrix of information densities, i[x, y] = log(W(y|x)/P_Y(y))."""
    py = output_distribution(px, dmc)
    if np.any(py == 0):
        y = int(np.argmax(py == 0))
        raise NotADistribution(f"output {y + 1} has zero marginal mass under px")
    return np.log(dmc.matrix) - np.log(py)[None, :]


def gaussian_information_density(chan, x, y):
    """Per-symbol information density of the Gaussian channel (array-valued).

    C(S) - (y - x)^2 / 2 + y^2 / (2 (P + 1)) for the N(0, P) input ensemble.
    """
    return chan.capacity - (y - x) ** 2 / 2.0 + y * y / (2.0 * (chan.power + 1.0))


def load_dmc(path):
    """Read a whitespace-separated transition matrix, one row per line of
    UTF-8 text.

    Failures start "dmc matrix file <path>:" and name the offending line,
    or the matrix row and column that ``Dmc`` rejects (blank and comment
    lines are not rows).
    """
    where = f"dmc matrix file {path}"
    rows = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(enumerate(fh, start=1))
    except UnicodeDecodeError as exc:
        raise NotADistribution(
            f"{where}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    except OSError as exc:  # missing, a directory, unreadable
        raise NotADistribution(f"{where}: {exc.strerror}") from None
    for lineno, line in lines:
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            row = [float(tok) for tok in text.split()]
        except ValueError as exc:
            raise NotADistribution(
                f"{where}: line {lineno}: unparseable entry ({exc})"
            ) from None
        rows.append((lineno, row))
    if not rows:
        raise NotADistribution(f"{where}: no matrix rows found")
    width = len(rows[0][1])
    for lineno, row in rows:
        if len(row) != width:
            raise DimensionMismatch(
                f"{where}: line {lineno} has {len(row)} columns, expected {width}"
            )
    try:
        return Dmc(np.array([row for _, row in rows], dtype=float))
    except VlfError as exc:
        raise type(exc)(f"{where}: {exc}") from None


def parse_channel_spec(spec):
    """Parse 'bsc:<p>', 'dmc:<path>', or 'awgn:<snr>' into a channel object."""
    kind, sep, arg = spec.partition(":")
    if not sep:
        raise NotADistribution(
            f"channel spec {spec!r} must look like bsc:<p>, dmc:<path>, or awgn:<snr>"
        )
    if kind in ("bsc", "awgn"):
        try:
            value = float(arg)
        except ValueError:
            raise NotADistribution(
                f"channel parameter must be a number, got {arg!r}"
            ) from None
        if kind == "bsc":
            return bsc(value)
        return GaussianChannel(value)
    if kind == "dmc":
        return load_dmc(arg)
    raise NotADistribution(f"unknown channel kind {kind!r} in spec {spec!r}")
