"""Command-line front end.

Verbs:

* ``bound``    - evaluate the three-phase achievability bound at a schedule
                 given explicitly or derived from a horizon N1;
* ``simulate`` - Monte Carlo runs of the coding scheme (any variant);
* ``sweep``    - rate curves over an N grid for schemes thm1 / vlsf /
                 converse; a one-point ``thm1`` sweep is the best log M
                 meeting (eps, N) targets, with its schedule;
* ``oracle``   - exact joint-type tail probabilities vs the polynomial bound.

Each verb appends fixed-schema rows to a CSV (``--out``) and prints a
one-line summary.  Rates and other reals use 6 decimal places, probabilities
scientific notation with 3 significant digits.  Every option is a flag.
Exit status: 0 success, 2 infeasible targets (an ``Infeasible`` error), 1
any other error (any other ``VlfError``, an ``OSError`` or a ``ValueError``).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys

import numpy as np

from . import bounds
from .bounds import (
    LN2,
    VlfParams,
    achievability_bound,
    asymptotic_schedule,
    converse_bound,
    optimize_params,
    single_phase_bound,
    tail_exponents,
    universal_schedule,
)
from .channel import (
    Dmc,
    GaussianChannel,
    _as_input_law,
    _check_real,
    capacity,
    parse_channel_spec,
)
from .engine import (
    SchemeConfig,
    TrialOutcome,
    aggregate_records,
    metric_kind,
    trial_records,
)
from .errors import Infeasible, VlfError

_GRID_CAP = 10**6  # most points a grid may hold


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise VlfError(message)


def _fmt_rate(x):
    return f"{x:.6f}"


def _fmt_prob(x):
    return f"{x:.2e}"


def _parse_message_count(s):
    """'2^100' (bits exponent) or a plain integer count; returns log M nats,
    checked to be finite and >= 0."""
    t = s.strip()
    if "^" in t:
        base, _, expo = t.partition("^")
        if base.strip() != "2":
            raise ValueError("message count base must be 2")
        log_m = float(expo) * LN2
    else:
        m = int(t)
        log_m = math.log(m) if m > 0 else -math.inf
    return _check_real(log_m, "log_m", 0, math.inf, lo_in=True)


def _parse_grid(s):
    """'start:stop:step' inclusive grid, or a single value; every value must
    be finite and positive, and the grid hold at most _GRID_CAP points,
    counted before any is made."""
    vals = [_check_real(float(p), "grid value", 0, math.inf)
            for p in s.split(":")]
    if len(vals) not in (1, 3):
        raise ValueError("a grid is start:stop:step or one value")
    if len(vals) == 1:
        return vals
    start, stop, step = vals
    if stop < start:
        raise ValueError("grid stop is below its start")
    end = stop + step * 0.5
    points = math.ceil((end - start) / step)  # np.arange's length
    if points > _GRID_CAP:
        raise ValueError(f"the grid has {points} points, more than {_GRID_CAP}")
    return [float(v) for v in np.arange(start, end, step)]


def _parse_px(s):
    """Comma-separated weights, normalized to sum to 1."""
    v = np.array([float(p) for p in s.split(",")], dtype=float)
    if not (np.all(np.isfinite(v)) and np.all(v >= 0) and v.sum() > 0):
        raise ValueError("weights must be finite and nonnegative, with a "
                         "positive sum")
    return v / v.sum() if abs(v.sum() - 1.0) > 1e-12 else v


# the option table: dest -> (flag, caster, help); flags are parsed as raw
# strings and cast once the verb is known
_OPTIONS = {
    "channel": ("--channel", str, "channel spec: bsc:<p> | dmc:<path> | awgn:<snr>"),
    "out": ("--out", str, "CSV file to append results to"),
    "px": ("--px", _parse_px, "input distribution, comma-separated"),
    "variant": ("--variant", str,
                "vlf_dmc | uvlf_dmc | uvlf_bsc | vlf_awgn | uvlf_awgn"),
    "M": ("--M", _parse_message_count, "message count (e.g. 2^100)"),
    "gamma1": ("--gamma1", float,
               "first communication threshold (nats; with gamma2/aA/aR)"),
    "gamma2": ("--gamma2", float, "second communication threshold (nats)"),
    "a_accept": ("--aA", float, "SPRT accept threshold"),
    "a_reject": ("--aR", float, "SPRT reject threshold"),
    "eps0": ("--eps0", float, "stop-at-time-zero probability"),
    "N1": ("--N1", float, "derive the known-channel schedule from this horizon"),
    "eps": ("--eps", float, "target error probability"),
    "N": ("--N", _parse_grid, "blocklength grid start:stop:step, or one N"),
    "training": ("--training", int, "training sequence length"),
    "trials": ("--trials", int, "number of Monte Carlo trials"),
    "seed": ("--seed", int, "RNG seed (required)"),
    "workers": ("--workers", int, "parallel worker processes"),
    "trace": ("--trace", str, "write per-trial JSON lines here"),
    "n_max": ("--n-max", int, "walk horizon"),
    "c2": ("--c2", float, "universal second-phase cap multiple"),
    "schemes": ("--schemes", str, "comma list from thm1,vlsf,converse"),
    "n": ("--n", int, "sequence length for the exact tail"),
    "gamma": ("--gamma", _parse_grid, "threshold grid start:stop:step"),
}
_THRESHOLDS = ("M", "gamma1", "gamma2", "a_accept", "a_reject", "eps0")
_VERB_OPTS = {
    "bound": ("channel", "out", "px", *_THRESHOLDS, "N1", "eps"),
    "simulate": (
        "channel", "out", "px", "variant", *_THRESHOLDS, "N1", "eps",
        "training", "trials", "seed", "workers", "trace", "n_max", "c2",
    ),
    "sweep": ("channel", "out", "px", "eps", "N", "schemes"),
    "oracle": ("channel", "out", "px", "n", "gamma"),
}


@functools.cache
def _build_parser():
    """The parser of every verb, built once per process: parse_args keeps
    no state between calls, so each main call parses afresh.  A flag has
    one spelling: no parser takes a prefix of it."""
    top = _Parser(prog="vlf", description=__doc__.split("\n\n")[0],
                  allow_abbrev=False)
    subs = top.add_subparsers(dest="verb")
    for verb, names in _VERB_OPTS.items():
        sp = subs.add_parser(verb, allow_abbrev=False)
        for dest in names:
            flag, _, helptext = _OPTIONS[dest]
            sp.add_argument(flag, dest=dest, type=str, default=None,
                            help=helptext)
    return top


class _Options(dict):
    """A verb's cast option values, None when unset, that note which ones
    the verb reads."""

    def __init__(self, values):
        super().__init__(values)
        self.read = set()

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)


def _cast_options(args, verb):
    """The verb's flag values, each cast by its option table entry."""
    opt = _Options(dict.fromkeys(_VERB_OPTS[verb]))
    for dest in opt:
        flag, caster, _help = _OPTIONS[dest]
        raw = getattr(args, dest)
        if raw is not None:
            try:
                opt[dest] = caster(raw)
            except (ValueError, VlfError) as exc:
                raise VlfError(f"bad value for {flag}: {raw!r} ({exc})") from exc
    return opt


def _require(opt, name, flag):
    if opt[name] is None:
        raise VlfError(f"{flag} is required")
    return opt[name]


def _resolve_channel(opt):
    spec = _require(opt, "channel", "--channel")
    channel = parse_channel_spec(spec)
    if isinstance(channel, Dmc):
        px = opt["px"]
        if px is None:
            px = np.full(channel.matrix.shape[0],
                         1.0 / channel.matrix.shape[0])
        return channel, _as_input_law(px, channel), spec
    return channel, None, spec


def _commit(opt, header):
    """The verb's CSV path, once it has read every option its resolved path
    needs: an option set but not read (a --px the Gaussian channel has no
    use for, an --N1 next to explicit thresholds) is an error that names
    it, and a CSV of another schema is refused, before anything runs or is
    written."""
    out = opt["out"]
    unread = [_OPTIONS[name][0] for name, value in opt.items()
              if value is not None and name not in opt.read]
    if unread:
        raise VlfError(f"{', '.join(unread)} not read by this run; "
                        "remove or change the other options")
    if out is not None:
        _needs_header(out, header)
    return out


def _needs_header(path, header):
    """True when the CSV at path is missing or empty, False when it starts
    with `header`; any other header is refused, before anything is written."""
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        return True
    with open(path, newline="", encoding="utf-8") as fh:
        existing = next(csv.reader(fh), [])
    if existing != header:
        raise VlfError(
            f"{path} has the header {','.join(existing)!r}, not "
            f"{','.join(header)!r}; refusing to append to it"
        )
    return False


def _append_csv(path, header, rows):
    if path is None:
        for row in rows:
            print(",".join(row))
        return
    fresh = _needs_header(path, header)
    with open(path, "a", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        if fresh:
            w.writerow(header)
        w.writerows(rows)


_BOUND_HEADER = [
    "scheme", "channel", "N", "eps", "logM_nats", "M_log2",
    "rate_bits_per_use", "gamma1", "gamma2", "aA", "aR", "eps0",
]


def _bound_row(scheme, chan_spec, n_value, eps, log_m, rate, params):
    """One row of _BOUND_HEADER; rate in nats per use, its cell empty when
    infinite (N = 0 at eps0 = 1), params the schedule or None."""
    if params is None:
        sched = [""] * 5
    else:
        sched = [
            _fmt_rate(params.gamma1), _fmt_rate(params.gamma2),
            _fmt_rate(params.a_accept), _fmt_rate(params.a_reject),
            _fmt_prob(params.eps0),
        ]
    return [
        scheme, chan_spec, _fmt_rate(n_value), _fmt_prob(eps),
        _fmt_rate(log_m), _fmt_rate(log_m / LN2),
        _fmt_rate(rate / LN2) if math.isfinite(rate) else "",
    ] + sched


def _given(opt, **names):
    """Keyword arguments from the options the user set: keyword -> option
    name, so a library call keeps its own default for every option left
    unset."""
    return {kw: opt[name] for kw, name in names.items()
            if opt[name] is not None}


def _explicit_params(opt):
    """VlfParams from --gamma1/--gamma2/--aA/--aR (with --M, --eps0), or
    None when none of the four thresholds is given."""
    explicit = [opt["gamma1"], opt["gamma2"], opt["a_accept"], opt["a_reject"]]
    if all(v is None for v in explicit):
        return None
    if any(v is None for v in explicit):
        raise VlfError(
            "give all of --gamma1/--gamma2/--aA/--aR or none of them"
        )
    return VlfParams(
        log_m=_require(opt, "M", "--M"), gamma1=explicit[0],
        gamma2=explicit[1], a_accept=explicit[2], a_reject=explicit[3],
        **_given(opt, eps0="eps0"),
    )


def _schedule(opt, channel, px, kind=None):
    """VlfParams from, in order: explicit --gamma1/--gamma2/--aA/--aR, --N1
    for a known channel (kind None or not universal), or the universal
    recipe of the metric kind."""
    params = _explicit_params(opt)
    if params is not None:
        return params
    if kind is None or not kind.universal:
        if opt["N1"] is None:
            raise VlfError("give --gamma1/--gamma2/--aA/--aR (with --M) "
                            "or --N1")
        return asymptotic_schedule(opt["N1"], channel, px, eps=opt["eps"])
    num_x, num_y = (1, 1) if kind.gaussian else channel.matrix.shape
    return universal_schedule(_require(opt, "M", "--M"), num_x, num_y,
                              _require(opt, "eps", "--eps"),
                              d=kind.schedule_d)


def _cmd_bound(opt):
    channel, px, spec = _resolve_channel(opt)
    params = _schedule(opt, channel, px)
    out = _commit(opt, _BOUND_HEADER)
    report = achievability_bound(params, channel, px)
    if not (math.isfinite(report.eps) and math.isfinite(report.n_avg)):
        raise VlfError("the bound is not finite: (M-1) e^-gamma1 overflows at "
                       f"--M 2^{params.log_m / LN2:g}, --gamma1 {params.gamma1:g}")
    _append_csv(out, _BOUND_HEADER,
                [_bound_row("thm1", spec, report.n_avg, report.eps,
                            report.log_m, report.rate, params)])
    print(
        f"thm1 bound @ {spec}: logM = {report.log_m:.6f} nats "
        f"({report.log_m / LN2:.2f} bits), eps = {report.eps:.2e}, "
        f"N = {report.n_avg:.6f}, rate = {report.rate / LN2:.6f} bits/use"
    )
    return 0


# Each sweep scheme maps (walk constants, capacity, eps, N) to its row's
# (eps, log M, rate in nats per use, schedule or None).  The solvers are
# looked up in this module at call time, so wrappers installed on its
# names see every call.


def _sweep_thm1(stats, cap, eps, n):
    params, report = optimize_params(stats, eps, n)
    return report.eps, report.log_m, report.rate, params


def _sweep_vlsf(stats, cap, eps, n):
    report = single_phase_bound(stats, eps, n)
    return report.eps, report.log_m, report.rate, None


def _sweep_converse(stats, cap, eps, n):
    log_m = converse_bound(cap, eps, n)
    return eps, log_m, log_m / n, None


_SCHEMES = {"thm1": _sweep_thm1, "vlsf": _sweep_vlsf,
            "converse": _sweep_converse}


def _cmd_sweep(opt):
    channel, px, spec = _resolve_channel(opt)
    eps = _require(opt, "eps", "--eps")
    grid = _require(opt, "N", "--N")
    schemes = [s.strip() for s in
               _require(opt, "schemes", "--schemes").split(",") if s.strip()]
    if not schemes:
        raise VlfError("--schemes names no scheme")
    for s in schemes:
        if s not in _SCHEMES:
            raise VlfError(f"unknown scheme {s!r} (use {', '.join(_SCHEMES)})")
        if schemes.count(s) > 1:
            raise VlfError(f"--schemes names {s!r} more than once")
    out = _commit(opt, _BOUND_HEADER)  # refuse before the sweep runs
    cap = (channel.capacity if isinstance(channel, GaussianChannel)
           else capacity(channel)[0])
    # only the solvers need the walk constants; a converse-only sweep must
    # not fail on a px (say 1,0) that gives the walk no drift
    stats = (bounds.channel_stats(channel, px) if set(schemes) - {"converse"}
             else None)
    rows = [_bound_row(scheme, spec, n_target,
                       *_SCHEMES[scheme](stats, cap, eps, n_target))
            for n_target in grid for scheme in schemes]
    _append_csv(out, _BOUND_HEADER, rows)
    print(
        f"sweep @ {spec}, eps = {eps:.2e}: {len(rows)} row(s) over "
        f"N grid of {len(grid)} point(s), schemes {','.join(schemes)}"
    )
    return 0


_SIM_HEADER = [
    "variant", "channel", "logM_nats", "gamma1", "gamma2", "aA", "aR",
    "eps0", "trials", "seed", "eps_hat", "eps_lo", "eps_hi",
    "n_hat", "n_lo", "n_hi", "power_hat", "censor_rate",
]


def _cmd_simulate(opt):
    channel, px, spec = _resolve_channel(opt)
    variant = _require(opt, "variant", "--variant")
    seed = _require(opt, "seed", "--seed")
    trials = _require(opt, "trials", "--trials")
    kind = metric_kind(variant, channel)
    params = _schedule(opt, channel, px, kind)
    given = _given(opt, n_max="n_max")
    if kind.universal:  # a known channel trains on nothing
        given.update(_given(opt, training_len="training", c2="c2"))
    cfg = SchemeConfig(variant=variant, channel=channel, px=px,
                       params=params, seed=seed, **given)
    workers = _given(opt, workers="workers")
    trace = opt["trace"]
    out = _commit(opt, _SIM_HEADER)  # refuse before the run
    rec = trial_records(cfg, trials, **workers)
    if trace:
        with open(trace, "w", encoding="utf-8") as fh:
            for i, row in enumerate(rec):
                outcome = TrialOutcome.from_record(row)._asdict()
                fh.write(json.dumps({"trial": i, **outcome}) + "\n")
    est = aggregate_records(cfg, rec)
    p = params
    row = [
        variant, spec, _fmt_rate(p.log_m), _fmt_rate(p.gamma1),
        _fmt_rate(p.gamma2), _fmt_rate(p.a_accept), _fmt_rate(p.a_reject),
        _fmt_prob(p.eps0), str(trials), str(seed),
        _fmt_prob(est.eps_hat), _fmt_prob(est.eps_lo), _fmt_prob(est.eps_hi),
        _fmt_rate(est.n_hat),
        _fmt_rate(est.n_lo) if not est.degenerate else "",
        _fmt_rate(est.n_hi) if not est.degenerate else "",
        _fmt_rate(est.power_hat) if est.power_hat is not None else "",
        _fmt_prob(est.censor_rate),
    ]
    _append_csv(out, _SIM_HEADER, [row])
    power = (
        f", power_hat = {est.power_hat:.6f}" if est.power_hat is not None
        else ""
    )
    print(
        f"{variant} @ {spec}: eps_hat = {est.eps_hat:.2e} "
        f"[{est.eps_lo:.2e}, {est.eps_hi:.2e}], n_hat = {est.n_hat:.6f}"
        f"{power}, censor_rate = {est.censor_rate:.2e}, "
        f"trials = {est.trials}"
    )
    return 0


_ORACLE_HEADER = ["n", "gamma", "exact", "bound", "ratio"]


def _cmd_oracle(opt):
    from .oracle import exact_mi_tail, mi_tail_bound

    channel, px, spec = _resolve_channel(opt)
    if not isinstance(channel, Dmc):
        raise VlfError("oracle needs a finite-alphabet channel")
    n = _require(opt, "n", "--n")
    grid = _require(opt, "gamma", "--gamma")
    out = _commit(opt, _ORACLE_HEADER)
    py = px @ channel.matrix
    k_exp, _d = tail_exponents(px.size, py.size)
    exact = exact_mi_tail(n, px, py, np.asarray(grid, dtype=float))
    rows, ratios = [], []
    for g, e in zip(grid, exact):
        b = mi_tail_bound(n, g, k_exp)
        if b > 0:  # an underflowed bound leaves the ratio cell empty
            ratios.append(e / b)
        rows.append([str(n), _fmt_rate(g), _fmt_prob(e), _fmt_prob(b),
                     _fmt_rate(ratios[-1]) if b > 0 else ""])
    _append_csv(out, _ORACLE_HEADER, rows)
    worst = _fmt_rate(max(ratios)) if ratios else "undefined"
    print(
        f"oracle @ {spec}, n = {n}: {len(rows)} threshold(s), "
        f"worst exact/bound ratio = {worst}"
    )
    return 0


_COMMANDS = {
    "bound": _cmd_bound,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "oracle": _cmd_oracle,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.verb is None:
            raise VlfError(f"missing verb ({', '.join(_COMMANDS)})")
        opt = _cast_options(args, args.verb)
        return _COMMANDS[args.verb](opt)
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (VlfError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
