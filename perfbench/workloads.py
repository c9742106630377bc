"""The four benchmark workloads, driven through vlf's public API.

Each workload has four parts:

* ``prepare(scratch)`` resolves the schedule and builds what every timed
  call needs.  It runs once per process and is part of set-up;
* ``warm(ctx)`` is the rest of set-up: a one-trial ``run_monte_carlo`` for
  the Monte Carlo workloads, the import of ``vlf.cli`` and the channel parse
  for the sweep;
* ``unit(ctx, seed, k, period)`` is the k-th unit of work of the closed
  loop.  It times its call into vlf with ``timed_calibrated``, probing the
  machine's speed every ``period`` seconds (only around the call when
  ``period`` is None), and returns a ``Unit`` with the operations done, the
  time taken and the checks that hold call by call;
* ``pooled_checks(ctx, units)`` makes the statistical checks on all units of
  a run together, at a size where sampling noise alone cannot fail them.

``vlf`` is imported inside the functions, never at module import, so the
set-up probe can time ``import vlf`` from a fresh interpreter.
"""

from __future__ import annotations

import csv
import math
import os
import sys
import time
from dataclasses import dataclass, field

from calibration import timed_calibrated

LN2 = math.log(2.0)
CHANNEL = "bsc:0.11"
UNIFORM = (0.5, 0.5)
TRAINING_LEN = 100_000
EPS_TARGET = 0.05
_Z95 = 1.959963984540054


def use_source_tree(root):
    """Put ``<root>/src`` first on the import path; exit if vlf is not there,
    so that an installed copy is never measured instead."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "vlf", "__init__.py")):
        raise SystemExit(f"perfbench: no vlf source tree under {src}")
    sys.path.insert(0, src)


def timed(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and its wall time in seconds."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


@dataclass
class Unit:
    """One unit of work: ``ops`` operations done in ``seconds`` of the timed
    call, which take ``calibrated_s`` at the reference speed."""

    ops: int
    seconds: float
    calibrated_s: float
    checks: dict
    extra: dict = field(default_factory=dict)
    estimate: object = None


def unit_seed(seed, k):
    """Scheme seed of the k-th unit of a run, derived only from --seed."""
    return seed * 10_000 + k


# ---------------------------------------------------------------------------
# Monte Carlo workloads


@dataclass
class McContext:
    variant: str
    channel: object
    params: object
    trials: int
    training_len: int = 0
    bound: object = None
    schedule_s: float = 0.0

    def config(self, seed):
        from vlf import SchemeConfig

        return SchemeConfig(
            variant=self.variant, channel=self.channel, px=UNIFORM,
            params=self.params, training_len=self.training_len, seed=seed,
        )


def _prepare_known(trials):
    import vlf

    ch = vlf.parse_channel_spec(CHANNEL)
    t0 = time.perf_counter()
    params = vlf.asymptotic_schedule_for_message_count(100 * LN2, ch, UNIFORM)
    schedule_s = time.perf_counter() - t0
    bound = vlf.achievability_bound(params, ch, UNIFORM)
    return McContext("vlf_dmc", ch, params, trials, bound=bound,
                     schedule_s=schedule_s)


def _prepare_universal(variant, d, trials):
    import vlf

    ch = vlf.parse_channel_spec(CHANNEL)
    t0 = time.perf_counter()
    params = vlf.universal_schedule(60 * LN2, 2, 2, EPS_TARGET, d=d)
    schedule_s = time.perf_counter() - t0
    return McContext(variant, ch, params, trials, training_len=TRAINING_LEN,
                     schedule_s=schedule_s)


def _warm_mc(ctx):
    from vlf import run_monte_carlo

    run_monte_carlo(ctx.config(unit_seed(0, 0)), 1)


def _unit_mc(ctx, seed, k, period):
    from vlf import run_monte_carlo

    est, t, cal = timed_calibrated(period, run_monte_carlo,
                                   ctx.config(unit_seed(seed, k)), ctx.trials)
    checks = {"censor_rate==0": est.censor_rate == 0.0,
              "trials": est.trials == ctx.trials}
    return Unit(ctx.trials, t, cal, checks, estimate=est)


def _unit_pool(ctx, seed, k, period):
    """workers=2, the timed call, then workers=1 on the same config: the
    pair gives the determinism check and the parallel speed-up."""
    from vlf import run_monte_carlo

    cfg = ctx.config(unit_seed(seed, k))
    est2, t2, cal = timed_calibrated(period, run_monte_carlo, cfg, ctx.trials,
                                     workers=2)
    est1, t1 = timed(run_monte_carlo, cfg, ctx.trials, workers=1)
    checks = {"workers2==workers1": est2 == est1,
              "trials": est2.trials == ctx.trials}
    return Unit(ctx.trials, t2, cal, checks,
                extra={"workers1_s": t1, "parallel_speedup": t1 / t2},
                estimate=est2)


@dataclass(frozen=True)
class Pooled:
    """Error count and length statistics of several McEstimates together."""

    trials: int
    errors: int
    n_mean: float
    n_sd: float

    @classmethod
    def of(cls, estimates):
        trials = sum(e.trials for e in estimates)
        errors = sum(round(e.eps_hat * e.trials) for e in estimates)
        n_mean = sum(e.n_hat * e.trials for e in estimates) / trials
        # McEstimate's n interval is n_hat +- z sd / sqrt(trials)
        ss = sum((e.trials - 1) * ((e.n_hi - e.n_hat) * math.sqrt(e.trials)
                                   / _Z95) ** 2
                 + e.trials * (e.n_hat - n_mean) ** 2 for e in estimates)
        return cls(trials, errors, n_mean, math.sqrt(ss / (trials - 1)))

    def wilson(self):
        """95% Wilson interval of the error rate, as vlf computes it."""
        n, p = self.trials, self.errors / self.trials
        z2 = _Z95 * _Z95
        center = (p + z2 / (2 * n)) / (1 + z2 / n)
        half = _Z95 * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / (1 + z2 / n)
        lo = 0.0 if self.errors == 0 else max(0.0, center - half)
        hi = 1.0 if self.errors == n else min(1.0, center + half)
        return lo, hi

    @property
    def n_hi(self):
        return self.n_mean + _Z95 * self.n_sd / math.sqrt(self.trials)


def _pooled_known(ctx, units):
    pooled = Pooled.of([u.estimate for u in units])
    return {"eps_hi<=bound.eps": pooled.wilson()[1] <= ctx.bound.eps,
            "n_hi<=bound.n_avg": pooled.n_hi <= ctx.bound.n_avg}


def _pooled_universal(ctx, units):
    pooled = Pooled.of([u.estimate for u in units])
    return {"eps_lo<=0.05": pooled.wilson()[0] <= EPS_TARGET}


# ---------------------------------------------------------------------------
# bounds sweep through the command line


@dataclass
class SweepContext:
    scratch: str
    grid: tuple = tuple(range(200, 4001, 200))
    schemes: tuple = ("thm1", "vlsf", "converse")

    def argv(self, out):
        return ["sweep", "--channel", CHANNEL, "--eps", "1e-3",
                "--N", "200:4000:200", "--schemes", ",".join(self.schemes),
                "--out", out]


def _prepare_sweep(scratch):
    # The sweep has no random input: every seed runs the same grid.
    return SweepContext(scratch)


def _warm_sweep(ctx):
    from vlf import cli  # noqa: F401  (the import is the set-up being timed)
    from vlf import parse_channel_spec

    parse_channel_spec(CHANNEL)


def sweep_checks(rows, grid, schemes):
    """Named checks on the sweep CSV: one row per (N, scheme), the rate
    ordering vlsf < thm1 <= converse at every N, and thm1 increasing in N."""
    rate = {(r["scheme"], float(r["N"])): float(r["rate_bits_per_use"])
            for r in rows}
    ns = [float(n) for n in grid]
    thm1 = [rate.get(("thm1", n), math.nan) for n in ns]
    return {
        "rows": len(rows) == len(grid) * len(schemes) == len(rate),
        "vlsf<thm1": all(rate.get(("vlsf", n), math.inf) < t
                         for n, t in zip(ns, thm1)),
        "thm1<=converse": all(t <= rate.get(("converse", n), -math.inf)
                              for n, t in zip(ns, thm1)),
        "thm1_increasing": all(a < b for a, b in zip(thm1, thm1[1:])),
    }


def _unit_sweep(ctx, seed, k, period):
    """One ``vlf sweep --N 200:4000:200`` call, as a user runs it."""
    from vlf import cli

    out = os.path.join(ctx.scratch, f"sweep-{os.getpid()}-{seed}-{k}.csv")
    if os.path.exists(out):  # the sweep appends; start from an empty file
        os.remove(out)
    try:
        code, t, cal = timed_calibrated(period, cli.main, ctx.argv(out))
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    finally:
        if os.path.exists(out):
            os.remove(out)
    checks = {"exit_code==0": code == 0}
    checks.update(sweep_checks(rows, ctx.grid, ctx.schemes))
    return Unit(len(rows), t, cal, checks)


def _no_pooled_checks(ctx, units):
    return {}


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: object  # scratch dir -> ctx
    warm: object  # ctx -> None
    unit: object  # (ctx, seed, k, probe period) -> Unit
    pooled_checks: object  # (ctx, [Unit]) -> {check name: bool}
    ops_name: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc_known_m2e100", lambda s: _prepare_known(4000),
                 _warm_mc, _unit_mc, _pooled_known, "trials"),
        Workload("mc_universal_dp",
                 lambda s: _prepare_universal("uvlf_dmc", 1.0, 40),
                 _warm_mc, _unit_mc, _pooled_universal, "trials"),
        Workload("sweep_bsc", _prepare_sweep, _warm_sweep, _unit_sweep,
                 _no_pooled_checks, "rows"),
        Workload("mc_pool_bsc",
                 lambda s: _prepare_universal("uvlf_bsc", 0.5, 2000),
                 _warm_mc, _unit_pool, _pooled_universal, "trials"),
    )
}
