"""Outside-in layer trace: spans and counters recorded around vlf calls.

``Tracer.install()`` replaces module attributes that vlf looks up at call
time with thin wrappers, and ``uninstall()`` puts the originals back.
Nothing under ``src/vlf`` changes.  Spans (name, start, end, parent) are
kept in memory and written out at the end of the run.

Pool workers are forked from the traced process, so they inherit the
wrappers.  ``engine._run_chunk`` is wrapped by a module-level function that
pool workers can unpickle; in a worker it writes that chunk's spans and
counters to a file in the trace directory, which the parent merges.
"""

from __future__ import annotations

import functools
import glob
import json
import multiprocessing
import os
import statistics
import time
from collections import Counter, defaultdict

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

# Helpers that the races dispatched from the engine call in turn; wrapping
# them too would count each race twice.
_RACE_HELPERS = ("literal_additive_race", "ensemble_additive_race")

_ACTIVE = None  # the installed Tracer of this process, for pool workers


class Recorder:
    """Spans and counters of one process."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self.sums = Counter()

    def open(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def dump(self):
        return {"pid": self.pid, "spans": self.spans,
                "counts": dict(self.counts), "sums": dict(self.sums)}


def _span_wrapper(rec_of, name, fn, on_result=None):
    @functools.wraps(fn)
    def inner(*args, **kwargs):
        rec = rec_of()
        idx = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if on_result is not None:
            on_result(rec, out)
        return out

    return inner


def _race_result(rec, out):
    rec.counts["ensemble.races"] += 1
    if out.t1 is not None:
        rec.counts["ensemble.race_hits"] += 1


def _lambda_result(rec, out):
    rec.counts["ensemble.poisson_crosser_rate"] += 1
    rec.sums["ensemble.lambda"] += out


class Tracer:
    """Installs the wrappers; ``rec`` holds this process's spans."""

    def __init__(self, trace_dir):
        self.trace_dir = trace_dir
        self.rec = Recorder()
        self._saved = []
        self.worker_dumps = []

    def _recorder(self):
        if self.rec.pid != os.getpid():  # first call in a forked worker
            self.rec = Recorder()
        return self.rec

    def _patch(self, module, attr, new):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def _wrap(self, module, attr, name, on_result=None):
        self._patch(module, attr, _span_wrapper(
            self._recorder, name, getattr(module, attr), on_result))

    def install(self):
        global _ACTIVE
        from vlf import bounds, cli, engine, ensemble

        self._wrap(engine, "simulate_trial", "engine.simulate_trial")
        self._wrap(engine, "count_log_table", "empirical.count_log_table")
        for attr in dir(ensemble):
            if attr.endswith("_race") and attr not in _RACE_HELPERS:
                self._wrap(ensemble, attr, f"ensemble.{attr}", _race_result)
        self._patch(ensemble, "poisson_crosser_rate", _counting_wrapper(
            self._recorder, ensemble.poisson_crosser_rate, _lambda_result))
        self._patch(ensemble, "FlipEntropyAbsorption",
                    self._absorption_class(ensemble.FlipEntropyAbsorption))
        self._wrap(bounds, "channel_stats", "bounds.channel_stats")
        self._patch(bounds, "scaled_m_exp", _counting_wrapper(
            self._recorder, bounds.scaled_m_exp, _objective_result))
        self._wrap(cli, "optimize_params", "bounds.optimize_params")
        self._wrap(cli, "single_phase_bound", "bounds.single_phase_bound")
        self._wrap(cli, "capacity", "channel.capacity")
        self._wrap(cli, "main", "cli.main")
        self._patch(engine, "_run_chunk", traced_run_chunk)
        self._orig_run_chunk = self._saved[-1][2]
        os.environ[TRACE_DIR_ENV] = self.trace_dir
        _ACTIVE = self

    def uninstall(self):
        global _ACTIVE
        for module, attr, old in reversed(self._saved):
            setattr(module, attr, old)
        self._saved.clear()
        os.environ.pop(TRACE_DIR_ENV, None)
        _ACTIVE = None

    def _absorption_class(self, base):
        recorder = self._recorder

        class TracedAbsorption(base):
            def __init__(self, *args, **kwargs):
                rec = recorder()
                idx = rec.open("ensemble.absorption_build")
                try:
                    super().__init__(*args, **kwargs)
                finally:
                    rec.close(idx)

            def race(self, *args, **kwargs):
                rec = recorder()
                idx = rec.open("ensemble.FlipEntropyAbsorption.race")
                try:
                    out = super().race(*args, **kwargs)
                finally:
                    rec.close(idx)
                _race_result(rec, out)
                return out

        return TracedAbsorption

    def collect_workers(self):
        """Merge the chunk dumps that pool workers wrote, then delete them."""
        for path in sorted(glob.glob(os.path.join(self.trace_dir,
                                                  "worker-*.json"))):
            with open(path, encoding="utf-8") as fh:
                self.worker_dumps.append(json.load(fh))
            os.remove(path)

    def all_dumps(self):
        return [self.rec.dump()] + self.worker_dumps


def _counting_wrapper(rec_of, fn, on_result):
    """Counter-only wrapper for calls too frequent to carry a span."""

    @functools.wraps(fn)
    def inner(*args, **kwargs):
        out = fn(*args, **kwargs)
        on_result(rec_of(), out)
        return out

    return inner


def _objective_result(rec, out):
    rec.counts["bounds.objective_evals"] += 1


def traced_run_chunk(cfg, lo, hi):
    """Stand-in for ``engine._run_chunk``: a span around the original and,
    in a pool worker, a dump of the chunk's spans and counters."""
    tracer = _ACTIVE
    if tracer is None:  # a worker that did not inherit the parent's state
        tracer = Tracer(os.environ[TRACE_DIR_ENV])
        tracer.install()
    rec = tracer._recorder()
    idx = rec.open("engine._run_chunk")
    try:
        out = tracer._orig_run_chunk(cfg, lo, hi)
    finally:
        rec.close(idx)
    if multiprocessing.parent_process() is not None:
        path = os.path.join(tracer.trace_dir, f"worker-{rec.pid}-{lo}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rec.dump(), fh)
        tracer.rec = Recorder()
    return out


def summarize(dumps):
    """Durations and total self time per span name, plus merged counters.

    A span's self time is its duration minus that of its direct children.
    """
    durations = defaultdict(list)
    self_s = defaultdict(float)
    counts, sums = Counter(), Counter()
    for dump in dumps:
        spans = dump["spans"]
        in_children = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                in_children[parent] += end - start
        for (name, start, end, _), inner in zip(spans, in_children):
            durations[name].append(end - start)
            self_s[name] += end - start - inner
        counts.update(dump["counts"])
        sums.update(dump["sums"])
    return durations, self_s, counts, sums


def tail(values):
    """(value, percentile) at the highest percentile of a fixed ladder that
    leaves at least ten samples beyond it; (max, 100) below 20 samples."""
    n = len(values)
    if n == 0:
        return 0.0, 0.0
    pct = 0.0
    for p in (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99):
        if n * (1.0 - p / 100.0) >= 10.0:
            pct = p
    if pct == 0.0:
        return max(values), 100.0
    cuts = statistics.quantiles(values, n=100_000, method="inclusive")
    return cuts[int(round(pct * 1000)) - 1], pct
