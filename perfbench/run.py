"""Benchmark harness for vlf: four workloads, end to end and layer by layer.

One workload, one seed:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Every workload, on the default and the second seed, plus one traced run:

    python3 perfbench/run.py --all [--seconds S]

Each workload is a closed loop with one client: the next timed call starts
when the previous one ends, until ``--seconds`` (default: run_seconds of
BENCHMARK.json) have passed.  Each unit's time is calibrated to a
reference machine speed by probes taken during the call (see
calibration.py).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  A full record (environment, every
call, every check, calibrated and raw figures) goes to ``.perfbench_out/``,
and a traced run also writes its spans there.
"""

import os

# Keep numpy's thread pools out of the way of the pool workers.  This holds
# for this process and its children only.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from multiprocessing import active_children  # noqa: E402

from calibration import PROBE_PERIOD_S, warm_probe  # noqa: E402
from tracing import Tracer, summarize, tail  # noqa: E402
from workloads import WORKLOADS, use_source_tree  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SCRATCH = os.path.join(OUT_DIR, "scratch")
SETUP_REPEATS = 5
# A traced run replays at most this many of its units under the tracer,
# which keeps the span file and the run's length bounded.
TRACED_UNITS = 5

with open(os.path.join(HERE, "interactions.json"), encoding="utf-8") as _fh:
    SEEDS = json.load(_fh)["seeds"]


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _declared_metrics():
    spec = _benchmark_spec()
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# ---------------------------------------------------------------------------
# environment record


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout, or None when it is not a git repository; git
    is kept from searching the directories above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment():
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "omp_threads": os.environ["OMP_NUM_THREADS"],
    }


# ---------------------------------------------------------------------------
# one workload


def _median(values):
    return statistics.median(values) if values else 0.0


def run_setup_probe(name):
    """The probe's own report, with ``setup_s``: the wall time from spawning
    a fresh interpreter to the probe's ready line, less the time of the
    probe's calibration probes, scaled by the slowdown they measured; None
    when the probe failed."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), name, SCRATCH]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    if code != 0 or not ready.startswith("{"):
        return None
    info = json.loads(ready)
    raw_setup_s = ready_s - (info["wall_s"] - info["raw_s"])
    info["raw_setup_s"] = raw_setup_s
    info["setup_s"] = raw_setup_s * info["calibrated_s"] / info["raw_s"]
    return info


def _rss_kb(pid):
    """Resident set of a live process in KiB; 0 once it has gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


class RssSampler(threading.Thread):
    """Peak of the summed resident set of this process and its live
    multiprocessing children (the pool workers), sampled every 20 ms."""

    def __init__(self):
        super().__init__(daemon=True)
        self.peak_kb = 0
        self._stop_event = threading.Event()

    def run(self):
        while not self._stop_event.wait(0.02):
            total = _rss_kb(os.getpid()) + sum(
                _rss_kb(p.pid) for p in active_children())
            self.peak_kb = max(self.peak_kb, total)

    def stop(self):
        self._stop_event.set()
        self.join()


class Run:
    """Operations attempted and failed, with the names of failed checks."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.attempted = 0
        self.failures = []

    def setup(self, repeats):
        """Set-up probes, one fresh interpreter each."""
        probes = []
        for _ in range(repeats):
            self.attempted += 1
            info = run_setup_probe(self.workload.name)
            if info is None:
                self.failures.append("setup probe exited with an error")
                continue
            probes.append(info)
        return probes

    def call(self, ctx, k, period):
        """One unit of work, probing the machine's speed every ``period``
        seconds; None when it raised."""
        self.attempted += 1
        try:
            unit = self.workload.unit(ctx, self.seed, k, period)
        except Exception:  # the run reports the failure and stops calling
            traceback.print_exc()
            self.failures.append(f"unit {k} raised")
            return None
        for check, ok in unit.checks.items():
            if not ok:
                self.failures.append(f"unit {k}: check {check} failed")
        return unit

    def loop(self, ctx, seconds):
        """The closed loop: units 1, 2, ... until ``seconds`` have passed."""
        units = []
        warm_probe()
        start = time.perf_counter()
        while not units or time.perf_counter() - start < seconds:
            unit = self.call(ctx, len(units) + 1, PROBE_PERIOD_S)
            if unit is None:
                break
            units.append(unit)
        return units

    def replay_traced(self, ctx, units, tracer):
        """Units 1..len(units) again, each once untraced and then once under
        the tracer, so that the two wall times of a pair are taken at nearly
        the same machine speed; each traced unit must give the same estimate
        as its run in the loop.  Probes run only around each call, so that no
        probe time falls inside a span.  Returns the untraced and the traced
        units."""
        plain, traced = [], []
        for k, untraced in enumerate(units, start=1):
            before = self.call(ctx, k, None)
            tracer.install()
            try:
                unit = self.call(ctx, k, None)
            finally:
                tracer.uninstall()
            if before is None or unit is None:
                break
            if unit.estimate != untraced.estimate:
                self.failures.append(f"unit {k}: traced estimate differs")
            plain.append(before)
            traced.append(unit)
        tracer.collect_workers()
        return plain, traced

    def pooled_checks(self, ctx, units):
        """The statistical checks over every unit, as one operation."""
        self.attempted += 1
        checks = self.workload.pooled_checks(ctx, units)
        bad = [check for check, ok in checks.items() if not ok]
        if bad:
            self.failures.append(f"pooled checks {bad} failed")
        return checks


def layer_metrics(dumps, probes, untraced, traced):
    """Per-layer metrics of the traced units.  Counts and summed times are
    per unit of work; percentiles and shares pool every traced call."""
    durations, self_s, counts, sums = summarize(dumps)
    per_unit = 1.0 / len(traced)

    def total(name):
        return sum(durations.get(name, ()))

    def calls(name):
        return len(durations.get(name, ())) * per_unit

    def p50(name):
        return _median(durations.get(name, ()))

    trials = durations.get("engine.simulate_trial", [])
    tail_s, tail_pct = tail(trials)
    trial_s = total("engine.simulate_trial")
    race_s = sum(total(n) for n in durations
                 if n.startswith("ensemble.") and n.endswith("race"))
    races = counts["ensemble.races"]
    lambdas = counts["ensemble.poisson_crosser_rate"]
    cli_s = total("cli.main")
    return {
        "engine.trial_s_p50": p50("engine.simulate_trial"),
        "engine.trial_s_tail": tail_s,
        "engine.trial_tail_pct": tail_pct,
        "engine.trials": len(trials),
        "engine.self_s": self_s["engine.simulate_trial"] * per_unit,
        "engine.chunks": calls("engine._run_chunk"),
        "ensemble.race_s": race_s * per_unit,
        "ensemble.race_calls": races * per_unit,
        "ensemble.race_share": race_s / trial_s if trial_s else 0.0,
        "ensemble.race_hit_ratio":
            counts["ensemble.race_hits"] / races if races else 0.0,
        "ensemble.lambda_mean":
            sums["ensemble.lambda"] / lambdas if lambdas else 0.0,
        "ensemble.absorption_builds": calls("ensemble.absorption_build"),
        "ensemble.absorption_build_s":
            total("ensemble.absorption_build") * per_unit,
        "bounds.optimize_s": p50("bounds.optimize_params"),
        "bounds.optimize_calls": calls("bounds.optimize_params"),
        "bounds.optimize_share":
            total("bounds.optimize_params") / cli_s if cli_s else 0.0,
        "bounds.single_phase_s": p50("bounds.single_phase_bound"),
        "bounds.objective_evals":
            counts["bounds.objective_evals"] * per_unit,
        "bounds.channel_stats_calls": calls("bounds.channel_stats"),
        "bounds.channel_stats_s": total("bounds.channel_stats") * per_unit,
        "bounds.schedule_s": _median([p["schedule_s"] for p in probes]),
        "channel.capacity_calls": calls("channel.capacity"),
        "channel.capacity_s": total("channel.capacity") * per_unit,
        "empirical.count_log_table_calls": calls("empirical.count_log_table"),
        "empirical.count_log_table_s":
            total("empirical.count_log_table") * per_unit,
        "cli.self_s": self_s["cli.main"] * per_unit,
        "vlf.import_s": _median([p["import_s"] for p in probes]),
        "pool.parallel_speedup": _median(
            [u.extra["parallel_speedup"] for u in untraced
             if "parallel_speedup" in u.extra]),
        "trace.overhead":
            sum(u.seconds for u in traced) / sum(u.seconds for u in untraced),
    }


def run_workload(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    os.makedirs(SCRATCH, exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": environment(),
              "loadavg_1m_before": os.getloadavg()[0]}
    run = Run(workload, seed)
    sampler = RssSampler()
    sampler.start()
    try:
        probes = run.setup(SETUP_REPEATS)
        ctx = workload.prepare(SCRATCH)
        workload.warm(ctx)
        units = run.loop(ctx, seconds)
        pooled = run.pooled_checks(ctx, units) if units else {}
        if trace:
            replayed = units[:TRACED_UNITS]
            tracer = Tracer(SCRATCH)
            plain, traced = run.replay_traced(ctx, replayed, tracer)
    finally:
        sampler.stop()
    # The set-up probes run one at a time and are not multiprocessing
    # children, so their peaks come from RUSAGE_CHILDREN.
    rss_kb = max(sampler.peak_kb,
                 resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    record["loadavg_1m_after"] = os.getloadavg()[0]

    e2e_units, layer_units = _declared_metrics()
    if not trace:
        declared = e2e_units
        # No metrics when the first unit failed: the failures and the JSON
        # line are still reported.
        metrics = {} if not units or not probes else {
            "ops_per_s": _median([u.ops / u.calibrated_s for u in units]),
            "setup_s": _median([p["setup_s"] for p in probes]),
            "peak_rss_mb": rss_kb / 1024.0,
        }
        if metrics:
            record["raw_ops_per_s"] = _median([u.ops / u.seconds
                                               for u in units])
        speedups = [u.extra["parallel_speedup"] for u in units
                    if "parallel_speedup" in u.extra]
        if speedups:
            record["parallel_speedup"] = _median(speedups)
    else:
        declared = layer_units
        metrics = {}
        if traced and len(traced) == len(replayed):
            metrics = layer_metrics(tracer.all_dumps(), probes, plain,
                                    traced)
            spans_path = os.path.join(OUT_DIR, f"{name}-seed{seed}-spans.json")
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump(tracer.all_dumps(), fh)
            record["spans_file"] = spans_path
    if metrics and set(metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(declared))} "
                           f"disagree with BENCHMARK.json")

    def unit_record(u):
        return {"ops": u.ops, "seconds": u.seconds,
                "calibrated_s": u.calibrated_s, "checks": u.checks, **u.extra}

    record["setup_probes"] = probes
    record["units"] = [unit_record(u) for u in units]
    if trace:
        record["replayed_units"] = [unit_record(u) for u in plain]
        record["traced_units"] = [unit_record(u) for u in traced]
    record["pooled_checks"] = pooled
    record["failures"] = run.failures
    result = {
        "correct": not run.failures and bool(units),
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {m: {"value": v, "unit": declared[m]}
                    for m, v in metrics.items()},
    }
    record["result"] = result
    with open(os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    _report(record, workload.ops_name)
    print(json.dumps(result))


def _report(record, ops_name):
    env = record["environment"]
    print(f"# {record['workload']} seed={record['seed']} "
          f"trace={record['trace']}: nproc={env['nproc']} cpu={env['cpu']!r} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"commit={env['commit']} load1m={record['loadavg_1m_before']:.2f}"
          f"->{record['loadavg_1m_after']:.2f}")
    units = record["units"]
    print(f"# {len(units)} unit(s) of work, {sum(u['ops'] for u in units)} "
          f"{ops_name}, {len(record['setup_probes'])} set-up probe(s)")
    for failure in record["failures"]:
        print(f"# FAILED: {failure}")
    metrics = record["result"]["metrics"]
    if "ops_per_s" in metrics:
        print(f"# {ops_name}_per_s = {metrics['ops_per_s']['value']:.6g} 1/s")
    if "raw_ops_per_s" in record:
        print(f"# raw (uncalibrated): {ops_name}_per_s = "
              f"{record['raw_ops_per_s']:.6g} 1/s")
    if "parallel_speedup" in record:
        print(f"# parallel_speedup = {record['parallel_speedup']:.6g} x "
              f"(workers=2 over workers=1)")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")


# ---------------------------------------------------------------------------
# every workload


def run_all(seconds):
    """Each workload at the default and the second seed, then traced once;
    every run in its own process, so no peak memory carries over."""
    plan = [(name, seed, 0) for name in WORKLOADS for seed in
            (SEEDS["default"], SEEDS["second"])]
    plan += [(name, SEEDS["default"], 1) for name in WORKLOADS]
    summary = []
    for name, seed, trace in plan:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("".join(f"{ln}\n" for ln in lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            sys.stdout.write(proc.stderr)
            result = {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}
        summary.append({"workload": name, "seed": seed, "trace": trace,
                        **result})
    ok = all(r["correct"] and r["failed"] == 0 for r in summary)
    print(json.dumps({"correct": ok,
                      "attempted": sum(r["attempted"] for r in summary),
                      "failed": sum(r["failed"] for r in summary),
                      "runs": summary}))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=SEEDS["default"])
    parser.add_argument("--seconds", type=float,
                        default=_benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_source_tree(ROOT)
    if args.all:
        return run_all(args.seconds)
    if args.workload is None:
        parser.error("give --workload NAME or --all")
    run_workload(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
