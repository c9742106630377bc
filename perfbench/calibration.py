"""Machine-speed calibration for the timed units of work.

The machine this benchmark was built on (a 2-core KVM guest) runs the same
code up to 1.8x slower, in spells of a second to minutes, when other
tenants load the host; a 20-point ``vlf sweep`` took from 7.4 s to 12.9 s
there.  ``timed_calibrated`` times one call and gives both its raw wall time
and its time at a reference speed.  It runs a short fixed probe of work
just before the call, every PROBE_PERIOD_S during it (from a SIGALRM
handler, so in the calling thread, between the program's bytecodes) and
just after it.  The wall time between two probes is divided by the mean of
their two CPU times over REFERENCE_PROBE_S; the probes' own time is left
out of both figures.  CPU time, not wall time, because during a workers=2
call the probe shares the two cores with the pool workers and waits for
one.  The probe is the harness's own code, so no change to vlf can move it.
The set-up probe (setup_probe.py) calibrates a fresh interpreter's set-up
the same way from inside it.
"""

import math
import signal
import time

# Median CPU time of one probe on the reference machine (2-core Xeon, Python
# 3.11.7) in its faster spells.  Only a scale: calibrated times are seconds
# of that machine.
REFERENCE_PROBE_S = 0.004
PROBE_PERIOD_S = 0.25


def _tail_term(x, g):
    """(e^x - 1) e^{-g} written the way the bounds code writes its terms."""
    t = x - g
    if t > 700.0:
        return math.inf
    return math.exp(t) - math.exp(-min(g, 700.0))


def probe():
    """Wall-clock start and end, and CPU time, of one run of a fixed mix of
    the kinds of interpreter work vlf does: a bare loop, scalar float math
    through small functions (the bounds optimizer), and small dicts, tuples
    and attribute look-ups (module imports, and the per-call overhead of the
    small numpy calls of the engine and the count DP).  Pure Python, so that
    the set-up probe can run it before numpy is imported."""
    t0, c0 = time.perf_counter(), time.thread_time()
    s = 0
    for i in range(10_000):
        s += i * i
    acc = 0.0
    for i in range(4_000):
        acc += _tail_term(i * 1e-3, 3.0) if acc < 1e300 else 0.0
    table = {}
    for i in range(5_000):
        key = (i & 63, str(i & 7))
        table[key] = table.get(key, 0) + len(key[1])
    return t0, time.perf_counter(), time.thread_time() - c0


def warm_probe():
    """The first runs of the probe are slower, while the interpreter
    specializes its bytecode; run it a few times before timing."""
    for _ in range(3):
        probe()


def timed_calibrated(period, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, its raw wall time and its calibrated time,
    both without the probes.  ``period=None`` probes only before and after
    the call, which keeps probe time out of a traced run's spans."""
    probes = [probe()]

    def on_alarm(signum, frame):
        probes.append(probe())
        signal.setitimer(signal.ITIMER_REAL, period)

    if period:
        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, period)
    try:
        out = fn(*args, **kwargs)
    finally:
        if period:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    probes.append(probe())
    raw = calibrated = 0.0
    for (_, e0, c0), (s1, _, c1) in zip(probes, probes[1:]):
        slowdown = (c0 + c1) / (2 * REFERENCE_PROBE_S)
        raw += s1 - e0
        calibrated += (s1 - e0) / slowdown
    return out, raw, calibrated
