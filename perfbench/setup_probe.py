"""Set-up probe: one fresh interpreter, from start to the point where a
workload's timed calls could begin.  It prints one JSON line and exits.

    python3 perfbench/setup_probe.py WORKLOAD SCRATCH_DIR

The parent times it from spawn to that line.  The line carries the time of
``import vlf`` and of the schedule resolution, the raw and calibrated
times of the set-up measured in here, and the wall time from the first
calibration probe to the line (see calibration.py); the parent uses them
to take the probes out of its own figure and to calibrate it.
"""

import importlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calibration import (PROBE_PERIOD_S, timed_calibrated,  # noqa: E402
                         warm_probe)
from workloads import WORKLOADS, use_source_tree  # noqa: E402


def _prepare_and_warm(workload, scratch):
    ctx = workload.prepare(scratch)
    workload.warm(ctx)
    return ctx


def main():
    name, scratch = sys.argv[1], sys.argv[2]
    use_source_tree(os.path.dirname(HERE))
    t0 = time.perf_counter()
    warm_probe()
    _, import_s, import_cal = timed_calibrated(
        PROBE_PERIOD_S, importlib.import_module, "vlf")
    ctx, rest_s, rest_cal = timed_calibrated(
        PROBE_PERIOD_S, _prepare_and_warm, WORKLOADS[name], scratch)
    print(json.dumps({"import_s": import_s,
                      "schedule_s": getattr(ctx, "schedule_s", 0.0),
                      "raw_s": import_s + rest_s,
                      "calibrated_s": import_cal + rest_cal,
                      "wall_s": time.perf_counter() - t0}), flush=True)


if __name__ == "__main__":
    main()
