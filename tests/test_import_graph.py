"""Which paths load SciPy: only the Gaussian walk constants and the exact
oracles import it, so a run that calls neither, a sweep on a DMC among them,
must not pay for its import."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_PROBE = r"""
import json, math, os, sys

def scipy_modules(prefix="scipy"):
    return sorted(m for m in sys.modules
                  if m == prefix or m.startswith(prefix + "."))

seen = {}
import vlf
from vlf import cli
seen["import"] = scipy_modules()

ch = vlf.bsc(0.11)
px = (0.5, 0.5)
known = vlf.asymptotic_schedule_for_message_count(20 * math.log(2), ch, px)
universal = vlf.universal_schedule(20 * math.log(2), 2, 2, 0.2)
seen["schedules"] = scipy_modules()

for variant, params, training in (("vlf_dmc", known, 0),
                                  ("uvlf_dmc", universal, 100)):
    cfg = vlf.SchemeConfig(variant=variant, channel=ch, px=px, params=params,
                           training_len=training, seed=1)
    vlf.run_monte_carlo(cfg, 1)
seen["run_monte_carlo"] = scipy_modules()

out_dir = sys.argv[1]
code = cli.main(["simulate", "--variant", "uvlf_bsc", "--channel", "bsc:0.11",
                 "--M", "2^20", "--eps", "0.2", "--training", "100",
                 "--trials", "2", "--seed", "1",
                 "--out", os.path.join(out_dir, "sim.csv")])
seen["simulate"] = scipy_modules() if code == 0 else ["exit %d" % code]

code = cli.main(["sweep", "--channel", "bsc:0.11", "--eps", "1e-3",
                 "--N", "200:400:200", "--schemes", "thm1,vlsf,converse",
                 "--out", os.path.join(out_dir, "sweep.csv")])
seen["sweep"] = scipy_modules() if code == 0 else ["exit %d" % code]
print(json.dumps(seen))
"""


def test_numpy_only_paths_load_no_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen == {"import": [], "schedules": [], "run_monte_carlo": [],
                    "simulate": [], "sweep": []}
