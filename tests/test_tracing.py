"""The benchmark's layer tracer patches vlf attributes by name; a rename
under src/vlf must fail here, not only in a traced benchmark run."""

import importlib.util
import os
from pathlib import Path

from vlf import bounds, cli, engine, ensemble

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# attributes the tracer replaces: (module, name)
_PATCHED = [
    (engine, "simulate_trial"), (engine, "count_log_table"),
    (engine, "_run_chunk"), (ensemble, "literal_race"),
    (ensemble, "proposal_race"), (ensemble, "poisson_crosser_rate"),
    (ensemble, "FlipEntropyAbsorption"),
    (bounds, "channel_stats"), (bounds, "scaled_m_exp"),
    (cli, "optimize_params"), (cli, "single_phase_bound"), (cli, "capacity"),
    (cli, "main"),
]


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_uninstall_restores_every_attribute(tmp_path):
    # the tracer wraps every ensemble attribute named *_race, so a new
    # helper so named would count its races twice: every attribute that
    # install() replaces must be one of _PATCHED
    tracing = _load_tracing()
    before = {m: dict(vars(m)) for m in (bounds, cli, engine, ensemble)}
    tracer = tracing.Tracer(str(tmp_path))
    try:
        tracer.install()  # an AttributeError names a renamed attribute
        replaced = {(m, name) for m, old in before.items() for name in old
                    if vars(m)[name] is not old[name]}
    finally:
        tracer.uninstall()
    assert replaced == set(_PATCHED)
    for m, old in before.items():
        now = vars(m)
        assert now.keys() == old.keys()
        assert [k for k in old if now[k] is not old[k]] == []
    assert tracing.TRACE_DIR_ENV not in os.environ


def test_traced_sweep_counts_its_one_walk_constants_call(tmp_path):
    # cli reaches channel_stats through the bounds module, so the tracer's
    # wrapper there sees the sweep's one call
    tracing = _load_tracing()
    tracer = tracing.Tracer(str(tmp_path))
    tracer.install()
    try:
        assert cli.main(["sweep", "--channel", "bsc:0.11", "--eps", "1e-3",
                         "--N", "200:4000:200", "--schemes", "thm1,vlsf",
                         "--out", str(tmp_path / "s.csv")]) == 0
    finally:
        tracer.uninstall()
    durations, _self, _counts, _sums = tracing.summarize(tracer.all_dumps())
    assert len(durations["bounds.channel_stats"]) == 1
    assert len(durations["bounds.optimize_params"]) == 20
