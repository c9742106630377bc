"""Command-line interface: verbs, CSV schemas, exit codes, README examples."""

import contextlib
import csv
import io
import json
import math
import re
import shlex
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlf import bounds, cli, engine
from vlf.bounds import VlfParams
from vlf.channel import bsc
from vlf.cli import main

BSC = "bsc:0.11"


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestBoundVerb:
    def test_schedule_from_horizon(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        code = main(["bound", "--channel", BSC, "--N1", "2000",
                     "--eps", "1e-3", "--out", str(out)])
        assert code == 0
        rows = _rows(out)
        assert len(rows) == 1
        assert rows[0]["scheme"] == "thm1"
        assert float(rows[0]["rate_bits_per_use"]) == pytest.approx(0.496172, abs=1e-6)
        assert "thm1 bound" in capsys.readouterr().out

    def test_explicit_thresholds_reproduce_derived_schedule(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["bound", "--channel", BSC, "--N1", "2000",
                     "--eps", "1e-3", "--out", str(a)]) == 0
        assert main([
            "bound", "--channel", BSC, "--M", "2^996.4100357090108",
            "--gamma1", "692.6870739182544", "--gamma2", "698.2597093928773",
            "--aA", "7.600902459542082", "--aR", "7.600902459542082",
            "--eps0", "0.0004344641493867443", "--out", str(b),
        ]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_schedule_inputs(self, tmp_path):
        assert main(["bound", "--channel", BSC]) == 1

    def test_partial_threshold_set_rejected(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        assert main(["bound", "--channel", BSC, "--N1", "2000",
                     "--gamma1", "3", "--out", str(out)]) == 1
        assert "all of --gamma1/--gamma2/--aA/--aR or none" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize("px", ["0,0", "nan,1", "inf,1", "2,-1"])
    def test_px_needs_finite_nonnegative_weights(self, px, capsys):
        # 0,0 divided by its zero sum, with a numpy RuntimeWarning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["bound", "--channel", BSC, "--px", px,
                         "--N1", "2000"])
        assert code == 1
        assert "--px" in capsys.readouterr().err
        assert not [w for w in caught if w.category is RuntimeWarning]

    _EXPLICIT_BOUND = ["bound", "--channel", BSC, "--gamma1", "8",
                       "--gamma2", "14", "--aA", "3", "--aR", "3"]

    def test_vacuous_finite_bound_is_written(self, tmp_path):
        out = tmp_path / "b.csv"
        assert main(self._EXPLICIT_BOUND + ["--M", "2^40",
                                            "--out", str(out)]) == 0
        assert float(_rows(out)[0]["eps"]) > 1.0

    def test_rate_cell_is_empty_when_nothing_is_sent(self, tmp_path):
        # eps0 = 1 stops every run at time zero, so N = 0; the cell read inf
        out = tmp_path / "b.csv"
        assert main(self._EXPLICIT_BOUND + ["--M", "2^10", "--eps0", "1",
                                            "--out", str(out)]) == 0
        row = _rows(out)[0]
        assert (row["N"], row["rate_bits_per_use"]) == ("0.000000", "")

    def test_infeasible_error_floor_maps_to_exit_two(self):
        assert main(["bound", "--channel", BSC, "--N1", "1000",
                     "--eps", "1e-3"]) == 2


def _optimize(spec, n, *extra):
    """A one-point thm1 sweep: the best log M meeting (1e-3, n) targets."""
    return main(["sweep", "--channel", spec, "--eps", "1e-3", "--N", n,
                 "--schemes", "thm1", *extra])


class TestOnePointSweep:
    def test_writes_schedule_row(self, tmp_path):
        out = tmp_path / "o.csv"
        assert _optimize(BSC, "500", "--out", str(out)) == 0
        row = _rows(out)[0]
        assert row["scheme"] == "thm1"
        assert float(row["logM_nats"]) == pytest.approx(168.119757, abs=1e-4)
        assert row["gamma1"] != ""
        # the row the removed optimize verb wrote for these targets
        assert ",".join(row.values()) == (
            "thm1,bsc:0.11,500.000000,1.00e-03,168.119757,242.545539,"
            "0.485091,170.552876,176.234195,4.830152,5.815518,2.11e-17")

    def test_unreachable_targets_exit_two(self):
        assert _optimize(BSC, "0.5") == 2

    def test_low_snr_gaussian_optimizes(self, tmp_path):
        out = tmp_path / "o.csv"
        assert _optimize("awgn:0.001", "20000", "--out", str(out)) == 0
        assert float(_rows(out)[0]["logM_nats"]) > 0

    def test_gaussian_walk_constants_emit_no_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = _optimize("awgn:0.1", "2000")
        assert code == 0
        assert caught == []


class TestSweepVerb:
    def test_grid_rows_and_rate_ordering(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--channel", BSC, "--eps", "1e-3",
                     "--N", "500:1000:500",
                     "--schemes", "thm1,vlsf,converse",
                     "--out", str(out)]) == 0
        rows = _rows(out)
        assert len(rows) == 6
        by_scheme = {
            (r["scheme"], r["N"]): float(r["rate_bits_per_use"]) for r in rows
        }
        for n in ("500.000000", "1000.000000"):
            assert (
                by_scheme[("vlsf", n)]
                < by_scheme[("thm1", n)]
                <= by_scheme[("converse", n)]
            )

    def test_schemes_call_the_solvers_by_their_cli_names(self, monkeypatch):
        # a wrapper set on a cli name (as a tracer sets one) sees every call
        calls = Counter()
        for name in ("optimize_params", "single_phase_bound",
                     "converse_bound", "capacity"):
            def counted(*args, _f=getattr(cli, name), _name=name):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(cli, name, counted)
        assert main(["sweep", "--channel", BSC, "--eps", "1e-3",
                     "--N", "500:1000:500",
                     "--schemes", "thm1,vlsf,converse"]) == 0
        assert calls == {"optimize_params": 2, "single_phase_bound": 2,
                         "converse_bound": 2, "capacity": 1}

    # a repeated scheme wrote each of its rows twice and exited 0, and an
    # empty list wrote a header-only CSV and exited 0
    @pytest.mark.parametrize("schemes,named", [
        ("thm1,magic", "unknown scheme 'magic'"),
        ("thm1,thm1,converse", "--schemes names 'thm1' more than once"),
        ("", "--schemes names no scheme"),
        (",", "--schemes names no scheme"),
    ])
    def test_unknown_scheme_rejected(self, schemes, named, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--channel", BSC, "--eps", "1e-3",
                     "--N", "500", "--schemes", schemes,
                     "--out", str(out)]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    # the solvers need K = C N/(1 - eps) in (0, 2^40); before, these ended
    # in a ZeroDivisionError traceback, "need finite 0 < gamma1 < gamma2",
    # "infeasible" (exit 2) and "math domain error"
    @pytest.mark.parametrize("channel,eps,n,scheme", [
        (BSC, "1e-3", "1e19", "vlsf"), (BSC, "1e-3", "1e19", "thm1"),
        (BSC, "1e-3", "1e17", "vlsf"),
        ("awgn:1e-300", "1e-300", "1e-300", "vlsf"),
    ], ids=["vlsf-1e19", "thm1-1e19", "vlsf-1e17", "awgn-underflow"])
    def test_length_out_of_the_solvers_range_names_n(
            self, channel, eps, n, scheme, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--channel", channel, "--eps", eps, "--N", n,
                     "--schemes", scheme, "--out", str(out)]) == 1
        assert f"N = {float(n):g} gives K" in capsys.readouterr().err
        assert not out.exists()

    # 200:100000:1e-9 asked numpy for 726 TiB and ended in its traceback
    @pytest.mark.parametrize("argv,flag", [
        (["sweep", "--channel", BSC, "--eps", "1e-3", "--schemes", "converse",
          "--N", "200:100000:1e-9"], "--N"),
        (["oracle", "--channel", BSC, "--n", "4",
          "--gamma", "1:1000001:1"], "--gamma"),
    ], ids=["sweep", "oracle"])
    def test_grid_above_the_point_cap_rejected(self, argv, flag, tmp_path,
                                               capsys):
        out = tmp_path / "g.csv"
        assert main(argv + ["--out", str(out)]) == 1
        assert f"bad value for {flag}" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_at_the_point_cap_is_made(self):
        assert len(cli._parse_grid("1:1000000:1")) == cli._GRID_CAP

    def test_nan_matrix_file_is_rejected_before_the_capacity(
        self, tmp_path, monkeypatch, capsys
    ):
        # it loaded, and Blahut-Arimoto ran for 26 s before failing
        path = tmp_path / "w.txt"
        path.write_text("0.5 0.5\nnan nan\n")
        monkeypatch.setattr(cli, "capacity", lambda dmc: pytest.fail(
            "Blahut-Arimoto ran on a NaN matrix"))
        out = tmp_path / "s.csv"
        assert main(["sweep", "--channel", f"dmc:{path}", "--eps", "1e-3",
                     "--N", "200:400:200", "--schemes", "converse",
                     "--out", str(out)]) == 1
        assert "row 2, column 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "grid", ["nan", "-5", "0", "inf", "200:nan:200", "0:400:200",
                 "200:400:0", "200:400:-100", "200:400", "400:200:100"],
    )
    def test_non_finite_or_non_positive_grid_rejected(self, grid, tmp_path,
                                                      capsys):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--channel", BSC, "--eps", "1e-3",
                     "--N", grid, "--schemes", "converse",
                     "--out", str(out)]) == 1
        assert "--N" in capsys.readouterr().err
        assert not out.exists()

    def test_repeat_sweeps_are_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in paths:
            assert main(["sweep", "--channel", BSC, "--eps", "1e-3",
                         "--N", "200:1000:200",
                         "--schemes", "thm1,vlsf,converse",
                         "--out", str(out)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("spec", [BSC, "awgn:1"], ids=["bsc0.11", "awgn1"])
    def test_sweep_computes_the_walk_constants_once(
        self, spec, tmp_path, monkeypatch
    ):
        # cli calls it through the bounds module, so this wrapper (and a
        # tracer's) sees the call
        calls = []
        stats = bounds.channel_stats
        monkeypatch.setattr(bounds, "channel_stats",
                            lambda *a: calls.append(a) or stats(*a))
        assert main(["sweep", "--channel", spec, "--eps", "1e-3",
                     "--N", "200:4000:200", "--schemes", "thm1,vlsf,converse",
                     "--out", str(tmp_path / "s.csv")]) == 0
        assert len(calls) == 1

    def test_converse_only_sweep_needs_no_walk_constants(self, tmp_path):
        # px = (1, 0) gives the walk no drift, but the converse needs only C
        out = tmp_path / "s.csv"
        assert main(["sweep", "--channel", BSC, "--px", "1,0", "--eps", "1e-3",
                     "--N", "200:400:200", "--schemes", "converse",
                     "--out", str(out)]) == 0
        assert [r["scheme"] for r in _rows(out)] == ["converse"] * 2


class TestSimulateVerb:
    _ARGS = [
        "simulate", "--variant", "vlf_dmc", "--channel", BSC,
        "--M", "2^8", "--gamma1", "8", "--gamma2", "14",
        "--aA", "3", "--aR", "3", "--trials", "400", "--seed", "42",
    ]

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(self._ARGS + ["--out", str(a)]) == 0
        assert main(self._ARGS + ["--out", str(b), "--workers", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_row_schema_and_formats(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(self._ARGS + ["--out", str(out)]) == 0
        row = _rows(out)[0]
        assert row["variant"] == "vlf_dmc"
        assert row["trials"] == "400"
        assert re.fullmatch(r"\d\.\d{2}e[+-]\d{2}", row["eps_hat"])
        assert re.fullmatch(r"\d+\.\d{6}", row["n_hat"])
        assert row["power_hat"] == ""  # no power accounting on finite alphabets

    def test_trace_writes_one_json_line_per_trial(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        args = [a if a != "400" else "50" for a in self._ARGS]
        assert main(args + ["--trace", str(trace)]) == 0
        lines = trace.read_text().splitlines()
        assert len(lines) == 50
        first = json.loads(lines[0])
        assert set(first) == {
            "trial", "correct", "tau", "len_c1", "len_ht", "len_c2",
            "energy", "censored", "stopped_at_zero",
        }
        if not first["stopped_at_zero"]:
            assert first["tau"] == (
                first["len_c1"] + first["len_ht"] + first["len_c2"]
            )

    def test_trace_honours_workers_and_matches_untraced_run(
        self, tmp_path, monkeypatch
    ):
        pools = []

        class RecordingPool(engine.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(engine, "ProcessPoolExecutor", RecordingPool)
        args = [a if a != "400" else "60" for a in self._ARGS]

        def run(name, *extra):
            out = tmp_path / f"{name}.csv"
            assert main(args + list(extra) + ["--out", str(out)]) == 0
            return out.read_bytes()

        w1 = run("w1", "--workers", "1", "--trace", str(tmp_path / "w1.jsonl"))
        w2 = run("w2", "--workers", "2", "--trace", str(tmp_path / "w2.jsonl"))
        assert w1 == w2 == run("plain")
        assert ((tmp_path / "w2.jsonl").read_bytes()
                == (tmp_path / "w1.jsonl").read_bytes())
        assert pools == [2]

    def test_message_count_forms_agree(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        base = ["simulate", "--variant", "vlf_dmc", "--channel", BSC,
                "--gamma1", "8", "--gamma2", "14", "--aA", "3", "--aR", "3",
                "--trials", "50", "--seed", "1"]
        assert main(base + ["--M", "2^10", "--out", str(a)]) == 0
        assert main(base + ["--M", "1024", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_auto_mode_runs_a_non_integer_message_count_on_the_ensemble(
            self, tmp_path):
        args = ["simulate", "--variant", "vlf_dmc", "--channel", BSC,
                "--M", "2^8.5", "--gamma1", "8", "--gamma2", "14",
                "--aA", "3", "--aR", "3", "--trials", "10", "--seed", "1"]
        auto = tmp_path / "auto.csv"
        assert main(args + ["--out", str(auto)]) == 0

    def test_seed_is_required(self):
        args = [a for a in self._ARGS if a not in ("--seed", "42")]
        assert main(args) == 1

    def test_negative_seed_is_rejected_by_name(self, tmp_path, capsys):
        # it printed numpy's "expected non-negative integer" without the option
        out = tmp_path / "s.csv"
        args = [a if a != "42" else "-1" for a in self._ARGS]
        assert main(args + ["--out", str(out)]) == 1
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_gaussian_power_column(self, tmp_path):
        out = tmp_path / "g.csv"
        assert main([
            "simulate", "--variant", "vlf_awgn", "--channel", "awgn:1.0",
            "--M", "2^6", "--gamma1", "8", "--gamma2", "13", "--aA", "3",
            "--aR", "3", "--trials", "200", "--seed", "3", "--out", str(out),
        ]) == 0
        row = _rows(out)[0]
        assert row["power_hat"] != ""
        assert float(row["power_hat"]) == pytest.approx(1.0, abs=0.2)

    def test_power_column_is_empty_when_nothing_was_sent(self, tmp_path):
        # eps0 = 1 stops every trial at time zero; the row read "nan"
        out = tmp_path / "g.csv"
        assert main([
            "simulate", "--variant", "vlf_awgn", "--channel", "awgn:1",
            "--M", "2^6", "--gamma1", "8", "--gamma2", "13", "--aA", "3",
            "--aR", "3", "--eps0", "1", "--trials", "5", "--seed", "1",
            "--out", str(out),
        ]) == 0
        assert _rows(out)[0]["power_hat"] == ""

    def test_second_phase_cap_past_the_horizon_runs(self, tmp_path):
        # c2 * gamma2/C overflowed to inf: an OverflowError traceback
        out = tmp_path / "u.csv"
        assert main(["simulate", "--variant", "uvlf_bsc", "--channel", BSC,
                     "--M", "2^60", "--eps", "0.05", "--training", "100",
                     "--trials", "2", "--seed", "1", "--c2", "1e307",
                     "--out", str(out)]) == 0
        assert len(_rows(out)) == 1

    def test_universal_schedule_path(self, tmp_path):
        out = tmp_path / "u.csv"
        assert main([
            "simulate", "--variant", "uvlf_bsc", "--channel", BSC,
            "--M", "2^60", "--eps", "0.05",
            "--training", "1000", "--trials", "100", "--seed", "2",
            "--out", str(out),
        ]) == 0
        row = _rows(out)[0]
        assert float(row["logM_nats"]) == pytest.approx(60 * math.log(2), abs=1e-4)
        assert float(row["gamma1"]) > 0

    def test_unset_options_take_the_library_defaults(self, tmp_path):
        # no --training, --c2, --workers or --eps0: the row is that of a SchemeConfig built from
        # its required fields only
        args = [a if a != "400" else "300" for a in self._ARGS]
        args = [a if a != "42" else "0" for a in args]  # SchemeConfig's seed
        out = tmp_path / "s.csv"
        assert main(args + ["--out", str(out)]) == 0
        cfg = engine.SchemeConfig(
            variant="vlf_dmc", channel=bsc(0.11), px=np.array([0.5, 0.5]),
            params=VlfParams(8 * math.log(2.0), 8.0, 14.0, 3.0, 3.0),
        )
        est = engine.run_monte_carlo(cfg, 300)
        row = _rows(out)[0]
        assert row["eps0"] == "0.00e+00"
        assert [row[k] for k in ("eps_hat", "eps_lo", "eps_hi", "censor_rate")] == [
            f"{v:.2e}" for v in (est.eps_hat, est.eps_lo, est.eps_hi,
                                 est.censor_rate)
        ]
        assert [row[k] for k in ("n_hat", "n_lo", "n_hi")] == [
            f"{v:.6f}" for v in (est.n_hat, est.n_lo, est.n_hi)
        ]

    @pytest.mark.parametrize("flag", [["--n-max-mult", "10"],
                                      ["--min-eval-len", "3"],
                                      ["--competitor-mode", "ensemble"],
                                      ["--honest-time-zero"],
                                      ["--config", "exp.cfg"],
                                      # the universal recipe takes d and
                                      # delta from the variant
                                      ["--d", "1"], ["--d", "inf"],
                                      ["--delta", "0.2"],
                                      # a flag has one spelling
                                      ["--tri", "5"], ["--work", "2"],
                                      ["--tri=5"]])
    def test_removed_knobs_rejected(self, flag, tmp_path, capsys):
        known = [a if a != "400" else "20" for a in self._ARGS]
        universal = ["simulate", "--variant", "uvlf_awgn", "--channel",
                     "awgn:1", "--M", "2^10", "--eps", "0.2", "--training",
                     "64", "--trials", "20", "--seed", "1"]
        for args in (known, universal):
            out = tmp_path / "s.csv"
            assert main(args + flag + ["--out", str(out)]) == 1
            assert (f"unrecognized arguments: {' '.join(flag)}"
                    in capsys.readouterr().err)
            assert not out.exists()

    def test_partial_threshold_set_rejected(self):
        assert main([
            "simulate", "--variant", "vlf_dmc", "--channel", BSC,
            "--M", "2^8", "--gamma1", "8", "--trials", "10", "--seed", "0",
        ]) == 1

    @pytest.mark.parametrize("workers", ["0", "-5"])
    def test_worker_count_below_one_rejected(self, workers, capsys):
        args = [a if a != "400" else "20" for a in self._ARGS]
        assert main(args + ["--workers", workers]) == 1
        assert "workers must be an integer >= 1" in capsys.readouterr().err

    def test_append_to_a_csv_of_another_schema_refused(self, tmp_path):
        out = tmp_path / "b.csv"
        assert main(["bound", "--channel", BSC, "--N1", "2000",
                     "--out", str(out)]) == 0
        before = out.read_bytes()
        args = [a if a != "400" else "20" for a in self._ARGS]
        trace = tmp_path / "t.jsonl"
        assert main(args + ["--out", str(out), "--trace", str(trace)]) == 1
        assert out.read_bytes() == before
        assert not trace.exists()  # refused before the run


class TestOracleVerb:
    def test_exact_tails_stay_under_bound(self, tmp_path):
        out = tmp_path / "or.csv"
        assert main(["oracle", "--channel", BSC, "--n", "10",
                     "--gamma", "0.5:3:0.5", "--out", str(out)]) == 0
        rows = _rows(out)
        assert len(rows) == 6
        assert list(rows[0]) == ["n", "gamma", "exact", "bound", "ratio"]
        assert all(float(r["ratio"]) <= 1.0 for r in rows)

    @pytest.mark.parametrize("n", ["-3", "0"])
    def test_sequence_length_below_one_rejected(self, n, tmp_path, capsys):
        out = tmp_path / "or.csv"
        assert main(["oracle", "--channel", BSC, "--n", n, "--gamma", "1",
                     "--out", str(out)]) == 1
        assert "n must be an integer >= 1" in capsys.readouterr().err
        assert not out.exists()

    # e^-801 underflows, so the exact tail and the bound are both 0; the
    # ratio cell read inf, and so did the worst ratio
    def test_underflowed_bound_leaves_the_ratio_cell_empty(self, tmp_path,
                                                             capsys):
        out = tmp_path / "or.csv"
        assert main(["oracle", "--channel", BSC, "--n", "4",
                     "--gamma", "1:801:400", "--out", str(out)]) == 0
        rows = _rows(out)
        assert [r["bound"] == "0.00e+00" for r in rows] == [False, False, True]
        assert [r["ratio"] == "" for r in rows] == [False, False, True]
        worst = max(rows[:2], key=lambda r: float(r["ratio"]))["ratio"]
        assert f"worst exact/bound ratio = {worst}" in capsys.readouterr().out

    def test_no_defined_ratio_has_no_worst(self, capsys):
        assert main(["oracle", "--channel", BSC, "--n", "4",
                     "--gamma", "800"]) == 0
        text = capsys.readouterr().out
        assert text.splitlines()[0] == "4,800.000000,0.00e+00,0.00e+00,"
        assert "worst exact/bound ratio = undefined" in text

    def test_needs_finite_alphabet(self):
        assert main(["oracle", "--channel", "awgn:1.0", "--n", "10",
                     "--gamma", "1"]) == 1


_EXPLICIT = ["--M", "2^6", "--gamma1", "8", "--gamma2", "13", "--aA", "3",
             "--aR", "3"]
_SIM = ["--trials", "10", "--seed", "1"]
# (base argv that runs, the option its resolved path does not read)
_UNREAD_CASES = {
    "bound-awgn-px": (["bound", "--channel", "awgn:1", "--N1", "2000",
                       "--eps", "1e-3"], ["--px", "0.5,0.5"]),
    "simulate-awgn-px": (["simulate", "--variant", "vlf_awgn", "--channel",
                          "awgn:1", *_EXPLICIT, *_SIM], ["--px", "0.5,0.5"]),
    "sweep-awgn-px": (["sweep", "--channel", "awgn:1", "--eps", "1e-3",
                       "--N", "200:400:200", "--schemes", "thm1,converse"],
                      ["--px", "0.5,0.5"]),
    "bound-N1-M": (["bound", "--channel", BSC, "--N1", "2000"],
                   ["--M", "2^10"]),
    "bound-N1-eps0": (["bound", "--channel", BSC, "--N1", "2000"],
                      ["--eps0", "0.01"]),
    "simulate-N1-M": (["simulate", "--variant", "vlf_dmc", "--channel", BSC,
                       "--N1", "60", *_SIM], ["--M", "2^10"]),
    "simulate-N1-eps0": (["simulate", "--variant", "vlf_dmc", "--channel",
                          BSC, "--N1", "60", *_SIM], ["--eps0", "0.01"]),
    "bound-explicit-N1": (["bound", "--channel", BSC, *_EXPLICIT],
                          ["--N1", "2000"]),
    "bound-explicit-eps": (["bound", "--channel", BSC, *_EXPLICIT],
                           ["--eps", "1e-3"]),
    **{f"simulate-explicit-{flag[2:]}": (
        ["simulate", "--variant", "vlf_dmc", "--channel", BSC, *_EXPLICIT,
         *_SIM], [flag, value])
       for flag, value in [("--N1", "2000"), ("--eps", "1e-3")]},
    **{f"universal-{flag[2:]}": (
        ["simulate", "--variant", "uvlf_bsc", "--channel", BSC, "--M", "2^60",
         "--eps", "0.05", "--training", "64", *_SIM], [flag, value])
       for flag, value in [("--N1", "2000"), ("--eps0", "0.01")]},
    **{f"{variant}-{flag[2:]}": (
        ["simulate", "--variant", variant, "--channel", spec, *_EXPLICIT,
         *_SIM], [flag, value])
       for variant, spec in [("vlf_dmc", BSC), ("vlf_awgn", "awgn:1")]
       for flag, value in [("--training", "64"), ("--c2", "3")]},
}


class TestUnreadOptions:
    """An option the resolved path does not read exits 1 and names it."""

    @pytest.mark.parametrize("case", list(_UNREAD_CASES))
    def test_unread_option_exits_one_before_any_output(self, case, tmp_path,
                                                       capsys):
        base, extra = _UNREAD_CASES[case]
        assert main(base) == 0  # the run itself is fine without it
        capsys.readouterr()
        out, trace = tmp_path / "o.csv", tmp_path / "t.jsonl"
        argv = base + extra + ["--out", str(out)]
        if base[0] == "simulate":
            argv += ["--trace", str(trace)]
        assert main(argv) == 1
        err = capsys.readouterr()
        assert extra[0] in err.err and err.out == ""
        assert not out.exists() and not trace.exists()

    def test_non_positive_horizon_exits_one(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main(["simulate", "--variant", "vlf_dmc", "--channel", BSC,
                     *_EXPLICIT, *_SIM, "--n-max", "0",
                     "--out", str(out)]) == 1
        assert ("error: n_max must be an integer >= 1, got 0"
                in capsys.readouterr().err)
        assert not out.exists()


class TestErrorHandling:
    def test_unknown_verb_and_flag_exit_one(self, tmp_path):
        assert main(["transmogrify"]) == 1
        assert main(["bound", "--frequency", "11"]) == 1
        assert main([]) == 1
        # no optimize verb: a one-point thm1 sweep writes its row
        out = tmp_path / "o.csv"
        assert main(["optimize", "--channel", BSC, "--eps", "1e-3",
                     "--N", "500", "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv,token", [
        (["sweep", "--chan", BSC, "--eps", "1e-3", "--N", "500",
          "--schemes", "converse"], "--chan bsc:0.11"),
        (["sweep", "--channel", BSC, "--eps", "1e-3", "--N", "500",
          "--sch=converse"], "--sch=converse"),
        # --N is sweep's flag, a prefix of bound's --N1
        (["bound", "--channel", BSC, "--N", "2000"], "--N 2000"),
        (["oracle", "--channel", BSC, "--n", "4", "--gam", "1"], "--gam 1"),
    ])
    def test_abbreviated_flag_exits_one_and_names_it(self, argv, token,
                                                     tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main(argv + ["--out", str(out)]) == 1
        assert (f"error: unrecognized arguments: {token}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_too_many_expected_crossers_exit_one(self, capsys):
        # thresholds far too low for M = 2^60: (M - 1) e^{-gamma_1} = e^31.59
        assert main(["simulate", "--variant", "vlf_dmc", "--channel", BSC,
                     "--M", "2^60", "--gamma1", "10", "--gamma2", "20",
                     "--aA", "3", "--aR", "3", "--trials", "1",
                     "--seed", "1"]) == 1
        assert "e^31.59 exceeds 10000" in capsys.readouterr().err

    # simulate exited 2 ("infeasible") for it, the other verbs 1
    @pytest.mark.parametrize("argv", [
        ["bound", "--N1", "2000"],
        ["simulate", "--variant", "vlf_dmc", *_EXPLICIT, *_SIM],
        ["sweep", "--eps", "1e-3", "--N", "500", "--schemes", "thm1"],
    ], ids=["bound", "simulate", "sweep"])
    def test_zero_drift_input_law_exits_one(self, argv, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main(argv + ["--channel", BSC, "--px", "1,0",
                            "--out", str(out)]) == 1
        assert "is not positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["bound", "--gamma2", "inf"],
        ["bound", "--aA", "inf"],
        ["simulate", "--M", "2^inf"],
        ["simulate", "--gamma2", "inf"],
        ["simulate", "--variant", "uvlf_bsc", "--training", "64",
         "--c2", "inf"],
        # (M-1) e^-gamma1 overflowed: exit 0, N and eps written as inf
        ["bound", "--M", "2^1e10"],
    ], ids=["bound-gamma2", "bound-aA", "simulate-M", "simulate-gamma2",
            "simulate-c2", "bound-overflow"])
    def test_infinite_values_exit_one_without_a_row(self, args, tmp_path,
                                                    capsys):
        verb, *override = args
        opts = {"--channel": BSC, "--M": "2^10", "--gamma1": "8",
                "--gamma2": "14", "--aA": "3", "--aR": "3"}
        if verb == "simulate":
            opts.update({"--variant": "vlf_dmc", "--trials": "10",
                         "--seed": "1"})
        opts.update(zip(override[::2], override[1::2]))
        out = tmp_path / "o.csv"
        argv = [verb, *(x for kv in opts.items() for x in kv),
                "--out", str(out)]
        assert main(argv) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,says", [
        ("--eps", "inf", "eps must be"), ("--eps", "1.5", "eps must be"),
        ("--M", "0", "bad value for --M: '0' (log_m must be a finite number "
         "in [0, inf), got -inf)"),
        ("--M", "3^5", "bad value for --M: '3^5' (message count base must be"),
        # an OverflowError traceback, "cannot convert float NaN to integer"
        # and "infeasible: n1 = -1 too small" (exit 2) before
        ("--M", "2^inf", "bad value for --M: '2^inf' (log_m must be a finite "
         "number in [0, inf), got inf)"),
        ("--M", "2^nan", "bad value for --M: '2^nan' (log_m must be a finite "
         "number in [0, inf), got nan)"),
        ("--M", "2^-3", "bad value for --M: '2^-3' (log_m must be a finite "
         "number in [0, inf), got -2.0794415416798357)"),
        # both asked numpy for a count table (7.45 GiB, 7.27 TiB) and ended
        # in its _ArrayMemoryError traceback
        ("--n-max", "1000000000",
         "n_max = 1000000000 is above the cap of 10000000 symbols"),
        # exit 2, "infeasible", though a flag value, not the targets, is at
        # fault
        ("--n-max", "10", "n_max = 10 is below 10*gamma2/C = 1332.6"),
        ("--M", "2^1e10", "the horizon 50*gamma2/C = 9.998e+11 at gamma2 = "
         "6.931e+09 is above the cap of 10000000 symbols"),
    ])
    def test_bad_universal_schedule_input_names_its_option(
        self, flag, value, says, tmp_path, capsys
    ):
        opts = {"--variant": "uvlf_bsc", "--channel": BSC, "--M": "2^60",
                "--eps": "0.05", "--training": "100", "--trials": "5",
                "--seed": "1", flag: value}
        out = tmp_path / "u.csv"
        argv = ["simulate", *(x for kv in opts.items() for x in kv),
                "--out", str(out)]
        assert main(argv) == 1
        assert f"error: {says}" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_gaussian_power_is_a_bad_channel(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert _optimize("awgn:inf", "500", "--out", str(out)) == 1
        assert ("power must be a finite number in (0, inf), got inf"
                in capsys.readouterr().err)
        assert main([
            "simulate", "--variant", "vlf_awgn", "--channel", "awgn:1e400",
            "--M", "2^6", "--gamma1", "8", "--gamma2", "13", "--aA", "3",
            "--aR", "3", "--trials", "5", "--seed", "1", "--out", str(out),
        ]) == 1
        assert ("power must be a finite number in (0, inf), got inf"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_bad_channel_spec_exits_one(self):
        assert main(["bound", "--channel", "fiber:9", "--N1", "2000"]) == 1

    def test_stdout_fallback_without_output_file(self, capsys):
        assert main(["sweep", "--channel", BSC, "--eps", "1e-3",
                     "--N", "500", "--schemes", "converse"]) == 0
        assert "converse,bsc:0.11,500.000000" in capsys.readouterr().out


class TestRepeatedCalls:
    def test_back_to_back_calls_do_not_leak_options(self, tmp_path, capsys):
        assert cli._build_parser() is cli._build_parser()  # built once
        out = tmp_path / "s.csv"
        args = ["sweep", "--channel", BSC, "--N", "500",
                "--schemes", "converse", "--out", str(out)]
        assert main(args + ["--eps", "1e-3"]) == 0
        # the first call's --eps value does not reach the second
        assert main(args) == 1
        assert "--eps is required" in capsys.readouterr().err
        # a third call with the same --out appends its row
        assert main(args + ["--eps", "1e-3"]) == 0
        assert len(_rows(out)) == 2


_README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_commands():
    """The argv of each ``vlf`` command in the README's Command line block,
    with backslash continuations joined."""
    text = _README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("vlf ")]


class TestReadmeExamples:
    """A verb or flag deleted from the CLI cannot linger in the docs."""

    @pytest.mark.parametrize("argv", _readme_commands(),
                             ids=lambda argv: argv[0])
    def test_example_parses_and_casts(self, argv):
        args = cli._build_parser().parse_args(argv)
        cli._cast_options(args, args.verb)

    def test_every_verb_has_an_example(self):
        assert {argv[0] for argv in _readme_commands()} == set(cli._COMMANDS)


class TestReadmeLayout:
    def test_layout_table_names_exactly_the_package_modules(self):
        text = _README.read_text(encoding="utf-8")
        table = text.split("\n## Library layout\n", 1)[1].split("\n## ", 1)[0]
        named = re.findall(r"^\| `vlf\.(\w+)` \|", table, flags=re.M)
        package = _README.parent / "src" / "vlf"
        modules = {p.stem for p in package.glob("*.py")} - {"__init__"}
        assert sorted(named) == sorted(modules)


# The grammar fuzz: argv drawn from each verb's option table and a value
# pool per flag.  A base argv that runs is mutated flag by flag, so both
# exit-0 runs and every kind of refusal are reached.
_BAD = ["0", "-1", "nan", "inf", "1e300", "1e-300", ""]
# matrix files the fuzz writes once per test; "{dmc}" in a pool value
# stands for their directory
_DMC_FILES = {
    "w3.txt": b"# a 3x3 channel\n0.7 0.2 0.1\n\n0.1 0.7 0.2  # row 2\n"
              b"0.2 0.1 0.7\n",
    "ragged.txt": b"0.7 0.2 0.1\n0.5 0.5\n0.2 0.1 0.7\n",
    "binary.bin": b"\xff\xfe\x00\x01\x80",
}
_POOL = {
    "channel": [BSC, "awgn:1", "bsc:0.5", "awgn:1e-300", "fiber:9",
                "dmc:no-such-file.txt", "dmc:{dmc}/w3.txt",
                "dmc:{dmc}/ragged.txt", "dmc:{dmc}/binary.bin"],
    "px": ["0.5,0.5", "0.3,0.7", "1,0", "1,1,1"],
    "variant": ["vlf_dmc", "uvlf_dmc", "uvlf_bsc", "vlf_awgn", "uvlf_awgn",
                "magic"],
    "M": ["2^6", "2^20", "1024", "2^8.5", "3^5", "2^inf", "2^nan", "2^-3",
          "2^1e10"],
    "gamma1": ["8", "170.55"], "gamma2": ["13", "176.23"],
    "a_accept": ["3", "4.83"], "a_reject": ["3", "5.82"],
    "eps0": ["0.01", "1"], "N1": ["60", "2000"], "eps": ["1e-3", "0.2"],
    "N": ["500", "200:400:200", "1e19", "200:100000:1e-9"],
    "training": ["64", "100"],
    "trials": ["1", "3"], "seed": ["1", "1.5"],
    "workers": ["-1", "0", "1", "2"], "n_max": ["400", "1000000000"],
    "c2": ["3", "1e307"], "schemes": ["thm1", "vlsf,converse", "magic"],
    "n": ["4", "6"], "gamma": ["1", "0.5:3:0.5", "800"],
}
_BASES = {
    "bound": [{"channel": BSC, "N1": "2000", "eps": "1e-3"},
              {"channel": BSC, "M": "2^6", "gamma1": "8", "gamma2": "13",
               "a_accept": "3", "a_reject": "3"},
              {"channel": "dmc:{dmc}/w3.txt", "N1": "2000", "eps": "1e-3"}],
    "simulate": [{"variant": "vlf_dmc", "channel": BSC, "M": "2^6",
                  "gamma1": "8", "gamma2": "13", "a_accept": "3",
                  "a_reject": "3", "trials": "3", "seed": "1"},
                 {"variant": "vlf_dmc", "channel": "dmc:{dmc}/w3.txt",
                  "M": "2^6", "gamma1": "8", "gamma2": "13", "a_accept": "3",
                  "a_reject": "3", "trials": "3", "seed": "1"},
                 {"variant": "uvlf_bsc", "channel": BSC, "M": "2^20",
                  "eps": "0.2", "training": "64", "trials": "3", "seed": "1"},
                 {"variant": "uvlf_awgn", "channel": "awgn:1", "M": "2^10",
                  "eps": "0.2", "training": "64", "trials": "3", "seed": "1"}],
    "sweep": [{"channel": BSC, "eps": "1e-3", "N": "200:400:200",
               "schemes": "thm1,vlsf,converse"}],
    "oracle": [{"channel": BSC, "n": "4", "gamma": "0.5:3:0.5"}],
}
# row cells that are empty where their quantity is undefined
_EMPTY_CELLS = {"gamma1", "gamma2", "aA", "aR", "eps0", "rate_bits_per_use",
                "n_lo", "n_hi", "power_hat", "ratio"}
_TEXT_CELLS = {"scheme", "channel", "variant"}
# an error names a flag, an option's name or one of these quantities
_NAMED = re.compile(r"--[\w-]+|\b(%s)\b" % "|".join(list(cli._OPTIONS) + [
    "message count", "log_m", "n1", "n_avg", "K", "drift", "power", "dmc",
    "flip probability", "training_len", "thresholds", "header", "scheme"]))


# removed flags, which no verb takes
_GONE = ["--d", "--delta"]


def _abbreviations(verb):
    """The proper prefixes of the verb's flags that are not flags of it."""
    flags = {cli._OPTIONS[dest][0] for dest in cli._VERB_OPTS[verb]}
    return sorted({flag[:i] for flag in flags
                   for i in range(3, len(flag))} - flags)


@st.composite
def _argv(draw):
    """(verb, options, rogue): rogue is None or an argv tail of a flag the
    verb must refuse, its value apart or joined by '='."""
    verb = draw(st.sampled_from(sorted(_BASES)))
    opts = dict(draw(st.sampled_from(_BASES[verb])))
    for dest in draw(st.lists(st.sampled_from(cli._VERB_OPTS[verb]),
                              max_size=3, unique=True)):
        if dest in ("out", "trace"):
            continue
        pool = _POOL[dest] + ([] if dest == "workers" else _BAD)
        value = draw(st.sampled_from([None] + pool))
        if value is None:
            opts.pop(dest, None)
        else:
            opts[dest] = value
    rogue = None
    if draw(st.integers(0, 4)) == 4:
        kind = draw(st.sampled_from([_abbreviations(verb), _GONE]))
        flag = draw(st.sampled_from(kind))
        value = draw(st.sampled_from(["1", "0.2", "inf", "-1", BSC]))
        rogue = draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))
    return verb, opts, rogue


@pytest.fixture(scope="class")
def dmc_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("dmc")
    for name, content in _DMC_FILES.items():
        (path / name).write_bytes(content)
    return str(path)


class TestGrammarFuzz:
    """Every argv ends in exit 0, 1 or 2 with no escaped exception; a
    refusal writes no file and names a flag or a quantity; an exit-0 CSV
    holds only finite numbers, text and documented empty cells.  An argv
    with an abbreviated or removed flag exits 1 and names it."""

    @given(_argv())
    @settings(max_examples=320, deadline=None, derandomize=True,
              database=None)
    def test_failure_contract(self, dmc_dir, case):
        verb, opts, rogue = case
        argv = [verb]
        for dest, value in opts.items():
            argv += [cli._OPTIONS[dest][0], value.replace("{dmc}", dmc_dir)]
        argv += rogue or []
        with tempfile.TemporaryDirectory() as tmp:
            out, trace = Path(tmp, "o.csv"), Path(tmp, "t.jsonl")
            argv += ["--out", str(out)]
            if verb == "simulate":
                argv += ["--trace", str(trace)]
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2), argv
            if rogue:
                assert code == 1, argv
                assert " ".join(rogue) in err.getvalue(), (argv,
                                                           err.getvalue())
            if code:
                assert not out.exists() and not trace.exists(), argv
                assert _NAMED.search(err.getvalue()), (argv, err.getvalue())
                return
            for row in _rows(out):
                for col, cell in row.items():
                    if col in _TEXT_CELLS or (cell == "" and
                                              col in _EMPTY_CELLS):
                        continue
                    assert math.isfinite(float(cell)), (argv, col, cell)
