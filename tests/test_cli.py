"""Command-line interface: verbs, CSV schemas, config files, exit codes."""

import csv
import json
import math
import re
import warnings

import numpy as np
import pytest

from vlf import cli, engine
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

    def test_infeasible_error_floor_maps_to_exit_two(self):
        assert main(["bound", "--channel", BSC, "--N1", "1000",
                     "--eps", "1e-3"]) == 2


class TestOptimizeVerb:
    def test_writes_schedule_row(self, tmp_path):
        out = tmp_path / "o.csv"
        assert main(["optimize", "--channel", BSC, "--eps", "1e-3",
                     "--N", "500", "--out", str(out)]) == 0
        row = _rows(out)[0]
        assert row["scheme"] == "thm1"
        assert float(row["logM_nats"]) == pytest.approx(168.119757, abs=1e-4)
        assert row["gamma1"] != ""

    def test_unreachable_targets_exit_two(self):
        assert main(["optimize", "--channel", BSC, "--eps", "1e-3",
                     "--N", "0.5"]) == 2

    def test_low_snr_gaussian_optimizes(self, tmp_path):
        out = tmp_path / "o.csv"
        assert main(["optimize", "--channel", "awgn:0.001", "--eps", "1e-3",
                     "--N", "20000", "--out", str(out)]) == 0
        assert float(_rows(out)[0]["logM_nats"]) > 0

    def test_gaussian_walk_constants_emit_no_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["optimize", "--channel", "awgn:0.1", "--eps", "1e-3",
                         "--N", "2000"])
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

    def test_resume_skips_existing_rows(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        args = ["sweep", "--channel", BSC, "--eps", "1e-3",
                "--schemes", "thm1", "--out", str(out), "--resume"]
        assert main(args + ["--N", "500"]) == 0
        assert main(args + ["--N", "500:1000:500"]) == 0
        assert "1 row(s)" in capsys.readouterr().out
        assert len(_rows(out)) == 2

    def test_unknown_scheme_rejected(self, tmp_path):
        assert main(["sweep", "--channel", BSC, "--eps", "1e-3",
                     "--N", "500", "--schemes", "thm1,magic"]) == 1

    @pytest.mark.parametrize(
        "grid", ["nan", "-5", "0", "inf", "200:nan:200", "0:400:200",
                 "200:400:0", "200:400:-100"],
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
        ens = tmp_path / "ens.csv"
        assert main(args + ["--out", str(auto)]) == 0
        assert main(args + ["--competitor-mode", "ensemble",
                            "--out", str(ens)]) == 0
        assert auto.read_bytes() == ens.read_bytes()
        assert main(args + ["--competitor-mode", "literal"]) == 1

    def test_seed_is_required(self):
        args = [a for a in self._ARGS if a not in ("--seed", "42")]
        assert main(args) == 1

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

    def test_universal_schedule_path(self, tmp_path):
        out = tmp_path / "u.csv"
        assert main([
            "simulate", "--variant", "uvlf_bsc", "--channel", BSC,
            "--M", "2^60", "--eps", "0.05", "--d", "1.0",
            "--training", "1000", "--trials", "100", "--seed", "2",
            "--out", str(out),
        ]) == 0
        row = _rows(out)[0]
        assert float(row["logM_nats"]) == pytest.approx(60 * math.log(2), abs=1e-4)
        assert float(row["gamma1"]) > 0

    def test_unset_options_take_the_library_defaults(self, tmp_path):
        # no --training, --c2, --competitor-mode, --honest-time-zero,
        # --workers or --eps0: the row is that of a SchemeConfig built from
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
                                      ["--min-eval-len", "3"]])
    def test_removed_knobs_rejected(self, flag):
        args = [a if a != "400" else "20" for a in self._ARGS]
        assert main(args + flag) == 1

    def test_partial_threshold_set_rejected(self):
        assert main([
            "simulate", "--variant", "vlf_dmc", "--channel", BSC,
            "--M", "2^8", "--gamma1", "8", "--trials", "10", "--seed", "0",
        ]) == 1

    @pytest.mark.parametrize("workers", ["0", "-5"])
    def test_worker_count_below_one_rejected(self, workers, capsys):
        args = [a if a != "400" else "20" for a in self._ARGS]
        assert main(args + ["--workers", workers]) == 1
        assert "workers must be >= 1" in capsys.readouterr().err

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

    def test_needs_finite_alphabet(self):
        assert main(["oracle", "--channel", "awgn:1.0", "--n", "10",
                     "--gamma", "1"]) == 1


class TestConfigFile:
    def test_file_supplies_options_and_flags_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# shared experiment setup\n"
            'channel = "bsc:0.11"\n'
            "variant = vlf_dmc\n"
            "M = 2^8\n"
            "gamma1 = 8.0\n"
            "gamma2 = 14.0\n"
            "aA = 3.0\n"
            "aR = 3.0\n"
            "trials = 120\n"
        )
        a = tmp_path / "a.csv"
        assert main(["simulate", "--config", str(cfg), "--seed", "5",
                     "--out", str(a)]) == 0
        row = _rows(a)[0]
        assert row["trials"] == "120"
        b = tmp_path / "b.csv"
        assert main(["simulate", "--config", str(cfg), "--seed", "5",
                     "--trials", "60", "--out", str(b)]) == 0
        assert _rows(b)[0]["trials"] == "60"

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("channel = bsc:0.11\nwarp_speed = 9\n")
        assert main(["simulate", "--config", str(cfg), "--seed", "1"]) == 1

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("channel bsc:0.11\n")
        assert main(["bound", "--config", str(cfg), "--N1", "2000"]) == 1


class TestErrorHandling:
    def test_unknown_verb_and_flag_exit_one(self):
        assert main(["transmogrify"]) == 1
        assert main(["bound", "--frequency", "11"]) == 1
        assert main([]) == 1

    def test_bad_channel_spec_exits_one(self):
        assert main(["bound", "--channel", "fiber:9", "--N1", "2000"]) == 1

    def test_stdout_fallback_without_output_file(self, capsys):
        assert main(["sweep", "--channel", BSC, "--eps", "1e-3",
                     "--N", "500", "--schemes", "converse"]) == 0
        assert "converse,bsc:0.11,500.000000" in capsys.readouterr().out


class TestRepeatedCalls:
    def test_back_to_back_calls_do_not_leak_options(self, tmp_path, capsys):
        assert cli._build_parser() is cli._build_parser()  # built once
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("eps = 1e-3\n")
        out = tmp_path / "s.csv"
        args = ["sweep", "--channel", BSC, "--N", "500",
                "--schemes", "converse", "--out", str(out)]
        assert main(args + ["--config", str(cfg), "--resume"]) == 0
        # the first call's --config value does not reach the second
        assert main(args) == 1
        assert "--eps is required" in capsys.readouterr().err
        # nor does its --resume: the row is written again
        assert main(args + ["--eps", "1e-3"]) == 0
        assert len(_rows(out)) == 2
