"""Golden records: the determinism contract as a standing test.

Each digest below pins a canonical output of the engine or the command
line.  A change that is meant to leave every seeded result alone (a
refactor, a speed-up) leaves these digests alone; a change that alters a
seeded stream on purpose updates them and says why.

Trial records are hashed value by value in ``.12g``: that prints every
count below 1e12 exactly, so the integer columns are hashed exactly and the
energy after rounding to 12 significant digits, which absorbs the ulp-level
differences SIMD ``log``/``exp`` can show between CPUs.  The trace file and
the sweep CSVs are hashed byte for byte: the trace's energies are all 0.0,
and the CSV's %.6f cells absorb ulp-level noise.  Its %.2e eps0 cells do
not: where the error target binds, eps0 = (eps - eps')/(1 - eps') is the
optimizer's leftover error, about 1e-18 to 1e-16, so a change to the
optimizer's root searches or its stop rule moves those cells and their
digest.

The digests were recorded with numpy ``GOLDEN_NUMPY``; numpy's stream
policy (NEP 19) lets a numpy release change a generator's stream, so a
mismatch under another numpy version says that first.
"""

import hashlib
import math

import numpy as np
import pytest

from vlf import ensemble
from vlf.bounds import (
    VlfParams,
    asymptotic_schedule_for_message_count,
    universal_schedule,
)
from vlf.channel import GaussianChannel, bsc
from vlf.cli import main
from vlf.engine import SchemeConfig, trial_records

GOLDEN_NUMPY = "2.4.6"
LN2 = math.log(2.0)
CH = bsc(0.11)
UNIFORM2 = np.array([0.5, 0.5])
BSC = "bsc:0.11"


def _records_digest(rec):
    text = "\n".join(",".join(format(v, ".12g") for v in row) for row in rec)
    return hashlib.sha256(text.encode()).hexdigest()


def _check(digest, expected):
    assert digest == expected, (
        f"golden digest changed (recorded with numpy {GOLDEN_NUMPY}, "
        f"running {np.__version__})"
    )


# channel, codebook and training length of each variant's pair config
PAIR_SETUPS = {
    "vlf_dmc": (CH, UNIFORM2, 0),
    "uvlf_dmc": (CH, UNIFORM2, 64),
    "uvlf_bsc": (CH, UNIFORM2, 64),
    "vlf_awgn": (GaussianChannel(1.0), None, 0),
    "uvlf_awgn": (GaussianChannel(1.0), None, 64),
}
PAIR_PARAMS = VlfParams(log_m=6.0 * LN2, gamma1=8.0, gamma2=13.0,
                        a_accept=3.0, a_reject=3.0)

# (variant, race) -> trial_records digest of the pair config, 200 trials
PAIR_DIGESTS = {
    ("vlf_dmc", "literal"):
        "0b2abf450ae9856fe1cf86ec1f6c5411b622df0c774576f7b71f0cb3dbf4f8eb",
    ("uvlf_dmc", "literal"):
        "e3dca11a7211e46242626793e6f3281fcfc456c694373ee234d251e3e937f769",
    ("uvlf_bsc", "literal"):
        "8fbf43ce2cf9a6c54dfb7193e4f86e7219abdf16c7989f383adb60b753702222",
    ("vlf_awgn", "literal"):
        "3b5b4a780220fb3c035e8f1fb4fd0f99ce570c45d8788953395446a8dce9893f",
    ("uvlf_awgn", "literal"):
        "ee6bb3a25f44b845639bd36ae957af0cb74d8558aba978d953ea01fdf33448c0",
    ("vlf_dmc", "ensemble"):
        "36c7a726e149a400bdf1485a675643c1d7d2daa0e0e091769b5fd0ea5d36fae8",
    ("vlf_awgn", "ensemble"):
        "c9d5a40505ff80cf8e2f6be339447f53198983b918a97e095deb4c1834d7d332",
    ("uvlf_dmc", "ensemble"):
        "30cc9c7a571f08302961f9cd0f81c66cb96511c032f4c8168003ff40b0e8199a",
    ("uvlf_bsc", "ensemble"):
        "766d27d89669a931f4f89fa2d321c0df932ff60a66b0dc8eafb9b2750ecccf04",
}


@pytest.mark.parametrize("variant,mode", list(PAIR_DIGESTS),
                         ids=[f"{v}-{m}" for v, m in PAIR_DIGESTS])
def test_pair_config_records(variant, mode, monkeypatch):
    if mode == "ensemble":
        # the runtime races literally whenever literal_count gives a count
        monkeypatch.setattr(ensemble, "literal_count", lambda log_m: None)
    channel, px, training = PAIR_SETUPS[variant]
    cfg = SchemeConfig(variant=variant, channel=channel, px=px,
                       params=PAIR_PARAMS, training_len=training, seed=5)
    _check(_records_digest(trial_records(cfg, 200)),
           PAIR_DIGESTS[variant, mode])


def test_known_channel_benchmark_config_records():
    # mc_known_m2e100's config: vlf_dmc at M = 2^100 on the ensemble race
    params = asymptotic_schedule_for_message_count(100 * LN2, CH, UNIFORM2)
    cfg = SchemeConfig(variant="vlf_dmc", channel=CH, px=UNIFORM2,
                       params=params, seed=10_000)
    _check(_records_digest(trial_records(cfg, 40)),
           "1e3c4396898b0df590fa4b47931919ab3e9657fa2e57cc76837857eb710b6417")


def test_universal_benchmark_config_records():
    # mc_universal_dp's config: uvlf_dmc at M = 2^60 on the mixture
    # proposal race
    params = universal_schedule(60 * LN2, 2, 2, 0.05, d=1.0)
    cfg = SchemeConfig(variant="uvlf_dmc", channel=CH, px=UNIFORM2,
                       params=params, training_len=100_000, seed=10_000)
    _check(_records_digest(trial_records(cfg, 40)),
           "0835a5df8d3b1314b1de9d483a7165c073a20cd0f333a3cdb3e5079e422ced2b")


def test_trace_file_bytes(tmp_path):
    # eps0 = 0.1 puts time-zero stops among the runs; a finite alphabet
    # charges no energy, so every value in the file is exact
    trace = tmp_path / "t.jsonl"
    assert main([
        "simulate", "--variant", "vlf_dmc", "--channel", BSC, "--M", "2^8",
        "--gamma1", "8", "--gamma2", "14", "--aA", "3", "--aR", "3",
        "--eps0", "0.1", "--trials", "60", "--seed", "42",
        "--trace", str(trace), "--out", str(tmp_path / "s.csv"),
    ]) == 0
    _check(hashlib.sha256(trace.read_bytes()).hexdigest(),
           "b7e6d5b75d9c8aede99aaac761c922e7f4c74045038b171896641bf634fdc2fc")


@pytest.mark.parametrize("spec,digest", [
    (BSC, "4f5530cd8b74e840f981298b21e1fd54b08bfb564da0fd630698cded2aef53cd"),
    ("awgn:1",
     "bc3606bbf3bfb6e1eb685c04799e354874cae343ae7bf043782b8bc071cf8b0b"),
    ("dmc:w3.txt",
     "7b2a0cc5443c0cdd084cf1514d222a00a3272ce6927c1b78a3e5aed08e19b016"),
], ids=["bsc0.11", "awgn1", "dmc3"])
def test_sweep_csv_bytes(spec, digest, tmp_path, monkeypatch):
    # the spec column is hashed too, so the DMC file has a relative path
    monkeypatch.chdir(tmp_path)
    (tmp_path / "w3.txt").write_text("0.8 0.1 0.1\n0.1 0.8 0.1\n0.1 0.1 0.8\n")
    out = tmp_path / "s.csv"
    assert main(["sweep", "--channel", spec, "--eps", "1e-3",
                 "--N", "200:4000:200", "--schemes", "thm1,vlsf,converse",
                 "--out", str(out)]) == 0
    _check(hashlib.sha256(out.read_bytes()).hexdigest(), digest)
