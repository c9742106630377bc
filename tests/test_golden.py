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
mismatch under another numpy version says that first.  Trial i of a run
draws ``Generator(Philox(seed).jumped(i))``, and ``test_trial_streams``
pins the first draws of a few such streams with no engine code: if it
fails too, numpy's Philox stream changed; if it holds, the engine did.
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


def test_trial_streams():
    # numpy's side of the engine digests below: the first draws of trial
    # i's stream for two seeds and four trial indices
    rows = []
    for seed in (5, 10_000):
        for i in (0, 1, 255, 256):
            g = np.random.Generator(np.random.Philox(seed).jumped(i))
            rows.append([*g.random(4), *g.standard_normal(4)])
    _check(_records_digest(rows),
           "d2c822c2491efa012f1adb88b57d4c54697a3a54cd4fcd323a2bba327177cf27")


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
        "3d080bb01db7f1b8a9e80cb935073f0e5ff509a56f05f520059be5c7786f33cc",
    ("uvlf_dmc", "literal"):
        "86243aaa572701b42c75a95edd3d03b4c626619bd95c94aba1a9d663ab5ebf97",
    ("uvlf_bsc", "literal"):
        "d4c602e12b5f9015034c64fc0a45432217f5e003444a0eed0a4bb19730d31b1a",
    ("vlf_awgn", "literal"):
        "e601fc9aac14a6b3936f53515c3caa5bce22e229a5b6ce53c2c0fc959d6e74a4",
    ("uvlf_awgn", "literal"):
        "f3c8a6b5cbf166b5ba84a5bf6a99ce4014bbc8b85df5fe544b09c584dfb9779c",
    ("vlf_dmc", "ensemble"):
        "74cafaf784079ba315e9d0b3e83c11b432546200498c7fd4f7998c49a68d7f2f",
    ("vlf_awgn", "ensemble"):
        "4473241bd3e836dfdf3358731e18389a59aa7e7e6413116bef4becf3e88d89da",
    ("uvlf_dmc", "ensemble"):
        "f0c3cefcc0df52a213bb70520a2a8623b9d0e199e6b49de78f0cca738502fbf6",
    ("uvlf_bsc", "ensemble"):
        "7435a3b8b338d7828a3e288d9b2badbdbe987bd1b7c428f2031b7e75af237c19",
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
           "9ee3ce62650bf862c162c6ac56858136f27133192ebfe83083f52b8897222e0c")


def test_universal_benchmark_config_records():
    # mc_universal_dp's config: uvlf_dmc at M = 2^60 on the mixture
    # proposal race
    params = universal_schedule(60 * LN2, 2, 2, 0.05, d=1.0)
    cfg = SchemeConfig(variant="uvlf_dmc", channel=CH, px=UNIFORM2,
                       params=params, training_len=100_000, seed=10_000)
    _check(_records_digest(trial_records(cfg, 40)),
           "cb931940456ebe6b47c853d95c0210355c7eb405ce5f3f6a2544d0305da28ab1")


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
           "563c36db590a8609e4d52b6fe14951a2628207705366a59c0be5a820dd5d2de2")


def test_universal_simulate_on_a_2x3_channel_trace_bytes(tmp_path):
    # uvlf_dmc at M = 2^60 races the mixture proposals on a non-binary
    # alphabet; the trace holds every record, exactly (energies are 0.0)
    (tmp_path / "w23.txt").write_text("0.8 0.15 0.05\n0.05 0.15 0.8\n")
    trace = tmp_path / "t.jsonl"
    assert main([
        "simulate", "--variant", "uvlf_dmc",
        "--channel", f"dmc:{tmp_path / 'w23.txt'}", "--M", "2^60",
        "--eps", "0.05", "--training", "200", "--trials", "100",
        "--seed", "7", "--trace", str(trace), "--out", str(tmp_path / "s.csv"),
    ]) == 0
    _check(hashlib.sha256(trace.read_bytes()).hexdigest(),
           "6f3019d4593ef7c929ede2cb477918a0f60b72c2c92ce72453cfe792a2f5ed29")


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
