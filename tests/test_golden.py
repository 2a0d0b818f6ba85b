"""Byte-identity pins for everything the random stream and the circuit decide.

The digests below fix, for one seed and a noise level high enough that
ancilla verification rejects often (so the resynthesis loop runs):

  * the data rows of `sweep` in every sweep mode and of `stabilize`;
  * the (slot, code, dx, dz) outcome of every single fault per mode;
  * the noise-location records (slot, n, kind, width, tag) per mode, which
    number locations in draw order and carry the tags timing tools group by.

A change to the draw order, to a draw's arguments, to a gate, or to how
chunks are merged across workers changes a digest.  Such a change alters
published numbers and has to say so (a `stream_version` manifest key).
The sweep and stabilize rows are pinned under STREAM_VERSION, and must not
move with the worker count or the chunk size (STEANE_MC_BATCH).
"""

import hashlib

import numpy as np
import pytest

from steane_mc import cli, engine, noise
from steane_mc.noise import NoiseParams

pytestmark = pytest.mark.filterwarnings("ignore:trials=")

SEED = "2024"
EPS = "2e-2"
TRIALS = "1500"
STREAM_VERSION = "2"  # the random stream the row digests below were recorded under

SWEEP_ROWS = {
    "memory_t20": "705e48390cce94f7687ce924e8d4defe9112c872289e9dc94de426ba4eda4f1b",
    "ec1": "4ec513726c29f71095c27cf5a2168f554ccac7e13fb7dd58bd781c74be349378",
    "zgate": "2a57fd79b053b4532e3d36b57aad364bc15290f082fb9808c2d3cecc91ef282e",
    "fig5": "064ff93ce144b9d0bb56d254600dd9292dceccc1c41446d4e93b857c002e46c4",
}
STABILIZE_ROWS = "108b64d213fbed855dc9fc036cedafe7715ae61ee4a26fc70a19d6c17f192c00"
FAULT_OUTCOMES = {
    "memory_t20": "855d86186b192872038928af082d7fde4cb0a86944863d30686b9430888e225d",
    "ec1": "9b758f9dda3c3dca49b8257c32edd08d13e979454da1d1541375256042a78201",
    "zgate": "834c47689c6a4c2923983e9b1cbfdeee59c83f61791694251bf472626aa92b9e",
    "fig5": "8681a51414de4ca7c4a51aeeb7d089e10075c37900223a6555ce879be15a540e",
}
LOCATION_RECORDS = {
    "memory_t20": "1285b8735b318d4520a0ba5b8c634a06d23239dbf6a99e5db4d29ed3cdf48cc6",
    "ec1": "dd7a4b6837d3cefac8036aec187b2df01da756cdd5b3cb63ed4518c4a7c3aa3d",
    "zgate": "5928d2d96e673bdab0b5238e87590d192979e1d4b436f95a9124962ba6b9f0fd",
    "fig5": "4276e04237d956ee9803379cd37872405d5292be556026760422bb678e53405c",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _data_rows(path) -> bytes:
    with open(path) as fh:
        return "".join(l for l in fh if not l.startswith("# ")).encode()


def _config(mode):
    return engine.ExperimentConfig(
        mode=mode, noise=NoiseParams.zero(), encoder_noisy=(mode == "fig5")
    )


def _manifest(path) -> dict:
    with open(path) as fh:
        return dict(l[2:].rstrip("\n").split(" = ", 1) for l in fh if l.startswith("# "))


@pytest.mark.parametrize(
    "mode,threads,batch",
    [
        # 400: small chunks, so that two workers share the chunks of both cells
        pytest.param("memory_t20", 1, "400", id="memory_t20-1"),
        pytest.param("memory_t20", 2, "400", id="memory_t20-2"),
        pytest.param("ec1", 1, "400", id="ec1-1"),
        pytest.param("zgate", 1, "400", id="zgate-1"),
        pytest.param("fig5", 1, "400", id="fig5-1"),
        pytest.param("memory_t20", 1, "7", id="memory_t20-1-batch7"),
        pytest.param("memory_t20", 2, "32768", id="memory_t20-2-batch32768"),
    ],
)
def test_sweep_rows_pinned(mode, threads, batch, tmp_path, monkeypatch):
    monkeypatch.setenv("STEANE_MC_BATCH", batch)
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--mode", mode, "--C", "inf", "--C", "1", "--epsilon", EPS,
            "--trials", TRIALS, "--seed", SEED, "--threads", str(threads),
            "--out", str(out)]
    assert cli.main(argv) == 0
    assert _manifest(out)["stream_version"] == STREAM_VERSION
    assert _sha(_data_rows(out)) == SWEEP_ROWS[mode]


def test_stabilize_rows_pinned(tmp_path):
    out = tmp_path / "stab.csv"
    argv = ["stabilize", "--C", "inf", "--C", "1", "--epsilon", EPS, "--t-max", "4",
            "--trials", TRIALS, "--seed", SEED, "--threads", "1", "--out", str(out)]
    assert cli.main(argv) == 0
    assert _manifest(out)["stream_version"] == STREAM_VERSION
    assert _sha(_data_rows(out)) == STABILIZE_ROWS


@pytest.mark.parametrize("mode", sorted(FAULT_OUTCOMES))
def test_single_fault_outcomes_pinned(mode):
    cfg = _config(mode)
    cases = engine.enumerate_fault_cases(cfg)
    slots = np.array([c.slot for c in cases], dtype=np.int64)
    codes = np.array([c.code for c in cases], dtype=np.uint8)
    dx, dz = engine.run_fault_plan(cfg, slots[:, None], codes[:, None])
    table = np.stack([slots, codes, dx, dz]).astype(np.int64)
    assert _sha(table.tobytes()) == FAULT_OUTCOMES[mode]


@pytest.mark.parametrize("mode", sorted(LOCATION_RECORDS))
def test_location_records_pinned(mode, monkeypatch):
    made = []

    class Capture(noise.RecordingSource):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(engine, "RecordingSource", Capture)
    engine.enumerate_fault_cases(_config(mode))
    (rec,) = made
    text = "\n".join(f"{r.slot},{r.n},{r.kind},{r.width},{r.tag}" for r in rec.records)
    assert _sha(text.encode()) == LOCATION_RECORDS[mode]
