"""Byte-identity pins for everything the random stream and the circuit decide.

The digests below fix, for one seed and a noise level high enough that
ancilla verification rejects often (so the resynthesis loop runs):

  * the data rows of `sweep` in every sweep mode and of `stabilize`, and at
    C = 0.5, where gamma = 2 epsilon, of memory_t20 and of `stabilize` too:
    there the one-qubit locations form two classes, and the CNOTs a third;
  * the (slot, code, dx, dz) outcome of every single fault per mode;
  * the outcomes of seeded plans of 2 and 3 faults at distinct locations,
    some of which reject an ancilla attempt, whose rerun plans no fault
    (`tests/test_differential.py` checks such plans against a frame walk);
  * the noise-location records (slot, n, kind, width, tag) per mode, which
    number locations in draw order and carry the tags timing tools group by.

A change to the draw order, to a draw's arguments, to a gate, or to how
chunks are merged across workers changes a digest.  Such a change alters
published numbers and has to say so (a `stream_version` manifest key).
The sweep and stabilize rows are pinned under STREAM_VERSION, version 3,
where each ancilla rerun draws from its own substream, and must not move
with the worker count or the chunk size (`engine.BATCH`).
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
STREAM_VERSION = "3"  # the random stream the row digests below were recorded under

SWEEP_ROWS = {
    "memory_t20": "a17b42d3bc7f28331f4db1fe58deaf6c312592fdfbba28c813f9dcda9bfa0db6",
    "ec1": "e4de8d7aea82100aa535d398313751961d2b21ab68929c4734b9bb96efd2c5ea",
    "zgate": "b7e39bde3090d94d97a9e7dbecf21f2aff273505e46f797a91e682889bc4f283",
    "fig5": "dc9815c25fbfb0c562484f52498f21c36196465e1f9044a5000a11cd7928c263",
}
STABILIZE_ROWS = "9c6ec30ecbd9d7181ceb8a7fbfe4e69e7a9d4db3730d63cba26e350e48fbc311"
THREE_CLASS_ROWS = {  # C = 0.5
    "sweep": "f3e5ef02d7d403bed22dc0f8285019b9ed14c187f4c683657e9f4044ffcc670c",
    "stabilize": "1f7d8559ccd82e02932942328cc47bf2e1ce46d940e1ff72a689303b82d5df4d",
}
FAULT_OUTCOMES = {
    "memory_t20": "855d86186b192872038928af082d7fde4cb0a86944863d30686b9430888e225d",
    "ec1": "9b758f9dda3c3dca49b8257c32edd08d13e979454da1d1541375256042a78201",
    "zgate": "834c47689c6a4c2923983e9b1cbfdeee59c83f61791694251bf472626aa92b9e",
    "fig5": "8681a51414de4ca7c4a51aeeb7d089e10075c37900223a6555ce879be15a540e",
}
MULTI_FAULT_OUTCOMES = {
    ("memory_t20", 2): "c4b47b32db595235b208b0fe4ee1dde0e067cfeaa65eb578bcd16cc79e7c8444",
    ("memory_t20", 3): "4d7cd1f47187cfafb877627da3a70415518489741f1c13797b7c5ff786a24a7d",
    ("fig5", 2): "0df92632850e1ca877919a4e4b6f6b82e290da20a5df40386c34ef1cccc1ff5a",
    ("fig5", 3): "8d39653a0f7372376d04311c23a5e9b95b3c9ec8da36db6b17a7ceb40fd2fc87",
}
MULTI_FAULT_ROWS = 3000
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
        pytest.param("memory_t20", 1, 400, id="memory_t20-1"),
        pytest.param("memory_t20", 2, 400, id="memory_t20-2"),
        pytest.param("ec1", 1, 400, id="ec1-1"),
        pytest.param("zgate", 1, 400, id="zgate-1"),
        pytest.param("fig5", 1, 400, id="fig5-1"),
        pytest.param("memory_t20", 1, 7, id="memory_t20-1-batch7"),
        pytest.param("memory_t20", 2, 32768, id="memory_t20-2-batch32768"),
    ],
)
def test_sweep_rows_pinned(mode, threads, batch, tmp_path, monkeypatch):
    monkeypatch.setattr(engine, "BATCH", batch)
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--mode", mode, "--C", "inf", "--C", "1", "--epsilon", EPS,
            "--trials", TRIALS, "--seed", SEED, "--threads", str(threads),
            "--out", str(out)]
    assert cli.main(argv) == 0
    assert _manifest(out)["stream_version"] == STREAM_VERSION
    assert _sha(_data_rows(out)) == SWEEP_ROWS[mode]


# 4500 runs the one 1,500-trial chunk's 4 recoveries as windows of 3 and 1
@pytest.mark.parametrize("batch", [7, 4500, 32768], ids=lambda b: f"batch{b}")
@pytest.mark.parametrize("threads", [1, 2], ids=lambda t: f"threads{t}")
def test_stabilize_rows_pinned(threads, batch, tmp_path, monkeypatch):
    monkeypatch.setattr(engine, "BATCH", batch)
    out = tmp_path / "stab.csv"
    argv = ["stabilize", "--C", "inf", "--C", "1", "--epsilon", EPS, "--t-max", "4",
            "--trials", TRIALS, "--seed", SEED, "--threads", str(threads), "--out", str(out)]
    assert cli.main(argv) == 0
    assert _manifest(out)["stream_version"] == STREAM_VERSION
    assert _sha(_data_rows(out)) == STABILIZE_ROWS


@pytest.mark.parametrize("batch", [7, 4500], ids=lambda b: f"batch{b}")
@pytest.mark.parametrize("threads", [1, 2], ids=lambda t: f"threads{t}")
@pytest.mark.parametrize("command", sorted(THREE_CLASS_ROWS))
def test_three_class_rows_pinned(command, threads, batch, tmp_path, monkeypatch):
    monkeypatch.setattr(engine, "BATCH", batch)
    out = tmp_path / "rows.csv"
    argv = [command, "--C", "0.5", "--epsilon", EPS, "--trials", TRIALS, "--seed", SEED,
            "--threads", str(threads), "--out", str(out)]
    argv += ["--mode", "memory_t20"] if command == "sweep" else ["--t-max", "4"]
    assert cli.main(argv) == 0
    assert _manifest(out)["stream_version"] == STREAM_VERSION
    assert _sha(_data_rows(out)) == THREE_CLASS_ROWS[command]


@pytest.mark.parametrize("mode", sorted(FAULT_OUTCOMES))
def test_single_fault_outcomes_pinned(mode):
    cfg = _config(mode)
    cases = engine.enumerate_fault_cases(cfg)
    slots = np.array([c.slot for c in cases], dtype=np.int64)
    codes = np.array([c.code for c in cases], dtype=np.uint8)
    dx, dz = engine.run_fault_plan(cfg, slots[:, None], codes[:, None])
    table = np.stack([slots, codes, dx, dz]).astype(np.int64)
    assert _sha(table.tobytes()) == FAULT_OUTCOMES[mode]


@pytest.mark.parametrize("mode,k", sorted(MULTI_FAULT_OUTCOMES))
def test_multi_fault_outcomes_pinned(mode, k):
    """Plans of k faults at distinct locations per row, each code one that
    fits its location; at least a tenth of the rows reject an attempt."""
    cfg = _config(mode)
    cases = engine.enumerate_fault_cases(cfg)
    slots = np.array([c.slot for c in cases], dtype=np.int64)
    case0 = np.flatnonzero(np.diff(slots, prepend=-1))  # first case of each location
    n_codes = np.diff(np.append(case0, len(cases)))
    flag = engine._table(mode).flag
    rng = np.random.default_rng(2004 + k)
    where = rng.random((MULTI_FAULT_ROWS, len(case0))).argsort(axis=1)[:, :k]
    pick = case0[where] + (rng.random(where.shape) * n_codes[where]).astype(np.int64)
    assert flag[pick].any(axis=1).sum() >= MULTI_FAULT_ROWS // 10
    codes = np.array([c.code for c in cases], dtype=np.uint8)[pick]
    dx, dz = engine.run_fault_plan(cfg, slots[pick], codes)
    table = np.concatenate([slots[pick].T, codes.T, [dx, dz]]).astype(np.int64)
    assert _sha(table.tobytes()) == MULTI_FAULT_OUTCOMES[mode, k]


@pytest.mark.parametrize("mode", sorted(LOCATION_RECORDS))
def test_location_records_pinned(mode):
    rec = noise.RecordingSource()
    engine._run(_config(mode), rec)
    text = "\n".join(f"{r.slot},{r.n},{r.kind},{r.width},{r.tag}" for r in rec.records)
    assert _sha(text.encode()) == LOCATION_RECORDS[mode]
