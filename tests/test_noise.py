import math

import numpy as np
import pytest
from scipy import stats

from steane_mc.noise import (
    _BLOCK,
    FaultPlanSource,
    NoiseParams,
    RecordingSource,
    StreamBank,
    stream_keys,
)

_TWO64 = 2**64
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _threshold(p: float) -> int:
    return min(int(p * _TWO64), _TWO64 - 1)


def _scalar_raws(seed: int, trial: int, n: int) -> list[int]:
    """n raw 64-bit draws of one trial, taken one at a time."""
    bank = StreamBank(seed, np.array([trial], dtype=np.uint64))
    return [int(bank._raw(1, None)[0, 0]) for _ in range(n)]


def _scalar_pauli(z: int, p: float) -> str:
    """Reference decode of one draw at a memory / one-qubit-gate location."""
    if z >= _threshold(p):
        return "I"
    if z < _threshold(p / 3.0):
        return "X"
    return "Y" if z < _threshold(2.0 * p / 3.0) else "Z"


def _scalar_pair_code(z: int, p: float) -> int:
    """Reference decode of one draw at a CNOT location: pair code 0..15."""
    if z >= _threshold(p):
        return 0
    return 1 + min(int(z * 2.0**-64 * (15.0 / p)), 14)


def _dense_mix64(z):
    """splitmix64's finalizer, allocating a temporary per operation."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def _dense_raw(bank, n, idx):
    """Reference draws: the next n words of the rows idx of bank, in one
    (m, n) pass; reads the counters without advancing them."""
    keys, ctr = (bank.keys, bank.counters) if idx is None else (bank.keys[idx], bank.counters[idx])
    with np.errstate(over="ignore"):
        gold = np.arange(1, n + 1, dtype=np.uint64) * _GOLDEN
        return _dense_mix64((keys + ctr * _GOLDEN)[:, None] + gold)


def _dense_depolarize(z, p, n_steps, width):
    """Reference decode: threshold every draw, pack width bits per step."""
    t = lambda q: np.uint64(_threshold(q))  # noqa: E731
    xb = z < t(2.0 * p / 3.0)
    zb = (z >= t(p / 3.0)) & (z < t(p))
    m = z.shape[0]
    xp = np.packbits(xb.reshape(m * n_steps, width), axis=1, bitorder="little")
    zp = np.packbits(zb.reshape(m * n_steps, width), axis=1, bitorder="little")
    return xp[:, 0].reshape(m, n_steps), zp[:, 0].reshape(m, n_steps)


def _dense_pairs(z, p):
    """Reference decode: a pair code for every draw, zeroed where no error."""
    u = z.astype(np.float64) * (2.0**-64)
    code = 1 + np.minimum((u * (15.0 / p)).astype(np.int64), 14)
    return np.where(z < np.uint64(_threshold(p)), code, 0).astype(np.uint8)


@pytest.mark.parametrize("seed", [0, 77, _TWO64 - 1])
def test_stream_bank_matches_dense_reference(seed):
    """Blocked hashing and sparse decoding give the dense decoder's output
    exactly, within one hash block, across several blocks of rows, and with
    one row per block (n > _BLOCK); row subsets advance only their counters."""
    m = 12
    bank = StreamBank(seed, np.arange(1000, 1000 + m, dtype=np.uint64))
    subsets = [None, np.array([0, 5, 11]), np.array([3]), np.arange(1, m), np.array([9, 2])]
    k = 0
    for p in (1e-4, 0.17, 2.0 / 3.0, 1.0):
        for width in range(1, 8):
            for n_steps in (1, 5, 2 * _BLOCK // (m * width), _BLOCK // width + 1):
                n = n_steps * width
                idx = subsets[k % len(subsets)]
                rows = np.arange(m) if idx is None else idx
                k += 1
                before = bank.counters.copy()
                ref = _dense_depolarize(_dense_raw(bank, n, idx), p, n_steps, width)
                got = bank.depolarize_steps(p, n_steps, width, idx=idx)
                assert all(g.dtype == np.uint8 and g.shape == (rows.size, n_steps) for g in got)
                assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
                before[rows] += np.uint64(n)
                assert np.array_equal(bank.counters, before)
                ref = _dense_pairs(_dense_raw(bank, n, idx), p)
                got = bank.cnot_pairs(p, n, idx=idx)
                assert got.dtype == np.uint8 and np.array_equal(got, ref)
                before[rows] += np.uint64(n)
                assert np.array_equal(bank.counters, before)


def test_noise_params_validation():
    NoiseParams(0.1, 0.05, 2.0)
    NoiseParams.zero()
    with pytest.raises(ValueError):
        NoiseParams(1.5, 0.0, math.inf)
    with pytest.raises(ValueError):
        NoiseParams(0.1, 0.2, math.inf)  # inf ratio demands gamma = 0
    with pytest.raises(ValueError):
        NoiseParams(0.1, 0.02, 2.0)  # inconsistent with eps / C
    with pytest.raises(ValueError):
        NoiseParams(0.1, 0.05, -1.0)


def test_from_ratio():
    p = NoiseParams.from_ratio(3e-4, 1.5)
    assert p.gamma == pytest.approx(2e-4)
    assert NoiseParams.from_ratio(1e-3, math.inf).gamma == 0.0


def test_stream_determinism():
    def draws(seed, trial):
        bank = StreamBank(seed, np.array([trial], dtype=np.uint64))
        return bank._raw(50, None)

    assert np.array_equal(draws(123, 7), draws(123, 7))
    assert not np.array_equal(draws(123, 7), draws(123, 8))
    assert not np.array_equal(draws(123, 7), draws(124, 7))


def test_zero_probability_consumes_no_draws():
    bank = StreamBank(9, np.arange(3, dtype=np.uint64))
    assert bank.depolarize_steps(0.0, 4, 7) is None
    assert bank.cnot_pairs(0.0, 5) is None
    assert bank.depolarize_steps(0.0, 2, 3, idx=np.array([1])) is None
    assert not bank.counters.any()
    ref = StreamBank(9, np.arange(3, dtype=np.uint64))
    assert np.array_equal(bank._raw(3, None), ref._raw(3, None))


def _batch_category_counts(p, n_draws, seed=101):
    """Sample n_draws memory locations via the batched path."""
    bank = StreamBank(seed, np.arange(n_draws // 1000, dtype=np.uint64))
    x, z = bank.depolarize_steps(p, 1000, 1)
    xb = x.astype(bool)
    zb = z.astype(bool)
    counts = {
        "X": int(np.count_nonzero(xb & ~zb)),
        "Y": int(np.count_nonzero(xb & zb)),
        "Z": int(np.count_nonzero(zb & ~xb)),
        "I": int(np.count_nonzero(~xb & ~zb)),
    }
    return counts


def test_memory_distribution_degenerate():
    assert StreamBank(3, np.zeros(1, dtype=np.uint64)).depolarize_steps(0.0, 100, 1) is None
    counts = _batch_category_counts(1.0, 300_000)
    assert counts["I"] == 0
    for k in ("X", "Y", "Z"):
        assert abs(counts[k] / 300_000 - 1 / 3) < 0.01


def test_memory_distribution_binomial_bound():
    eps = 0.3
    n = 1_000_000
    counts = _batch_category_counts(eps, n)
    sigma = math.sqrt((eps / 3) * (1 - eps / 3) / n)
    assert abs(counts["X"] / n - 0.1) < 5 * sigma
    assert abs(counts["Y"] / n - 0.1) < 5 * sigma
    assert abs(counts["Z"] / n - 0.1) < 5 * sigma


def test_scalar_matches_batch_categories():
    eps = 0.17
    scal = [_scalar_pauli(z, eps) for z in _scalar_raws(77, 3, 500)]
    bank = StreamBank(77, np.array([3], dtype=np.uint64))
    x, z = bank.depolarize_steps(eps, 500, 1)
    name = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
    batch = [name[(int(x[0, i]), int(z[0, i]))] for i in range(500)]
    assert scal == batch


def test_gate_sampler_distribution():
    gamma = 0.02
    n = 1_000_000
    counts = _batch_category_counts(gamma, n)
    p_err = 1 - counts["I"] / n
    sigma = math.sqrt(gamma * (1 - gamma) / n)
    assert abs(p_err - gamma) < 5 * sigma


def test_two_qubit_distribution():
    gamma = 0.15
    n = 600_000
    bank = StreamBank(11, np.arange(n // 100, dtype=np.uint64))
    codes = bank.cnot_pairs(gamma, 100)
    flat = codes.ravel()
    sigma = math.sqrt((gamma / 15) * (1 - gamma / 15) / n)
    hist = np.bincount(flat, minlength=16)
    assert hist.sum() == n  # distribution sums to 1
    for code in range(1, 16):
        assert abs(hist[code] / n - 0.01) < 5 * sigma
    assert abs(hist[0] / n - (1 - gamma)) < 5 * math.sqrt(gamma * (1 - gamma) / n)
    scal = [_scalar_pair_code(z, gamma) for z in _scalar_raws(4, 2, 200)]
    batch = StreamBank(4, np.array([2], dtype=np.uint64)).cnot_pairs(gamma, 200)
    assert scal == batch[0].tolist()


def test_chi_square_goodness_of_fit():
    eps = 0.09
    n = 1_000_000
    counts = _batch_category_counts(eps, n)
    expected = {
        "I": n * (1 - eps),
        "X": n * eps / 3,
        "Y": n * eps / 3,
        "Z": n * eps / 3,
    }
    chi2 = sum((counts[k] - expected[k]) ** 2 / expected[k] for k in counts)
    assert chi2 < stats.chi2.ppf(1 - 1e-3, df=3)


def test_adjacent_stream_independence():
    n = 100_000
    bank = StreamBank(42, np.array([100, 101], dtype=np.uint64))
    z = bank._raw(n, None)
    u = ((z >> np.uint64(11)) + 0.5) * 2.0**-53
    r = np.corrcoef(u[0], u[1])[0, 1]
    assert abs(r) < 5 / math.sqrt(n)


def test_stream_keys_pure_function():
    idx = np.arange(10, dtype=np.uint64)
    assert np.array_equal(stream_keys(5, idx), stream_keys(5, idx))
    assert not np.array_equal(stream_keys(5, idx), stream_keys(6, idx))


def test_subset_draws_match_full():
    bank1 = StreamBank(8, np.arange(6, dtype=np.uint64))
    full = bank1.depolarize_steps(0.4, 2, 3)
    bank2 = StreamBank(8, np.arange(6, dtype=np.uint64))
    idx = np.array([1, 4])
    sub = bank2.depolarize_steps(0.4, 2, 3, idx=idx)
    assert np.array_equal(full[0][idx], sub[0])
    assert np.array_equal(full[1][idx], sub[1])
    # counters advanced only for the subset
    assert list(bank2.counters) == [0, 6, 0, 0, 6, 0]


def test_fault_plan_single():
    src = FaultPlanSource(3, [[0], [4], [5]], [[1], [2], [3]])
    x, z = src.depolarize_steps(1.0, 2, 3)  # covers slots 0..5
    assert x[0, 0] == 1 and z[0, 0] == 0  # X at step 0, qubit 0
    assert x[1, 1] == 0b010 and z[1, 1] == 0b010  # Y at step 1, qubit 1
    assert x[2, 1] == 0 and z[2, 1] == 0b100  # Z at step 1, qubit 2


def test_fault_plan_two_faults_same_block():
    src = FaultPlanSource(1, [[1, 3]], [[1, 1]])
    x, z = src.depolarize_steps(0.0, 1, 7)
    assert x[0, 0] == 0b1010
    assert z[0, 0] == 0


def test_fault_plan_pairs():
    src = FaultPlanSource(2, [[2], [0]], [[7], [15]])
    codes = src.cnot_pairs(0.0, 4)
    assert codes[0, 2] == 7 and codes[1, 0] == 15
    assert codes[0, 0] == 0


def test_recording_source_counts():
    rec = RecordingSource()
    rec.depolarize_steps(0.1, 3, 5, tag="a")
    rec.cnot_pairs(0.1, 4, tag="b")
    rec.depolarize_steps(0.0, 1, 7, tag="c")
    assert [r.slot for r in rec.records] == [0, 15, 19]
    assert [r.n for r in rec.records] == [15, 4, 7]
    assert [r.kind for r in rec.records] == ["pauli1", "pauli2", "pauli1"]
