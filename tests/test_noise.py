import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from steane_mc import engine as eng
from steane_mc.noise import (
    FaultPlanSource,
    NoiseParams,
    RecordingSource,
    StreamBank,
    _gaps,
    screen_threshold,
    stream_keys,
)

_M64 = 2**64 - 1
_GOLDEN = 0x9E3779B97F4A7C15
_KIND = {"pauli1": 1, "pauli2": 2}


def _mix(z: int) -> int:
    """splitmix64's finalizer on a Python int."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _word(key: int, j: int) -> int:
    return _mix((key + (j + 1) * _GOLDEN) & _M64)


def _reference_faults(seed: int, trial: int, kind: str, p: float):
    """The stream as documented, one fault at a time in Python integers:
    yields (location, code) of class (kind, p) of one trial."""
    key = _mix((_mix((seed + _GOLDEN) & _M64) + (trial + 1) * _GOLDEN) & _M64)
    bits = int(np.float64(p).reshape(1).view(np.uint64)[0])
    key = _mix(key ^ _word(bits, _KIND[kind]))
    k, loc = 0, -1
    while True:
        u = ((_word(key, 2 * k) >> 12) + 0.5) * 2.0**-52
        with np.errstate(divide="ignore"):  # p = 1: ln(1-p) = -inf, gap 0
            loc += 1 + int(min(np.log1p(-u) / np.log1p(-p), 2.0**62))
        choices = 3 if kind == "pauli1" else 15
        yield loc, 1 + (((_word(key, 2 * k + 1) >> 32) * choices) >> 32)
        k += 1


def _dense(seed, trials, kind, p, n):
    """(len(trials), n) fault codes of the first n locations of a class."""
    out = np.zeros((len(trials), n), dtype=np.uint8)
    for r, t in enumerate(trials):
        for loc, code in _reference_faults(seed, int(t), kind, p):
            if loc >= n:
                break
            out[r, loc] = code
    return out


def _unpack(x, z, width):
    """Pauli codes 0..3 per location of packed (x, z) masks, step-major."""
    shifts = np.arange(width, dtype=np.uint8)
    xb = (x[:, :, None] >> shifts) & 1
    zb = (z[:, :, None] >> shifts) & 1
    code = np.array([[0, 3], [1, 2]], dtype=np.uint8)[xb, zb]  # [x][z] -> I,Z,X,Y
    return code.reshape(x.shape[0], -1)


@pytest.mark.parametrize("seed", [0, 77, 2**64 - 1])
def test_stream_bank_matches_dense_reference(seed):
    """Calls of any size give the faults of the one-fault-at-a-time
    reference and advance every row's counter.  A twin bank makes each call
    through the sparse `faults` and must agree."""
    m = 9
    trials = np.arange(1000, 1000 + m, dtype=np.uint64)
    bank, twin = StreamBank(seed, trials), StreamBank(seed, trials)
    for p in (1e-3, 0.17, 2.0 / 3.0, 1.0):
        for kind in ("pauli1", "pauli2"):
            ref = _dense(seed, trials, kind, p, 400)
            used = 0
            for n_steps, width in [(1, 1), (5, 7), (3, 2), (40, 1), (2, 4)]:
                n = n_steps * width
                before = bank.counters.copy()
                if kind == "pauli1":
                    got = bank.depolarize_steps(p, n_steps, width)
                    assert all(g.dtype == np.uint8 and g.shape == (m, n_steps) for g in got)
                    got = _unpack(*got, width)
                else:
                    got = bank.cnot_pairs(p, n)
                    assert got.dtype == np.uint8 and got.shape == (m, n)
                want = ref[:, used : used + n]
                assert np.array_equal(got, want), (p, kind, n_steps, width)
                r, off, code = twin.faults(kind, p, n)
                assert code.dtype == np.uint8 and np.all(code > 0)
                assert len(set(zip(r.tolist(), off.tolist()))) == r.size  # one fault a location
                sparse = np.zeros_like(want)
                sparse[r, off] = code
                assert np.array_equal(sparse, want), (p, kind, n)
                used += n
                before += np.uint64(n)
                assert np.array_equal(bank.counters, before)
                assert np.array_equal(twin.counters, before)


def test_noise_params_validation():
    NoiseParams(0.1, 2.0)
    NoiseParams.zero()
    with pytest.raises(ValueError):
        NoiseParams(1.5, math.inf)
    with pytest.raises(ValueError):
        NoiseParams(0.1, -1.0)
    with pytest.raises(ValueError):
        NoiseParams(0.1, math.nan)
    with pytest.raises(ValueError):
        NoiseParams(0.5, 1e-5)  # gamma = epsilon / C above 1
    with pytest.raises(TypeError):
        NoiseParams(0.1, 0.05, 2.0)  # gamma is derived, not given


def test_from_ratio():
    p = NoiseParams(3e-4, 1.5)
    assert p.gamma == pytest.approx(2e-4)
    assert p.gamma == 3e-4 / 1.5  # exactly the quotient the rows print
    assert NoiseParams(1e-3).gamma == 0.0


def _codes(seed, trials, p=0.3, n=200):
    return StreamBank(seed, np.asarray(trials, dtype=np.uint64)).cnot_pairs(p, n)


def test_stream_determinism():
    assert np.array_equal(_codes(123, [7]), _codes(123, [7]))
    assert not np.array_equal(_codes(123, [7]), _codes(123, [8]))
    assert not np.array_equal(_codes(123, [7]), _codes(124, [7]))


def test_zero_probability_consumes_no_draws():
    bank = StreamBank(9, np.arange(3, dtype=np.uint64))
    assert bank.depolarize_steps(0.0, 4, 7) is None
    assert bank.cnot_pairs(0.0, 5) is None
    assert not bank.counters.any()
    ref = StreamBank(9, np.arange(3, dtype=np.uint64))
    assert np.array_equal(bank.cnot_pairs(0.4, 30), ref.cnot_pairs(0.4, 30))


def test_extreme_probabilities():
    """p = 1 faults every location; p = 1e-300 (and the smallest subnormal)
    neither faults nor overflows, and still consumes its locations."""
    bank = StreamBank(5, np.arange(64, dtype=np.uint64))
    x, z = bank.depolarize_steps(1.0, 50, 7)
    assert np.all((x | z) == 0x7F)
    assert np.all(bank.cnot_pairs(1.0, 300) > 0)
    with np.errstate(all="raise"):
        for p in (1e-300, 5e-324):
            for _ in range(3):
                x, z = bank.depolarize_steps(p, 10_000, 7)
                assert not x.any() and not z.any()
                assert not bank.cnot_pairs(p, 10_000).any()
    assert np.all(bank.counters == 350 + 300 + 2 * 3 * 80_000)


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
    """A bank of one trial, one location per call, samples what the batch does."""
    eps = 0.17
    x, z = StreamBank(77, np.arange(5, dtype=np.uint64)).depolarize_steps(eps, 500, 1)
    for trial in range(5):
        bank = StreamBank(77, np.array([trial], dtype=np.uint64))
        one = [bank.depolarize_steps(eps, 1, 1) for _ in range(500)]
        assert [int(a[0, 0]) for a, _ in one] == x[trial].tolist()
        assert [int(b[0, 0]) for _, b in one] == z[trial].tolist()


@pytest.mark.parametrize("p", [1e-3, 0.17, 2.0 / 3.0])
@pytest.mark.parametrize("kind", ["pauli1", "pauli2"])
def test_fault_rate_within_5_sigma(p, kind):
    rows, n = 400, 2500
    bank = StreamBank(31, np.arange(rows, dtype=np.uint64))
    if kind == "pauli1":
        x, z = bank.depolarize_steps(p, n, 1)
        faults = np.count_nonzero(x | z)
    else:
        faults = np.count_nonzero(bank.cnot_pairs(p, n))
    total = rows * n
    assert abs(faults / total - p) < 5 * math.sqrt(p * (1 - p) / total)


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
    chi2 = stats.chisquare(hist[1:]).statistic
    assert chi2 < stats.chi2.ppf(1 - 1e-3, df=14)


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
    """Fault indicators of adjacent trials, and of the classes of one trial,
    are uncorrelated (|r| < 5 / sqrt(n))."""
    rows, per_row, p = 2000, 200, 0.3
    bank = StreamBank(42, np.arange(100, 100 + rows, dtype=np.uint64))
    mem = np.bitwise_or(*bank.depolarize_steps(p, per_row, 1)).astype(bool)
    gate = np.bitwise_or(*bank.depolarize_steps(0.2, per_row, 1)).astype(bool)
    pair = bank.cnot_pairs(p, per_row).astype(bool)
    series = [mem[0::2], mem[1::2], gate[0::2], pair[0::2], pair[1::2]]
    n = series[0].size
    for i in range(len(series)):
        for j in range(i + 1, len(series)):
            r = np.corrcoef(series[i].ravel(), series[j].ravel())[0, 1]
            assert abs(r) < 5 / math.sqrt(n), (i, j, r)


def test_stream_keys_pure_function():
    idx = np.arange(10, dtype=np.uint64)
    assert np.array_equal(stream_keys(5, idx), stream_keys(5, idx))
    assert not np.array_equal(stream_keys(5, idx), stream_keys(6, idx))


def _screen(classes):
    return {c: screen_threshold(c[1], n) for c, n in classes.items()}


def test_fault_free_reads_the_first_gaps():
    """`faulting` keeps exactly the trials whose first n locations of some
    listed class sample a fault, in order."""
    seed, trials = 3, np.arange(500, 900, dtype=np.uint64)
    classes = {("pauli1", 0.01): 40, ("pauli2", 0.02): 15, ("pauli1", 0.003): 120}
    bank = StreamBank(seed, trials)
    clean = np.ones(trials.size, dtype=bool)
    for (kind, p), n in classes.items():
        if kind == "pauli1":
            clean &= ~np.bitwise_or(*bank.depolarize_steps(p, n, 1)).any(axis=1)
        else:
            clean &= ~bank.cnot_pairs(p, n).any(axis=1)
    live = StreamBank.faulting(seed, trials, _screen(classes))
    assert np.array_equal(live.indices, trials[~clean]) and clean.any() and not clean.all()
    assert StreamBank.faulting(seed, trials, {}).size == 0


def test_faulting_bank_hands_over_its_streams():
    """The bank `faulting` returns gives, call for call and class by class,
    what a fresh bank of its trials gives, retry-sized calls among them, and
    both end with equal counters."""
    seed, trials = 11, np.arange(7000, 11000, dtype=np.uint64)
    classes = {("pauli1", 2e-3): 300, ("pauli2", 1e-3): 80, ("pauli1", 5e-4): 500}
    live = StreamBank.faulting(seed, trials, _screen(classes))
    fresh = StreamBank(seed, live.indices)
    assert 0 < live.size < trials.size
    assert np.array_equal(live.keys, fresh.keys)
    rng = np.random.default_rng(5)
    calls = list(classes.items())  # the screened pass
    for _ in range(12):  # retry-sized calls, then further passes
        c = list(classes)[rng.integers(len(classes))]
        calls += [(c, int(rng.integers(1, 60))), (c, int(rng.integers(1, 400)))]
    for (kind, p), n in calls:
        got, want = live.faults(kind, p, n), fresh.faults(kind, p, n)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b), (kind, p, n)
    assert np.array_equal(live.counters, fresh.counters) and live.counters.any()


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    picks=st.lists(st.tuples(st.integers(0, 59), st.integers(0, 539)), min_size=1, max_size=12),
    j=st.integers(1, 99),
    calls=st.lists(st.tuples(st.integers(0, 2), st.integers(1, 60)), min_size=1, max_size=6),
)
def test_rerun_substreams_agree_across_banks(seed, picks, j, calls):
    """Rerun j of attempt a of a trial draws, call for call, the same faults
    from any bank that holds the trial, whatever its other trials, the row
    the trial sits in, the nominal draws before it and the other (trial,
    attempt) pairs rerun beside it.  Its locations add to the bank's
    counters, once per pair.  Another attempt
    or another try draws other words."""
    classes = [("pauli1", 0.3), ("pauli2", 0.2), ("pauli1", 1.0)]
    trials = np.arange(5000, 5060, dtype=np.uint64)
    rows = np.array([t for t, _ in picks])
    attempt = np.array([a for _, a in picks])
    bank = StreamBank(seed, trials)
    for kind, p in classes:  # nominal draws, which a rerun must not depend on
        bank.faults(kind, p, 17)
    other = StreamBank(seed, trials[::-1])  # the same trials, in reversed rows
    ours, theirs = bank.rerun(rows, attempt, j), other.rerun(59 - rows, attempt, j)
    alone = [bank.rerun(rows[i : i + 1], int(attempt[i]), j) for i in range(rows.size)]
    before = bank.counters.copy()
    for c, n in calls:
        kind, p = classes[c]
        got, want = ours.faults(kind, p, n), theirs.faults(kind, p, n)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        for i in range(rows.size):
            r, off, code = alone[i].faults(kind, p, n)
            mine = got[0] == i
            assert np.array_equal(off, got[1][mine]) and np.array_equal(code, got[2][mine])
        np.add.at(before, rows, np.uint64(2 * n))  # ours and alone
    assert np.array_equal(bank.counters, before)
    # at p = 1 every location faults, so 40 codes show the words apart
    first = bank.rerun(rows, attempt, j).faults("pauli2", 1.0, 40)[2].reshape(rows.size, 40)
    for a, t in ((attempt + 1, j), (attempt, j + 1)):
        codes = bank.rerun(rows, a, t).faults("pauli2", 1.0, 40)[2].reshape(rows.size, 40)
        assert not (codes == first).all(axis=1).any()
    nominal = StreamBank(seed, trials[rows]).faults("pauli2", 1.0, 40)[2].reshape(rows.size, 40)
    assert not (nominal == first).all(axis=1).any()


def _workload_classes():
    """((kind, p), nominal locations) of every class of every plan behind
    the d2_sweep and stabilize_hot benchmark workloads."""
    configs = [
        eng.ExperimentConfig(mode="memory_t20", noise=NoiseParams(float(e), C), trials=1)
        for e in np.geomspace(1e-4, 3e-4, 5)
        for C in (math.inf, 1.0)
    ]
    configs.append(
        eng.ExperimentConfig(mode="stabilize", noise=NoiseParams(1e-3, 1.0), trials=1, t_max=30)
    )
    plans = [eng._plan(cfg) for cfg in configs]
    return [
        (c, n) for plan in plans
        for c, n in zip(plan.classes, (plan.n * len(plan.steps)).tolist())
    ]


def _step_is_clean(p, n, top, reach=1024):
    v = np.arange(max(top - reach, 0), min(top + reach, 2**52), dtype=np.uint64)
    g = _gaps(v << np.uint64(12), p)
    return bool((g[v < top] < n).all() and (g[v >= top] >= n).all())


@pytest.mark.filterwarnings("ignore:trials=")
def test_screen_thresholds_of_the_workloads():
    """At every class the benchmark's sweep and stabilize plans screen, the
    threshold T is where `_gaps` first reaches n: below n at T - 1, at least
    n at T (T = 2^52: no word reaches n), and a clean step over the 1024
    values each side."""
    classes = _workload_classes()
    assert len(classes) == 17
    tops = []
    for (kind, p), n in classes:
        top = screen_threshold(p, n)
        below, at = _gaps(np.array([top - 1, top % 2**52], dtype=np.uint64) << np.uint64(12), p)
        assert below < n and (top == 2**52 or at >= n), (kind, p, n)
        assert _step_is_clean(p, n, top), (kind, p, n)
        tops.append(top)
    assert 0 < min(tops) and max(tops) == 2**52  # stabilize's memory class is never clean


def test_screen_threshold_edges():
    """p = 1 leaves no trial fault-free, a gap out of reach leaves every
    trial fault-free, and a coarse class (p = 0.3, n = 7) steps cleanly."""
    assert screen_threshold(1.0, 1) == screen_threshold(1.0, 5000) == 2**52
    assert screen_threshold(1e-300, 10**15) == 0
    assert screen_threshold(0.2, 0) == 0
    top = screen_threshold(0.3, 7)
    assert 0 < top < 2**52 and _step_is_clean(0.3, 7, top)
    # 1 - (1 - p)^n of all words fault within n locations
    assert top / 2**52 == pytest.approx(1 - 0.7**7, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([1e-4, 2.7e-4, 1e-3, 0.02, 0.3, 2.0 / 3.0, 1.0]) | st.floats(1e-9, 1.0),
    n=st.integers(0, 5000),
    words=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50),
    near=st.lists(st.tuples(st.integers(-4096, 4096), st.integers(0, 4095)), max_size=50),
)
def test_screen_is_the_first_gap_compare(p, n, words, near):
    """On random words, and on words whose top 52 bits lie near the
    threshold, the integer screen says what `_gaps(word, p) >= n` says."""
    top = screen_threshold(p, n)
    near_words = [((top + d) % 2**52) << 12 | low for d, low in near]
    w = np.array(words + near_words, dtype=np.uint64)
    assert np.array_equal(w >> np.uint64(12) >= np.uint64(top), _gaps(w, p) >= n)


def test_fault_plan_single():
    src = FaultPlanSource([[0], [4], [5]], [[1], [2], [3]], [3] * 6)
    x, z = src.depolarize_steps(1.0, 2, 3)  # covers slots 0..5
    assert x[0, 0] == 1 and z[0, 0] == 0  # X at step 0, qubit 0
    assert x[1, 1] == 0b010 and z[1, 1] == 0b010  # Y at step 1, qubit 1
    assert x[2, 1] == 0 and z[2, 1] == 0b100  # Z at step 1, qubit 2


def test_fault_plan_two_faults_same_block():
    src = FaultPlanSource([[1, 3]], [[1, 1]], [3] * 7)
    x, z = src.depolarize_steps(0.0, 1, 7)
    assert x[0, 0] == 0b1010
    assert z[0, 0] == 0


def test_fault_plan_pairs():
    src = FaultPlanSource([[2], [0]], [[7], [15]], [15] * 4)
    codes = src.cnot_pairs(0.0, 4)
    assert codes[0, 2] == 7 and codes[1, 0] == 15
    assert codes[0, 0] == 0


def test_fault_plan_same_location_multiplies():
    """Two Paulis planned at one location act as their product (XOR), at a
    one-qubit location and at a CNOT location alike."""
    assert FaultPlanSource([[0, 0]], [[1, 2]], [15]).cnot_pairs(0.0, 1).tolist() == [[3]]
    plan = FaultPlanSource([[1, 1], [0, 0]], [[0b0111, 0b1101], [5, 5]], [15] * 2)
    assert plan.cnot_pairs(0.0, 2).tolist() == [[0, 0b1010], [0, 0]]  # XZ * ZX = YY; XX * XX = II
    x, z = FaultPlanSource([[2, 2]], [[1, 3]], [3] * 7).depolarize_steps(0.0, 1, 7)
    assert x[0, 0] == 0b100 and z[0, 0] == 0b100  # X * Z = Y


def test_fault_plan_rejects_codes_that_do_not_fit():
    """A code outside 0..15, or a pair code at a one-qubit location, raises
    ValueError naming the plan row and the slot as the plan is built."""
    for bad in (300, 21, 16, -1, 2.5):
        with pytest.raises(ValueError, match=r"row 1, slot 4: code .* not in 0\.\.15"):
            FaultPlanSource([[0], [4]], [[1], [bad]], [15] * 5)
    with pytest.raises(ValueError, match="row 2, slot 2: code 7 does not fit a one-qubit"):
        FaultPlanSource([[0], [3], [2]], [[1], [3], [7]], [3] * 7)
    fits = [15, 15, 15, 3, 3, 3]  # three CNOTs, then three one-qubit locations
    with pytest.raises(ValueError, match="row 1, slot 5: code 4 does not fit"):
        FaultPlanSource([[0], [5]], [[15], [4]], fits)
    assert FaultPlanSource([[2], [0]], [[15], [0]], fits).cnot_pairs(0.0, 3).tolist() == [
        [0, 0, 15], [0, 0, 0]
    ]


def test_dense_draws_are_step_major():
    """The interpreter reads one step (one CNOT) of a draw at a time, across
    its trials: that column is contiguous."""
    bank = StreamBank(5, np.arange(40, dtype=np.uint64))
    plan = FaultPlanSource(np.arange(40)[:, None], np.ones((40, 1)), [3] * 48)
    for src in (bank, plan):
        for a in (*src.depolarize_steps(0.3, 6, 7), src.cnot_pairs(0.3, 6)):
            assert a.shape == (40, 6) and a[:, 2].flags.c_contiguous


def test_recording_source_counts():
    rec = RecordingSource()
    rec.depolarize_steps(0.1, 3, 5, tag="a")
    rec.cnot_pairs(0.1, 4, tag="b")
    rec.depolarize_steps(0.0, 1, 7, tag="c")
    assert [r.slot for r in rec.records] == [0, 15, 19]
    assert [r.n for r in rec.records] == [15, 4, 7]
    assert [r.kind for r in rec.records] == ["pauli1", "pauli2", "pauli1"]
