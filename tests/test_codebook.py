"""Exhaustive checks of the coset algebra against independent oracles.

The oracles here (spanning the dual code from the check rows, brute-force
effective weights) are built from scratch in the tests and never call the
lookup-table paths they validate.
"""

from itertools import combinations

import numpy as np
import pytest

from steane_mc import codebook as cb

# independent reconstruction of the code pair from the check rows
H_ROWS_BITS = [(1, 0, 1, 0, 1, 0, 1), (0, 1, 1, 0, 0, 1, 1), (0, 0, 0, 1, 1, 1, 1)]


def _span(gens):
    words = {(0,) * 7}
    for g in gens:
        words |= {tuple(a ^ b for a, b in zip(w, g)) for w in words}
    return words


CPERP_ORACLE = _span(H_ROWS_BITS)
C_ORACLE = _span(H_ROWS_BITS + [(1,) * 7])


def _bits(v):
    return tuple((v >> i) & 1 for i in range(7))


def _int(bits):
    return sum(b << i for i, b in enumerate(bits))


def _weight(v):
    return sum(_bits(v))


def _brute_effective_weight(bits):
    return min(sum(a ^ b for a, b in zip(bits, u)) for u in CPERP_ORACLE)


def test_h_rows_match_position_encoding():
    # column j of H must be the binary expansion of j
    for j in range(1, 8):
        col = tuple(row[j - 1] for row in H_ROWS_BITS)
        assert col == ((j >> 0) & 1, (j >> 1) & 1, (j >> 2) & 1)
    assert [_bits(r) for r in cb.H_ROWS] == [tuple(r) for r in H_ROWS_BITS]


def test_build_tables_words():
    t = cb.build_tables()
    assert len(t.cperp_words) == 8
    assert len(t.c_words) == 16
    assert {_bits(w) for w in t.cperp_words} == CPERP_ORACLE
    assert {_bits(w) for w in t.c_words} == C_ORACLE
    assert 0 in t.c_words and 0b1111111 in t.c_words
    assert _int((0, 1, 1, 1, 1, 0, 0)) in t.cperp_words


def test_word_weights():
    t = cb.build_tables()
    cperp_w = sorted(_weight(w) for w in t.cperp_words)
    assert cperp_w == [0] + [4] * 7
    rest_w = sorted(_weight(w) for w in t.c_words - t.cperp_words)
    assert rest_w == [3] * 7 + [7]


def test_syndrome_examples():
    assert cb.syndrome_of(0) == 0
    assert cb.syndrome_of(0b1111111) == 0
    for j in range(1, 8):
        assert cb.syndrome_of(1 << (j - 1)) == j


def test_syndrome_matches_matrix_oracle():
    for e in range(128):
        bits = _bits(e)
        want = tuple(sum(a * b for a, b in zip(bits, row)) % 2 for row in H_ROWS_BITS)
        assert cb.syndrome_of(e) == _int(want)


def test_syndrome_linearity_exhaustive():
    syn = np.array([cb.syndrome_of(e) for e in range(128)], dtype=np.uint8)
    e = np.arange(128)[:, None]
    f = np.arange(128)[None, :]
    assert np.array_equal(syn[e ^ f], syn[e] ^ syn[f])


def test_effective_weight_brute_force():
    for e in range(128):
        assert cb.effective_weight(e) == _brute_effective_weight(_bits(e))


def test_effective_weight_examples():
    assert cb.effective_weight(0) == 0
    assert cb.effective_weight(0b1111111) == 3
    for e in cb.weight_k_vectors(2):
        assert cb.effective_weight(e) == 2
    assert all(cb.effective_weight(e) <= 3 for e in range(128))


def test_effective_weight_coset_invariance():
    t = cb.tables()
    for u in t.cperp_words:
        for e in range(128):
            assert cb.effective_weight(e ^ u) == cb.effective_weight(e)


def test_classification_partition():
    groups = cb.enumerate_by_class()
    assert [len(groups[c]) for c in cb.ErrorClass] == [8, 56, 56, 8]
    t = cb.tables()
    assert set(groups[cb.ErrorClass.TRIVIAL]) == t.cperp_words
    assert set(groups[cb.ErrorClass.LOGICAL]) == t.c_words - t.cperp_words


def test_classify_examples():
    assert cb.classify(0b0000111) is cb.ErrorClass.LOGICAL
    assert cb.classify(0b0000001) is cb.ErrorClass.CORRECTABLE_W1
    assert cb.classify(0b0000011) is cb.ErrorClass.MISCORRECT_W2


def test_correction_for():
    assert cb.correction_for(0) == 0
    for j in range(1, 8):
        unit = 1 << (j - 1)
        assert cb.correction_for(cb.syndrome_of(unit)) == unit
    with pytest.raises(ValueError):
        cb.correction_for(8)


def test_weight2_miscorrects_into_logical():
    t = cb.tables()
    for e in cb.weight_k_vectors(2):
        v = cb.correction_for(cb.syndrome_of(e))
        assert _weight(v) == 1
        assert (e ^ v) in t.c_words and (e ^ v) not in t.cperp_words


def test_ideal_recovery_exhaustive():
    zero = cb.ideal_recovery(0, 0)
    assert (zero.x_class, zero.z_class) == (cb.ErrorClass.TRIVIAL, cb.ErrorClass.TRIVIAL)
    for e in cb.weight_k_vectors(1):
        rc = cb.ideal_recovery(e, 0)
        assert rc.x_class is cb.ErrorClass.TRIVIAL
        assert rc.z_class is cb.ErrorClass.TRIVIAL
    for e in cb.weight_k_vectors(2):
        assert cb.ideal_recovery(e, 0).x_class is cb.ErrorClass.LOGICAL
        assert cb.ideal_recovery(0, e).z_class is cb.ErrorClass.LOGICAL
    # weight-3: 28 correctable, 7 logical words
    w3 = cb.weight_k_vectors(3)
    logical = [e for e in w3 if cb.ideal_recovery(e, 0).x_class is cb.ErrorClass.LOGICAL]
    trivial = [e for e in w3 if cb.ideal_recovery(e, 0).x_class is cb.ErrorClass.TRIVIAL]
    assert len(logical) == 7 and len(trivial) == 28
    assert all(e in cb.tables().c_words for e in logical)
    # outputs restricted to {TRIVIAL, LOGICAL}
    for e in range(128):
        rc = cb.ideal_recovery(e, e)
        assert rc.x_class in (cb.ErrorClass.TRIVIAL, cb.ErrorClass.LOGICAL)
        assert rc.z_class in (cb.ErrorClass.TRIVIAL, cb.ErrorClass.LOGICAL)


def test_overlap_factor():
    T, W1, W2, L = cb.ErrorClass
    mk = cb.ResidualClass
    assert cb.overlap_factor(mk(T, T), 0.3) == 1.0
    assert cb.overlap_factor(mk(L, T), 1.0) == 0.0
    assert cb.overlap_factor(mk(T, L), 1.0) == 1.0
    assert cb.overlap_factor(mk(L, L), 0.6) == 0.0
    assert cb.overlap_factor(mk(W1, T), 0.5) == 0.0
    assert cb.overlap_factor(mk(T, W2), 0.5) == 0.0
    a = 0.6
    b2 = 1 - a * a
    assert cb.overlap_factor(mk(L, T), a) == pytest.approx(4 * a * a * b2)
    assert cb.overlap_factor(mk(T, L), a) == pytest.approx((a * a - b2) ** 2)
    with pytest.raises(ValueError):
        cb.overlap_factor(mk(T, T), 1.5)


def test_weight_k_counts():
    for k, count in ((1, 7), (2, 21), (3, 35)):
        vs = cb.weight_k_vectors(k)
        assert len(vs) == count
        assert all(_weight(v) == k for v in vs)
