import math

import numpy as np
import pytest
from scipy import optimize

from steane_mc import analysis as an


def test_fit_through_origin_exact_quadratic():
    eps = [1e-4, 2e-4, 5e-4, 1e-3]
    pts = [(e, 5.0 * e * e, 1e-9) for e in eps]
    fit = an.fit_through_origin(pts, degree=2)
    assert fit.coefficient == pytest.approx(5.0, abs=1e-12)
    assert fit.model == "c*x^2"


def test_fit_through_origin_exact_linear():
    pts = [(e, 290.8 * e, 1e-9) for e in (1e-4, 3e-4, 1e-3)]
    fit = an.fit_through_origin(pts, degree=1)
    assert fit.coefficient == pytest.approx(290.8, abs=1e-10)


def test_fit_through_origin_reference_consistent_synthetic():
    # synthetic counts drawn around D2 eps^2 with D2 = 33961
    rng = np.random.default_rng(3)
    n = 10**6
    d2 = 33961.0
    pts = []
    for e in np.geomspace(1e-4, 5e-4, 5):
        k = rng.binomial(n, d2 * e * e)
        y = k / n
        pts.append((e, y, an.binomial_sigma(k, n)))
    fit = an.fit_through_origin(pts, degree=2)
    assert abs(fit.coefficient - d2) < 4 * fit.stderr


def test_fit_through_origin_errors():
    with pytest.raises(an.AnalysisError):
        an.fit_through_origin([(1e-3, 1e-2, 1e-4)], degree=2)
    with pytest.raises(an.AnalysisError):
        an.fit_through_origin([(1e-3, 1e-2, 1e-4), (1e-3, 2e-2, 1e-4)], degree=2)
    with pytest.raises(an.AnalysisError):
        an.fit_through_origin([(1e-3, 1e-2, 0.0), (2e-3, 2e-2, 1e-4)], degree=2)
    with pytest.raises(an.AnalysisError):
        an.fit_through_origin([(1e-3, 1e-2, 1e-4), (2e-3, 2e-2, 1e-4)], degree=3)


def test_fit_line():
    ts = np.arange(1, 31, dtype=float)
    pts = [(t, 1.0, 1e-6) for t in ts]
    fit = an.fit_line(pts)
    assert fit.coefficients[0] == pytest.approx(0.0, abs=1e-12)
    assert fit.coefficients[1] == pytest.approx(1.0)

    pts = [(t, 1.0 - 0.001 * t, 1e-9) for t in ts]
    fit = an.fit_line(pts)
    assert fit.coefficients[0] == pytest.approx(0.001, abs=1e-12)

    with pytest.raises(an.AnalysisError):
        an.fit_line(pts[:2])


def test_fit_line_naked_qubit_slope():
    eps = 1e-4
    pts = [(t, (1 - 2 * eps / 3) ** t, 1e-9) for t in range(0, 51)]
    fit = an.fit_line(pts)
    assert fit.coefficients[0] == pytest.approx(2 * eps / 3, rel=0.02)


def test_fit_slope_poly():
    eps = np.geomspace(1e-4, 1e-2, 8)
    fit = an.fit_slope_poly([(e, 7.0 * e * e) for e in eps], degree=3)
    assert fit.coefficients[0] == pytest.approx(0.0, abs=1e-8)
    assert fit.coefficients[1] == pytest.approx(7.0, rel=1e-8)
    assert fit.coefficients[2] == pytest.approx(0.0, abs=1e-6)

    fit = an.fit_slope_poly([(e, 3.0 * e + 4.0 * e**3) for e in eps], degree=3)
    assert fit.coefficients[0] == pytest.approx(3.0, rel=1e-10)
    assert fit.coefficients[2] == pytest.approx(4.0, rel=1e-6)

    with pytest.raises(an.AnalysisError):
        an.fit_slope_poly([(1e-3, 1.0), (2e-3, 2.0)], degree=2)
    with pytest.raises(an.AnalysisError):
        an.fit_slope_poly([(1e-3, 1.0), (2e-3, 2.0), (3e-3, 1.0)], degree=4)


def test_fit_free_quadratic():
    eps = np.linspace(1e-4, 1e-3, 6)
    pts = [(e, 2.0 + 0.0 * e + 9.0 * e * e, 1e-9) for e in eps]
    fit = an.fit_free_quadratic(pts)
    assert fit.coefficients[0] == pytest.approx(2.0)
    assert fit.coefficients[1] == pytest.approx(0.0, abs=1e-6)
    assert fit.coefficients[2] == pytest.approx(9.0, rel=1e-6)


def test_crossing_against_brentq():
    d2 = 33961.0
    f = lambda e: d2 * e * e
    g = lambda e: an.uncorrected_error_probability(e, 20)
    root = an.crossing(f, g)
    oracle = optimize.brentq(lambda e: f(e) - g(e), 1e-8, 1e-1, xtol=1e-16)
    assert root == pytest.approx(oracle, rel=1e-8)
    assert root == pytest.approx(an.PUBLISHED_THRESHOLDS_INF["eps_pth"], rel=0.02)


def test_crossing_errors_and_trivia():
    with pytest.raises(an.AnalysisError):
        an.crossing(lambda e: e, lambda e: 2 * e, bracket=(0.5, 2.0))
    assert an.crossing(lambda e: e * e, lambda e: e, bracket=(0.5, 2.0)) == pytest.approx(1.0)
    with pytest.raises(an.AnalysisError):
        an.crossing(lambda e: e, lambda e: e + 1, bracket=(2.0, 1.0))


def test_g1_combine_examples():
    assert an.g1_combine(math.inf, 290.8, 33961.0) == pytest.approx(36715.6, abs=0.1)
    assert an.g1_combine(1.0, 343.8, 43843.2) == pytest.approx(48749.7, abs=0.1)
    assert an.g1_combine(0.3, 489.0, 81440.2) == pytest.approx(93900.2, abs=0.5)


def test_g1_combine_reproduces_reference_table():
    for row in an.PUBLISHED_TABLE1:
        assert abs(an.g1_combine(row.ratio_C, row.D1, row.D2) - row.G1) <= 0.5


def test_thresholds_from_reference_row():
    inf_row = an.PUBLISHED_TABLE1[-1]
    ts = an.thresholds_from(inf_row)
    published = an.PUBLISHED_THRESHOLDS_INF
    assert ts.eps_mth == pytest.approx(published["eps_mth"], rel=0.02)
    assert ts.eps_thg1 == pytest.approx(published["eps_thg1"], rel=0.02)
    assert ts.eps_thg2 == pytest.approx(1.36e-5, rel=0.02)  # published 1.3e-5, truncated
    assert ts.eps_thg2 == ts.eps_thg1 / 2.0
    assert ts.eps_mth * inf_row.D2 == pytest.approx(1.0)
    assert ts.eps_pth == pytest.approx(published["eps_pth"], rel=0.02)


def test_pth_matches_small_eps_closed_form():
    for row in an.PUBLISHED_TABLE1:
        ts = an.thresholds_from(row)
        assert ts.eps_pth == pytest.approx(40.0 / (3.0 * row.D2), rel=0.02)
        assert ts.eps_pth_approx == pytest.approx(40.0 / (3.0 * row.D2))


def test_thresholds_with_slope_fit():
    # planted slope polynomial A = 3000 eps^2 crosses 2 eps / 3 at 1/4500
    fit = an.fit_slope_poly(
        [(e, 3000.0 * e * e) for e in np.geomspace(1e-5, 1e-3, 6)], degree=2
    )
    ts = an.thresholds_from(an.PUBLISHED_TABLE1[-1], slope_fit=fit)
    assert ts.eps_sth == pytest.approx(2.0 / (3.0 * 3000.0), rel=1e-6)


def test_binomial_sigma_half_count():
    assert an.binomial_sigma(0, 100) > 0
    assert an.binomial_sigma(0, 100) == pytest.approx(an.binomial_sigma(100, 100))
    assert an.binomial_sigma(50, 100) == pytest.approx(0.05)
    with pytest.raises(an.AnalysisError):
        an.binomial_sigma(1, 0)


def test_poly_eval_zero_constant():
    assert an.poly_eval_zero_constant((2.0, 3.0), 0.5) == pytest.approx(2 * 0.5 + 3 * 0.25)
