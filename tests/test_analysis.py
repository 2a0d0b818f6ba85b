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
    for degree in (1, 2):  # one coefficient: 2 points at 2 distinct x, no fewer
        an.fit_through_origin([(1e-3, 1e-2, 1e-4), (2e-3, 3e-2, 1e-4)], degree=degree)
        with pytest.raises(an.AnalysisError, match="need at least 2 points"):
            an.fit_through_origin([(1e-3, 1e-2, 1e-4)], degree=degree)
    with pytest.raises(an.AnalysisError):
        an.fit_through_origin([(1e-3, 1e-2, 1e-4), (1e-3, 2e-2, 1e-4)], degree=2)
    with pytest.raises(an.AnalysisError):
        an.fit_through_origin([(1e-3, 1e-2, 0.0), (2e-3, 2e-2, 1e-4)], degree=2)
    # a sigma whose weight 1 / sigma^2 overflows, or nan, is out of domain
    for sigma in (1e-200, np.nextafter(an.SIGMA_MIN, 0), np.nan):
        with pytest.raises(an.AnalysisError, match="sigmas must be at least"):
            an.fit_through_origin([(1e-3, 1e-2, sigma), (2e-3, 2e-2, 1e-4)], degree=1)
    an.fit_through_origin([(1e-3, 1e-2, an.SIGMA_MIN), (2e-3, 2e-2, 1e-4)], degree=1)
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

    an.fit_line(pts[:3])  # two coefficients: 3 points at 2 distinct t, no fewer
    with pytest.raises(an.AnalysisError, match="need at least 3 points"):
        an.fit_line(pts[:2])
    with pytest.raises(an.AnalysisError, match="2 distinct x"):
        an.fit_line([(1.0, 0.9, 1e-3)] * 3)


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

    for degree in (2, 3):  # degree coefficients: degree + 1 points at degree distinct x
        pts = [(e, 3.0 * e + e * e) for e in eps[: degree + 1]]
        an.fit_slope_poly(pts, degree=degree)
        with pytest.raises(an.AnalysisError, match=f"need at least {degree + 1} points"):
            an.fit_slope_poly(pts[:degree], degree=degree)
        with pytest.raises(an.AnalysisError, match=f"{degree} distinct x"):
            an.fit_slope_poly(pts[: degree - 1] * 2 + pts[:1], degree=degree)
    with pytest.raises(an.AnalysisError):
        an.fit_slope_poly([(1e-3, 1.0), (2e-3, 2.0), (3e-3, 1.0)], degree=4)


def test_fit_free_quadratic():
    eps = np.linspace(1e-4, 1e-3, 6)
    pts = [(e, 2.0 + 0.0 * e + 9.0 * e * e, 1e-9) for e in eps]
    fit = an.fit_free_quadratic(pts)
    assert fit.coefficients[0] == pytest.approx(2.0)
    assert fit.coefficients[1] == pytest.approx(0.0, abs=1e-6)
    assert fit.coefficients[2] == pytest.approx(9.0, rel=1e-6)

    an.fit_free_quadratic(pts[:4])  # three coefficients: 4 points at 3 distinct x
    with pytest.raises(an.AnalysisError, match="need at least 4 points"):
        an.fit_free_quadratic(pts[:3])
    with pytest.raises(an.AnalysisError, match="3 distinct x"):
        an.fit_free_quadratic(pts[:2] * 2)


_EPS = (1e-4, 2e-4, 3e-4, 5e-4, 8e-4)
_SIG = (3e-6, 5e-6, 8e-6, 1.2e-5, 2e-5)
_QUAD = [(e, 3.4e4 * e * e + d, s)
         for e, s, d in zip(_EPS, _SIG, (2e-6, -4e-6, 5e-6, -1e-5, 1.5e-5))]
_LIN = [(e, 290.0 * e + d, s)
        for e, s, d in zip(_EPS, _SIG, (-2e-6, 3e-6, -6e-6, 9e-6, -1.1e-5))]
_LINE = [(t, 0.99 - 2.5e-4 * t + d, 1e-4)
         for t, d in zip(range(1, 7), (3e-5, -5e-5, 2e-5, 8e-5, -4e-5, 1e-5))]
_SLOPE = [(e, 2.0e3 * e * e + 4.0e5 * e**3 + d)
          for e, d in zip((1e-3, 2e-3, 3e-3, 4e-3, 5e-3), (1e-7, -3e-7, 2e-7, -1e-7, 4e-7))]


@pytest.mark.parametrize(
    "fit, expected",
    [
        (lambda: an.fit_through_origin(_QUAD, degree=2),
         ("c*x^2", (34005.71931865254,), (24.546242548275806,), 2.6777240509294566, 5)),
        (lambda: an.fit_through_origin(_LIN, degree=1),
         ("c*x^1", (289.99770613994224,), (0.01158298999906977,), 2.1927258092901436, 5)),
        (lambda: an.fit_free_quadratic(_QUAD),
         ("a0+a1*x+a2*x^2", (6.608091822367176e-06, -0.05554492269908372, 34076.478672918354),
          (7.133196585395139e-06, 0.05985176853631344, 83.08041967690032),
          1.7861479455170428, 5)),
        (lambda: an.fit_line(_LINE),
         ("-A*t+B", (0.00025028571428594755, 0.9900093333333333),
          (2.3904572186687866e-05, 9.309493362512625e-05), 1.1481904761898398, 6)),
        (lambda: an.fit_slope_poly(_SLOPE, degree=2),
         ("sum c_k x^k, k=1..2", (-4.619249440993848, 4869.60186335405),
          (551.3957445254233, 130693.32554348346), 1.2121882613614878e-05, 5)),
        (lambda: an.fit_slope_poly(_SLOPE, degree=3),
         ("sum c_k x^k, k=1..3", (4.085005911516844e-05, 1999.93733766236, 400013.84297516436),
          (1436.771363396328, 834522.9603963139, 114892052.18260379),
          1.6431523022574754e-13, 5)),
    ],
    ids=["quad", "lin", "quad-free", "line", "slope2", "slope3"],
)
def test_fit_outputs_pinned(fit, expected):
    """Each `fit` model's whole result on fixed points, to the last bit:
    coefficients, stderrs, rss, n_points and the model string."""
    assert fit() == an.FitResult(*expected)


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
    ts = an.thresholds_from(an.PUBLISHED_TABLE1[-1], slope=fit.coefficients)
    assert ts.eps_sth == pytest.approx(2.0 / (3.0 * 3000.0), rel=1e-6)
    assert math.isnan(an.thresholds_from(an.PUBLISHED_TABLE1[-1]).eps_sth)


def test_binomial_sigma_half_count():
    assert an.binomial_sigma(0, 100) > 0
    assert an.binomial_sigma(0, 100) == pytest.approx(an.binomial_sigma(100, 100))
    assert an.binomial_sigma(50, 100) == pytest.approx(0.05)
    with pytest.raises(an.AnalysisError):
        an.binomial_sigma(1, 0)


def test_poly_eval_zero_constant():
    assert an.poly_eval_zero_constant((2.0, 3.0), 0.5) == pytest.approx(2 * 0.5 + 3 * 0.25)
