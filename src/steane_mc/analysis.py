"""Deterministic numerics: weighted fits, crossings, and threshold formulas.

Every fit is one weighted least-squares body for y = sum_i c_i x^p_i over a
fixed set of powers p_i; the public fits only name their powers and model.
Also embeds the published reference dataset (per-C fit coefficients D2, D1,
G1) that the deterministic acceptance checks and the reporting commands
compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .circuit import RecoverySchedule


class AnalysisError(RuntimeError):
    """Numerical failure: degenerate design matrix or missing bracket."""


# the least sigma whose weight 1 / sigma^2 is finite
SIGMA_MIN = 1.0 / math.sqrt(np.finfo(np.float64).max)


@dataclass(frozen=True)
class FitResult:
    """One weighted least-squares fit.

    `rss` is the weighted residual sum of squares sum((y - fit)^2 / sigma^2),
    i.e. the chi^2 of the fit against the supplied sigmas, with
    `n_points - len(coefficients)` degrees of freedom.  `stderrs` are the
    unscaled WLS standard errors, not inflated by chi^2/dof.
    """

    model: str
    coefficients: tuple[float, ...]
    stderrs: tuple[float, ...]
    rss: float
    n_points: int

    @property
    def coefficient(self) -> float:
        """The leading coefficient, for single-parameter models."""
        return self.coefficients[0]

    @property
    def stderr(self) -> float:
        return self.stderrs[0]


@dataclass(frozen=True)
class TableRow:
    ratio_C: float
    D2: float
    D1: float
    G1: float


@dataclass(frozen=True)
class ThresholdSet:
    ratio_C: float
    g1: float
    eps_pth: float
    eps_pth_approx: float
    eps_sth: float  # nan without a slope polynomial
    eps_mth: float
    eps_g1: float
    eps_thg1: float
    eps_thg2: float


# Published per-C fit coefficients (columns: C = eps/gamma, D2, D1, G1).
PUBLISHED_TABLE1: tuple[TableRow, ...] = (
    TableRow(0.3, 81440.2, 489.0, 93900.2),
    TableRow(0.5, 57385.0, 409.6, 65195.7),
    TableRow(0.8, 49597.1, 364.1, 55228.7),
    TableRow(1.0, 43843.2, 343.8, 48749.7),
    TableRow(1.5, 40618.0, 331.3, 44814.5),
    TableRow(2.0, 38286.5, 324.4, 42135.7),
    TableRow(math.inf, 33961.0, 290.8, 36715.6),
)

# Published headline thresholds for the gamma -> 0 limit.
PUBLISHED_THRESHOLDS_INF = {
    "eps_pth": 3.9e-4,
    "eps_sth": 2.5e-4,
    "eps_mth": 2.9e-5,
    "eps_thg1": 2.7e-5,
    "eps_thg2": 1.3e-5,
}


def _wls(design: np.ndarray, y: np.ndarray, sigma: np.ndarray):
    """Weighted least squares; returns (beta, stderrs, weighted rss)."""
    w = 1.0 / sigma**2
    try:
        with np.errstate(over="raise"):
            xtw = design.T * w
            normal = xtw @ design
    except FloatingPointError:
        raise AnalysisError(
            f"weights 1 / sigma^2 up to {w.max():.4g} overflow the normal matrix"
        ) from None
    try:
        cov = np.linalg.inv(normal)
    except np.linalg.LinAlgError as exc:
        raise AnalysisError(f"degenerate design matrix: {exc}") from None
    if not np.all(np.isfinite(cov)):
        raise AnalysisError("degenerate design matrix: non-finite covariance")
    beta = cov @ (xtw @ y)
    resid = y - design @ beta
    rss = float(np.sum(w * resid**2))
    stderrs = np.sqrt(np.maximum(np.diag(cov), 0.0))
    if not np.all(np.isfinite(beta)):
        raise AnalysisError("fit produced non-finite coefficients")
    return beta, stderrs, rss


def _unpack_points(points):
    arr = np.asarray(list(points), dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise AnalysisError("points must be (x, y, sigma) tuples")
    x, y, sigma = arr.T
    if not np.all(sigma >= SIGMA_MIN):  # also rejects nan
        raise AnalysisError(
            f"all sigmas must be at least {SIGMA_MIN:.4g}, so that 1 / sigma^2 is finite "
            "(half-count-correct zeros first)"
        )
    return x, y, sigma


def _fit(points, powers, model: str) -> FitResult:
    """WLS for y = sum_i c_i x^powers[i].  Its k = len(powers) coefficients
    need k + 1 points (one degree of freedom) and max(k, 2) distinct x."""
    x, y, sigma = _unpack_points(points)
    k = len(powers)
    if len(x) < k + 1:
        raise AnalysisError(f"need at least {k + 1} points")
    if np.unique(x).size < max(k, 2):
        raise AnalysisError(f"degenerate design: need {max(k, 2)} distinct x")
    beta, se, rss = _wls(np.column_stack([x**p for p in powers]), y, sigma)
    return FitResult(model, tuple(map(float, beta)), tuple(map(float, se)), rss, len(x))


def binomial_sigma(successes: float, trials: int) -> float:
    """Wald standard error with the half-count rule at the boundaries."""
    if trials <= 0:
        raise AnalysisError("trials must be positive")
    k = min(max(successes, 0.5), trials - 0.5)
    p = k / trials
    return math.sqrt(p * (1.0 - p) / trials)


def fit_through_origin(points, degree: int) -> FitResult:
    """WLS for y = c * x^degree (degree 1 or 2); returns c and its stderr."""
    if degree not in (1, 2):
        raise AnalysisError("degree must be 1 or 2")
    return _fit(points, (degree,), f"c*x^{degree}")


def fit_free_quadratic(points) -> FitResult:
    """Diagnostic WLS for y = a0 + a1 x + a2 x^2 (coefficients in that order)."""
    return _fit(points, (0, 1, 2), "a0+a1*x+a2*x^2")


def fit_line(series) -> FitResult:
    """WLS line through (t, F, sigma); coefficients are (A, B) for F = -A t + B.

    The result's `rss` is the chi^2 of the line against the supplied sigmas,
    with `n_points - 2` degrees of freedom: a lack-of-fit statistic for
    whether the series is a line at all.
    """
    fit = _fit(series, (1, 0), "-A*t+B")
    slope, intercept = fit.coefficients
    return replace(fit, coefficients=(-slope, intercept))


def fit_slope_poly(points, degree: int) -> FitResult:
    """WLS polynomial with zero constant term; coefficients (c1, c2[, c3])."""
    if degree not in (2, 3):
        raise AnalysisError("degree must be 2 or 3")
    model = f"sum c_k x^k, k=1..{degree}"
    return _fit(points, range(1, degree + 1), model)


def poly_eval_zero_constant(coefficients: Sequence[float], x: float) -> float:
    return sum(c * x ** (k + 1) for k, c in enumerate(coefficients))


_BRACKET = (1e-8, 1e-1)  # the epsilon range every threshold is searched in
_RTOL = 1e-10  # the relative width a crossing is narrowed to


def crossing(f: Callable[[float], float], g: Callable[[float], float]) -> float:
    """Bisection root of f - g on the epsilon range _BRACKET, to relative
    tolerance _RTOL."""
    lo, hi = _BRACKET
    d_lo = f(lo) - g(lo)
    d_hi = f(hi) - g(hi)
    if d_lo == 0.0:
        return lo
    if d_hi == 0.0:
        return hi
    if (d_lo > 0) == (d_hi > 0):
        raise AnalysisError(f"no sign change of f-g on bracket {_BRACKET}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= _RTOL * max(abs(lo), abs(hi)):
            return mid
        d_mid = f(mid) - g(mid)
        if d_mid == 0.0:
            return mid
        if (d_mid > 0) == (d_hi > 0):
            hi, d_hi = mid, d_mid
        else:
            lo, d_lo = mid, d_mid
    return 0.5 * (lo + hi)


def _inv_c(ratio_C: float) -> float:
    if math.isinf(ratio_C):
        return 0.0
    if ratio_C <= 0:
        raise AnalysisError("ratio C must be positive or infinity")
    return 1.0 / ratio_C

def g1_combine(ratio_C: float, D1: float, D2: float) -> float:
    """One-qubit-gate quadratic coefficient from the (C, D1, D2) combination."""
    ic = _inv_c(ratio_C)
    return (4.0 / 9.0) * (91.0 + 98.0 * ic + 21.0 * ic * ic) + (14.0 / 3.0) * (
        2.0 + ic
    ) * D1 + D2


def uncorrected_error_probability(epsilon: float, t: int) -> float:
    """Naked-qubit uncorrectable error probability 1 - (1 - 2 eps/3)^t."""
    return 1.0 - (1.0 - 2.0 * epsilon / 3.0) ** t


def thresholds_from(row: TableRow, slope: Sequence[float] | None = None) -> ThresholdSet:
    """All threshold values derivable from one table row.  eps_sth needs the
    coefficients (c1, c2[, c3]) of the slope polynomial, else it is nan."""
    g1 = g1_combine(row.ratio_C, row.D1, row.D2)
    eps_pth = crossing(
        lambda e: row.D2 * e * e,
        # a naked qubit stored for one recovery cycle
        lambda e: uncorrected_error_probability(e, RecoverySchedule.total_steps),
    )
    eps_sth = math.nan
    if slope is not None:
        eps_sth = crossing(lambda e: poly_eval_zero_constant(slope, e), lambda e: 2.0 * e / 3.0)
    ic = _inv_c(row.ratio_C)
    return ThresholdSet(
        ratio_C=row.ratio_C,
        g1=g1,
        eps_pth=eps_pth,
        eps_pth_approx=2.0 * RecoverySchedule.total_steps / (3.0 * row.D2),
        eps_sth=eps_sth,
        eps_mth=1.0 / row.D2,
        eps_g1=2.0 * (2.0 + ic) / (3.0 * g1),
        eps_thg1=1.0 / g1,
        eps_thg2=1.0 / (2.0 * g1),
    )
