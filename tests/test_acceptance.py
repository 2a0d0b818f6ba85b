"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The statistical criteria (6-9) run at their full stated trial counts, so
this module takes tens of minutes in total; everything is seeded and the
data rows they produce are byte-reproducible for any --threads value.

Criterion-to-test map:
  1 deterministic one-gate coefficient reconstruction     test_criterion_1
  2 deterministic headline thresholds (2 significant figs) test_criterion_2
  3 exhaustive coset oracle                                test_criterion_3
  4 structural censuses (24 / 72 / 19+1)                   test_criterion_4
  5 exhaustive single-fault certification                  test_criterion_5
  6 quadratic scaling of the failure probability           test_criterion_6
  7 quantitative D2 / D1 reproduction (factor 2)           test_criterion_7
  8 stabilization: chi2-linear window, slope vs 2eps/3    test_criterion_8 (+ power check)
  9 fidelity-vs-amplitude study                            test_criterion_9
 10 byte-identical reruns across worker counts             test_criterion_10
"""

import math
import time

import numpy as np
import pytest
from codes import delta_eta3, fidelity_at, weight_k_vectors

from steane_mc import analysis as an
from steane_mc import cli
from steane_mc import engine as eng
from steane_mc.circuit import RecoverySchedule, build_recovery, census
from steane_mc.codebook import ErrorClass, enumerate_by_class, ideal_recovery
from steane_mc.noise import NoiseParams

INF = math.inf
SEED = 20260810  # fixed a priori for the whole acceptance suite

# shared grids (statistical criteria)
RATIO_EPS = 5e-4
FIT_GRID = tuple(float(e) for e in np.geomspace(1e-4, 3e-4, 5))
N_POINT = 10**6


def _report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    return ok


def _match_2sf(value: float, quoted: float) -> bool:
    """True when `value` matches a 2-significant-figure quote (the quote may
    have been rounded or truncated)."""
    scale = 10.0 ** math.floor(math.log10(abs(quoted)))
    v, q = value / scale, quoted / scale
    return q - 0.05 - 1e-12 <= v < q + 0.10 + 1e-12


def _memory_stats(eps, C, trials, seed, t_max=None):
    config = eng.ExperimentConfig(
        mode="memory_t20",
        noise=NoiseParams(eps, C),
        trials=trials,
        master_seed=seed,
    )
    (st,) = eng.run_experiments([config])[0]
    return st


@pytest.fixture(scope="module")
def memory_grid_inf():
    """Shared C=inf grid at N=1e6 per point (criteria 6 and 7)."""
    out = {}
    for k, eps in enumerate(FIT_GRID):
        out[eps] = _memory_stats(eps, INF, N_POINT, SEED + 10 + k)
    return out


def test_criterion_1_table_reconstruction():
    t0 = time.time()
    worst = max(
        abs(an.g1_combine(r.ratio_C, r.D1, r.D2) - r.G1) for r in an.PUBLISHED_TABLE1
    )
    elapsed = time.time() - t0
    ok = worst <= 0.5 and elapsed < 1.0
    assert _report(1, ok, f"max |G1 delta| = {worst:.3f} over 7 rows in {elapsed:.2f}s")


def test_criterion_2_headline_thresholds():
    t0 = time.time()
    inf_row = an.PUBLISHED_TABLE1[-1]
    ts = an.thresholds_from(inf_row)
    checks = {  # eps_sth needs slope fits, which a table row does not carry
        k: (getattr(ts, k), q) for k, q in an.PUBLISHED_THRESHOLDS_INF.items() if k != "eps_sth"
    }
    bad = [k for k, (v, q) in checks.items() if not _match_2sf(v, q)]
    g1_curve = [an.thresholds_from(r).eps_g1 for r in an.PUBLISHED_TABLE1]
    flat = max(g1_curve) / min(g1_curve)
    elapsed = time.time() - t0
    ok = not bad and flat < 1.25 and elapsed < 1.0
    detail = (
        ", ".join(f"{k}={v:.3g}" for k, (v, _) in checks.items())
        + f", eps_g1 max/min={flat:.3f}, {elapsed:.2f}s"
        + (f", mismatched: {bad}" if bad else "")
    )
    assert _report(2, ok, detail)


def test_criterion_3_coset_oracle():
    t0 = time.time()
    sizes = [len(v) for v in enumerate_by_class().values()]
    ok = sizes == [8, 56, 56, 8]
    fixed_w1 = all(
        ideal_recovery(e, 0).x_class is ErrorClass.TRIVIAL for e in weight_k_vectors(1)
    )
    logical_w2 = all(
        ideal_recovery(e, 0).x_class is ErrorClass.LOGICAL for e in weight_k_vectors(2)
    )
    w3 = weight_k_vectors(3)
    n_fixed = sum(ideal_recovery(e, 0).x_class is ErrorClass.TRIVIAL for e in w3)
    n_logical = sum(ideal_recovery(e, 0).x_class is ErrorClass.LOGICAL for e in w3)
    elapsed = time.time() - t0
    ok = ok and fixed_w1 and logical_w2 and n_fixed == 28 and n_logical == 7
    ok = ok and elapsed < 1.0
    assert _report(
        3,
        ok,
        f"partition {sizes}, w1 fixed, w2 logical, w3 split {n_fixed}/{n_logical}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_4_censuses():
    sched = RecoverySchedule()
    from steane_mc.circuit import build_syndrome_round

    c_round = census(build_syndrome_round())
    c_rec = census(build_recovery())
    ok = (
        c_round.data_cnot_count == 24
        and c_rec.data_cnot_count == 72
        and sched.data_exposure_steps == 19
        and sched.total_steps == 20
        and c_rec.data_step_count == 20
    )
    assert _report(
        4,
        ok,
        f"round CNOTs {c_round.data_cnot_count}, recovery CNOTs "
        f"{c_rec.data_cnot_count}, exposure {sched.data_exposure_steps}"
        f"+{sched.channel_prefix_steps}",
    )


def test_criterion_5_single_fault_certification():
    t0 = time.time()
    report = eng.certify_single_faults()
    elapsed = time.time() - t0
    ok = report.passed and elapsed < 60.0
    detail = (
        f"{report.n_cases} Pauli cases over {report.n_locations} locations, "
        f"{len(report.failures)} failures, {elapsed:.1f}s"
    )
    for fail in report.failures[:5]:
        detail += f"; {fail.label}"
    assert _report(5, ok, detail)


def test_criterion_6_quadratic_scaling(memory_grid_inf):
    t0 = time.time()
    ratios = {}
    for i, c in enumerate((INF, 1.0)):
        lo = _memory_stats(RATIO_EPS, c, N_POINT, SEED + 100 + 2 * i)
        hi = _memory_stats(2 * RATIO_EPS, c, N_POINT, SEED + 101 + 2 * i)
        ratios[c] = hi.p_fail_a1 / lo.p_fail_a1
    ratio_ok = all(3.3 <= r <= 4.7 for r in ratios.values())
    pts = [
        (eps, st.p_fail_a1, an.binomial_sigma(st.p_fail_a1 * st.trials, st.trials))
        for eps, st in memory_grid_inf.items()
    ]
    fit = an.fit_free_quadratic(pts)
    a1, s1 = fit.coefficients[1], fit.stderrs[1]
    lin_ok = abs(a1) <= 3 * s1
    elapsed = time.time() - t0
    ok = ratio_ok and lin_ok and elapsed < 300.0
    assert _report(
        6,
        ok,
        f"P(2e)/P(e) = {ratios[INF]:.2f} (C=inf), {ratios[1.0]:.2f} (C=1); "
        f"free-intercept linear coeff {a1:.2f} +- {s1:.2f}; {elapsed:.0f}s",
    )


def test_criterion_7_d2_d1_reproduction(memory_grid_inf):
    t0 = time.time()
    pts = [
        (eps, st.p_fail_a1, an.binomial_sigma(st.p_fail_a1 * st.trials, st.trials))
        for eps, st in memory_grid_inf.items()
    ]
    d2 = an.fit_through_origin(pts, degree=2).coefficient
    d2_ok = 33961.0 / 2 <= d2 <= 33961.0 * 2
    ec_pts = []
    for k, eps in enumerate(FIT_GRID):
        config = eng.ExperimentConfig(
            mode="ec1",
            noise=NoiseParams(eps, INF),
            trials=N_POINT,
            master_seed=SEED + 200 + k,
        )
        (st,) = eng.run_experiments([config])[0]
        ec_pts.append((eps, st.p_ec1, an.binomial_sigma(st.p_ec1 * st.trials, st.trials)))
    d1 = an.fit_through_origin(ec_pts, degree=1).coefficient
    d1_ok = 290.8 / 2 <= d1 <= 290.8 * 2
    elapsed = time.time() - t0
    ok = d2_ok and d1_ok and elapsed < 600.0
    assert _report(
        7,
        ok,
        f"D2(inf) = {d2:.0f} (published 33961, ratio {d2 / 33961:.2f}); "
        f"D1(inf) = {d1:.1f} (published 290.8, ratio {d1 / 290.8:.2f}); {elapsed:.0f}s",
    )


def _chi2_bound(dof: int) -> float:
    """3-sigma lack-of-fit bound on a chi^2 with `dof` degrees of freedom."""
    return dof + 3.0 * math.sqrt(2.0 * dof)


def _line_window(pts):
    """Longest leading run of at least 3 points whose line fit passes the
    chi^2 bound, as (run length, fit); (0, None) when no run passes."""
    n_best, fit_best = 0, None
    for n in range(3, len(pts) + 1):
        fit = an.fit_line(pts[:n])
        if fit.rss <= _chi2_bound(n - 2):
            n_best, fit_best = n, fit
    return n_best, fit_best


def _stabilize_points(eps, seed):
    config = eng.ExperimentConfig(
        mode="stabilize",
        noise=NoiseParams(eps, INF),
        trials=10**5,
        master_seed=seed,
        t_max=30,
    )
    return [
        (float(st.t_steps), st.f_a1, max(st.stderr_of(st.f_a1), an.binomial_sigma(0, st.trials)))
        for st in eng.run_experiments([config])[0]
    ]


def _window_detail(pts, n, fit):
    if fit is None:
        return f"no run of >= 3 of {len(pts)} recoveries passes the chi2 bound"
    t, f, _ = np.asarray(pts[:n]).T
    pred = -fit.coefficients[0] * t + fit.coefficients[1]
    r2 = 1.0 - float(np.sum((f - pred) ** 2)) / float(np.sum((f - f.mean()) ** 2))
    return (
        f"window {n}/{len(pts)} recoveries, chi2/dof = {fit.rss:.1f}/{n - 2} "
        f"(bound {_chi2_bound(n - 2):.1f}), A = {fit.coefficient:.3e} +- "
        f"{fit.stderr:.1e}, R2 = {r2:.4f}"
    )


def test_criterion_8_stabilization():
    """Stabilization slope study: below eps_sth ~ 2.5e-4 the stabilized decay
    F = -A t + B is slower than the naked qubit's 2 eps/3, above it faster.

    Each 10^5-trial, 30-recovery series is fitted (weighted, binomial sigma
    per point) over its window: the longest leading run of at least 3
    recoveries whose line fit passes the 3-sigma lack-of-fit bound
    chi2 <= dof + 3 sqrt(2 dof), dof = run length - 2 (`FitResult.rss` is
    that chi2).  The criterion holds when

    * at eps = 1e-4 the window is all 30 recoveries (the decay is a line),
      and A + 3 sigma_A < 2 eps/3;
    * at eps = 1e-3 a window exists and A - 3 sigma_A > 2 eps/3.

    Why not R^2 or the 30-point slope.  After each recovery ~2.8% of the
    eps = 1e-4 trials hold a correctable weight-1 residual, so every point
    carries an independent binomial scatter of ~5e-4 against a total decline
    of ~0.013 over 30 recoveries.  Noise alone then predicts
    1 - R^2 ~ 0.020; this seed measures 0.019 (R^2 = 0.9808) with
    chi2 = 27.4 on 28 dof, so an R^2 > 0.99 bound measured N, not
    linearity.  At eps = 1e-3 the series is no line over 30 recoveries
    (F runs 0.74 -> 0.42 and flattens; chi2 = 8578 on 28 dof), so its
    30-point A (5.4e-4) is no slope of the model.  Its window is the first
    6 recoveries, A = 1.12e-3 +- 1.7e-5; every prefix of 3 to 22
    recoveries gives A > 2 eps/3 = 6.7e-4, so where the window ends does
    not decide the outcome.

    Why per-point sigma is adequate.  The independent weight-1 floor
    dominates each point's variance.  The cumulative logical-flip part
    (q ~ 4.5e-4 per recovery) is correlated from point to point, but a line
    absorbs most of it: with the covariance of a cumulative count it adds
    ~0.8 (3% of dof) to the expected chi2 over 30 points.  Since the
    binomial sigma also counts that part as independent, the expected chi2
    of a true line is ~23, below dof, so the bound errs toward accepting a
    line; `test_criterion_8_power_check` shows it still rejects the
    saturating shape.  At eps = 1e-3 the same covariance changes sigma_A of
    the 6-point window by 2%, against a margin of ~26 sigma_A.

    F is the raw overlap with |0_L> (`TrialStats.f_a1` of each tally), as in
    fig5.
    """
    t0 = time.time()
    pts_lo = _stabilize_points(1e-4, SEED + 300)
    pts_hi = _stabilize_points(1e-3, SEED + 301)
    n_lo, fit_lo = _line_window(pts_lo)
    n_hi, fit_hi = _line_window(pts_hi)
    naked_lo = 2 * 1e-4 / 3
    naked_hi = 2 * 1e-3 / 3
    elapsed = time.time() - t0
    ok = (
        n_lo == len(pts_lo)
        and fit_lo.coefficient + 3 * fit_lo.stderr < naked_lo
        and fit_hi is not None
        and fit_hi.coefficient - 3 * fit_hi.stderr > naked_hi
        and elapsed < 900.0
    )
    assert _report(
        8,
        ok,
        f"eps=1e-4: {_window_detail(pts_lo, n_lo, fit_lo)} vs 2eps/3 = "
        f"{naked_lo:.2e}; eps=1e-3: {_window_detail(pts_hi, n_hi, fit_hi)} vs "
        f"{naked_hi:.2e}; {elapsed:.0f}s",
    )


def test_criterion_8_power_check():
    """Criterion 8's window rule, on exact curves (no Monte Carlo): a line
    scattered by the eps = 1e-4 binomial sigma at N = 10^5 passes over all
    30 recoveries, and the saturating decay 0.75 (1 + (1 - 2p)^k) / 2,
    p = 0.032, of the eps = 1e-3 shape fails and stops its window early.
    The recovery index k stands in for t: chi2 does not depend on the unit."""
    trials = 10**5
    k = np.arange(1, 31)
    line = 0.972 - 4.5e-4 * (k - 1)
    sigma = np.sqrt(line * (1 - line) / trials)
    line_pts = list(zip(k, line + sigma * (-1.0) ** k, sigma))
    chi2_line = an.fit_line(line_pts).rss
    n_line, _ = _line_window(line_pts)
    p = 0.032
    sat = 0.75 * 0.5 * (1 + (1 - 2 * p) ** k)
    sat_pts = list(zip(k, sat, np.sqrt(sat * (1 - sat) / trials)))
    chi2_sat = an.fit_line(sat_pts).rss
    n_sat, _ = _line_window(sat_pts)
    ok = (
        n_line == len(k)
        and chi2_sat > _chi2_bound(len(k) - 2)
        and 3 <= n_sat <= 10
    )
    assert _report(
        8,
        ok,
        f"power check: scattered line chi2 = {chi2_line:.1f}, window "
        f"{n_line}/30; saturating chi2 = {chi2_sat:.0f} (bound "
        f"{_chi2_bound(len(k) - 2):.1f}), window {n_sat}/30",
    )


def test_criterion_9_amplitude_study():
    t0 = time.time()
    config = eng.ExperimentConfig(
        mode="fig5",
        noise=NoiseParams(2e-3, 0.1),
        trials=10**5,
        master_seed=SEED + 400,
        encoder_noisy=True,
    )
    a2_grid = np.linspace(0.0, 1.0, 21)
    (stats,) = eng.run_experiments([config])[0]
    fidelity = np.array([fidelity_at(stats, a) for a in np.sqrt(a2_grid)])
    delta_ok = abs(delta_eta3(stats)) <= 1e-1
    sym_ok = fidelity[0] == fidelity[-1]
    half = fidelity[: len(fidelity) // 2 + 1]
    diffs = np.diff(half)
    monotone_ok = np.all(diffs >= 0) or np.all(diffs <= 0)
    extremum_ok = (
        abs(fidelity[10] - fidelity.min()) < 1e-15
        or abs(fidelity[10] - fidelity.max()) < 1e-15
    )
    elapsed = time.time() - t0
    ok = delta_ok and sym_ok and bool(monotone_ok) and extremum_ok and elapsed < 120.0
    assert _report(
        9,
        ok,
        f"delta_eta3 = {delta_eta3(stats):+.4f}, F(0) == F(1), monotone to the "
        f"extremum at a^2 = 0.5, {elapsed:.0f}s",
    )


def test_criterion_10_thread_reproducibility(tmp_path):
    t0 = time.time()
    args = [
        "sweep", "--mode", "fig5", "--C", "0.1", "--epsilon", "0.002",
        "--trials", "100000", "--seed", str(SEED + 400),
    ]
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    assert cli.main(args + ["--out", a, "--threads", "1"]) == 0
    assert cli.main(args + ["--out", b, "--threads", "2"]) == 0

    def data_rows(path):
        with open(path) as fh:
            return [l for l in fh if not l.startswith("# ")]

    ok = data_rows(a) == data_rows(b)
    elapsed = time.time() - t0
    assert _report(10, ok, f"byte-identical data rows across thread counts, {elapsed:.0f}s")
