"""Command-line front end: sweeps, fits, thresholds, and reference tables.

Every output file is CSV with a comment-prefixed manifest header recording
the command line, the effective configuration, the master seed, and the
schedule fingerprint.  Data rows are deterministic for a fixed (seed,
flags) pair regardless of --threads; the timestamp and duration manifest
lines are the only non-reproducible content.

Configuration precedence: command-line flags, then STEANE_MC_* environment
variables, then an optional key=value --config file, then defaults.

Exit codes: 0 success, 1 usage error, 2 numerical/validation failure,
3 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from datetime import datetime, timezone
from functools import cache, partial
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, analysis, codebook, engine
from .circuit import (
    MODES, RecoverySchedule, build_encoder, build_recovery, build_syndrome_round, census,
    verify_encoder,
)
from .noise import STREAM_VERSION, NoiseParams

ENV_PREFIX = "STEANE_MC_"

SWEEP_COLUMNS = [
    "mode", "C", "epsilon", "gamma", "t_steps", "trials", "seed",
    "P_E_strict", "P_fail_a1", "stderr",
    "eta0", "eta3b", "eta3p", "etaY", "F_a1", "p_ec1",
]

STABILIZE_COLUMNS = [
    "mode", "C", "epsilon", "gamma", "recovery_index", "t_steps",
    "F", "stderr", "trials", "seed",
]

FIT_COLUMNS = [
    "model", "C", "epsilon",
    "c1", "c1_err", "c2", "c2_err", "c3", "c3_err", "rss", "n_points",
]

THRESHOLD_COLUMNS = [
    "C", "D2", "D1", "G1", "eps_pth", "eps_pth_approx", "eps_sth",
    "eps_mth", "eps_g1", "eps_thg1", "eps_thg2",
]

TABLE1_COLUMNS = [
    "C", "D2", "D1", "G1_published", "G1_recomputed", "delta_G1", "flagged",
    "eps_pth", "eps_pth_approx", "eps_mth", "eps_g1", "eps_thg1", "eps_thg2",
]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise UsageError(message)


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isinf(value):
            return "inf"
        if math.isnan(value):
            return ""
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _parse_c(text: str) -> float:
    if str(text).strip().lower() in ("inf", "infinity"):
        return math.inf
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"bad C value {text!r}") from None
    if not value > 0:  # also rejects nan
        raise UsageError(f"C must be positive or 'inf', got {text}")
    return value


def write_csv(path, manifest: list[tuple[str, str]], columns, rows) -> None:
    try:
        with open(path, "w") as fh:
            for key, value in manifest:
                fh.write(f"# {key} = {value}\n")
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


def _check_writable(path) -> None:
    """Fail as `write_csv` would, before any work: open path for appending,
    which truncates nothing, and remove it again if this made it."""
    made = not os.path.exists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc
    if made:
        os.remove(path)


def _number(lo=-math.inf, hi=math.inf, parse=float):
    """The parser of a column of finite numbers in [lo, hi]."""

    def field(text: str):
        value = parse(text)
        if math.isfinite(value) and lo <= value <= hi:  # nan fails both
            return value
        raise ValueError(text)

    return field


_finite = _number()
_probability = _number(0.0, 1.0)


def _coefficient(text: str) -> float:
    """A fit coefficient field; empty (nan) where the model has no such coefficient."""
    return _finite(text) if text else math.nan


# the parser of each numeric column a command reads
_FIELDS = {
    "C": _parse_c, "epsilon": _probability, "trials": _number(1, parse=int),
    "P_fail_a1": _probability, "p_ec1": _probability, "F": _probability,
    "t_steps": _finite, "stderr": _number(0.0),
    "c1": _finite, "c2": _coefficient, "c3": _coefficient,  # c1 of a line fit can be negative
    "c1_err": _number(analysis.SIGMA_MIN),  # a fit point's sigma: 1 / sigma^2 finite
}


def _lines(path, what=""):
    """A text input file's lines; unreadable is an I/O error, undecodable a usage error."""
    try:
        with open(path) as fh:
            yield from fh
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot decode {what}{path}: {exc}") from None
    except OSError as exc:
        raise IOError(f"cannot read {what}{path}: {exc}") from exc


def read_csv(path, need=()):
    """Returns (manifest pairs, columns, rows).  Every data row must have the
    header's field count, and the header every column in need.  Without need
    a row is its raw string fields; with it, a row is a dict of the columns
    in need, each field of a numeric one parsed by its `_FIELDS` parser."""
    manifest: list[tuple[str, str]] = []
    columns: list[str] | None = None
    rows: list[list[str]] = []
    numbers: list[int] = []  # the line number of each data row
    for number, line in enumerate(_lines(path), 1):
        line = line.rstrip("\n")
        if not line:
            continue
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            manifest.append((key, value))
        elif columns is None:
            columns = line.split(",")
        else:
            fields = line.split(",")
            if len(fields) != len(columns):
                raise UsageError(
                    f"{path} line {number}: {len(fields)} fields, "
                    f"the header has {len(columns)}"
                )
            rows.append(fields)
            numbers.append(number)
    if columns is None:
        raise UsageError(f"{path} contains no data header")
    missing = [c for c in need if c not in columns]
    if missing:
        raise UsageError(f"{path} lacks column(s) {', '.join(missing)}")
    if not need:
        return manifest, columns, rows
    parsed = []  # per column in need, its parsed fields
    for name in need:
        col, parse = columns.index(name), _FIELDS.get(name, str)
        values = []
        for number, fields in zip(numbers, rows):
            try:
                values.append(parse(fields[col]))
            except (ValueError, UsageError):
                raise UsageError(
                    f"{path} line {number} column {name}: bad value {fields[col]!r}"
                ) from None
        parsed.append(values)
    return manifest, columns, [dict(zip(need, values)) for values in zip(*parsed)]


def _base_manifest(command: str, argv, pairs: list[tuple[str, str]]):
    man = [
        ("artifact", f"steane-mc v{__version__}"),
        ("command", command),
        ("argv", " ".join(argv)),
    ]
    man += pairs
    man.append(("timestamp", datetime.now(timezone.utc).isoformat()))
    return man


@cache
def _fingerprint() -> str:
    """The recovery cycle's fingerprint; the cycle is fixed, so once a process."""
    return build_recovery().fingerprint()


def _schedule_manifest():
    s = RecoverySchedule
    return [
        (
            "schedule",
            f"dt0={s.channel_prefix_steps},rounds={s.rounds},"
            f"steps_per_round={s.steps_per_round},"
            f"correction={s.correction_steps},gap={s.inter_recovery_gap}",
        ),
        ("schedule_fingerprint", _fingerprint()),
        ("data_exposure_steps", str(s.data_exposure_steps)),
        ("total_steps_with_prefix", str(s.total_steps)),
    ]


# ---------------------------------------------------------------------------
# option resolution: flags > environment > config file > defaults
# ---------------------------------------------------------------------------


def _load_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for line in _lines(path, "config "):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _resolve(args: argparse.Namespace, defaults: dict) -> argparse.Namespace:
    """Fill options not given on the command line from env, then config file.
    A config key that names none of the command's options is a usage error."""
    conf = _load_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = sorted(set(conf) - set(defaults))
    if unknown:
        raise UsageError(f"unknown key(s) {', '.join(unknown)} in config {args.config}")
    for dest, default in defaults.items():
        if getattr(args, dest, None) is not None:
            continue
        raw = os.environ.get(ENV_PREFIX + dest.upper())
        if raw is None:
            raw = conf.get(dest)
        if raw is None:
            setattr(args, dest, default)
        elif isinstance(default, list):
            setattr(args, dest, raw.split(","))
        elif isinstance(default, int):
            try:
                setattr(args, dest, int(raw))
            except ValueError:
                raise UsageError(f"bad {dest} value {raw!r} from environment or config") from None
        else:
            setattr(args, dest, raw)
    return args


def _epsilon_list(args) -> list[float]:
    try:
        eps = [float(e) for e in (args.epsilon or [])]
    except ValueError as exc:
        raise UsageError(f"bad epsilon value: {exc}") from None
    if args.epsilon_grid:
        try:
            lo, hi, count = args.epsilon_grid.split(":")
            lo, hi, count = float(lo), float(hi), int(count)
            if not (0 < lo < math.inf and 0 < hi < math.inf and count > 0):
                raise ValueError("want finite positive bounds and a positive count")
            grid = np.geomspace(lo, hi, count)
        except ValueError as exc:
            raise UsageError(f"bad --epsilon-grid {args.epsilon_grid!r}: {exc}")
        eps += [float(g) for g in grid]
    if not eps:
        raise UsageError("no epsilon values given (--epsilon or --epsilon-grid)")
    return eps


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_selftest(args, argv) -> int:
    failures = []

    def check(name: str, ok: bool, detail: str = ""):
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"{status} {name}{suffix}")
        if not ok:
            failures.append(name)

    sizes = {k: len(v) for k, v in codebook.enumerate_by_class().items()}
    check(
        "coset partition 8/56/56/8",
        [sizes[c] for c in codebook.ErrorClass] == [8, 56, 56, 8],
        str(list(sizes.values())),
    )
    lin_ok = all(
        codebook.syndrome_of(e ^ f) == codebook.syndrome_of(e) ^ codebook.syndrome_of(f)
        for e in range(0, 128, 7)
        for f in range(128)
    )
    check("syndrome linearity", lin_ok)
    rec_ok = all(
        codebook.ideal_recovery(e, 0).x_class
        == (
            codebook.ErrorClass.LOGICAL
            if codebook.effective_weight(e) >= 2
            else codebook.ErrorClass.TRIVIAL
        )
        for e in range(128)
    )
    check("ideal recovery exhaustive", rec_ok)
    check("encoder verification", verify_encoder(build_encoder()))
    c_round = census(build_syndrome_round())
    check("syndrome round data CNOT census", c_round.data_cnot_count == 24, "24")
    sched = RecoverySchedule
    c_rec = census(build_recovery())
    check("recovery data CNOT census", c_rec.data_cnot_count == 72, "72")
    check(
        "recovery data exposure",
        c_rec.data_step_count == sched.total_steps == 20,
        f"{sched.data_exposure_steps} + {sched.channel_prefix_steps} channel",
    )
    report = engine.certify_single_faults()
    check(
        "single-fault certification",
        report.passed,
        f"{report.n_cases} cases over {report.n_locations} locations",
    )
    for fail in report.failures[:10]:
        print(f"  uncorrected single fault: {fail.label}")
    if failures:
        print(f"selftest: {len(failures)} failure(s)")
        return 2
    print("selftest: all checks passed")
    return 0


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_SWEEP_MODES = tuple(m for m in MODES if m != "stabilize")  # stabilize has its own command
_CELL_DEFAULTS = dict(C=["inf"], epsilon=[], epsilon_grid="", trials=10000, seed=0, threads=0)
_SWEEP_DEFAULTS = dict(_CELL_DEFAULTS, mode="memory_t20", out="sweep.csv")
_STABILIZE_DEFAULTS = dict(_CELL_DEFAULTS, t_max=10, out="stabilize.csv")


def _run_cells(args, argv, command, columns, settings, cell_rows, **config_kw) -> int:
    """Run one experiment per (C, epsilon) cell over one worker pool, then write
    the rows cell_rows(config, tallies) with the command's manifest `settings`.
    The configs check their own bounds; a value out of them is a usage error."""
    if args.threads < 0:
        raise UsageError(f"--threads must be >= 0 (0: every usable CPU), got {args.threads}")
    c_values = [_parse_c(c) for c in args.C]
    eps_values = _epsilon_list(args)
    threads = args.threads or _usable_cpus()
    cells = [(c, eps) for c in c_values for eps in eps_values]
    try:
        configs = [
            engine.ExperimentConfig(
                noise=NoiseParams(eps, c),
                trials=args.trials,
                master_seed=args.seed,
                trial_offset=cell * args.trials,
                **config_kw,
            )
            for cell, (c, eps) in enumerate(cells)
        ]
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _check_writable(args.out)
    t0 = time.time()
    results = engine.run_experiments(configs, threads)
    rows = [row for cfg, res in zip(configs, results) for row in cell_rows(cfg, res)]
    man = _base_manifest(
        command,
        argv,
        [
            ("mode", config_kw["mode"]),
            ("C", ",".join(_fmt(c) for c in c_values)),
            ("epsilon", ",".join(repr(e) for e in eps_values)),
            ("trials", str(args.trials)),
            ("seed", str(args.seed)),
            ("threads", str(threads)),
            ("stream_version", str(STREAM_VERSION)),
        ]
        + settings
        + _schedule_manifest(),
    )
    man.append(("duration_s", f"{time.time() - t0:.3f}"))
    write_csv(args.out, man, columns, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_sweep(args, argv) -> int:
    args = _resolve(args, _SWEEP_DEFAULTS)
    mode = args.mode
    if mode not in _SWEEP_MODES:
        raise UsageError(
            f"sweep does not support mode {mode!r} (use the stabilize command)"
        )
    encoder_noisy = mode == "fig5"

    def cell_rows(config, tallies):
        (stats,) = tallies
        noise = config.noise
        yield [
            mode, noise.ratio_C, noise.epsilon, noise.gamma, stats.t_steps,
            config.trials, config.master_seed,
            stats.p_e_strict, stats.p_fail_a1, stats.stderr_of(stats.p_fail_a1),
            stats.eta0, stats.eta3_b, stats.eta3_p, stats.eta_y,
            stats.f_a1, stats.p_ec1,
        ]

    settings = [("encoder_noisy", str(encoder_noisy).lower())]
    return _run_cells(
        args, argv, "sweep", SWEEP_COLUMNS, settings, cell_rows,
        mode=mode, encoder_noisy=encoder_noisy,
    )


def cmd_stabilize(args, argv) -> int:
    args = _resolve(args, _STABILIZE_DEFAULTS)

    def cell_rows(config, tallies):
        noise = config.noise
        for k, stats in enumerate(tallies, 1):
            yield [
                "stabilize", noise.ratio_C, noise.epsilon, noise.gamma,
                k, stats.t_steps, stats.f_a1, stats.stderr_of(stats.f_a1),
                config.trials, config.master_seed,
            ]

    settings = [("t_max", str(args.t_max))]
    return _run_cells(
        args, argv, "stabilize", STABILIZE_COLUMNS, settings, cell_rows,
        mode="stabilize", t_max=args.t_max,
    )


def _fit_row(model, fit: analysis.FitResult, c, eps=""):
    coef = list(fit.coefficients) + [float("nan")] * (3 - len(fit.coefficients))
    errs = list(fit.stderrs) + [float("nan")] * (3 - len(fit.stderrs))
    return [
        model, c, eps,
        coef[0], errs[0], coef[1], errs[1], coef[2], errs[2],
        fit.rss, fit.n_points,
    ]


def _binomial_point(row, y):
    """(epsilon, y, binomial sigma of y) of a sweep row."""
    return row["epsilon"], row[y], analysis.binomial_sigma(row[y] * row["trials"], row["trials"])


def _line_point(row, y):
    """(t_steps, F, stderr floored at the zero-count sigma) of a stabilize row."""
    return row["t_steps"], row[y], max(row["stderr"], analysis.binomial_sigma(0, row["trials"]))


def _slope_point(row, y):
    """(epsilon, slope, its stderr) of a line fit row."""
    return row["epsilon"], row[y], row["c1_err"]


class _FitModel(NamedTuple):
    needs: tuple  # the input columns it reads, in the order read_csv checks them
    y: str  # the column it fits
    key: tuple  # the columns whose values group rows into one fit
    point: Callable  # (row, y) -> one fit point
    fit: Callable  # a group's points -> analysis.FitResult
    rows_of: str = ""  # the model column of the rows it reads ("": every row)


_SWEEP = ("C", "epsilon", "trials")
_SLOPE = ("model", "C", "epsilon", "c1", "c1_err")
_FIT_MODELS = {
    "quad": _FitModel(_SWEEP + ("P_fail_a1",), "P_fail_a1", ("C",),
                      _binomial_point, partial(analysis.fit_through_origin, degree=2)),
    "lin": _FitModel(_SWEEP + ("p_ec1",), "p_ec1", ("C",),
                     _binomial_point, partial(analysis.fit_through_origin, degree=1)),
    "line": _FitModel(_SWEEP + ("t_steps", "F", "stderr"), "F", ("C", "epsilon"),
                      _line_point, analysis.fit_line),
    "slope2": _FitModel(_SLOPE, "c1", ("C",),
                        _slope_point, partial(analysis.fit_slope_poly, degree=2), "line"),
    "slope3": _FitModel(_SLOPE, "c1", ("C",),
                        _slope_point, partial(analysis.fit_slope_poly, degree=3), "line"),
    "quad-free": _FitModel(_SWEEP + ("P_fail_a1",), "P_fail_a1", ("C",),
                           _binomial_point, analysis.fit_free_quadratic),
}


def cmd_fit(args, argv) -> int:
    """One fit per group of rows with equal (parsed) key values, in order of
    first appearance; C and epsilon print through `_fmt`."""
    model = _FIT_MODELS[args.model]
    _, _, rows = read_csv(args.infile, model.needs)
    if not rows:
        raise UsageError(f"{args.infile} has no data rows")
    groups: dict[tuple, list] = {}
    for row in rows:
        if not model.rows_of or row["model"] == model.rows_of:
            key = tuple(row[k] for k in model.key)
            groups.setdefault(key, []).append(model.point(row, model.y))
    if not groups:
        raise UsageError(f"{args.infile} has no model={model.rows_of} rows")
    out = []
    for key, points in groups.items():
        try:
            fit = model.fit(points)
        except analysis.AnalysisError as exc:
            group = ", ".join(f"{k}={_fmt(v)}" for k, v in zip(model.key, key))
            raise analysis.AnalysisError(
                f"{args.infile}: model={args.model} fit of {group}: {exc}"
            ) from exc
        out.append(_fit_row(args.model, fit, *key))
    man = _base_manifest("fit", argv, [("model", args.model), ("input", args.infile)])
    write_csv(args.out, man, FIT_COLUMNS, out)
    print(f"wrote {len(out)} fit rows to {args.out}")
    return 0


def _threshold_row(row: analysis.TableRow, slope=None, source="the paper table"):
    try:
        ts = analysis.thresholds_from(row, slope)
    except analysis.AnalysisError as exc:  # name the row that failed, as `fit` does
        raise analysis.AnalysisError(f"{source}: C={_fmt(row.ratio_C)}: {exc}") from exc
    return [
        row.ratio_C, row.D2, row.D1, ts.g1, ts.eps_pth, ts.eps_pth_approx, ts.eps_sth,
        ts.eps_mth, ts.eps_g1, ts.eps_thg1, ts.eps_thg2,
    ]


def _once(path, per_c: dict, c, value, what: str) -> None:
    """Set per_c[c] = value; a second row of one kind for one C is a usage error."""
    if c in per_c:
        raise UsageError(f"{path} has more than one {what} row for C={_fmt(c)}")
    per_c[c] = value


def _matched(path, per_c: dict, c_values, what: str, where: str) -> None:
    """Every C of per_c must be in c_values; a row no threshold row takes is
    a usage error, not silently dropped."""
    extra = sorted(set(per_c) - set(c_values))
    if extra:
        raise UsageError(f"{path} has {what} rows for C={','.join(map(_fmt, extra))}, {where}")


def cmd_thresholds(args, argv) -> int:
    slopes: dict[float, list] = {}  # C -> its slope polynomial's coefficients
    if args.slopes:
        for d in read_csv(args.slopes, ("model", "C", "c1", "c2", "c3"))[2]:
            if d["model"] in ("slope2", "slope3"):
                coefficients = [d[c] for c in ("c1", "c2", "c3") if not math.isnan(d[c])]
                _once(args.slopes, slopes, d["C"], coefficients, "slope2/slope3")
        if not slopes:
            raise UsageError(f"{args.slopes} has no model=slope2 or model=slope3 rows")
    if args.use_paper_table:
        table = analysis.PUBLISHED_TABLE1
    else:
        c1 = {"quad": {}, "lin": {}}  # model -> C -> its c1
        for d in read_csv(args.fits, ("model", "C", "c1"))[2]:
            if d["model"] in c1:
                if d["c1"] < 0:  # a fit through the origin of y >= 0 at x > 0 gives c1 >= 0
                    raise UsageError(
                        f"{args.fits} has a negative model={d['model']} c1 for C={_fmt(d['C'])}"
                    )
                _once(args.fits, c1[d["model"]], d["C"], d["c1"], f"model={d['model']}")
        d2, d1 = c1["quad"], c1["lin"]
        if not d2:
            raise UsageError(f"{args.fits} has no model=quad rows")
        _matched(args.fits, d1, d2, "model=lin", "where it has no model=quad row")
        table = [
            analysis.TableRow(c, d2[c], d1.get(c, float("nan")), float("nan"))
            for c in sorted(d2)
        ]
    source = "the paper table" if args.use_paper_table else args.fits
    where = f"where {source} has no threshold row"
    _matched(args.slopes, slopes, [row.ratio_C for row in table], "slope2/slope3", where)
    rows = [_threshold_row(row, slopes.get(row.ratio_C), source) for row in table]
    label = "paper-table" if args.use_paper_table else args.fits
    man = _base_manifest("thresholds", argv, [("source", label)])
    write_csv(args.out, man, THRESHOLD_COLUMNS, rows)
    print(f"wrote {len(rows)} threshold rows to {args.out}")
    return 0


def cmd_table1(args, argv) -> int:
    rows = []
    for row in analysis.PUBLISHED_TABLE1:
        t = dict(zip(THRESHOLD_COLUMNS, _threshold_row(row)))
        t.update(G1_published=row.G1, G1_recomputed=t["G1"], delta_G1=abs(t["G1"] - row.G1))
        t["flagged"] = int(t["delta_G1"] > 0.5)
        rows.append([t[k] for k in TABLE1_COLUMNS])
    man = _base_manifest("table1", argv, [("rows", str(len(rows)))])
    write_csv(args.out, man, TABLE1_COLUMNS, rows)
    for row in rows:
        print(
            f"C={_fmt(row[0])}: G1 published {_fmt(row[3])} recomputed "
            f"{row[4]:.1f} delta {row[5]:.3f}{' FLAGGED' if row[6] else ''}"
        )
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0 if not any(row[6] for row in rows) else 2


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@cache
def _build_parser() -> _Parser:
    """The one parser; parsing leaves it unchanged, so it is built once a process."""
    parser = _Parser(prog="steane-mc", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("selftest", help="structural and fault-tolerance self checks")

    def common(p):
        p.add_argument("--C", action="append", help="ratio eps/gamma; 'inf' allowed (repeatable)")
        p.add_argument("--epsilon", action="append", help="memory error rate (repeatable)")
        p.add_argument("--epsilon-grid", dest="epsilon_grid", help="lo:hi:count log-spaced")
        p.add_argument("--trials", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--threads", type=int)
        p.add_argument("--out")
        p.add_argument("--config", help="key=value defaults file")

    p = sub.add_parser("sweep", help="run one experiment per (C, epsilon) cell")
    common(p)
    p.add_argument("--mode", choices=_SWEEP_MODES)

    p = sub.add_parser("stabilize", help="repeated-recovery fidelity series")
    common(p)
    p.add_argument("--t-max", dest="t_max", type=int, help="number of recoveries")

    p = sub.add_parser("fit", help="fit coefficients from sweep/stabilize CSVs")
    p.add_argument("--model", required=True, choices=list(_FIT_MODELS))
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default="fits.csv")

    p = sub.add_parser("thresholds", help="threshold set per C row")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--use-paper-table", dest="use_paper_table", action="store_true")
    source.add_argument("--fits", help="fit CSV with model=quad (and optionally lin) rows")
    p.add_argument("--slopes", help="fit CSV with slope2/slope3 rows for eps_sth")
    p.add_argument("--out", default="thresholds.csv")

    p = sub.add_parser("table1", help="published reference table and recomputed values")
    p.add_argument("--out", default="table1.csv")
    return parser


_COMMANDS = {
    "selftest": cmd_selftest,
    "sweep": cmd_sweep,
    "stabilize": cmd_stabilize,
    "fit": cmd_fit,
    "thresholds": cmd_thresholds,
    "table1": cmd_table1,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args, argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError) as exc:  # AnalysisError, AncillaRejectionError, a dead worker
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IOError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
