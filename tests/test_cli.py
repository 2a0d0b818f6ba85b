import math
import os
import time
import warnings

import pytest

from steane_mc import analysis as an
from steane_mc import cli, engine
from steane_mc.circuit import build_recovery

# CLI tests run tiny trial counts on purpose
pytestmark = pytest.mark.filterwarnings("ignore:trials=")


def run(argv):
    return cli.main(argv)


def _data_block(path):
    """Data header + rows, skipping the manifest comments."""
    with open(path) as fh:
        return [l for l in fh if not l.startswith("# ")]


def _manifest(path):
    with open(path) as fh:
        return dict(
            l[2:].rstrip("\n").split(" = ", 1) for l in fh if l.startswith("# ")
        )


def test_selftest_passes(capsys):
    assert run(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "24" in out and "72" in out
    assert "FAIL" not in out


def test_usage_errors_exit_1(tmp_path, capsys):
    assert run(["sweep", "--mode", "nonsense"]) == 1
    assert run(["sweep", "--bogus-flag"]) == 1
    assert run(["fit", "--model", "quad", "--in", str(tmp_path / "nope.csv")]) == 3
    assert run(["thresholds", "--out", str(tmp_path / "t.csv")]) == 1
    fits = tmp_path / "fits.csv"
    fits.write_text("model,C,c1\nquad,inf,30000\n")
    assert run(["thresholds", "--use-paper-table", "--fits", str(fits),
                "--out", str(tmp_path / "t.csv")]) == 1
    assert "not allowed with" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_sweep_zero_noise(tmp_path):
    out = tmp_path / "s.csv"
    rc = run(
        ["sweep", "--mode", "memory_t20", "--C", "inf", "--epsilon", "0",
         "--trials", "50", "--seed", "3", "--out", str(out), "--threads", "1"]
    )
    assert rc == 0
    block = _data_block(out)
    cols = block[0].rstrip().split(",")
    row = dict(zip(cols, block[1].rstrip().split(",")))
    assert row["P_E_strict"] == "0.0"
    assert row["P_fail_a1"] == "0.0"
    assert row["F_a1"] == "1.0"
    assert row["t_steps"] == "20"
    assert row["C"] == "inf"


def test_sweep_rerun_is_byte_identical(tmp_path):
    args = ["sweep", "--mode", "memory_t20", "--C", "1", "--epsilon", "0.002",
            "--trials", "4000", "--seed", "11"]
    a, b, c = (str(tmp_path / f"{n}.csv") for n in "abc")
    assert run(args + ["--out", a, "--threads", "1"]) == 0
    assert run(args + ["--out", b, "--threads", "1"]) == 0
    assert run(args + ["--out", c, "--threads", "2"]) == 0
    assert _data_block(a) == _data_block(b) == _data_block(c)


def test_sweep_multi_cell_and_modes(tmp_path):
    out = str(tmp_path / "m.csv")
    rc = run(
        ["sweep", "--mode", "ec1", "--C", "inf", "--C", "2",
         "--epsilon", "0.001", "--epsilon", "0.002",
         "--trials", "2000", "--seed", "7", "--out", out, "--threads", "1"]
    )
    assert rc == 0
    block = _data_block(out)
    assert len(block) == 5  # header + 4 cells
    man = _manifest(out)
    assert man["mode"] == "ec1"
    assert man["schedule_fingerprint"]
    assert man["data_exposure_steps"] == "19"


def test_fingerprint_built_once_per_process(tmp_path, monkeypatch):
    """Two sweeps in one process build the recovery network once, for the
    manifest's fingerprint, which stays the pinned one."""
    built = []

    def counting():
        built.append(1)
        return build_recovery()

    cli._fingerprint.cache_clear()
    monkeypatch.setattr(cli, "build_recovery", counting)
    args = ["sweep", "--mode", "memory_t20", "--C", "inf", "--epsilon", "0",
            "--trials", "50", "--seed", "3", "--threads", "1"]
    for name in "ab":
        out = str(tmp_path / f"{name}.csv")
        assert run(args + ["--out", out]) == 0
        assert _manifest(out)["schedule_fingerprint"] == "19a428be93203fd7"
    assert len(built) == 1


def test_round_trip_rewrite_byte_identical(tmp_path):
    src = str(tmp_path / "rt.csv")
    run(["sweep", "--mode", "memory_t20", "--C", "inf", "--epsilon", "0.001",
         "--trials", "1000", "--seed", "1", "--out", src, "--threads", "1"])
    manifest, columns, rows = cli.read_csv(src)
    dst = str(tmp_path / "rt2.csv")
    cli.write_csv(dst, manifest, columns, rows)
    assert open(src).read() == open(dst).read()


def test_fit_quadratic_roundtrip(tmp_path):
    # planted exact quadratic -> coefficient recovered to high precision
    src = str(tmp_path / "planted.csv")
    rows = []
    n = 10**6
    for e in (1e-4, 2e-4, 4e-4, 8e-4):
        y = 5.0 * e * e
        rows.append(["memory_t20", "inf", e, 0.0, 20, n, 0, y, y,
                     an.binomial_sigma(y * n, n), 0, 0, 0, 0, 1.0 - y, 0.0])
    cli.write_csv(src, [("seed", "0")], cli.SWEEP_COLUMNS, rows)
    out = str(tmp_path / "fits.csv")
    assert run(["fit", "--model", "quad", "--in", src, "--out", out]) == 0
    block = _data_block(out)
    row = dict(zip(block[0].rstrip().split(","), block[1].rstrip().split(",")))
    assert float(row["c1"]) == pytest.approx(5.0, rel=1e-9)
    assert row["model"] == "quad"


def test_fit_empty_input_exits_1(tmp_path):
    src = str(tmp_path / "empty.csv")
    cli.write_csv(src, [], cli.SWEEP_COLUMNS, [])
    assert run(["fit", "--model", "quad", "--in", src, "--out", str(tmp_path / "x.csv")]) == 1


def test_malformed_fit_and_threshold_inputs_exit_1(tmp_path, capsys):
    """A file that does not decode as text, a row with the wrong field count,
    a missing column a command reads or a field of it that does not parse is
    a usage error naming the file, not a KeyError or a ValueError."""
    cases = [
        (["fit", "--model", "quad"], b"\xff\xfe,bad\n", "cannot decode"),
        (["fit", "--model", "quad"], "mode,C,epsilon,P_fail_a1,trials\nmemory_t20,inf,1e-3,0.01\n",
         "line 2"),
        (["fit", "--model", "quad"], "mode,C,epsilon,P_fail_a1\nmemory_t20,inf,1e-3,0.01\n",
         "trials"),
        (["fit", "--model", "line"], "C,epsilon,t_steps,F,stderr\ninf,1e-3,20,0.99,0.01\n",
         "trials"),
        (["fit", "--model", "slope2"], "model,C,c1\nline,inf,-0.001\n", "epsilon"),
        (["thresholds", "--fits"], "model,C\nquad\n", "line 2"),
        (["thresholds", "--fits"], "model,C\nquad,inf\n", "c1"),
        (["thresholds", "--use-paper-table", "--slopes"], "model,C,c1\nslope2,inf,1.0\n", "c2"),
        # a field that does not parse names its line and column
        (["fit", "--model", "quad"], "C,epsilon,P_fail_a1,trials\ninf,zz,0.01,100\n",
         "line 2 column epsilon"),
        (["fit", "--model", "quad"],
         "C,epsilon,P_fail_a1,trials\ninf,1e-3,0.01,100\nzz,2e-3,0.02,100\n",
         "line 3 column C"),
        (["fit", "--model", "quad"], "C,epsilon,P_fail_a1,trials\ninf,1e-3,0.01,1.5\n",
         "line 2 column trials"),
        (["fit", "--model", "lin"], "C,epsilon,p_ec1,trials\ninf,1e-3,abc,100\n",
         "line 2 column p_ec1"),
        (["fit", "--model", "line"], "C,epsilon,trials,t_steps,F,stderr\ninf,1e-3,9,20,x,0.01\n",
         "line 2 column F"),
        (["thresholds", "--fits"], "model,C,c1\nquad,inf,abc\n", "line 2 column c1"),
        (["thresholds", "--use-paper-table", "--slopes"],
         "model,C,c1,c2,c3\nslope2,inf,1.0,abc,\n", "line 2 column c2"),
        # a field outside its column's domain names its line and column too
        *((["fit", "--model", "quad"],
           f"C,epsilon,P_fail_a1,trials\ninf,1e-3,0.01,100\ninf,{eps},{y},{n}\n",
           f"line 3 column {named}")
          for eps, y, n, named in (
              ("inf", "0.02", "100", "epsilon"), ("nan", "0.02", "100", "epsilon"),
              ("-1e-4", "0.02", "100", "epsilon"), ("1.5", "0.02", "100", "epsilon"),
              ("2e-3", "nan", "100", "P_fail_a1"), ("2e-3", "1.5", "100", "P_fail_a1"),
              ("2e-3", "-inf", "100", "P_fail_a1"), ("2e-3", "0.02", "0", "trials"),
              ("2e-3", "0.02", "-5", "trials"))),
        (["fit", "--model", "quad"], "C,epsilon,P_fail_a1,trials\nnan,1e-3,0.01,100\n",
         "line 2 column C"),
        (["fit", "--model", "lin"], "C,epsilon,p_ec1,trials\ninf,1e-3,-0.5,100\n",
         "line 2 column p_ec1"),
        (["fit", "--model", "line"], "C,epsilon,trials,t_steps,F,stderr\ninf,1e-3,9,20,1.01,0.01\n",
         "line 2 column F"),
        (["fit", "--model", "line"], "C,epsilon,trials,t_steps,F,stderr\ninf,1e-3,9,20,0.9,-0.01\n",
         "line 2 column stderr"),
        (["fit", "--model", "line"], "C,epsilon,trials,t_steps,F,stderr\ninf,1e-3,9,inf,0.9,0.01\n",
         "line 2 column t_steps"),
        (["fit", "--model", "slope2"], "model,C,epsilon,c1,c1_err\nline,inf,1e-3,nan,1e-4\n",
         "line 2 column c1"),
        *((["fit", "--model", "slope2"], f"model,C,epsilon,c1,c1_err\nline,inf,1e-3,0.1,{err}\n",
           "line 2 column c1_err") for err in ("0", "-1e-4", "nan", "inf", "")),
        # a sigma whose weight 1 / sigma^2 overflows is out of domain too
        (["fit", "--model", "slope2"],
         "model,C,epsilon,c1,c1_err\nline,inf,1e-3,0.1,1e-4\nline,inf,2e-3,0.3,1e-200\n"
         "line,inf,3e-3,0.5,1e-4\nline,inf,4e-3,0.9,1e-4\n", "line 3 column c1_err"),
        (["thresholds", "--fits"], "model,C,c1\nquad,inf,inf\n", "line 2 column c1"),
        (["thresholds", "--use-paper-table", "--slopes"],
         "model,C,c1,c2,c3\nslope2,inf,1.0,2.0,nan\n", "line 2 column c3"),
    ]
    for k, (argv, text, named) in enumerate(cases):
        src = tmp_path / f"bad{k}.csv"
        (src.write_bytes if isinstance(text, bytes) else src.write_text)(text)
        out = str(tmp_path / "out.csv")
        flag = [] if argv[0] == "thresholds" else ["--in"]
        assert run(argv + flag + [str(src), "--out", out]) == 1, argv
        err = capsys.readouterr().err
        assert str(src) in err and named in err, err


def _slope_fit(tmp_path, model, errs):
    """The fit row of `model` over four planted line-fit slopes with these c1_err."""
    src, out = tmp_path / "lines.csv", str(tmp_path / "slopes.csv")
    points = zip((1e-3, 2e-3, 3e-3, 4e-3), (0.0021, 0.0086, 0.0179, 0.0335), errs)
    src.write_text("model,C,epsilon,c1,c1_err\n"
                   + "".join(f"line,inf,{e},{a},{err}\n" for e, a, err in points))
    assert run(["fit", "--model", model, "--in", str(src), "--out", out]) == 0
    (row,) = _records(out)
    return {k: float(row[k] or "nan") for k in ("c1", "c2", "c3", "c1_err", "c2_err", "c3_err")}


@pytest.mark.parametrize("model", ["slope2", "slope3"])
def test_slope_fit_weights_points_by_c1_err(tmp_path, model):
    """Each line fit's c1_err is its slope's sigma: moving one changes the
    coefficients, and scaling all by k scales the stderrs by k."""
    errs = (1e-4, 2e-4, 3e-4, 4e-4)
    base = _slope_fit(tmp_path, model, errs)
    assert _slope_fit(tmp_path, model, (1e-4, 2e-4, 3e-4, 4e-3))["c1"] != pytest.approx(
        base["c1"], rel=1e-6)
    scaled = _slope_fit(tmp_path, model, [10 * e for e in errs])
    for k in ("c1", "c2", "c3"):
        assert scaled[k] == pytest.approx(base[k], rel=1e-9, nan_ok=True)
        assert scaled[f"{k}_err"] == pytest.approx(10 * base[f"{k}_err"], rel=1e-9, nan_ok=True)


def test_slope_fit_whose_normal_matrix_overflows_exits_2(tmp_path, capsys):
    """Sigmas that each pass SIGMA_MIN but whose weights overflow the normal
    matrix give an analysis error naming the weights (exit 2), not numpy's
    overflow warning, which this suite turns into an error."""
    src, out = tmp_path / "lines.csv", str(tmp_path / "slopes.csv")
    points = zip((1, 0.9, 0.5, 0.4), (0.5, 0.4, 0.2, 0.15), (7.46e-155, 7.46e-155, 0.01, 0.01))
    src.write_text("model,C,epsilon,c1,c1_err\n"
                   + "".join(f"line,inf,{e},{a},{err}\n" for e, a, err in points))
    assert run(["fit", "--model", "slope2", "--in", str(src), "--out", out]) == 2
    assert "weights 1 / sigma^2 up to" in capsys.readouterr().err


def test_default_threads_are_the_usable_cpus(tmp_path, monkeypatch):
    """--threads 0 runs on the CPUs this process may use, and the manifest says so."""
    out = str(tmp_path / "t.csv")
    argv = ["sweep", "--epsilon", "1e-3", "--trials", "5", "--out", out]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert run(argv) == 0 and _manifest(out)["threads"] == "3"
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 7)
    assert run(argv + ["--threads", "0"]) == 0 and _manifest(out)["threads"] == "7"


def _records(path):
    block = _data_block(path)
    return [dict(zip(block[0].rstrip().split(","), l.rstrip().split(","))) for l in block[1:]]


def test_fit_groups_rows_by_value_and_echoes_inputs(tmp_path):
    """fit groups rows by parsed C (and epsilon for line), so C spelled `1` and
    `1.0`, or epsilon spelled `0.002` and `2e-3`, make one group; its rows
    echo C and epsilon as sweep and stabilize wrote them."""
    sweep, stab = str(tmp_path / "sw.csv"), str(tmp_path / "st.csv")
    tail = ["--trials", "2000", "--seed", "9", "--threads", "1"]
    assert run(["sweep", "--C", "inf", "--C", "1", "--C", "0.3",
                "--epsilon-grid", "1e-3:4e-3:3", *tail, "--out", sweep]) == 0
    assert run(["stabilize", "--C", "1", "--epsilon", "0.002", "--epsilon", "0.003",
                "--t-max", "4", *tail, "--out", stab]) == 0
    for src, model, column, spelt, respelt, key in (
        (sweep, "quad", "C", "1.0", "1", ("C",)),
        (stab, "line", "epsilon", "0.002", "2e-3", ("C", "epsilon")),
    ):
        fits = str(tmp_path / f"{model}.csv")
        assert run(["fit", "--model", model, "--in", src, "--out", fits]) == 0
        got = [tuple(r[k] for k in key) for r in _records(fits)]
        assert got == list(dict.fromkeys(tuple(r[k] for k in key) for r in _records(src)))
        manifest, columns, rows = cli.read_csv(src)
        col = columns.index(column)
        hits = [row for row in rows if row[col] == spelt]
        for row in hits[::2]:
            row[col] = respelt
        assert 0 < len(hits[::2]) < len(hits)
        mixed = str(tmp_path / f"mixed_{model}.csv")
        cli.write_csv(mixed, manifest, columns, rows)
        refit = str(tmp_path / f"re{model}.csv")
        assert run(["fit", "--model", model, "--in", mixed, "--out", refit]) == 0
        assert _data_block(refit) == _data_block(fits)


def test_fit_degenerate_exits_2(tmp_path):
    src = str(tmp_path / "d.csv")
    n = 1000
    rows = [["memory_t20", "inf", 1e-3, 0.0, 20, n, 0, 1e-2, 1e-2,
             an.binomial_sigma(10, n), 0, 0, 0, 0, 0.99, 0.0]] * 2
    cli.write_csv(src, [], cli.SWEEP_COLUMNS, rows)
    assert run(["fit", "--model", "quad", "--in", src, "--out", str(tmp_path / "x.csv")]) == 2


def test_stabilize_fit_slope_threshold_pipeline(tmp_path):
    stab = str(tmp_path / "stab.csv")
    rc = run(
        ["stabilize", "--C", "inf", "--epsilon", "0.002", "--epsilon", "0.003",
         "--epsilon", "0.004", "--t-max", "6", "--trials", "3000", "--seed", "5",
         "--out", stab, "--threads", "1"]
    )
    assert rc == 0
    block = _data_block(stab)
    assert len(block) == 1 + 3 * 6
    lines = str(tmp_path / "lines.csv")
    assert run(["fit", "--model", "line", "--in", stab, "--out", lines]) == 0
    slopes = str(tmp_path / "slopes.csv")
    assert run(["fit", "--model", "slope2", "--in", lines, "--out", slopes]) == 0
    sweep = str(tmp_path / "sw.csv")
    run(["sweep", "--mode", "memory_t20", "--C", "inf",
         "--epsilon-grid", "0.001:0.004:3", "--trials", "3000", "--seed", "5",
         "--out", sweep, "--threads", "1"])
    fits = str(tmp_path / "fits.csv")
    assert run(["fit", "--model", "quad", "--in", sweep, "--out", fits]) == 0
    thr = str(tmp_path / "thr.csv")
    assert run(["thresholds", "--fits", fits, "--slopes", slopes, "--out", thr]) == 0
    block = _data_block(thr)
    row = dict(zip(block[0].rstrip().split(","), block[1].rstrip().split(",")))
    assert float(row["eps_mth"]) == pytest.approx(1.0 / float(row["D2"]))
    assert row["eps_sth"] != ""


def test_thresholds_paper_table(tmp_path):
    out = str(tmp_path / "thr.csv")
    assert run(["thresholds", "--use-paper-table", "--out", out]) == 0
    block = _data_block(out)
    rows = [dict(zip(block[0].rstrip().split(","), l.rstrip().split(","))) for l in block[1:]]
    inf_row = [r for r in rows if r["C"] == "inf"][0]
    published = an.PUBLISHED_THRESHOLDS_INF
    assert float(inf_row["eps_mth"]) == pytest.approx(published["eps_mth"], rel=0.02)
    assert float(inf_row["eps_pth"]) == pytest.approx(published["eps_pth"], rel=0.02)
    assert float(inf_row["eps_thg2"]) == pytest.approx(1.36e-5, rel=0.02)
    assert len(rows) == 7


def test_thresholds_conflicting_or_unmatched_rows_exit_1(tmp_path, capsys):
    """Two rows of one kind for one C, or a lin or slope row for a C with no
    threshold row, is a usage error naming the file and the C, and a slopes
    file with no slope2/slope3 rows, such as a line fit's, one naming the
    file and the models.  No output is written, rather than the last row
    winning, the row vanishing or every eps_sth left blank."""
    quad = "model,C,c1\nquad,inf,33961.0\n"
    slope2 = "slope2,inf,1.0,-100.0,\n"
    head = "model,C,c1,c2,c3\n"
    cases = [  # (fits text or None for the paper table, slopes text or None, C named)
        (quad + "quad,inf,34000.0\n", None, "C=inf"),
        (quad + "lin,1,343.8\nquad,1,43843.2\nlin,1,344.0\n", None, "C=1.0"),
        (quad + "lin,inf,290.8\nlin,0.5,409.6\n", None, "C=0.5"),
        (None, head + slope2 + "slope3,inf,5.0,-500.0,1000.0\n", "C=inf"),
        (None, head + slope2 + "slope3,inf,5.0,-500.0,1000.0\nslope2,7,1.0,-100.0,\n", "C=inf"),
        (None, head + "slope2,7,1.0,-100.0,\n", "C=7.0"),
        (quad, head + slope2 + "slope2,1,1.0,-100.0,\n", "C=1.0"),
        (None, head + "line,inf,-0.002,1.0,\n", "model=slope2 or model=slope3"),
    ]
    for k, (fits, slopes, named) in enumerate(cases):
        argv, bad = ["thresholds"], []
        for flag, text in (("--fits", fits), ("--slopes", slopes)):
            if text is not None:
                path = tmp_path / f"{flag[2:]}{k}.csv"
                path.write_text(text)
                argv += [flag, str(path)]
                bad.append(str(path))
        if fits is None:
            argv.append("--use-paper-table")
        out = tmp_path / f"thr{k}.csv"
        assert run(argv + ["--out", str(out)]) == 1, argv
        err = capsys.readouterr().err
        assert bad[-1] in err and named in err, err
        assert not out.exists()


def test_thresholds_bracket_failure_exits_2(tmp_path):
    src = str(tmp_path / "fits.csv")
    cli.write_csv(
        src, [], cli.FIT_COLUMNS,
        [["quad", "inf", "", 1e-12, 1e-13, "", "", "", "", 0.0, 5]],
    )
    assert run(["thresholds", "--fits", src, "--out", str(tmp_path / "t.csv")]) == 2


def test_table1_clean(tmp_path):
    out = str(tmp_path / "t1.csv")
    assert run(["table1", "--out", out]) == 0
    block = _data_block(out)
    assert len(block) == 8
    assert all(l.rstrip().split(",")[6] == "0" for l in block[1:])  # no flags


def test_io_error_exits_3(tmp_path):
    rc = run(["table1", "--out", str(tmp_path / "nodir" / "t.csv")])
    assert rc == 3


@pytest.mark.parametrize("command", ["sweep", "stabilize"])
def test_unwritable_out_exits_3_before_any_cell(command, tmp_path, monkeypatch, capsys):
    """An --out that cannot be written is exit 3 before any cell runs, and
    the check leaves an existing file and a missing path as they were."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(engine, "run_experiments", forbidden)
    out = tmp_path / "nodir" / "x.csv"
    assert run([command, "--epsilon", "1e-3", "--trials", "10", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"io error: cannot write {out}"), err

    def failing(*args, **kwargs):
        raise RuntimeError("the run failed")

    monkeypatch.setattr(engine, "run_experiments", failing)
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text("kept\n")
    for path in (old, new):
        assert run([command, "--epsilon", "1e-3", "--trials", "10", "--out", str(path)]) == 2
    assert old.read_text() == "kept\n" and not new.exists()


def test_env_and_config_precedence(tmp_path, monkeypatch):
    conf = tmp_path / "conf.txt"
    conf.write_text("trials=77\nseed=4\n")
    out = str(tmp_path / "e.csv")
    monkeypatch.setenv("STEANE_MC_TRIALS", "55")
    run(["sweep", "--mode", "memory_t20", "--C", "inf", "--epsilon", "0",
         "--config", str(conf), "--out", out, "--threads", "1"])
    man = _manifest(out)
    assert man["trials"] == "55"  # env beats config
    assert man["seed"] == "4"  # config beats default
    monkeypatch.delenv("STEANE_MC_TRIALS")
    run(["sweep", "--mode", "memory_t20", "--C", "inf", "--epsilon", "0",
         "--config", str(conf), "--trials", "33", "--out", out, "--threads", "1"])
    assert _manifest(out)["trials"] == "33"  # flag beats everything


def test_malformed_env_config_and_batch_exit_1(tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "m.csv")
    argv = ["sweep", "--mode", "memory_t20", "--epsilon", "0", "--out", out, "--threads", "1"]
    monkeypatch.setenv("STEANE_MC_TRIALS", "ten")
    assert run(argv) == 1
    monkeypatch.delenv("STEANE_MC_TRIALS")
    conf = tmp_path / "conf.txt"
    conf.write_text("trials = ten\n")
    assert run(argv + ["--config", str(conf)]) == 1
    conf.write_bytes(b"trials=\xff\n")  # not text: the message names the file
    assert run(argv + ["--config", str(conf)]) == 1
    assert f"cannot decode config {conf}" in capsys.readouterr().err
    for key in ("trails", "t_max"):  # misspelt; an option of stabilize only
        conf.write_text(f"{key} = 5\n")
        assert run(argv + ["--config", str(conf)]) == 1
        assert key in capsys.readouterr().err
    assert run(argv + ["--trials", "ten"]) == 1
    assert not os.path.exists(out)


@pytest.mark.skipif(not engine._HAS_FORK, reason="no fork start method")
def test_dead_sweep_worker_exits_2(tmp_path, monkeypatch, capsys):
    """A sweep worker that exits without sending its counts is one error
    line and exit 2, not a traceback.  The caller runs chunks too, as
    worker 0, so the pid check keeps the planted exit in the forked worker,
    and the caller's chunks wait until that worker has taken one."""
    run_chunk = engine._run_chunk
    pid, dying = os.getpid(), tmp_path / "dying"

    def chunk(config, start, size):
        if os.getpid() != pid:
            dying.touch()
            os._exit(3)
        deadline = time.monotonic() + 30
        while not dying.exists() and time.monotonic() < deadline:
            time.sleep(0.005)
        return run_chunk(config, start, size)

    monkeypatch.setattr(engine, "BATCH", 100)
    monkeypatch.setattr(engine, "_run_chunk", chunk)
    out = tmp_path / "s.csv"
    argv = ["sweep", "--epsilon", "2e-3", "--trials", "150", "--threads", "2", "--out", str(out)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sweep worker 1 exited with code 3"), err
    assert not out.exists()


def test_non_finite_inputs_exit_1(tmp_path, capsys):
    out = str(tmp_path / "n.csv")
    tail = ["--trials", "10", "--out", out, "--threads", "1"]
    grids = ("nan:1e-3:3", "1e-4:3e-4", "a:3e-4:5", "1e-4:3e-4:0", "1e-4:3e-4:-2",
             "1e-4:3e-4:2.5", "0:1e-3:3", "1e-4:inf:3")
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        for argv in (
            ["sweep", "--epsilon", "nan"],
            ["sweep", "--epsilon", "inf"],
            *(["sweep", "--epsilon-grid", grid] for grid in grids),
            ["sweep", "--epsilon", "1e-3", "--C", "nan"],
            ["sweep", "--epsilon", "1e-3", "--C", "-inf"],
            ["stabilize", "--epsilon", "nan", "--t-max", "1"],
            ["sweep", "--epsilon", "abc"],
        ):
            assert run(argv + tail) == 1, argv
            assert "usage error" in capsys.readouterr().err
    assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]
    assert not os.path.exists(out)


def test_out_of_range_flags_exit_1(tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "b.csv")
    base = ["--epsilon", "1e-3", "--trials", "5", "--out", out]
    for argv in (
        ["sweep", *base, "--threads", "-3"],
        ["stabilize", *base, "--threads", "-1", "--t-max", "2"],
        ["sweep", "--epsilon", "1e-3", "--trials", "0", "--out", out, "--threads", "1"],
        ["stabilize", "--epsilon", "1e-3", "--trials", "-2", "--out", out, "--threads", "1"],
        ["stabilize", *base, "--threads", "1", "--t-max", "0"],
        ["sweep", "--epsilon", "0.5", "--C", "1e-5", "--trials", "5", "--out", out, "--threads", "1"],
        ["sweep", *base, "--mode", "memory_t20", "--encoder-noisy"],
        # the random stream reads 64 bits of the seed, so these would alias
        ["sweep", *base, "--threads", "1", "--seed", "-1"],
        ["sweep", *base, "--threads", "1", "--seed", str(2**64)],
        ["stabilize", *base, "--threads", "1", "--t-max", "2", "--seed", str(2**64 + 5)],
    ):
        assert run(argv) == 1, argv
        assert "usage error" in capsys.readouterr().err
    monkeypatch.setenv("STEANE_MC_EPSILON", "abc")
    assert run(["sweep", "--trials", "5", "--out", out, "--threads", "1"]) == 1
    monkeypatch.setenv("STEANE_MC_THREADS", "-3")
    assert run(["sweep", *base]) == 1
    assert not os.path.exists(out)


def test_fig5_mode_forces_noisy_encoder(tmp_path):
    out = str(tmp_path / "f5.csv")
    rc = run(["sweep", "--mode", "fig5", "--C", "0.1", "--epsilon", "0.002",
              "--trials", "2000", "--seed", "2", "--out", out, "--threads", "1"])
    assert rc == 0
    man = _manifest(out)
    assert man["encoder_noisy"] == "true"
    block = _data_block(out)
    row = dict(zip(block[0].rstrip().split(","), block[1].rstrip().split(",")))
    assert float(row["eta0"]) <= 1.0
    assert row["t_steps"] == "25"  # 5 encoder steps + 20
