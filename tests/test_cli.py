"""CLI contracts: subcommands, CSV schema, exit codes, determinism, fits."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gravclock import bouncer as bc, cli, core, estimation as est

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _write_ff_config(tmp_path, **extra):
    lines = [
        "scenario.name = free_fall",
        "physics.m_kg = 1e-25",
        "physics.E1_eV = 2.8",
        "time.dt_s = 10.0",
        "geometry.sigma_m = 1e-4",
    ]
    lines += [f"{k} = {v}" for k, v in extra.items()]
    path = tmp_path / "ff.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_run_emits_report_json(tmp_path, capsys):
    cfg = _write_ff_config(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", str(cfg), "--out", str(out),
                   "--methods", "closed,reduced,fi"])
    assert rc == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["parameter_name"] == "g"
    assert payload["qfi_closed"] > 0
    assert payload["crb_single_shot"] == pytest.approx(1.0 / payload["qfi_closed"], rel=1e-6, abs=0)
    assert payload["qfi_parametric"] is None
    assert payload["method_metadata"]["regime_ok"] is True
    assert json.loads(capsys.readouterr().out) == payload


def test_run_deterministic_bytes(tmp_path):
    cfg = _write_ff_config(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["run", "--config", str(cfg), "--out", str(out),
                         "--methods", "closed,reduced,fi"]) == 0
        outs.append((out / "report.json").read_bytes())
    assert outs[0] == outs[1]


def test_sweep_csv_schema_and_determinism(tmp_path):
    cfg = _write_ff_config(tmp_path)
    tables = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        rc = cli.main(["sweep", "--config", str(cfg), "--var", "dt",
                       "--from", "1", "--to", "100", "--points", "20", "--log",
                       "--methods", "closed,reduced", "--out", str(out)])
        assert rc == 0
        tables.append((out / "sweep.csv").read_bytes())
    assert tables[0] == tables[1]
    lines = tables[0].decode().splitlines()
    assert lines[0] == ("swept_value,qfi_closed,qfi_parametric,qfi_oracle,"
                        "qfi_reduced,fi_closed,fi_numeric,regime_ok")
    assert len(lines) == 21
    values = [float(row.split(",")[0]) for row in lines[1:]]
    assert values == sorted(values)
    # unrequested columns stay empty; the regime flag is always present
    first = lines[1].split(",")
    assert first[2] == "" and first[3] == "" and first[-1] in ("true", "false")


def test_sweep_rows_flag_invalid_regime(tmp_path):
    cfg = _write_ff_config(tmp_path)
    out = tmp_path / "s"
    rc = cli.main(["sweep", "--config", str(cfg), "--var", "sigma",
                   "--from", "1e-5", "--to", "1e-1", "--points", "6", "--log",
                   "--methods", "closed", "--out", str(out)])
    assert rc == 0
    flags = [row.rsplit(",", 1)[1]
             for row in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert "false" in flags and "true" in flags


def test_fit_synthetic_cube(tmp_path, capsys):
    path = tmp_path / "t.csv"
    xs = np.geomspace(1.0, 30.0, 12)
    rows = ["swept_value,qfi_closed"]
    rows += [f"{x:.17g},{x**3:.17g}" for x in xs]
    path.write_text("\n".join(rows) + "\n")
    rc = cli.main(["fit", "--table", str(path), "--column", "qfi_closed"])
    assert rc == 0
    text = capsys.readouterr().out
    slope = float(text.split("=")[1].split("+/-")[0])
    err = float(text.split("+/-")[1].split()[0])
    assert slope == pytest.approx(3.0, abs=1e-9)
    assert err < 1e-6


def test_fit_scaling_asymptotic_law_on_sweep(sr88_10s):
    ts = np.geomspace(10.0, 100.0, 20)
    ys = [est.qfi_ff_asymptotic(sr88_10s.replace(dt=float(t))) for t in ts]
    slope, err = cli.fit_scaling(ts, ys)
    assert slope == pytest.approx(6.0, abs=1e-6)
    assert err < 1e-6


def test_fit_nonpositive_rows_exit_3(tmp_path, capsys):
    path = tmp_path / "t.csv"
    path.write_text("swept_value,qfi_closed\n1,1\n2,0\n3,8\n")
    rc = cli.main(["fit", "--table", str(path), "--column", "qfi_closed"])
    assert rc == 3
    assert "offending rows: [1]" in capsys.readouterr().err


@pytest.mark.parametrize("xs,bad", [("0,1,2", "[0]"), ("-1,1,2", "[0]"),
                                     ("1,nan,4", "[1]"), ("1,2,inf", "[2]")])
@pytest.mark.parametrize("tail", [False, True])
def test_fit_bad_swept_value_exit_3(tmp_path, capsys, xs, bad, tail):
    """A swept_value <= 0 or non-finite is rejected like a bad y, naming the
    rows: it used to print "slope = nan +/- nan" and numpy RuntimeWarnings
    and exit 0."""
    ys = (1, 2, 4, 8, 16)
    xs = xs.split(",") + ["8", "16"]
    path = tmp_path / "t.csv"
    path.write_text("swept_value,qfi_closed\n"
                    + "".join(f"{x},{y}\n" for x, y in zip(xs, ys)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["fit", "--table", str(path), "--column", "qfi_closed",
                       *(["--tail"] if tail else [])])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"offending rows: {bad}" in captured.err
    assert "swept" in captured.err


@pytest.mark.parametrize("tail", [False, True])
def test_fit_constant_swept_value_exit_3(tmp_path, capsys, tail):
    """Swept values that do not vary give no slope: it used to print
    "slope = nan +/- nan" with a numpy RuntimeWarning and exit 0."""
    path = tmp_path / "t.csv"
    path.write_text("swept_value,qfi_closed\n" + "".join(f"2,{y}\n" for y in (3, 5, 7, 11, 13)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["fit", "--table", str(path), "--column", "qfi_closed",
                       *(["--tail"] if tail else [])])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "swept values that vary" in captured.err


def test_fit_repeated_header_column_exit_2(tmp_path, capsys):
    """A header that names a column twice is a config error naming it: fit
    used to fail inside numpy ("shapes (3,) and (6,) not aligned"), exit 3."""
    path = tmp_path / "t.csv"
    path.write_text("swept_value,qfi_closed,qfi_closed\n2,3,3\n3,5,5\n4,7,7\n")
    with pytest.raises(core.ConfigError, match="column 'qfi_closed' more than once"):
        cli.read_table(path)
    rc = cli.main(["fit", "--table", str(path), "--column", "qfi_closed"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'qfi_closed' more than once" in captured.err


def test_fit_ragged_row_exit_2(tmp_path, capsys):
    """A row with fewer cells than the header is an error, not truncated."""
    path = tmp_path / "t.csv"
    path.write_text("swept_value,qfi_closed\n1,1\n2\n3,27\n")
    rc = cli.main(["fit", "--table", str(path), "--column", "qfi_closed"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "1 cells" in err and "2 columns" in err


@pytest.mark.parametrize("row,why", [("1,1,5", "3 cells for 2 columns"),
                                     ("1,abc", "needs a number")])
def test_read_table_rejects_bad_row(tmp_path, row, why):
    path = tmp_path / "t.csv"
    path.write_text(f"swept_value,qfi_closed\n1,1\n{row}\n")
    with pytest.raises(core.ConfigError, match=f"line 3: .*{why}"):
        cli.read_table(path)


@pytest.mark.parametrize("flag", ["True", "1", "", "yes"])
def test_read_table_refuses_regime_flag_other_than_true_false(tmp_path, flag):
    """A regime_ok cell is true or false: any other text used to read as false."""
    path = tmp_path / "t.csv"
    path.write_text(f"swept_value,qfi_closed,regime_ok\n1,1,true\n2,8,{flag}\n")
    with pytest.raises(core.ConfigError, match="line 3: column 'regime_ok' needs true or false"):
        cli.read_table(path)


@pytest.mark.parametrize("tail", [False, True])
def test_fit_regime_ok_column_exit_2(tmp_path, capsys, tail):
    """The regime flags are not numbers to fit: it used to print slope = 0.000000, exit 0."""
    path = tmp_path / "t.csv"
    path.write_text("swept_value,qfi_closed,regime_ok\n"
                    + "".join(f"{x},{x**3},true\n" for x in range(1, 7)))
    rc = cli.main(["fit", "--table", str(path), "--column", "regime_ok",
                   *(["--tail"] if tail else [])])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'regime_ok'" in captured.err


def test_fit_reports_regime_failing_rows_on_stderr(tmp_path, capsys):
    path = tmp_path / "t.csv"
    rows = ["swept_value,qfi_closed,regime_ok"]
    rows += [f"{x:.17g},{x**3:.17g},{'false' if x > 5 else 'true'}"
             for x in np.geomspace(1.0, 30.0, 12)]
    path.write_text("\n".join(rows) + "\n")
    rc = cli.main(["fit", "--table", str(path), "--column", "qfi_closed"])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("slope = 3.000000")
    assert "6 of 12 rows have regime_ok=false" in captured.err


def test_fit_all_regime_rows_stay_quiet(tmp_path, capsys):
    path = tmp_path / "t.csv"
    path.write_text("swept_value,qfi_closed,regime_ok\n1,1,true\n2,8,true\n")
    assert cli.main(["fit", "--table", str(path), "--column", "qfi_closed"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("text", ["x,qfi_closed\n1,1\n2,8\n",
                                  "swept_value,qfi_closed\n1,1\n,8\n3,27\n"])
def test_fit_needs_complete_swept_value_column_exit_2(tmp_path, capsys, text):
    path = tmp_path / "t.csv"
    path.write_text(text)
    assert cli.main(["fit", "--table", str(path), "--column", "qfi_closed"]) == 2
    assert "swept_value" in capsys.readouterr().err


def test_fit_missing_column_exit_2(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("swept_value,qfi_closed\n1,1\n")
    assert cli.main(["fit", "--table", str(path), "--column", "nope"]) == 2


def test_bad_config_exit_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("physics.unknown = 3\n")
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert cli.main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2


@pytest.mark.parametrize("kind", ["directory", "not_utf8"])
@pytest.mark.parametrize("command", ["run", "fit"])
def test_unreadable_input_path_exit_2(tmp_path, capsys, command, kind):
    """A --config or --table that is a directory or not UTF-8 text is a
    config error naming the path; it used to escape as IsADirectoryError or
    UnicodeDecodeError (exit 1)."""
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"scenario.name = free_fall  # caf\xe9\n")
    argv = (["run", "--config", str(path)] if command == "run"
            else ["fit", "--table", str(path), "--column", "qfi_closed"])
    assert cli.main(argv) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_out_path_is_a_file_exit_2_before_numerics(tmp_path, capsys, monkeypatch, command):
    """An --out that names an existing file is a config error found before any
    method runs; it used to raise FileExistsError (exit 1) after all of them."""
    out = tmp_path / "taken"
    out.write_text("")
    evaluated = []
    monkeypatch.setattr(cli, "_evaluate_methods", lambda *args: evaluated.append(args))
    argv = [command, "--config", str(_write_ff_config(tmp_path)), "--out", str(out)]
    if command == "sweep":
        argv += ["--var", "dt", "--from", "5", "--to", "10", "--points", "2"]
    assert cli.main(argv) == 2
    assert evaluated == []
    assert str(out) in capsys.readouterr().err


@pytest.mark.parametrize("line", ["time.dt_s = nan", "physics.g = inf"])
def test_non_finite_config_exit_2(tmp_path, capsys, line):
    """Rejected at parse time, not blamed on a method at exit 3."""
    cfg = tmp_path / "nf.cfg"
    cfg.write_text(f"scenario.name = free_fall\n{line}\n")
    rc = cli.main(["run", "--config", str(cfg), "--methods", "closed,parametric,fi"])
    assert rc == 2
    assert "finite" in capsys.readouterr().err


def test_non_finite_sweep_bound_exit_2(tmp_path, capsys):
    cfg = _write_ff_config(tmp_path)
    rc = cli.main(["sweep", "--config", str(cfg), "--var", "dt", "--from", "1",
                   "--to", "inf", "--points", "3", "--out", str(tmp_path)])
    assert rc == 2
    assert "finite" in capsys.readouterr().err


def test_sweep_points_over_limit_exit_2(tmp_path, capsys):
    """A point count past cli.MAX_SWEEP_POINTS is a config error, raised
    before the values are allocated (10^15 points used to end in numpy's
    _ArrayMemoryError, exit 1); no CSV is written."""
    cfg = _write_ff_config(tmp_path)
    out = tmp_path / "sw"
    rc = cli.main(["sweep", "--config", str(cfg), "--var", "dt", "--from", "1",
                   "--to", "10", "--points", "1000000000000000", "--out", str(out)])
    assert rc == 2
    assert "at most 1000000 points" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()
    spec = cli.SweepSpec("dt", 1.0, 10.0, cli.MAX_SWEEP_POINTS + 1, False)
    with pytest.raises(cli.ConfigError, match="at most"):
        spec.values()


def test_bad_method_and_target_exit_2(tmp_path, capsys):
    cfg = _write_ff_config(tmp_path)
    assert cli.main(["run", "--config", str(cfg), "--methods", "magic"]) == 2
    assert cli.main(["run", "--config", str(cfg), "--methods", "closed,closed,fi"]) == 2
    assert "--methods lists closed more than once" in capsys.readouterr().err
    cfg2 = tmp_path / "mz.cfg"
    cfg2.write_text("scenario.name = free_fall\nscenario.target = delta_g\n")
    assert cli.main(["run", "--config", str(cfg2)]) == 2
    assert "free_fall estimates g" in capsys.readouterr().err


@pytest.mark.parametrize("key,value,message", [
    ("scenario.name", "pendulum",
     "unknown scenario 'pendulum' (use: free_fall, mach_zehnder, bouncer)"),
    ("scenario.target", "g", "mach_zehnder estimates delta_g or bar_g"),
], ids=["unknown-kind", "mz-target-g"])
def test_scenario_kind_and_target_refused_exit_2(tmp_path, capsys, monkeypatch, key, value,
                                                 message):
    """core.Scenario is the one check of kind and target: a config error,
    exit 2, before any method runs."""
    calls = []
    monkeypatch.setattr(cli, "_evaluate_methods", lambda *args: calls.append(args))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_config_with("sr88_mz.cfg", (key, value)))
    for command in (["run"], ["sweep", "--var", "dt", "--from", "1", "--to", "2", "--points", "2"]):
        rc = cli.main([*command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == f"config error: {message}\n"
        assert captured.out == ""
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_mz_sweep_over_g_exit_2(tmp_path, capsys):
    """g does not move the Mach-Zehnder slopes, so the rows would be identical."""
    rc = cli.main(["sweep", "--config", str(CONFIGS / "sr88_mz.cfg"), "--var", "g",
                   "--from", "9", "--to", "11", "--points", "3",
                   "--out", str(tmp_path / "mz")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "physics.g_plus" in err and "physics.g_minus" in err
    assert "delta_g" in err and "bar_g" in err
    assert not (tmp_path / "mz").exists()


def test_sweep_over_g_moves_free_fall_rows(tmp_path):
    out = tmp_path / "ff"
    assert cli.main(["sweep", "--config", str(CONFIGS / "sr88_freefall.cfg"), "--var", "g",
                     "--from", "9", "--to", "11", "--points", "3", "--out", str(out)]) == 0
    closed = cli.read_table(out / "sweep.csv")["qfi_closed"]
    assert len(set(closed)) == 3


def test_sweep_rows_in_point_order(tmp_path):
    """Rows come out in sweep order, one per point, without re-sorting."""
    cfg = cli._build_scenario_config(cli._parser().parse_args(
        ["sweep", "--config", str(CONFIGS / "sr88_mz.cfg"), "--var", "dt", "--from", "5",
         "--to", "30", "--points", "4", "--log", "--methods", "closed,parametric"]))
    rows = cli.run_sweep(cfg)
    assert [r.swept_value for r in rows] == cfg.sweep.values().tolist()


_ANALYTIC = "closed,parametric,reduced,fi"


@pytest.mark.parametrize("name,target,var,start,stop,log,ablate", [
    ("sr88_freefall.cfg", "g", "dt", "0.5", "200", True, False),
    ("sr88_freefall.cfg", "g", "sigma", "2e-5", "4e-4", True, False),
    ("sr88_freefall.cfg", "g", "g", "-20", "50", False, False),
    ("sr88_freefall.cfg", "g", "dt", "0.5", "200", True, True),
    *(("sr88_mz.cfg", target, var, start, stop, True, False)
      for target in ("delta_g", "bar_g")
      for var, start, stop in (("dt", "0.5", "100"), ("sigma", "2e-5", "4e-4"))),
], ids=["ff-dt", "ff-sigma", "ff-g", "ff-dt-ablated", "mzd-dt", "mzd-sigma", "mzb-dt", "mzb-sigma"])
def test_sweep_rows_equal_one_row_runs(tmp_path, name, target, var, start, stop, log, ablate):
    """Batch size does not change a value: the jet routes evaluate a sweep's
    rows in one array pass, and every analytic cell of each row equals, bit for
    bit as a parsed float, the same field of ``run`` at that row's value (a
    one-row pass) and the jet engine on that row's plain scalars."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text(_config_with(name, ("scenario.target", target)))
    flags = ["--methods", _ANALYTIC, *(["--ablate-time-dilation"] if ablate else [])]
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(cfg), "--var", var, "--from", start, "--to", stop,
                     "--points", "21", *(["--log"] if log else []), "--out", str(out), *flags]) == 0
    table = cli.read_table(out / "sweep.csv")
    run = cli._build_scenario_config(cli._parser().parse_args(["run", "--config", str(cfg), *flags]))
    engines = {"qfi_parametric": est.qfi_pure_parametric, "fi_numeric": est.fi_numeric}
    for k, value in enumerate(table["swept_value"]):
        sc = dataclasses.replace(run.scenario, params=run.scenario.params.replace(**{var: value}))
        report = cli.run_single(dataclasses.replace(run, scenario=sc))
        for column in ("qfi_closed", "qfi_parametric", "qfi_reduced", "fi_closed", "fi_numeric"):
            assert (k, column, table[column][k]) == (k, column, getattr(report, column))
        for column, engine in engines.items():
            assert (k, column, table[column][k]) == (k, column, engine(sc))


@pytest.mark.parametrize("methods", ["fi", _ANALYTIC])
def test_sweep_unresolvable_interior_row_exit_3(tmp_path, capsys, methods):
    """Rows 1-3 of this g sweep have a level-relative phase float64 cannot
    resolve, 3.2e13 to 9.5e13 rad, row 0 does not: the sweep exits 3 and
    writes no CSV, and the message names the method, the column and the
    first such row's value.  (With the longdouble ledger the phase named was
    the full one, ~6e23 rad, not the level's difference from the frame.)"""
    values = np.linspace(9.81, 2e16, 4).tolist()
    out = tmp_path / "sw"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["sweep", "--config", str(CONFIGS / "sr88_freefall.cfg"), "--var", "g",
                       "--from", "9.81", "--to", "2e16", "--points", "4", "--methods", methods,
                       "--out", str(out)])
    assert rc == 3
    assert not (out / "sweep.csv").exists()
    assert capsys.readouterr().err.startswith(
        f"numerical error: method 'fi' failed: column 'fi_numeric' at g = {values[1]!r}: "
        "level-relative phase 3.16e+13 rad is beyond float64 resolution")
    assert caught == []


@pytest.mark.parametrize("key,value,methods,message", [
    ("physics.m_kg", "1e300", _ANALYTIC, "method 'closed' failed: column 'qfi_closed' at dt = 5.0 "
     "is nan"),
    ("physics.m_kg", "1e300", "fi,parametric", "method 'parametric' failed: column "
     "'qfi_parametric' at dt = 5.0 is nan"),
    ("physics.g", "1e30", _ANALYTIC, "method 'fi' failed: column 'fi_numeric' at dt = 5.0: "
     "level-relative phase 2.37e+27 rad is beyond float64 resolution"),
    ("physics.g", "1e30", "parametric", None),
])
def test_edge_value_sweeps_keep_exit_codes(tmp_path, capsys, key, value, methods, message):
    """Python's float ``**`` raises OverflowError where numpy's returns inf, so
    the array pass keeps Python's arithmetic where they differ: these sweeps
    exit as their rows did one by one (3 naming the first row, or 0), and no
    numpy RuntimeWarning about the arrays reaches stderr."""
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(_config_with("sr88_freefall.cfg", (key, value)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["sweep", "--config", str(cfg), "--var", "dt", "--from", "5", "--to", "30",
                       "--points", "3", "--methods", methods, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert caught == []
    if message is None:
        assert (rc, err) == (0, "")
    else:
        assert rc == 3
        assert err.startswith(f"numerical error: {message}") and err.count("\n") == 1
        assert not (tmp_path / "out" / "sweep.csv").exists()


@pytest.mark.parametrize("method", ["parametric", "reduced", "fi"])
def test_bouncer_methods_restricted(method, capsys):
    assert cli.main(["run", "--config", str(CONFIGS / "bouncer.cfg"),
                     "--methods", method]) == 2
    assert "bouncer supports methods closed, oracle" in capsys.readouterr().err


@pytest.mark.parametrize("n_max,x_plus", [(2, None), (120, None), (None, "2.5")],
                         ids=["2", "120", "cap"])
def test_bouncer_truncating_n_max_exit_3(tmp_path, capsys, monkeypatch, n_max, x_plus):
    """A level count that truncates the projection is a numerical error
    naming the truncation mass, with no report: it used to print a wrong
    qfi_closed and exit 0 (3.5e-19 at n_max = 2, with a warning blaming a
    destructive phase; 6.77e4 at 120, where the value is 9.34e5).  The
    count is forced to 2 or 120 here; at x_plus = 2.5 m the automatic count
    stops at the 1e4 cap."""
    if n_max is not None:
        monkeypatch.setattr(bc, "_auto_n_max", lambda params: n_max)
    cfg = tmp_path / "b.cfg"
    settings = [] if x_plus is None else [("geometry.x_plus_m", x_plus)]
    cfg.write_text(_config_with("bouncer.cfg", *settings))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["run", "--config", str(cfg), "--methods", "closed", "--out", str(out)])
    assert rc == 3
    captured = capsys.readouterr()
    assert "truncation mass" in captured.err
    assert captured.out == ""
    assert not (out / "report.json").exists()
    assert not [w for w in caught if "destructive" in str(w.message)]


@pytest.mark.parametrize("sigma", ["2e-7", "1e-7"])
def test_bouncer_narrow_packet_runs(tmp_path, capsys, sigma):
    """A packet narrower than the Airy length (l0 = 3.84e-7 m on
    configs/bouncer.cfg), floor clearance held: the automatic count used to
    ignore its momentum width and exit 3 (truncation mass 2.45e-2 at 224
    levels for 2e-7, 41.7% at 217 for 1e-7), advising a deleted config key.
    Now exit 0, silent, with the value of a basis a third larger."""
    cfg = tmp_path / "b.cfg"
    cfg.write_text(_config_with("bouncer.cfg", ("geometry.sigma_m", sigma)))
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", str(cfg), "--methods", "closed", "--out", str(out)])
    assert (rc, capsys.readouterr().err) == (0, "")
    auto = json.loads((out / "report.json").read_text())["qfi_closed"]
    p = core.params_from_config(core.load_config(cfg))
    wider = bc.bouncer_coefficients(p, 4 * bc._auto_n_max(p) // 3)
    assert auto == pytest.approx(bc.bouncer_qfi_longtime(p, projection=wider), rel=1e-12)


def test_bouncer_sigma_sweep_from_narrow_packets(tmp_path, capsys):
    """A sweep of sigma from 1e-7 m (s = 0.26) to 3e-6 m: every row holds its
    packet, so the sweep exits 0 with nothing on stderr."""
    out = tmp_path / "sw"
    rc = cli.main(["sweep", "--config", str(CONFIGS / "bouncer.cfg"), "--var", "sigma",
                   "--from", "1e-7", "--to", "3e-6", "--points", "6", "--log",
                   "--methods", "closed", "--out", str(out)])
    assert (rc, capsys.readouterr().err) == (0, "")
    assert all(v > 0 for v in cli.read_table(out / "sweep.csv")["qfi_closed"])


def test_truncation_advice_names_no_config_key(bouncer_params, capsys, monkeypatch):
    """The level count has no config key (bouncer.n_max is an unknown key), so
    the message used to advise "raise n_max or leave it unset" in vain."""
    with pytest.raises(ValueError, match="at 120 levels; more levels would hold more of it"):
        bc.bouncer_coefficients(bouncer_params, 120)
    monkeypatch.setattr(bc, "_auto_n_max", lambda params: 120)
    rc = cli.main(["run", "--config", str(CONFIGS / "bouncer.cfg"), "--methods", "closed"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "at 120 levels; more levels would hold more of it" in err
    assert "raise n_max" not in err and "bouncer.n_max" not in err


@pytest.mark.parametrize("var,start,stop,solves", [("dt", "0.05", "0.5", 1),
                                                   ("g", "9.6", "10.0", 40)])
def test_bouncer_sweep_projection_solves(tmp_path, monkeypatch, var, start, stop, solves):
    """The projection reads no dt: a 40-row dt sweep is one column set and makes
    one spectrum, and a 40-row g sweep, whose every row is a new state, one per row."""
    spectra = []
    spectrum = bc.bouncer_spectrum
    monkeypatch.setattr(bc, "bouncer_spectrum", lambda *args: spectra.append(args) or spectrum(*args))
    rc = cli.main(["sweep", "--config", str(CONFIGS / "bouncer.cfg"), "--var", var,
                   "--from", start, "--to", stop, "--points", "40", "--methods", "closed",
                   "--out", str(tmp_path)])
    assert rc == 0
    assert len(spectra) == solves


@pytest.mark.parametrize("var,start,stop,log", [("dt", "0.05", "0.5", True),
                                               ("g", "9.6", "10.0", False),
                                               ("sigma", "2e-7", "3e-6", True)])
def test_bouncer_sweep_rows_equal_one_row_runs(tmp_path, var, start, stop, log):
    """Batch size does not change a bouncer value: the closed form evaluates a
    sweep's rows in one pass (one projection for a dt sweep; for g and sigma
    one level-count scan and one solve per count), and every qfi_closed cell
    equals, bit for bit as a parsed float, ``run`` at that row's value.  The
    sigma sweep runs through narrow packets, whose level count changes from
    row to row (458 levels at 2e-7 m, 249 near 7e-7 m, 454 at 3e-6 m)."""
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(CONFIGS / "bouncer.cfg"), "--var", var,
                     "--from", start, "--to", stop, "--points", "24", *(["--log"] if log else []),
                     "--methods", "closed", "--out", str(out)]) == 0
    table = cli.read_table(out / "sweep.csv")
    p = core.params_from_config(core.load_config(CONFIGS / "bouncer.cfg"))
    if var == "sigma":
        counts = {bc._auto_n_max(p.replace(sigma=v)) for v in table["swept_value"]}
        assert len(counts) > 10
    run = cli._build_scenario_config(cli._parser().parse_args(
        ["run", "--config", str(CONFIGS / "bouncer.cfg"), "--methods", "closed"]))
    for k, value in enumerate(table["swept_value"]):
        sc = dataclasses.replace(run.scenario, params=run.scenario.params.replace(**{var: value}))
        report = cli.run_single(dataclasses.replace(run, scenario=sc))
        assert (k, table["qfi_closed"][k]) == (k, report.qfi_closed)


def test_bouncer_g_sweep_solves_each_level_count_once(tmp_path, monkeypatch):
    """A 40-row g sweep of configs/bouncer.cfg spans 10 level counts (450-459),
    each a prefix of one table of zeros: each count takes one Ai'(z_n) and one
    ``ai_log`` call for the four path projections of all its rows."""
    calls = {"ai_prime": [], "ai_log": []}
    for name in calls:
        method = getattr(bc.AiryEngine, name)
        monkeypatch.setattr(bc.AiryEngine, name, lambda self, *args, _m=method, _n=name:
                            calls[_n].append(args) or _m(self, *args))
    p = core.params_from_config(core.load_config(CONFIGS / "bouncer.cfg"))
    per_row = bc._auto_n_max(p.replace(check=False, g=np.linspace(9.6, 10.0, 40)))
    counts = sorted(set(per_row))
    assert counts == list(range(450, 460))
    for key in calls:
        calls[key].clear()
    rc = cli.main(["sweep", "--config", str(CONFIGS / "bouncer.cfg"), "--var", "g",
                   "--from", "9.6", "--to", "10.0", "--points", "40", "--methods", "closed",
                   "--out", str(tmp_path)])
    assert rc == 0
    assert sorted(args[0].size for args in calls["ai_prime"]) == counts
    assert sorted(args[0].size for args in calls["ai_log"]) == sorted(
        4 * n * per_row.count(n) for n in counts)


def test_bouncer_sweep_failing_row_in_the_column_pass(tmp_path, capsys, monkeypatch):
    """Level counts capped at 250: rows 0-3 of this sigma sweep still hold their
    mass, row 4 (sigma = 2.17e-6 m, 381 levels wanted) misses 1.24e-2 of it.
    The column pass fails and the rows are redone one by one: exit 3, no CSV,
    and the message a row-by-row pass gives, naming the method, the column and
    row 4's value.  No numpy RuntimeWarning is raised, only the cap warning."""
    monkeypatch.setattr(bc, "BOUNCER_N_MAX_CAP", 250)
    argv = ["sweep", "--config", str(CONFIGS / "bouncer.cfg"), "--var", "sigma", "--from", "6e-7",
            "--to", "3e-6", "--points", "6", "--log", "--methods", "closed"]
    values = np.geomspace(6e-7, 3e-6, 6).tolist()
    errs = []
    for routes in (cli._COLUMN_ROUTES, {**cli._COLUMN_ROUTES, "bouncer": set()}):
        monkeypatch.setattr(cli, "_COLUMN_ROUTES", routes)
        out = tmp_path / f"sw{len(errs)}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main([*argv, "--out", str(out)]) == 3
        assert not (out / "sweep.csv").exists()
        assert {w.category for w in caught} == {UserWarning}
        assert all("n_max cap" in str(w.message) for w in caught)
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] == (
        f"numerical error: method 'closed' failed: column 'qfi_closed' at sigma = {values[4]!r}: "
        "coefficient truncation mass |1 - mass| = 1.24e-02 > 1e-3 at 250 levels; no level count "
        "up to the cap holds this packet\n")


def test_bouncer_without_floor_clearance_exit_2(tmp_path, capsys, monkeypatch):
    """A packet within 3 widths of the floor (x_pm < 3 sigma) is a config
    error naming the cause, found before any numerics.  sigma = 1e30 or
    10001 used to exit 0 with qfi_closed 1101168362.1136463 whatever sigma
    was (each path's mass was 1e4 at the level cap and the one-sided mass
    check passed it); x_minus <= 1e-30 exited 3 advising a larger n_max."""
    calls = []
    monkeypatch.setattr(cli, "_evaluate_methods", lambda *args: calls.append(args))
    cfg = tmp_path / "b.cfg"
    for key, value in (("geometry.sigma_m", "1e30"), ("geometry.sigma_m", "10001"),
                       ("geometry.x_minus_m", "0"), ("geometry.x_minus_m", "1e-30"),
                       ("geometry.x_minus_m", "-1"), ("geometry.x_minus_m", "8.9e-6")):
        cfg.write_text(_config_with("bouncer.cfg", (key, value)))
        rc = cli.main(["run", "--config", str(cfg), "--methods", "closed,oracle"])
        captured = capsys.readouterr()
        assert (key, value, rc) == (key, value, 2)
        assert "floor clearance" in captured.err
        assert captured.out == ""
    assert calls == []


@pytest.mark.parametrize("methods", ["closed", "parametric", "reduced", "fi", "oracle"])
def test_mz_kink_straddle_exit_2(tmp_path, capsys, monkeypatch, methods):
    """A Mach-Zehnder branch within 5 spread widths of the potential kink is a
    config error naming the cause, found before any numerics.  At sigma = 1e-3
    (5 Sigma = 5.0e-3 against |x_pm - x0| = 5e-3) `closed` used to exit 0 with
    regime_ok true, and the other methods exited 3 ("branch straddles potential kink")."""
    calls = []
    monkeypatch.setattr(cli, "_evaluate_methods", lambda *args: calls.append(args))
    cfg = tmp_path / "mz.cfg"
    cfg.write_text(_config_with("sr88_mz.cfg", ("geometry.sigma_m", "1e-3")))
    rc = cli.main(["run", "--config", str(cfg), "--methods", methods])
    captured = capsys.readouterr()
    assert rc == 2
    assert "straddles the potential kink" in captured.err
    assert captured.out == ""
    assert calls == []


@pytest.mark.parametrize("var,start,stop", [("dt", "5", "400"), ("sigma", "1e-4", "1e-3")])
def test_mz_sweep_into_kink_straddle_exit_2(tmp_path, capsys, monkeypatch, var, start, stop):
    """Every sweep point is held to the kink clearance before any row is
    evaluated: the last point straddles, so no method runs."""
    calls = []
    monkeypatch.setattr(cli, "_evaluate_methods", lambda *args: calls.append(args))
    rc = cli.main(["sweep", "--config", str(CONFIGS / "sr88_mz.cfg"), "--var", var,
                   "--from", start, "--to", stop, "--points", "3", "--log",
                   "--methods", "closed", "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 2
    assert f"sweep --var {var} = {float(stop)!r}" in captured.err
    assert "straddles the potential kink" in captured.err
    assert calls == []


def test_bouncer_separated_path_peaks_auto_n_max(tmp_path, capsys):
    """Paths 88 um apart peak ~1000 levels apart (n ~ 160 and ~1170).  The
    automatic n_max used to stop in the gap after the lower path's peak
    (392 levels) and the run exited 3 with truncation mass 1.00, although
    the level count is automatic."""
    cfg = tmp_path / "b.cfg"
    cfg.write_text(_config_with("bouncer.cfg", ("geometry.x_plus_m", "1.2e-4")))
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", str(cfg), "--methods", "closed", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    auto = json.loads((out / "report.json").read_text())["qfi_closed"]
    p = core.params_from_config(core.load_config(cfg))
    fixed = bc.bouncer_qfi_longtime(p, projection=bc.bouncer_coefficients(p, 1400))
    assert auto == pytest.approx(fixed, rel=1e-7)


@pytest.mark.parametrize("methods", ["closed", "closed,oracle"])
def test_bouncer_near_null_projection_exit_3(tmp_path, capsys, methods):
    """Paths 1e-12 m apart at phi = pi cancel: a numerical error saying so,
    with no report.  ``closed`` used to exit 0 with qfi_closed 9.3e-7 (the
    sample gives 9.3e5) from coefficients that were never normalized, and a
    warning; with ``oracle`` the run exited 3 blaming physics.g."""
    cfg = tmp_path / "b.cfg"
    cfg.write_text(_config_with("bouncer.cfg", ("geometry.x_plus_m", "3.2000001e-5"),
                                ("phase.phi_rad", "3.141592653589793")))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["run", "--config", str(cfg), "--methods", methods])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "paths cancel" in captured.err and "physics.g" not in captured.err


@pytest.mark.parametrize("dt", ["0", "1e-7"])
def test_bouncer_oracle_unresolvable_g_exit_3(tmp_path, capsys, dt):
    """A bouncer whose state barely depends on g (dt = 0 or 1e-7 s) is a
    numerical error of the oracle's offset search.  It used to exit 3 with
    the config-error text "physics.g: the bouncer needs g > 0 (got -0.48)"."""
    cfg = tmp_path / "b.cfg"
    cfg.write_text(_config_with("bouncer.cfg", ("time.dt_s", dt)))
    rc = cli.main(["run", "--config", str(cfg), "--methods", "closed,oracle"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "fidelity resolution" in captured.err and "physics.g" not in captured.err


_ALL = "closed,parametric,oracle,reduced,fi"
_SWEEP_TABLE = str(Path(__file__).resolve().parent / "golden" / "sr88_freefall_dt_sweep.csv")


def _analytic_zero(report):
    return all(report[k] == 0.0 for k in ("qfi_closed", "qfi_parametric", "qfi_reduced",
                                          "fi_closed", "fi_numeric"))


def _oracle_within(rel):
    return lambda report: abs(report["qfi_oracle"] / report["qfi_closed"] - 1.0) <= rel


_SILENT_CASES = {
    # Each sample config with every method its scenario has.
    **{cfg.stem: (cfg.name, (), ["run", "--methods",
                                 "closed,oracle" if cfg.name == "bouncer.cfg" else _ALL], None)
       for cfg in sorted(CONFIGS.glob("*.cfg"))},
    "mz-bar_g": ("sr88_mz.cfg", (("scenario.target", "bar_g"),), ["run", "--methods", _ALL], None),
    "freefall-ablated": ("sr88_freefall.cfg", (), ["run", "--methods", "fi",
                                                   "--ablate-time-dilation"], None),
    "mz-ablated": ("sr88_mz.cfg", (), ["run", "--methods", "fi", "--ablate-time-dilation"], None),
    # At dt = 0 the evolution map is the identity, so no state depends on the target.
    "freefall-dt-0": ("sr88_freefall.cfg", (("time.dt_s", "0"),), ["run", "--methods", _ANALYTIC],
                      _analytic_zero),
    "mz-dt-0": ("sr88_mz.cfg", (("time.dt_s", "0"),), ["run", "--methods", _ANALYTIC],
                _analytic_zero),
    # Paths 88 um apart: a second, ~9.7k-point lattice (gap to the long-time form ~3.5e-3).
    "bouncer-separated": ("bouncer.cfg", (("geometry.x_plus_m", "1.2e-4"),),
                          ["run", "--methods", "closed,oracle"], _oracle_within(2e-2)),
    # With the longdouble phase ledger, 100 s exited 3 (its accepted offsets gave G
    # 3.6e-2 apart, the value 6.04e-2 above qfi_closed) and 1000 s printed a value
    # 1.11e-3 above it with exit 0.
    "freefall-dt-100": ("sr88_freefall.cfg", (("time.dt_s", "100"),),
                        ["run", "--methods", "closed,oracle"], _oracle_within(1e-6)),
    "freefall-dt-1000": ("sr88_freefall.cfg", (("time.dt_s", "1000"),),
                         ["run", "--methods", "closed,oracle"], _oracle_within(1e-6)),
    "freefall-dt-sweep": ("sr88_freefall.cfg", (), ["sweep", "--var", "dt", "--from", "5", "--to",
                                                    "30", "--points", "20", "--log", "--methods",
                                                    _ANALYTIC], None),
    "bouncer-dt-sweep": ("bouncer.cfg", (), ["sweep", "--var", "dt", "--from", "0.05", "--to", "0.5",
                                             "--points", "40", "--log", "--methods", "closed"], None),
    "bouncer-g-sweep": ("bouncer.cfg", (), ["sweep", "--var", "g", "--from", "9.6", "--to", "10.0",
                                            "--points", "40", "--methods", "closed"], None),
    "bouncer-sigma-sweep": ("bouncer.cfg", (), ["sweep", "--var", "sigma", "--from", "2e-7", "--to",
                                                "3e-6", "--points", "20", "--log", "--methods",
                                                "closed"], None),
    # The free-fall dt sweep's table, the bytes of the sweep above (test_golden.py).
    "fit": (None, (), ["fit", "--table", _SWEEP_TABLE, "--column", "qfi_closed"], None),
    "fit-tail": (None, (), ["fit", "--table", _SWEEP_TABLE, "--column", "qfi_closed", "--tail"],
                 None),
}


@pytest.mark.parametrize("case", list(_SILENT_CASES))
def test_exits_0_silently(tmp_path, capsys, case):
    """Each sample config with every method its scenario has, the ablated FI,
    the MZ's second target, the sample sweeps and fits of the free-fall sweep
    exit 0 with nothing on stderr and no warning raised.  Some reports must
    also hold a value: every analytic QFI and FI is exactly 0 at dt = 0; the
    oracle is within 2e-2 of the long-time form on the separated bouncer, and
    within 1e-6 of qfi_closed for free fall at 100 s and 1000 s."""
    name, settings, argv, holds = _SILENT_CASES[case]
    out = tmp_path / "out"
    if name is not None:
        cfg = tmp_path / "c.cfg"
        cfg.write_text(_config_with(name, *settings))
        argv = [*argv, "--config", str(cfg), "--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(argv)
    assert (rc, capsys.readouterr().err, caught) == (0, "", [])
    if holds is not None:
        assert holds(json.loads((out / "report.json").read_text()))


@pytest.mark.parametrize("g", ["-9.81", "0"])
def test_bouncer_nonpositive_g_exit_2(tmp_path, capsys, g):
    """A floor under a potential that does not rise holds no bound states,
    so a bouncer with g <= 0 is a config error naming physics.g.  It used
    to exit 3: -9.81 on a complex Airy length (with a ComplexWarning on
    stderr), 0 on a division by zero."""
    cfg = tmp_path / "b.cfg"
    cfg.write_text((CONFIGS / "bouncer.cfg").read_text().replace(
        "physics.g = 9.81", f"physics.g = {g}"))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["run", "--config", str(cfg), "--methods", "closed,oracle",
                       "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "physics.g" in captured.err
    assert not out.exists()


def test_bouncer_sweep_nonpositive_g_exit_2(tmp_path, capsys, monkeypatch):
    """Every point of a bouncer g sweep is checked before any numerics run."""
    calls = []
    monkeypatch.setattr(cli, "_evaluate_methods", lambda *args: calls.append(args))
    out = tmp_path / "bn"
    rc = cli.main(["sweep", "--config", str(CONFIGS / "bouncer.cfg"), "--var", "g",
                   "--from=-1", "--to", "10", "--points", "3", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--var g = -1.0" in err and "physics.g" in err
    assert not calls
    assert not (out / "sweep.csv").exists()


def test_zero_mass_exit_2(tmp_path, capsys):
    """physics.m_kg = 0 used to escape as a ZeroDivisionError traceback (exit 1):
    z_i = E_i/(m c^2) was derived before m was validated."""
    cfg = tmp_path / "m0.cfg"
    cfg.write_text((CONFIGS / "sr88_freefall.cfg").read_text().replace(
        "physics.m_kg = 1e-25", "physics.m_kg = 0"))
    assert cli.main(["run", "--config", str(cfg), "--methods", "closed"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "m must be positive" in captured.err


def test_free_fall_accepts_nonpositive_g(tmp_path):
    """Only the bouncer needs g > 0; free fall and Mach-Zehnder take any finite g."""
    for name in ("sr88_freefall.cfg", "sr88_mz.cfg"):
        cfg = tmp_path / name
        cfg.write_text((CONFIGS / name).read_text().replace("physics.g = 9.81", "physics.g = 0"))
        args = cli._parser().parse_args(["run", "--config", str(cfg)])
        assert cli._build_scenario_config(args).scenario.params.g == 0.0


@pytest.mark.parametrize("name,line", [("bouncer.cfg", "bouncer.n_max = 500"),
                                       ("sr88_freefall.cfg", "regime.ratio_threshold = 0.2"),
                                       ("sr88_mz.cfg", "physics.V0_m2s2 = -6.25e7")],
                         ids=["bouncer.n_max", "regime.ratio_threshold", "physics.V0_m2s2"])
def test_removed_config_keys_are_unknown(tmp_path, capsys, name, line):
    """The bouncer level count is always automatic, "<<" always means a ratio
    <= 0.1, and a constant potential offset shifts each clock level's phase by
    a constant no route can see: a config naming any of these old keys is an
    unknown key, exit 2, in run and in sweep."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text((CONFIGS / name).read_text() + line + "\n")
    sweep = ["sweep", "--var", "dt", "--from", "5", "--to", "30", "--points", "3"]
    for argv in (["run"], sweep):
        assert cli.main([*argv, "--config", str(cfg), "--methods", "closed"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unknown key {line.split()[0]!r}" in captured.err


def test_route_table_owns_scenarios_and_columns():
    """Every scenario has targets, and every route column is a report field
    and a CSV column.  The CLI looks ROUTES up by a kind that only
    core.Scenario checked, so the two tables name the same kinds."""
    assert set(cli.ROUTES) == set(core.TARGETS)
    fields = {f.name for f in dataclasses.fields(est.EstimationReport)}
    for routes in cli.ROUTES.values():
        for pairs in routes.values():
            for column, _route in pairs:
                assert column in fields
                assert column in cli.CSV_COLUMNS


@pytest.mark.parametrize("var,start,stop", [("dt", "-5", "5"), ("sigma", "-1e-4", "1e-4")])
def test_sweep_invalid_point_exit_2(tmp_path, capsys, var, start, stop):
    """A sweep value that makes an invalid parameter set is a config error
    naming the variable and the value, and no CSV is written."""
    out = tmp_path / "sw"
    rc = cli.main(["sweep", "--config", str(CONFIGS / "sr88_freefall.cfg"), "--var", var,
                   f"--from={start}", f"--to={stop}", "--points", "3", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"--var {var} = {float(start)!r}" in err
    assert not (out / "sweep.csv").exists()


def test_bouncer_sweep_cross_method(tmp_path):
    """Closed and oracle columns of a bouncer sweep agree within 2%."""
    out = tmp_path / "bn"
    rc = cli.main(["sweep", "--config", str(CONFIGS / "bouncer.cfg"),
                   "--var", "dt", "--from", "0.1", "--to", "0.2", "--points", "2",
                   "--methods", "closed,oracle", "--out", str(out)])
    assert rc == 0
    table = cli.read_table(out / "sweep.csv")
    for closed, oracle in zip(table["qfi_closed"], table["qfi_oracle"]):
        assert oracle == pytest.approx(closed, rel=2e-2)


def test_ablate_flag_changes_values(tmp_path):
    cfg = _write_ff_config(tmp_path)
    out_a, out_b = tmp_path / "n", tmp_path / "y"
    cli.main(["run", "--config", str(cfg), "--out", str(out_a), "--methods", "fi"])
    cli.main(["run", "--config", str(cfg), "--out", str(out_b), "--methods", "fi",
              "--ablate-time-dilation"])
    normal = json.loads((out_a / "report.json").read_text())
    ablated = json.loads((out_b / "report.json").read_text())
    assert normal["fi_closed"] > 0
    assert ablated["fi_closed"] == 0.0
    assert ablated["method_metadata"]["ablate_time_dilation"] is True


def test_numerical_failure_exit_3(tmp_path, monkeypatch):
    cfg = _write_ff_config(tmp_path)

    def boom(*args, **kwargs):
        raise ValueError("forced failure")

    monkeypatch.setattr(est, "qfi_pure_parametric", boom)   # the route looks it up at call time
    rc = cli.main(["run", "--config", str(cfg), "--methods", "parametric"])
    assert rc == 3


_EDGE_VALUES = ("0", "-0.0", "-1", "1e-30", "1e30", "-1e30", "5e-324", "1e300", "1e-300",
                "2.5", "1e4", "10001")


def _config_with(name, *settings):
    """The text of sample config ``name`` with each (key, value) of ``settings`` set."""
    keys = {key for key, _ in settings}
    lines = [line for line in (CONFIGS / name).read_text().splitlines()
             if line.split("=", 1)[0].strip() not in keys]
    return "\n".join([*lines, *(f"{key} = {value}" for key, value in settings)]) + "\n"


def _strict_json(text):
    """Parse JSON that may not hold NaN or Infinity tokens."""
    def refuse(token):
        raise ValueError(f"non-finite JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def test_edge_value_sweep_exits_cleanly(tmp_path, capsys):
    """Every numeric key of each sample config, set to each edge value, run in
    process with analytic methods: the exit is 0, 2 or 3 with no uncaught
    exception, and an exit 0 reports only finite numbers.  Four settings
    used to exit 0 with NaN or Infinity in the report: sr88_freefall
    physics.m_kg = 1e300, sr88_mz geometry.x0_m = 1e300, and bouncer
    physics.m_kg = 10001 or geometry.x0_m = 1e300."""
    bad = []
    cfg = tmp_path / "edge.cfg"
    for name in ("sr88_freefall.cfg", "sr88_mz.cfg", "bouncer.cfg"):
        methods = "closed" if name == "bouncer.cfg" else "closed,parametric,reduced,fi"
        for key in core._NUMERIC_KEYS:
            for value in _EDGE_VALUES:
                cfg.write_text(_config_with(name, (key, value)))
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    rc = cli.main(["run", "--config", str(cfg), "--methods", methods])
                out = capsys.readouterr().out
                case = (name, key, value, rc)
                if rc not in (0, 2, 3):
                    bad.append(case)
                elif rc == 0:
                    try:
                        report = _strict_json(out)
                    except ValueError as exc:
                        bad.append((*case, str(exc)))
                        continue
                    numbers = [v for v in report.values() if isinstance(v, float)]
                    if not all(math.isfinite(v) for v in numbers):
                        bad.append((*case, "non-finite value"))
    assert bad == []


@pytest.mark.parametrize("name,key,value", [
    *(("sr88_freefall.cfg", "physics.g", v) for v in ("1e30", "-1e30")),
    ("sr88_freefall.cfg", "geometry.x_plus_m", "1e30"),
    ("sr88_freefall.cfg", "geometry.x_minus_m", "-1e30"),
    ("sr88_freefall.cfg", "time.dt_s", "1e30"),
    *(("sr88_mz.cfg", k, v) for k in ("physics.g_plus", "physics.g_minus")
      for v in ("1e30", "-1e30")),
    ("sr88_mz.cfg", "geometry.x_plus_m", "1e30"),
    ("sr88_mz.cfg", "geometry.x_minus_m", "-1e30"),
    *(("sr88_mz.cfg", k, v) for k in ("geometry.x_plus0_m", "geometry.x_minus0_m")
      for v in ("1e30", "-1e30")),
])
def test_unresolvable_phase_exit_3(tmp_path, capsys, name, key, value):
    """A phase float64 cannot resolve is a numerical error naming it.  These
    15 runs exited 3 only because a finite-difference step vanished; the
    tangents have no step, and would have printed a meaningless FI.  The
    phase named is the level's exact difference from the clock-free frame,
    7.2e21 to 4.6e30 rad here (the free-fall ones named the full phase,
    9.3e37 to 9.3e40 rad, when the ledger was longdouble)."""
    cfg = tmp_path / "phase.cfg"
    cfg.write_text(_config_with(name, (key, value)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = cli.main(["run", "--config", str(cfg), "--methods", "closed,parametric,reduced,fi"])
    assert rc == 3
    assert re.search(r"level-relative phase \S+ rad is beyond float64 resolution", capsys.readouterr().err)


_SAMPLE_CONFIGS = ("sr88_freefall.cfg", "sr88_mz.cfg", "bouncer.cfg")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(name=st.sampled_from(_SAMPLE_CONFIGS),
       keys=st.lists(st.sampled_from(sorted(core._NUMERIC_KEYS)), min_size=2, max_size=2,
                     unique=True),
       values=st.lists(st.sampled_from(_EDGE_VALUES), min_size=2, max_size=2),
       sweep=st.none() | st.tuples(
           st.sampled_from(cli._SWEEP_VARS),
           st.lists(st.sampled_from(_EDGE_VALUES), min_size=2, max_size=2,
                    unique_by=float).map(lambda ends: sorted(ends, key=float)),
           st.integers(2, 3), st.booleans()))
def test_two_key_fuzz_exits_cleanly(tmp_path_factory, name, keys, values, sweep):
    """Two numeric keys of a sample config set to edge values, run or swept in
    process with analytic methods: the exit is 0, 2 or 3 with no uncaught
    exception; exit 2 comes before any method runs; exit 0 reports only
    finite numbers."""
    base = tmp_path_factory.getbasetemp() / "fuzz"
    base.mkdir(exist_ok=True)
    (base / "fuzz.cfg").write_text(_config_with(name, *zip(keys, values)))
    methods = "closed" if name == "bouncer.cfg" else "closed,parametric,reduced,fi"
    argv = ["--config", str(base / "fuzz.cfg"), "--methods", methods, "--out", str(base / "out")]
    if sweep is None:
        argv = ["run", *argv]
    else:
        var, (start, stop), points, log = sweep
        argv = ["sweep", *argv, "--var", var, f"--from={start}", f"--to={stop}",
                "--points", str(points), *(["--log"] if log else [])]
    evaluated = []
    evaluate = cli._evaluate_methods
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("ignore")
        mp.setattr(cli, "_evaluate_methods", lambda *args: evaluated.append(args) or evaluate(*args))
        rc = cli.main(argv)
    assert rc in (0, 2, 3)
    if rc == 2:
        assert evaluated == []
    if rc == 0 and sweep is None:
        report = _strict_json(out.getvalue())
        assert all(math.isfinite(v) for v in report.values() if isinstance(v, float))
    elif rc == 0:
        rows = (base / "out" / "sweep.csv").read_text().splitlines()[1:]
        cells = [cell for row in rows for cell in row.split(",")[:-1] if cell]
        assert all(math.isfinite(float(cell)) for cell in cells)


@pytest.mark.parametrize("name,key,value,column", [
    ("sr88_freefall.cfg", "physics.m_kg", "1e300", "qfi_closed"),
    ("sr88_mz.cfg", "geometry.x0_m", "1e300", "qfi_parametric"),
    ("bouncer.cfg", "physics.m_kg", "10001", "qfi_closed"),
    ("bouncer.cfg", "geometry.x0_m", "1e300", "qfi_closed"),
])
def test_non_finite_method_value_exit_3(tmp_path, capsys, name, key, value, column):
    """A method value that is not finite is a numerical error naming the
    method and its column; these runs used to exit 0 with NaN in the report."""
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(_config_with(name, (key, value)))
    methods = "closed" if name == "bouncer.cfg" else "closed,parametric,reduced,fi"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = cli.main(["run", "--config", str(cfg), "--methods", methods,
                       "--out", str(tmp_path / "out")])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert repr(column) in captured.err
    assert not (tmp_path / "out" / "report.json").exists()


def test_sweep_with_non_finite_point_exit_3_writes_no_csv(tmp_path, capsys):
    """A sweep point whose value is not finite fails the sweep; it used to
    write nan cells."""
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(_config_with("sr88_freefall.cfg", ("physics.m_kg", "1e300")))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = cli.main(["sweep", "--config", str(cfg), "--var", "dt", "--from", "5",
                       "--to", "30", "--points", "3", "--methods", "closed",
                       "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "'qfi_closed'" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sweep.csv").exists()


def test_tail_window_fit_picks_stable_tail():
    xs = np.geomspace(1.0, 1e4, 40)
    ys = xs**3 + 50.0 * xs       # slope 1 head, slope 3 tail
    slope, _err, start = cli.tail_window_fit(xs, ys)
    assert start > 0
    assert slope == pytest.approx(3.0, abs=0.05)


_REPEATED_X = "1,1\n2,8\n2,9\n4,64\n8,512\n16,4096\n32,32768\n"


def test_tail_fit_repeated_swept_value_names_rows(tmp_path, capsys):
    """A local slope across a repeated swept value is undefined, so no window
    holding it is flat.  This table used to print a numpy divide-by-zero
    RuntimeWarning before its exit 3; the message now names the rows."""
    path = tmp_path / "t.csv"
    path.write_text("swept_value,qfi_closed\n" + _REPEATED_X)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["fit", "--table", str(path), "--column", "qfi_closed", "--tail"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no trailing window" in captured.err
    assert "rows 1, 2 repeat swept value 2" in captured.err


def test_tail_fit_flat_window_after_repeated_swept_value(tmp_path, capsys):
    """A flat trailing window past the repeated value still fits, with no warning."""
    path = tmp_path / "t.csv"
    path.write_text("swept_value,qfi_closed\n1,1\n1,2\n2,8\n4,64\n8,512\n16,4096\n32,32768\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["fit", "--table", str(path), "--column", "qfi_closed", "--tail"])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("slope = 3.000000 +/- ")
    assert captured.out.endswith(" (tail window from row 2)\n")
    assert captured.err == ""


def test_asymptotic_window_slopes(sr88_10s):
    """Over dt in [1e7, 1e8] s the closed QFI grows as dt^6 (5.999986), and
    as dt^4 (3.99999999) with time dilation ablated."""
    ts = np.geomspace(1e7, 1e8, 20)
    for params, power in ((sr88_10s, 6.0), (sr88_10s.replace(ablate_time_dilation=True), 4.0)):
        slope, _err = cli.fit_scaling(ts, [est.qfi_ff_closed(params.replace(dt=float(t))) for t in ts])
        assert slope == pytest.approx(power, abs=0.1)


def test_example_configs_load():
    for name in ("sr88_freefall.cfg", "sr88_mz.cfg", "bouncer.cfg"):
        cfg = core.load_config(CONFIGS / name)
        params = core.params_from_config(cfg)
        assert params.m > 0
