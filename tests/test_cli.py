"""CLI contracts: subcommands, CSV schema, exit codes, determinism, fits."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gravclock import cli, core, estimation as est

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


def test_bad_method_and_target_exit_2(tmp_path):
    cfg = _write_ff_config(tmp_path)
    assert cli.main(["run", "--config", str(cfg), "--methods", "magic"]) == 2
    cfg2 = tmp_path / "mz.cfg"
    cfg2.write_text("scenario.name = free_fall\nscenario.target = delta_g\n")
    assert cli.main(["run", "--config", str(cfg2)]) == 2


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


@pytest.mark.parametrize("method", ["parametric", "reduced", "fi"])
def test_bouncer_methods_restricted(method, capsys):
    assert cli.main(["run", "--config", str(CONFIGS / "bouncer.cfg"),
                     "--methods", method]) == 2
    assert "bouncer supports methods closed, oracle" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["2.7", "0", "-3", "1e-3"])
def test_bouncer_n_max_must_be_positive_integer(tmp_path, capsys, value):
    """A fractional or non-positive n_max is a config error, not a silently
    truncated level count (2.7 ran as 2) or a numerical failure (0 exited 3)."""
    cfg = tmp_path / "b.cfg"
    cfg.write_text((CONFIGS / "bouncer.cfg").read_text() + f"bouncer.n_max = {value}\n")
    assert cli.main(["run", "--config", str(cfg), "--methods", "closed"]) == 2
    assert "bouncer.n_max" in capsys.readouterr().err


def test_bouncer_n_max_above_cap_exit_2(tmp_path, capsys):
    """An n_max above the 1e4 cap of the auto-selection and of airy_zero is
    a config error before any numerics; 10001 used to run and exit 0, and
    larger values allocated arrays of that length."""
    cfg = tmp_path / "b.cfg"
    cfg.write_text((CONFIGS / "bouncer.cfg").read_text() + "bouncer.n_max = 10001\n")
    assert cli.main(["run", "--config", str(cfg), "--methods", "closed"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bouncer.n_max" in captured.err and "10000" in captured.err


def test_bouncer_n_max_integral_float_accepted(tmp_path):
    cfg = tmp_path / "b.cfg"
    cfg.write_text((CONFIGS / "bouncer.cfg").read_text() + "bouncer.n_max = 5e2\n")
    args = cli._parser().parse_args(["run", "--config", str(cfg)])
    assert cli._build_scenario_config(args).n_max == 500


@pytest.mark.parametrize("n_max", [2, 120])
def test_bouncer_truncating_n_max_exit_3(tmp_path, capsys, n_max):
    """An explicit n_max that truncates the projection is a numerical error
    naming the truncation mass, with no report: it used to print a wrong
    qfi_closed and exit 0 (3.5e-19 at n_max = 2, with a warning blaming a
    destructive phase; 6.77e4 at 120, where the value is 9.34e5)."""
    cfg = tmp_path / "b.cfg"
    cfg.write_text((CONFIGS / "bouncer.cfg").read_text() + f"bouncer.n_max = {n_max}\n")
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


def test_bouncer_separated_path_peaks_auto_n_max(tmp_path, capsys):
    """Paths 88 um apart peak ~1000 levels apart (n ~ 160 and ~1170).  The
    automatic n_max used to stop in the gap after the lower path's peak
    (392 levels) and the run exited 3 with truncation mass 1.00, although
    n_max was left unset."""
    text = (CONFIGS / "bouncer.cfg").read_text().replace(
        "geometry.x_plus_m = 3.8e-5", "geometry.x_plus_m = 1.2e-4")
    reports = []
    for name, extra in (("auto", ""), ("fixed", "bouncer.n_max = 1400\n")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text + extra)
        out = tmp_path / name
        rc = cli.main(["run", "--config", str(cfg), "--methods", "closed", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().err == ""
        reports.append(json.loads((out / "report.json").read_text()))
    auto, fixed = reports
    assert auto["qfi_closed"] == pytest.approx(fixed["qfi_closed"], rel=1e-7)


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
        assert cli._build_scenario_config(args).params.g == 0.0


@pytest.mark.parametrize("value", ["0", "-1"])
def test_nonpositive_ratio_threshold_exit_2(tmp_path, capsys, value):
    """regime.ratio_threshold = -1 used to exit 0 with every regime entry failing."""
    cfg = _write_ff_config(tmp_path, **{"regime.ratio_threshold": value})
    assert cli.main(["run", "--config", str(cfg), "--methods", "closed"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ratio_threshold" in captured.err


def test_bouncer_key_on_other_scenario_exit_2(tmp_path, capsys):
    cfg = _write_ff_config(tmp_path, **{"bouncer.n_max": 5})
    assert cli.main(["run", "--config", str(cfg), "--methods", "closed"]) == 2
    assert "bouncer.n_max" in capsys.readouterr().err


def test_route_table_owns_scenarios_and_columns():
    """Every scenario has targets, and every route column is a report field
    and a CSV column."""
    assert set(cli.ROUTES) == set(est.TARGETS)
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

    monkeypatch.setattr(cli.est, "qfi_pure_parametric", boom)
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
    """A phase longdouble cannot resolve is a numerical error naming the cause.
    These 15 runs exited 3 only because a finite-difference step vanished;
    the tangents have no step, and would have printed a meaningless FI."""
    cfg = tmp_path / "phase.cfg"
    cfg.write_text(_config_with(name, (key, value)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = cli.main(["run", "--config", str(cfg), "--methods", "closed,parametric,reduced,fi"])
    assert rc == 3
    assert "beyond longdouble resolution" in capsys.readouterr().err


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


def test_asymptotic_window_slopes(sr88_10s):
    slope, err, window = cli.asymptotic_dt_slope(sr88_10s, est.qfi_ff_closed)
    assert slope == pytest.approx(6.0, abs=0.1)
    ablated = sr88_10s.replace(ablate_time_dilation=True)
    slope_a, _e, _w = cli.asymptotic_dt_slope(ablated, est.qfi_ff_closed)
    assert slope_a == pytest.approx(4.0, abs=0.1)


def test_example_configs_load():
    for name in ("sr88_freefall.cfg", "sr88_mz.cfg", "bouncer.cfg"):
        cfg = core.load_config(CONFIGS / name)
        params = core.params_from_config(cfg)
        assert params.m > 0
