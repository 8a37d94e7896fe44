"""CLI contracts: subcommands, CSV schema, exit codes, determinism, fits."""

from __future__ import annotations

import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

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
    assert payload["crb_single_shot"] == pytest.approx(1.0 / payload["qfi_closed"])
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
        raise est.StepUnderflowError("forced failure")

    monkeypatch.setattr(cli.est, "qfi_pure_parametric", boom)
    rc = cli.main(["run", "--config", str(cfg), "--methods", "parametric"])
    assert rc == 3


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
