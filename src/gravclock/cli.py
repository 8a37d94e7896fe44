"""Batch front end: scenario runs, parameter sweeps, scaling fits.

Subcommands (exit codes: 0 ok, 2 config error or bad path, 3 numerical error or non-finite value):

    gravclock run   --config cfg [--out dir] [--methods closed,oracle] [--ablate-time-dilation]
    gravclock sweep --config cfg --var dt --from 1 --to 100 --points 20 --log [...]
    gravclock fit   --table sweep.csv --column qfi_closed [--tail]

``ROUTES`` is the one table of the methods each scenario supports (free
fall and Mach-Zehnder: closed, parametric, oracle, reduced, fi; bouncer:
closed, oracle) and of the columns they fill; ``--methods`` checking and
help, the CSV columns and the report fields derive from it.

Sweep CSV columns are fixed (swept_value, qfi_closed, qfi_parametric,
qfi_oracle, qfi_reduced, fi_closed, fi_numeric, regime_ok) so scaling
plots are reproducible by any external tool; unrequested methods leave
their cells empty, and every row carries its regime flag.  Every sweep
point's parameters are built before the first is evaluated, so a value
that makes an invalid set is a config error (exit 2) and writes no CSV.
The column routes (parametric, fi; the bouncer's closed) then evaluate all
rows in one pass (``core.Scenario.column``), each row bit for bit its one-row
value; ``run`` is the one-row case.  Identical configs give identical bytes.
``fit`` fits the log-log slope of one numeric column, never the regime flags.

A CLI process runs numpy's OpenBLAS on one thread unless
``OPENBLAS_NUM_THREADS`` is set, and imports only the modules its routes
use: a bouncer ``closed`` sweep loads ``cli``, ``core`` and ``bouncer``;
``estimation`` (with ``gaussian``) comes with an interferometer route or a
``run`` report, ``oracle`` with an oracle route.  A bouncer op solves its Airy
zeros once, a dt sweep its projection once too (it reads no dt).  The
process entry ``entry`` freezes the heap once ``main`` returns, so
interpreter shutdown makes no cyclic-GC pass over it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

# numpy's OpenBLAS starts a worker thread per extra core at import, which
# spins before it sleeps (~0.06-0.09 s of CPU on two cores).  The CLI's BLAS
# calls are small, a few hundred elements (fit_scaling, the render's band means),
# and the bouncer render's sums are FFT correlations, no BLAS.  So one thread is
# asked for before numpy loads; a value the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .core import (
    ConfigError,
    ParamsError,
    Scenario,
    check_regime,
    load_config,
    params_from_config,
    read_text,
    require_bouncer_g,
    require_floor_clearance,
    require_kink_clearance,
)


def _module(name: str):
    """The gravclock submodule ``name``, imported on first use."""
    return importlib.import_module(f"{__package__}.{name}")


# ROUTES[scenario][method] -> ((column, route), ...), methods in evaluation
# order.  A route maps a core.Scenario to a value; it looks its function up
# through the module at call time, so patched or traced module attributes
# are honoured, and each module is imported only by the routes that use it.
# The column routes (_COLUMN_ROUTES: the jet routes, and the bouncer's closed
# form) also map a column scenario (core.Scenario.column) to one value per row.
_INTERFEROMETER_ROUTES = {
    "closed": (("qfi_closed", lambda sc: _module("estimation").closed_qfi(sc)),),
    "parametric": (("qfi_parametric", lambda sc: _module("estimation").qfi_pure_parametric(sc)),),
    "oracle": (("qfi_oracle", lambda sc: _module("oracle").qfi_numeric(sc)),),
    "reduced": (("qfi_reduced", lambda sc: _module("estimation").closed_reduced_qfi(sc)),),
    "fi": (("fi_closed", lambda sc: _module("estimation").closed_fi(sc)),
           ("fi_numeric", lambda sc: _module("estimation").fi_numeric(sc))),
}
ROUTES = {
    "free_fall": _INTERFEROMETER_ROUTES,
    "mach_zehnder": _INTERFEROMETER_ROUTES,
    "bouncer": {
        "closed": (("qfi_closed", lambda sc: _module("bouncer").bouncer_qfi_longtime(sc.params)),),
        "oracle": (("qfi_oracle", lambda sc: _module("bouncer").bouncer_qfi_numeric(sc.params)),),
    },
}

CSV_COLUMNS = ("swept_value",
               *dict.fromkeys(column for routes in ROUTES.values()
                              for pairs in routes.values() for column, _ in pairs),
               "regime_ok")

_COLUMN_ROUTES = {"free_fall": {"qfi_parametric", "fi_numeric"},
                  "mach_zehnder": {"qfi_parametric", "fi_numeric"}, "bouncer": {"qfi_closed"}}

_SWEEP_VARS = ("dt", "sigma", "g")
MAX_SWEEP_POINTS = 10**6     # a sweep's row count is refused above this


class NumericalFailure(RuntimeError):
    """Wraps a numerical error with the failing method's name."""

    def __init__(self, method: str, cause: Exception) -> None:
        super().__init__(f"method {method!r} failed: {cause}")


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    start: float
    stop: float
    points: int
    log: bool

    def values(self) -> np.ndarray:
        if not 2 <= self.points <= MAX_SWEEP_POINTS:
            raise ConfigError(f"sweep needs at least 2 and at most {MAX_SWEEP_POINTS} points")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ConfigError("sweep needs finite start and stop")
        if not self.start < self.stop:
            raise ConfigError("sweep needs start < stop")
        if self.log:
            if self.start <= 0:
                raise ConfigError("log sweep needs a positive start")
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class ScenarioConfig:
    """One run: the scenario (which checks its own kind and target) and what is asked of it."""

    scenario: Scenario
    methods: tuple[str, ...]
    sweep: SweepSpec | None = None
    out_dir: Path | None = None

    def __post_init__(self) -> None:
        kind, params = self.scenario.kind, self.scenario.params
        routes = ROUTES[kind]
        bad = set(self.methods) - set(routes)
        if bad:
            raise ConfigError(f"{kind} supports methods {', '.join(routes)} (got {sorted(bad)})")
        if repeated := sorted({m for m in self.methods if self.methods.count(m) > 1}):
            raise ConfigError(f"--methods lists {', '.join(repeated)} more than once")
        try:
            if kind == "bouncer":
                require_bouncer_g(params.g)
                require_floor_clearance(params)
            if kind == "mach_zehnder":
                require_kink_clearance(params)
        except ParamsError as exc:
            raise ConfigError(str(exc)) from None
        if kind == "mach_zehnder" and self.sweep is not None and self.sweep.variable == "g":
            raise ConfigError(
                "sweep --var g would write identical mach_zehnder rows: the MZ potential "
                "uses the slopes physics.g_plus/physics.g_minus (targets delta_g/bar_g), "
                "which g does not change")


# ---------------------------------------------------------------------------
# Method evaluation
# ---------------------------------------------------------------------------

def _evaluate_methods(cfg: ScenarioConfig, var: str, values: np.ndarray,
                      rows: list[Scenario]) -> list[dict[str, float | None]]:
    """Each row's requested columns; ``rows`` are ``cfg.scenario`` at ``var`` =
    each of ``values``, each built and checked.  Each column route runs once, on
    the column of all rows (numpy's warnings silenced: each value is checked
    below); the other routes run row by row.  A column pass that raises is
    redone row by row, so the failure raised is the one met first with rows in
    order and routes in order within a row; a sweep's message names its row."""
    routes = [(method, column, route) for method, pairs in ROUTES[cfg.scenario.kind].items()
              if method in cfg.methods for column, route in pairs]
    passes = {}
    for _, column, route in routes:
        if column in _COLUMN_ROUTES[cfg.scenario.kind]:
            with contextlib.suppress(Exception), np.errstate(all="ignore"):   # else row by row
                passes[column] = np.broadcast_to(route(cfg.scenario.column(var, values)),
                                                 len(rows)).tolist()
    outs = []
    for k, (value, row) in enumerate(zip(values.tolist(), rows)):
        out: dict[str, float | None] = dict.fromkeys(CSV_COLUMNS[1:-1])
        for method, column, route in routes:
            where = f"column {column!r}" + (f" at {var} = {value!r}" if cfg.sweep else "")
            try:
                out[column] = passes[column][k] if column in passes else route(row)
            except Exception as exc:
                raise NumericalFailure(method, ValueError(f"{where}: {exc}")) from exc
            if not math.isfinite(out[column]):
                raise NumericalFailure(method, ValueError(
                    f"{where} is {out[column]}, not a finite number"))
        outs.append(out)
    return outs


def run_single(cfg: ScenarioConfig) -> "estimation.EstimationReport":
    """The one-row case of a sweep: ``cfg.scenario`` as a column of one dt."""
    sc = cfg.scenario
    values = _evaluate_methods(cfg, "dt", np.array([sc.params.dt]), [sc])[0]
    regime = check_regime(sc.params)
    return _module("estimation").EstimationReport(
        parameter_name=sc.target,
        **values,
        method_metadata={
            "scenario": sc.kind,
            "methods": list(cfg.methods),
            "ablate_time_dilation": sc.params.ablate_time_dilation,
            "regime_ok": regime.satisfied,
            "regime_failing": list(regime.failing()),
        },
    ).finalize()


@dataclass(frozen=True)
class SweepRow:
    swept_value: float
    values: dict
    regime_ok: bool


def run_sweep(cfg: ScenarioConfig) -> list[SweepRow]:
    """One row per sweep point, in sweep order.  Every point's parameters are
    built and checked first, so an invalid one fails before any numerics; then
    ``_evaluate_methods`` evaluates all rows, the jet routes in one array pass."""
    assert cfg.sweep is not None
    var, values = cfg.sweep.variable, cfg.sweep.values()
    rows = []
    for value in values.tolist():
        try:
            params = cfg.scenario.params.replace(**{var: value})
            rows.append(replace(cfg, scenario=replace(cfg.scenario, params=params)).scenario)
        except (ParamsError, ConfigError) as exc:
            raise ConfigError(f"sweep --var {var} = {value!r} gives invalid parameters: "
                              f"{exc}") from exc
    outs = _evaluate_methods(cfg, var, values, rows)
    return [SweepRow(value, out, check_regime(row.params).satisfied)
            for value, out, row in zip(values.tolist(), outs, rows)]


def _fmt(value: float | None) -> str:
    if value is None:
        return ""
    return format(value, ".17g")


def write_sweep_csv(rows: list[SweepRow], path: Path) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            cells = [_fmt(row.swept_value)]
            cells += [_fmt(row.values[name]) for name in CSV_COLUMNS[1:-1]]
            cells.append("true" if row.regime_ok else "false")
            fh.write(",".join(cells) + "\n")


def read_table(path: Path) -> dict[str, list]:
    lines = read_text(path).splitlines()
    if not lines:
        raise ConfigError(f"empty table {path}")
    header = lines[0].split(",")
    columns: dict[str, list] = {name: [] for name in header}
    if len(columns) < len(header):
        repeated = next(name for name in header if header.count(name) > 1)
        raise ConfigError(f"{path}: the header names column {repeated!r} more than once")
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ConfigError(f"{path} line {lineno}: {len(cells)} cells "
                              f"for {len(header)} columns")
        for name, cell in zip(header, cells):
            try:
                if name == "regime_ok":
                    columns[name].append({"true": True, "false": False}[cell])
                else:
                    columns[name].append(float(cell) if cell else None)
            except (KeyError, ValueError):
                need = "true or false" if name == "regime_ok" else "a number"
                raise ConfigError(f"{path} line {lineno}: column {name!r} needs {need}, "
                                  f"got {cell!r}") from None
    return columns


# ---------------------------------------------------------------------------
# Scaling fits
# ---------------------------------------------------------------------------

def _log_rows(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """log(x) and log(y), after checking both are positive and finite and x varies."""
    for what, values in (("swept values", xs), ("values", ys)):
        bad = [i for i, v in enumerate(values) if not (v > 0 and math.isfinite(v))]
        if bad:
            raise ValueError(f"scaling fit needs positive finite {what}; offending rows: {bad}")
    if min(xs) == max(xs):
        raise ValueError(f"scaling fit needs swept values that vary; all are {float(xs[0]):g}")
    return np.log(np.asarray(xs, dtype=float)), np.log(np.asarray(ys, dtype=float))


def fit_scaling(xs, ys) -> tuple[float, float]:
    """Least-squares slope of log(y) vs log(x) with its standard error."""
    if len(xs) < 2:
        raise ValueError("scaling fit needs at least 2 rows")
    lx, ly = _log_rows(xs, ys)
    dx = lx - lx.mean()
    slope = float(np.dot(dx, ly - ly.mean()) / np.dot(dx, dx))
    resid = ly - ly.mean() - slope * dx
    dof = max(len(xs) - 2, 1)
    stderr = float(math.sqrt(max(np.dot(resid, resid), 0.0) / dof / np.dot(dx, dx)))
    return slope, stderr


_SLOPE_VAR_TOL = 0.05        # a window is flat when its local slopes vary less


def tail_window_fit(xs, ys) -> tuple[float, float, int]:
    """Fit over the largest trailing sub-window with a flat local slope.

    Returns (slope, stderr, start_index).
    """
    n = len(xs)
    if n < 5:
        raise ValueError("tail-window fit needs at least 5 rows")
    lx, ly = _log_rows(xs, ys)
    # A local slope across a repeated swept value is NaN: no window holding it is flat.
    dlx = np.diff(lx)
    local = np.divide(np.diff(ly), dlx, out=np.full_like(dlx, np.nan), where=dlx != 0)
    for start in range(0, n - 4):
        window = local[start:]
        if window.max() - window.min() < _SLOPE_VAR_TOL:
            slope, stderr = fit_scaling(xs[start:], ys[start:])
            return slope, stderr, start
    repeats = "".join(f"; rows {i}, {i + 1} repeat swept value {xs[i]:g}" for i in np.flatnonzero(dlx == 0))
    raise ValueError(f"no trailing window with slope variation < {_SLOPE_VAR_TOL}{repeats}")


# ---------------------------------------------------------------------------
# Command-line interface
# ---------------------------------------------------------------------------

def _build_scenario_config(args) -> ScenarioConfig:
    cfg_map = load_config(args.config)
    params = params_from_config(cfg_map, ablate_time_dilation=args.ablate_time_dilation)
    kind = cfg_map.get("scenario.name", "free_fall")
    methods = tuple(m.strip() for m in args.methods.split(",")) if args.methods else ("closed",)
    sweep = None
    if getattr(args, "var", None) is not None:
        if args.var not in _SWEEP_VARS:
            raise ConfigError(f"unknown sweep variable {args.var!r} (use: {', '.join(_SWEEP_VARS)})")
        sweep = SweepSpec(args.var, args.start, args.stop, args.points, args.log)
    cfg = ScenarioConfig(
        scenario=Scenario(kind, params, cfg_map.get("scenario.target")), methods=methods,
        sweep=sweep, out_dir=Path(args.out) if args.out else None,
    )
    if cfg.out_dir is not None:     # an unusable path fails here, before any numerics
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
    return cfg


def _cmd_run(args) -> int:
    cfg = _build_scenario_config(args)
    report = run_single(cfg)
    text = report.to_json()
    if cfg.out_dir is not None:
        (cfg.out_dir / "report.json").write_text(text + "\n")
    print(text)
    return 0


def _cmd_sweep(args) -> int:
    cfg = _build_scenario_config(args)
    rows = run_sweep(cfg)
    path = (cfg.out_dir if cfg.out_dir is not None else Path(".")) / "sweep.csv"
    write_sweep_csv(rows, path)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def _cmd_fit(args) -> int:
    table = read_table(Path(args.table))
    if args.column == "regime_ok":
        raise ConfigError("column 'regime_ok' holds true/false flags, not values to fit")
    for name in ("swept_value", args.column):
        if name not in table:
            raise ConfigError(f"column {name!r} not in table (have: {', '.join(table)})")
        if None in table[name]:
            raise ConfigError(f"column {name!r} has empty cells")
    xs, ys = table["swept_value"], table[args.column]
    try:
        if args.tail:
            slope, stderr, start = tail_window_fit(xs, ys)
            print(f"slope = {slope:.6f} +/- {stderr:.2e} "
                  f"(tail window from row {start})")
        else:
            slope, stderr = fit_scaling(xs, ys)
            start = 0
            print(f"slope = {slope:.6f} +/- {stderr:.2e}")
    except ValueError as exc:
        raise NumericalFailure("fit_scaling", exc) from exc
    flags = table.get("regime_ok", [])[start:]
    off = flags.count(False)
    if off:
        print(f"note: {off} of {len(flags)} rows have regime_ok=false",
              file=sys.stderr)
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gravclock",
        description="Clock-interferometer Fisher-information calculations")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="key = value config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--methods", default="closed",
                       help="comma list of methods; " + "; ".join(
                           f"{name}: {','.join(routes)}" for name, routes in ROUTES.items()))
        p.add_argument("--ablate-time-dilation", action="store_true",
                       help="zero the clock-gravity coupling (counterfactual)")

    p_run = sub.add_parser("run", help="single-point estimation report (JSON)")
    common(p_run)

    p_sweep = sub.add_parser("sweep", help="parameter sweep to CSV")
    common(p_sweep)
    p_sweep.add_argument("--var", required=True,
                         help=f"swept variable: {', '.join(_SWEEP_VARS)}")
    p_sweep.add_argument("--from", dest="start", type=float, required=True)
    p_sweep.add_argument("--to", dest="stop", type=float, required=True)
    p_sweep.add_argument("--points", type=int, required=True)
    p_sweep.add_argument("--log", action="store_true", help="logarithmic spacing")

    p_fit = sub.add_parser("fit", help="log-log scaling fit on a sweep table")
    p_fit.add_argument("--table", required=True)
    p_fit.add_argument("--column", required=True)
    p_fit.add_argument("--tail", action="store_true",
                       help="fit the largest stable trailing window")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_fit(args)
    except (ConfigError, OSError) as exc:     # an OSError names its path
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


def entry() -> int:
    """``main`` for ``python -m gravclock.cli`` and the ``gravclock`` script, then
    ``gc.freeze()``: shutdown skips the cyclic-GC passes over what numpy and
    gravclock made, and still runs refcount teardown, atexit and stream flushes."""
    rc = main()
    gc.freeze()
    return rc


if __name__ == "__main__":
    sys.exit(entry())
