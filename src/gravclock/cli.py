"""Batch front end: scenario runs, parameter sweeps, scaling fits.

Subcommands (exit codes: 0 ok, 2 config error, 3 numerical error):

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
Identical configs produce byte-identical output.

A CLI process runs numpy's OpenBLAS on one thread unless
``OPENBLAS_NUM_THREADS`` is set, and imports ``oracle`` and ``bouncer``
only when a route that needs them runs.
"""

from __future__ import annotations

import argparse
import importlib
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

# numpy's OpenBLAS starts a worker thread per extra core at import, which
# spins before it sleeps (~0.06-0.09 s of CPU on two cores).  The CLI never
# gains from it: its only BLAS calls (fit_scaling's np.dot, the weights @
# band of bouncer.spectral_phase_ref) are a few hundred elements long.  So
# one thread is asked for before numpy loads; a value the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import estimation as est
from .core import (
    BOUNCER_N_MAX_CAP,
    ConfigError,
    ParamsError,
    PhysicalParams,
    check_regime,
    load_config,
    params_from_config,
)


def _module(name: str):
    """The gravclock submodule ``name``, imported on first use."""
    return importlib.import_module(f"{__package__}.{name}")


# ROUTES[scenario][method] -> ((column, route), ...), methods in evaluation
# order.  A route maps (estimation.Scenario, n_max) to a value; it looks its
# function up through the module at call time, so patched or traced
# module attributes are honoured, and ``oracle`` and ``bouncer`` are
# imported only by the routes that use them.
_INTERFEROMETER_ROUTES = {
    "closed": (("qfi_closed", lambda sc, n_max: est.closed_qfi(sc)),),
    "parametric": (("qfi_parametric", lambda sc, n_max: est.qfi_pure_parametric(sc)),),
    "oracle": (("qfi_oracle", lambda sc, n_max: _module("oracle").qfi_numeric(sc)),),
    "reduced": (("qfi_reduced", lambda sc, n_max: est.closed_reduced_qfi(sc)),),
    "fi": (("fi_closed", lambda sc, n_max: est.closed_fi(sc)),
           ("fi_numeric", lambda sc, n_max: est.fi_numeric(sc))),
}
ROUTES = {
    "free_fall": _INTERFEROMETER_ROUTES,
    "mach_zehnder": _INTERFEROMETER_ROUTES,
    "bouncer": {
        "closed": (("qfi_closed", lambda sc, n_max:
                    _module("bouncer").bouncer_qfi_longtime(sc.params, n_max)),),
        "oracle": (("qfi_oracle", lambda sc, n_max:
                    _module("bouncer").bouncer_qfi_numeric(sc.params, n_max=n_max)),),
    },
}

CSV_COLUMNS = ("swept_value",
               *dict.fromkeys(column for routes in ROUTES.values()
                              for pairs in routes.values() for column, _ in pairs),
               "regime_ok")

_SWEEP_VARS = ("dt", "sigma", "g")


class NumericalFailure(RuntimeError):
    """Wraps a numerical error with the failing method's name."""

    def __init__(self, method: str, cause: Exception) -> None:
        super().__init__(f"method {method!r} failed: {cause}")
        self.method = method


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    start: float
    stop: float
    points: int
    log: bool

    def values(self) -> np.ndarray:
        if self.points < 2:
            raise ConfigError("sweep needs at least 2 points")
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
    scenario: str
    target: str
    params: PhysicalParams
    methods: tuple[str, ...]
    sweep: SweepSpec | None = None
    out_dir: Path | None = None
    n_max: int | None = None

    def __post_init__(self) -> None:
        if self.scenario not in ROUTES:
            raise ConfigError(f"unknown scenario {self.scenario!r} (use: {', '.join(ROUTES)})")
        targets = est.TARGETS[self.scenario]
        if self.target not in targets:
            raise ConfigError(f"{self.scenario} estimates {' or '.join(targets)}")
        routes = ROUTES[self.scenario]
        bad = set(self.methods) - set(routes)
        if bad:
            raise ConfigError(f"{self.scenario} supports methods {', '.join(routes)} "
                              f"(got {sorted(bad)})")
        if self.n_max is not None:
            if self.scenario != "bouncer":
                raise ConfigError(f"bouncer.n_max applies only to the bouncer scenario, "
                                  f"not {self.scenario}")
            if not 1 <= self.n_max <= BOUNCER_N_MAX_CAP:
                raise ConfigError(f"bouncer.n_max needs an integer in [1, {BOUNCER_N_MAX_CAP}], "
                                  f"got {self.n_max}")
        if self.scenario == "mach_zehnder" and self.sweep is not None \
                and self.sweep.variable == "g":
            raise ConfigError(
                "sweep --var g would write identical mach_zehnder rows: the MZ potential "
                "uses the slopes physics.g_plus/physics.g_minus (targets delta_g/bar_g), "
                "which g does not change")


# ---------------------------------------------------------------------------
# Method evaluation
# ---------------------------------------------------------------------------

def _evaluate_methods(cfg: ScenarioConfig, params: PhysicalParams) -> dict[str, float | None]:
    out: dict[str, float | None] = dict.fromkeys(CSV_COLUMNS[1:-1])
    scenario = est.Scenario(cfg.scenario, params, cfg.target)
    for method, pairs in ROUTES[cfg.scenario].items():
        if method not in cfg.methods:
            continue
        for column, route in pairs:
            try:
                out[column] = route(scenario, cfg.n_max)
            except Exception as exc:
                raise NumericalFailure(method, exc) from exc
    return out


def run_single(cfg: ScenarioConfig) -> est.EstimationReport:
    values = _evaluate_methods(cfg, cfg.params)
    regime = check_regime(cfg.params)
    return est.EstimationReport(
        parameter_name=cfg.target,
        **values,
        method_metadata={
            "scenario": cfg.scenario,
            "methods": list(cfg.methods),
            "ablate_time_dilation": cfg.params.ablate_time_dilation,
            "bouncer_n_max": cfg.n_max if cfg.scenario == "bouncer" else None,
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
    """Evaluate the sweep points in order, one row each, on this thread; every
    point's parameters are built first, so an invalid one fails before any numerics."""
    assert cfg.sweep is not None
    var = cfg.sweep.variable
    points = []
    for value in cfg.sweep.values().tolist():
        try:
            points.append((value, cfg.params.replace(**{var: value})))
        except ParamsError as exc:
            raise ConfigError(f"sweep --var {var} = {value!r} gives invalid parameters: "
                              f"{exc}") from exc
    return [SweepRow(value, _evaluate_methods(cfg, params), check_regime(params).satisfied)
            for value, params in points]


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
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ConfigError(f"empty table {path}")
    header = lines[0].split(",")
    columns: dict[str, list] = {name: [] for name in header}
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ConfigError(f"{path} line {lineno}: {len(cells)} cells "
                              f"for {len(header)} columns")
        for name, cell in zip(header, cells):
            if name == "regime_ok":
                columns[name].append(cell == "true")
                continue
            try:
                columns[name].append(float(cell) if cell else None)
            except ValueError:
                raise ConfigError(f"{path} line {lineno}: column {name!r} needs a number, "
                                  f"got {cell!r}") from None
    return columns


# ---------------------------------------------------------------------------
# Scaling fits
# ---------------------------------------------------------------------------

def _log_rows(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """log(x) and log(y), after checking both are positive and finite."""
    for what, values in (("swept values", xs), ("values", ys)):
        bad = [i for i, v in enumerate(values) if not (v > 0 and math.isfinite(v))]
        if bad:
            raise ValueError(f"scaling fit needs positive finite {what}; offending rows: {bad}")
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


def tail_window_fit(xs, ys, var_tol: float = 0.05) -> tuple[float, float, int]:
    """Fit over the largest trailing sub-window with stable local slope.

    Returns (slope, stderr, start_index).  Local slopes between adjacent
    rows must vary by less than ``var_tol`` across the chosen window.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n = len(xs)
    if n < 5:
        raise ValueError("tail-window fit needs at least 5 rows")
    lx, ly = _log_rows(xs, ys)
    local = np.diff(ly) / np.diff(lx)
    for start in range(0, n - 4):
        window = local[start:]
        if window.max() - window.min() < var_tol:
            slope, stderr = fit_scaling(xs[start:], ys[start:])
            return slope, stderr, start
    raise ValueError(f"no trailing window with slope variation < {var_tol}")


def asymptotic_dt_slope(params: PhysicalParams, quantity,
                        t_lo: float = 10.0, t_hi: float = 100.0,
                        points: int = 20, var_tol: float = 0.05,
                        converge_tol: float = 1e-3,
                        max_expansions: int = 40) -> tuple[float, float, tuple[float, float]]:
    """Slope of log(quantity) vs log(dt) in the self-detected asymptotic window.

    Starting from [t_lo, t_hi], the trailing decade is pushed to larger
    dt until the local slope is flat (variation < var_tol) and stops
    drifting between expansions (change < converge_tol).  Values far
    outside the validated regime are used knowingly; this probes the
    closed form's terminal power law, and callers see the regime flags
    through the sweep interface.
    """
    hi = t_hi
    prev_slope = None
    for _ in range(max_expansions):
        ts = np.geomspace(hi / (t_hi / t_lo), hi, points)
        ys = [quantity(params.replace(dt=float(t))) for t in ts]
        slope, stderr = fit_scaling(ts, ys)
        local = np.diff(np.log(ys)) / np.diff(np.log(ts))
        stable = local.max() - local.min() < var_tol
        if stable and prev_slope is not None and abs(slope - prev_slope) < converge_tol:
            return slope, stderr, (float(ts[0]), float(ts[-1]))
        prev_slope = slope
        hi *= 10.0
    raise ValueError("asymptotic window did not converge; quantity has no terminal power law")


# ---------------------------------------------------------------------------
# Command-line interface
# ---------------------------------------------------------------------------

def _build_scenario_config(args) -> ScenarioConfig:
    cfg_map = load_config(args.config)
    params = params_from_config(cfg_map, ablate_time_dilation=args.ablate_time_dilation)
    scenario = cfg_map.get("scenario.name", "free_fall")
    # ScenarioConfig rejects an unknown scenario before it reads the target.
    target = cfg_map.get("scenario.target", est.TARGETS.get(scenario, (None,))[0])
    methods = tuple(m.strip() for m in args.methods.split(",")) if args.methods else ("closed",)
    sweep = None
    if getattr(args, "var", None) is not None:
        if args.var not in _SWEEP_VARS:
            raise ConfigError(f"unknown sweep variable {args.var!r} (use: {', '.join(_SWEEP_VARS)})")
        sweep = SweepSpec(args.var, args.start, args.stop, args.points, args.log)
    n_max = None
    if "bouncer.n_max" in cfg_map:
        number = float(cfg_map["bouncer.n_max"])
        if not number.is_integer():
            raise ConfigError(f"bouncer.n_max needs an integer >= 1, "
                              f"got {cfg_map['bouncer.n_max']!r}")
        n_max = int(number)
    return ScenarioConfig(
        scenario=scenario, target=target, params=params, methods=methods,
        sweep=sweep, out_dir=Path(args.out) if args.out else None, n_max=n_max,
    )


def _cmd_run(args) -> int:
    cfg = _build_scenario_config(args)
    report = run_single(cfg)
    text = report.to_json()
    if cfg.out_dir is not None:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        (cfg.out_dir / "report.json").write_text(text + "\n")
    print(text)
    return 0


def _cmd_sweep(args) -> int:
    cfg = _build_scenario_config(args)
    if cfg.sweep is None:
        raise ConfigError("sweep requires --var/--from/--to/--points")
    rows = run_sweep(cfg)
    out_dir = cfg.out_dir if cfg.out_dir is not None else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "sweep.csv"
    write_sweep_csv(rows, path)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def _cmd_fit(args) -> int:
    table = read_table(Path(args.table))
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
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
