"""Seeded workload generator: config files and the CLI argv of every op.

The timed ops draw their parameter sets near fixed anchors so that every
seed asks the program for the same amount of work (same grid sizes, same
Bures bisection depth, same auto n_max to within a few levels) while the
values it computes differ from seed to seed.  The anchors are the
regime-valid cross-check sets of the acceptance suite, copied here so the
benchmark does not import the tests; each draw is clipped to the ranges
those sets span and kept only if ``core.check_regime`` accepts it.

Check ops run once per run, untimed, and count like any other op.  They
cover inputs the anchored draws would miss: a set drawn jointly from the
full cross-check ranges, and a fixed set on which the grid oracle is known
to miss the closed form by more than its gate (``BURES_EDGE``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gravclock import core

EV = core.EV

# Base point and variations of the acceptance cross-check matrix.
_BASE = dict(m=1e-25, e0=0.0, e1=2.8 * EV, g=9.81, x_plus=0.51, x_minus=0.50,
             x0=0.505, x_plus0=0.51 - 1.5e-4, x_minus0=0.50 - 0.5e-4,
             sigma=1e-4, dt=10.0, phi=0.0)
ANCHORS = [dict(_BASE, **kw) for kw in (
    {},
    dict(m=0.8e-25, dt=8.0),
    dict(m=1.5e-25, e1=4.0 * EV, dt=12.0),
    dict(sigma=0.6e-4, dt=5.0, phi=0.7),
    dict(x_plus=0.520, x_minus=0.500, x0=0.512, x_plus0=0.520 - 2e-4,
         x_minus0=0.500 + 1e-4, dt=15.0),
    dict(g=9.50, e1=1.8 * EV),
    dict(x0=0.502, dt=20.0, sigma=1.5e-4),
    dict(e0=0.4 * EV, e1=3.0 * EV, dt=25.0, sigma=2e-4),
    dict(m=1.2e-25, x_plus=0.508, x_minus=0.500, x0=0.504, x_plus0=0.508 - 1e-4,
         x_minus0=0.500 - 2e-4, phi=1.3),
    dict(dt=30.0, sigma=3e-4, g=10.2),
)]

# Parameters jittered multiplicatively, and the range each is clipped to
# (the span of the anchors).  Geometry is jittered through the branch
# separation and the offsets relative to the branch heights, so the
# ordering x_minus < x0 < x_plus always holds.
_SCALED = ("m", "e1", "g", "sigma", "dt")
_RANGES = {name: (min(a[name] for a in ANCHORS), max(a[name] for a in ANCHORS))
           for name in _SCALED}

# The bouncer sample geometry (configs/bouncer.cfg); its auto n_max is ~454.
BOUNCER = dict(m=1e-25, e0=0.0, e1=2.8 * EV, g=9.81, x_plus=3.8e-5,
               x_minus=3.2e-5, x0=0.0, sigma=3e-6, dt=0.2, phi=0.0)

# A regime-valid free-fall set inside the cross-check ranges where
# oracle.tune_bures_delta accepts an offset with 1 - F ~ 9.4e-3, at the top
# of its window, and the Bures expansion is off by ~1%: oracle vs closed QFI
# is 1.1e-2, over the 1e-2 gate, at any grid size.  Parametric agrees with
# closed to 3e-11.  A check op on it shows the defect on every run (see
# checks.classify_known_defect) until the oracle is fixed.
BURES_EDGE = dict(m=1.0308e-25, e0=0.3154 * EV, e1=2.4670 * EV, g=9.81745,
                  x_plus=0.514458, x_minus=0.5, x0=0.503667, x_plus0=0.514496,
                  x_minus0=0.500119, sigma=1.22955e-4, dt=23.7591, phi=0.364531)

_JITTER = 0.02          # relative half-width of every draw
_MAX_DRAWS = 1000


@dataclass
class Op:
    """One CLI invocation and what its output must satisfy."""

    name: str
    argv: list[str]                 # arguments after ``gravclock``
    out_dir: Path
    scenario: str
    methods: tuple[str, ...]
    sweep_points: int = 0           # 0 for ``run``
    sweep_grid: list[float] = field(default_factory=list)
    check_dt_slope: bool = False
    timed: bool = True              # False: a check op, run once per run

    @property
    def config(self) -> Path:
        return Path(self.argv[self.argv.index("--config") + 1])


def _u(rng: np.random.Generator) -> float:
    return float(rng.uniform(-1.0, 1.0))


def gaussian_set(rng: np.random.Generator, anchor: dict) -> core.PhysicalParams:
    """A regime-valid free-fall/MZ set within +-2% of an anchor."""
    for _ in range(_MAX_DRAWS):
        kw = dict(anchor)
        for name in _SCALED:
            lo, hi = _RANGES[name]
            kw[name] = float(np.clip(anchor[name] * (1.0 + _JITTER * _u(rng)), lo, hi))
        sep = (anchor["x_plus"] - anchor["x_minus"]) * (1.0 + _JITTER * _u(rng))
        frac = (anchor["x0"] - anchor["x_minus"]) / (anchor["x_plus"] - anchor["x_minus"])
        kw["x_plus"] = anchor["x_minus"] + sep
        kw["x0"] = anchor["x_minus"] + frac * sep
        kw["x_plus0"] = kw["x_plus"] + (anchor["x_plus0"] - anchor["x_plus"]) * (1.0 + _JITTER * _u(rng))
        kw["x_minus0"] = anchor["x_minus"] + (anchor["x_minus0"] - anchor["x_minus"]) * (1.0 + _JITTER * _u(rng))
        kw["e0"] = anchor["e0"] * (1.0 + _JITTER * _u(rng))
        kw["phi"] = anchor["phi"] + 0.05 * _u(rng)
        params = core.build_params(**kw)
        if core.check_regime(params).satisfied:
            return params
    raise RuntimeError(f"no regime-valid draw near anchor {anchor}")


def range_set(rng: np.random.Generator) -> core.PhysicalParams:
    """A regime-valid free-fall/MZ set drawn jointly from the full ranges the
    cross-check sets span, not near any one of them."""
    def span(name):
        return min(a[name] for a in ANCHORS), max(a[name] for a in ANCHORS)

    for _ in range(_MAX_DRAWS):
        kw = {name: float(rng.uniform(*span(name)))
              for name in ("m", "e0", "e1", "g", "sigma", "dt", "phi", "x_plus")}
        kw["x_minus"] = _BASE["x_minus"]
        kw["x0"] = kw["x_minus"] + rng.uniform(0.2, 0.6) * (kw["x_plus"] - kw["x_minus"])
        kw["x_plus0"] = kw["x_plus"] + rng.uniform(-2e-4, -1e-4)
        kw["x_minus0"] = kw["x_minus"] + rng.uniform(-2e-4, 1e-4)
        params = core.build_params(**kw)
        if core.check_regime(params).satisfied:
            return params
    raise RuntimeError("no regime-valid draw in the cross-check ranges")


def bouncer_set(rng: np.random.Generator) -> core.PhysicalParams:
    """The bouncer sample geometry within +-2%, floor clearance x_pm >= 3 sigma."""
    for _ in range(_MAX_DRAWS):
        kw = dict(BOUNCER)
        for name in ("g", "x_plus", "x_minus", "sigma", "dt"):
            kw[name] = BOUNCER[name] * (1.0 + _JITTER * _u(rng))
        if min(kw["x_plus"], kw["x_minus"]) >= 3.0 * kw["sigma"]:
            return core.build_params(**kw)
    raise RuntimeError("no bouncer draw with floor clearance")


def _num(value: float) -> str:
    return format(value, ".17g")


def write_config(path: Path, scenario: str, target: str, p: core.PhysicalParams) -> Path:
    """Write a flat key = value config that rebuilds ``p`` exactly."""
    lines = [
        f"scenario.name = {scenario}",
        f"scenario.target = {target}",
        f"physics.m_kg = {_num(p.m)}",
        f"physics.E0_eV = {_num(p.e0 / EV)}",
        f"physics.E1_eV = {_num(p.e1 / EV)}",
        f"physics.g = {_num(p.g)}",
        f"physics.g_plus = {_num(p.g_plus)}",
        f"physics.g_minus = {_num(p.g_minus)}",
        f"geometry.x_plus_m = {_num(p.x_plus)}",
        f"geometry.x_minus_m = {_num(p.x_minus)}",
        f"geometry.x0_m = {_num(p.x0)}",
        f"geometry.x_plus0_m = {_num(p.x_plus0)}",
        f"geometry.x_minus0_m = {_num(p.x_minus0)}",
        f"geometry.sigma_m = {_num(p.sigma)}",
        f"time.dt_s = {_num(p.dt)}",
        f"phase.phi_rad = {_num(p.phi)}",
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


class _OpList:
    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.ops: list[Op] = []

    def config(self, name: str, scenario: str, target: str, p: core.PhysicalParams) -> Path:
        return write_config(self.workdir / f"{name}.cfg", scenario, target, p)

    def run(self, name: str, cfg: Path, scenario: str, methods: str, timed: bool = True) -> None:
        out = self.workdir / name
        argv = ["run", "--config", str(cfg), "--methods", methods, "--out", str(out)]
        self.ops.append(Op(name, argv, out, scenario, tuple(methods.split(",")), timed=timed))

    def sweep(self, name: str, cfg: Path, scenario: str, methods: str, var: str,
              start: float, stop: float, points: int, log: bool,
              extra: tuple[str, ...] = (), check_dt_slope: bool = False) -> None:
        out = self.workdir / name
        argv = ["sweep", "--config", str(cfg), "--var", var, "--from", _num(start),
                "--to", _num(stop), "--points", str(points), "--methods", methods,
                "--out", str(out), *(["--log"] if log else []), *extra]
        grid = (np.geomspace if log else np.linspace)(start, stop, points)
        self.ops.append(Op(name, argv, out, scenario, tuple(methods.split(",")),
                           points, [float(v) for v in grid], check_dt_slope))


GAUSS_METHODS = "closed,parametric,oracle,reduced,fi"
ANALYTIC_METHODS = "closed,parametric,reduced,fi"


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Write the workload's configs under ``workdir`` and return its ops,
    timed ops and check ops alike."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    workdir.mkdir(parents=True, exist_ok=True)
    b = _OpList(workdir)
    WORKLOADS[workload](b, rng)
    return b.ops


def _gauss_oracle(b: _OpList, rng: np.random.Generator) -> None:
    # Short and long drops, both MZ targets.  Five ops keep a pass short
    # enough for 2-3 passes per 25-s run, and the median op lands inside one
    # cost cluster (free-fall ops take ~1.3 s of CPU, MZ ops 1.4-2.0 s), not
    # between two.  The check ops draw after the timed ops, so they do not
    # shift the timed ops' inputs.
    for name, kind, target, anchor in (
            ("ff-a0", "free_fall", "g", 0), ("ff-a9", "free_fall", "g", 9),
            ("mzd-a4", "mach_zehnder", "delta_g", 4), ("mzb-a0", "mach_zehnder", "bar_g", 0),
            ("mzb-a7", "mach_zehnder", "bar_g", 7)):
        cfg = b.config(name, kind, target, gaussian_set(rng, ANCHORS[anchor]))
        b.run(name, cfg, kind, GAUSS_METHODS)
    for name, params in (("ff-range", range_set(rng)),
                         ("ff-bures-edge", core.build_params(**BURES_EDGE))):
        cfg = b.config(name, "free_fall", "g", params)
        b.run(name, cfg, "free_fall", GAUSS_METHODS, timed=False)


def _bouncer_oracle(b: _OpList, rng: np.random.Generator) -> None:
    cfg = b.config("bouncer", "bouncer", "g", bouncer_set(rng))
    b.run("bouncer", cfg, "bouncer", "closed,oracle")


def _analytic_sweep(b: _OpList, rng: np.random.Generator) -> None:
    ff = b.config("ff", "free_fall", "g", gaussian_set(rng, ANCHORS[0]))
    mz = b.config("mz", "mach_zehnder", "delta_g", gaussian_set(rng, ANCHORS[0]))
    rows = 150
    for name, cfg, kind in (("ff", ff, "free_fall"), ("mz", mz, "mach_zehnder")):
        b.sweep(f"{name}-dt", cfg, kind, ANALYTIC_METHODS, "dt", 5.0, 30.0, rows, True)
        b.sweep(f"{name}-sigma", cfg, kind, ANALYTIC_METHODS, "sigma", 0.6e-4, 3e-4, rows, False)
    b.sweep("ff-dt-ablated", ff, "free_fall", ANALYTIC_METHODS, "dt", 5.0, 30.0, rows, True,
            extra=("--ablate-time-dilation",))


def _bouncer_sweep(b: _OpList, rng: np.random.Generator) -> None:
    cfg = b.config("bouncer", "bouncer", "g", bouncer_set(rng))
    b.sweep("bouncer-dt", cfg, "bouncer", "closed", "dt", 0.05, 0.5, 40, True,
            check_dt_slope=True)
    b.sweep("bouncer-g", cfg, "bouncer", "closed", "g", 9.6, 10.0, 40, False)


WORKLOADS = {
    "gauss-oracle": _gauss_oracle,
    "bouncer-oracle": _bouncer_oracle,
    "analytic-sweep": _analytic_sweep,
    "bouncer-sweep": _bouncer_sweep,
}
