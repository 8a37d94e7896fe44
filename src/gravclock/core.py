"""Scenario parameters, regime checks, presets and configuration.

Everything is SI. The clock is a two-level system with internal energies
``E0 <= E1`` riding on an atom of mass ``m``; the dimensionless ratios
``z_i = E_i / (m c^2)`` control every time-dilation effect and are tiny
(< 1e-6) for any realistic atom, so they are precomputed once and all
downstream formulas are written in terms of them.

Geometry conventions
--------------------
``x`` points up (away from Earth), so the local potential slope ``g`` is
positive and a falling packet acquires negative momentum.  The linearized
potential used in the free-fall scenario is

    V_F(x) = g (x - x0) + V0,         V0 = V_N(x0),

and the Mach-Zehnder scenario uses a piecewise linear potential anchored
at the two Taylor points ``x_plus0``/``x_minus0`` with slopes
``g_plus``/``g_minus`` and a kink at ``x0``.

The ``ablate_time_dilation`` switch zeroes the coupling of the internal
Hamiltonian to V/c^2 and p^2/c^2 (the ``*_eff`` accessors return 0) while
leaving the rest of the dynamics untouched.  It exists only to verify the
counterfactual scaling claims; it is not a physical setting.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass
from pathlib import Path

C_LIGHT = 299_792_458.0            # m/s (exact)
HBAR = 1.054_571_817e-34           # J s
EV = 1.602_176_634e-19             # J  (exact)
EARTH_SURFACE_POTENTIAL = -6.25e7  # m^2/s^2, -G M / R at the surface
EARTH_RADIUS = 6.371e6             # m

# Most bouncer levels (Airy zeros) the program solves for: the cap of the
# auto-selected n_max, of an explicit bouncer.n_max and of airy_zero.
BOUNCER_N_MAX_CAP = 10**4

# Slack on the "much less than" comparisons so a ratio that lands exactly
# on the threshold (the 100 s preset has sigma/h = 0.1) does not fail on
# the last ulp of a decimal-literal division.
_RATIO_GRACE = 1.0 + 1e-9


class ParamsError(ValueError):
    """Raised when a parameter set violates its invariants."""


class UnknownPresetError(KeyError):
    """Raised for an unrecognized preset name."""


class ConfigError(ValueError):
    """Raised for malformed or unknown configuration input."""


@dataclass(frozen=True)
class PhysicalParams:
    """All scenario constants in SI, with derived ratios precomputed.

    Use :func:`build_params` or :func:`preset` instead of the raw
    constructor; they fill in the potential anchors and validate.
    """

    m: float                 # atom mass, kg
    e0: float                # lower internal energy, J
    e1: float                # upper internal energy, J
    g: float                 # local gravitational acceleration, m/s^2
    g_plus: float            # slope at the upper Taylor point, m/s^2
    g_minus: float           # slope at the lower Taylor point, m/s^2
    x_plus: float            # upper branch height, m
    x_minus: float           # lower branch height, m
    x0: float                # potential reference point / MZ kink, m
    x_plus0: float           # upper Taylor expansion point, m
    x_minus0: float          # lower Taylor expansion point, m
    v0: float                # V_N(x0), m^2/s^2
    vn_plus0: float          # V_N(x_plus0), m^2/s^2
    vn_minus0: float         # V_N(x_minus0), m^2/s^2
    sigma: float             # initial position-space width, m
    dt: float                # interferometric time, s
    phi: float               # controllable phase shifter, rad
    ratio_threshold: float = 0.1
    ablate_time_dilation: bool = False
    c: float = C_LIGHT
    hbar: float = HBAR
    z0: float = dataclasses.field(init=False, default=0.0)
    z1: float = dataclasses.field(init=False, default=0.0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "z0", self.e0 / (self.m * self.c**2))
        object.__setattr__(self, "z1", self.e1 / (self.m * self.c**2))
        problems = []
        values = _float_fields(self)
        if not all(map(math.isfinite, values)):
            names = (name for name, v in zip(_FLOAT_FIELDS, values) if not math.isfinite(v))
            problems.append(f"values must be finite: {', '.join(names)}")
        if not self.m > 0:
            problems.append("m must be positive")
        if not self.sigma > 0:
            problems.append("sigma must be positive")
        if self.dt < 0:
            problems.append("dt must be nonnegative")
        if not (self.c > 0 and self.hbar > 0):
            problems.append("c and hbar must be positive")
        if not (0 <= self.e0 <= self.e1):
            problems.append("internal energies must satisfy 0 <= E0 <= E1")
        if max(self.z0, self.z1) >= 1e-6:
            problems.append("z_i = E_i/(m c^2) must stay below 1e-6")
        if not self.x_plus > self.x_minus:
            problems.append("x_plus must exceed x_minus")
        if problems:
            raise ParamsError("; ".join(problems))

    # -- internal-energy ratios ------------------------------------------

    def z_eff(self, level: int) -> float:
        """Time-dilation coupling of internal level ``level`` (0 if ablated)."""
        if self.ablate_time_dilation:
            return 0.0
        return self.z1 if level == 1 else self.z0

    @property
    def z0_eff(self) -> float:
        return self.z_eff(0)

    @property
    def z1_eff(self) -> float:
        return self.z_eff(1)

    @property
    def delta_z_eff(self) -> float:
        return self.z1_eff - self.z0_eff

    @property
    def z_bar_eff(self) -> float:
        return 0.5 * (self.z0_eff + self.z1_eff)

    @property
    def delta_e_eff(self) -> float:
        return self.delta_z_eff * self.m * self.c**2

    @property
    def e_bar_eff(self) -> float:
        return self.z_bar_eff * self.m * self.c**2

    # -- geometry ---------------------------------------------------------

    @property
    def h(self) -> float:
        return self.x_plus - self.x_minus

    @property
    def h_bar(self) -> float:
        """Offset of the branch midpoint from the potential reference."""
        return 0.5 * (self.x_plus + self.x_minus) - self.x0

    @property
    def h_plus(self) -> float:
        return self.x_plus - self.x_plus0

    @property
    def h_minus(self) -> float:
        return self.x_minus - self.x_minus0

    @property
    def delta_h(self) -> float:
        return self.h_plus - self.h_minus

    @property
    def h_bar_mz(self) -> float:
        return 0.5 * (self.h_plus + self.h_minus)

    @property
    def d(self) -> float:
        return self.x_plus0 - self.x_minus0

    # -- derived dynamical quantities --------------------------------------

    @property
    def spread_width(self) -> float:
        """Free-spreading width Sigma after time dt (leading order in z)."""
        return math.hypot(self.sigma, self.hbar * self.dt / (2 * self.m * self.sigma))

    @property
    def delta_v_ff(self) -> float:
        """Potential difference between branch centers in free fall, g*h."""
        return self.g * self.h

    @property
    def delta_v_mz(self) -> float:
        """V_MZ(x_plus) - V_MZ(x_minus) for the piecewise potential."""
        upper = self.g_plus * self.h_plus + self.vn_plus0
        lower = self.g_minus * self.h_minus + self.vn_minus0
        return upper - lower

    @property
    def bar_g(self) -> float:
        return 0.5 * (self.g_plus + self.g_minus)

    @property
    def delta_g(self) -> float:
        return self.g_minus - self.g_plus

    def replace(self, **changes) -> "PhysicalParams":
        """A copy with ``changes`` applied, validated like a new set.

        Same result as ``dataclasses.replace`` at a quarter of the cost:
        the fields are copied as a dict and only ``__post_init__`` runs.
        """
        unknown = changes.keys() - _INIT_FIELDS
        if unknown:
            raise TypeError(f"replace() got unknown or derived fields: {sorted(unknown)}")
        new = object.__new__(PhysicalParams)
        vars(new).update(vars(self), **changes)
        new.__post_init__()
        return new


_FLOAT_FIELDS = tuple(f.name for f in dataclasses.fields(PhysicalParams) if f.type == "float")
_float_fields = operator.attrgetter(*_FLOAT_FIELDS)
_INIT_FIELDS = frozenset(f.name for f in dataclasses.fields(PhysicalParams) if f.init)


def build_params(
    *,
    m: float,
    e0: float,
    e1: float,
    g: float,
    x_plus: float,
    x_minus: float,
    x0: float,
    sigma: float,
    dt: float,
    phi: float = 0.0,
    g_plus: float | None = None,
    g_minus: float | None = None,
    x_plus0: float | None = None,
    x_minus0: float | None = None,
    v0: float = EARTH_SURFACE_POTENTIAL,
    vn_plus0: float | None = None,
    vn_minus0: float | None = None,
    ratio_threshold: float = 0.1,
    ablate_time_dilation: bool = False,
) -> PhysicalParams:
    """Build a validated parameter set, deriving what is not supplied.

    Taylor points default to the branch heights themselves (h_pm = 0),
    the slopes ``g_pm`` default to the local gradient of a -GM/r profile
    around ``g``, and the potential anchors are linearized off ``v0``.
    """
    if x_plus0 is None:
        x_plus0 = x_plus
    if x_minus0 is None:
        x_minus0 = x_minus
    if g_plus is None or g_minus is None:
        d = x_plus0 - x_minus0
        delta_g = 2.0 * g * d / EARTH_RADIUS
        if g_plus is None:
            g_plus = g - 0.5 * delta_g
        if g_minus is None:
            g_minus = g + 0.5 * delta_g
    if vn_plus0 is None:
        vn_plus0 = v0 + g * (x_plus0 - x0)
    if vn_minus0 is None:
        vn_minus0 = v0 + g * (x_minus0 - x0)
    return PhysicalParams(
        m=m, e0=e0, e1=e1, g=g, g_plus=g_plus, g_minus=g_minus,
        x_plus=x_plus, x_minus=x_minus, x0=x0,
        x_plus0=x_plus0, x_minus0=x_minus0,
        v0=v0, vn_plus0=vn_plus0, vn_minus0=vn_minus0,
        sigma=sigma, dt=dt, phi=phi,
        ratio_threshold=ratio_threshold,
        ablate_time_dilation=ablate_time_dilation,
    )


# ---------------------------------------------------------------------------
# Regime checker
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegimeEntry:
    name: str
    lhs: float
    rhs: float
    ratio: float
    satisfied: bool


@dataclass(frozen=True)
class RegimeReport:
    entries: tuple[RegimeEntry, ...]
    satisfied: bool
    ratio_threshold: float

    def entry(self, name: str) -> RegimeEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def failing(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries if not e.satisfied)


def check_regime(params: PhysicalParams) -> RegimeReport:
    """Evaluate every separation-of-scales inequality behind the closed forms.

    "a << b" is operationalized as ``a/b <= params.ratio_threshold``
    (default 0.1).  Unsatisfied entries are reported, never raised; the
    z-dependent entries use the raw (un-ablated) ratios since they
    describe the physics.
    """
    thr = params.ratio_threshold
    m, g, dt, sigma, hbar = params.m, params.g, params.dt, params.sigma, params.hbar
    z_max = max(params.z0, params.z1)
    big_sigma = params.spread_width
    sigma_p = hbar / big_sigma

    pairs = [
        ("sigma_below_separation", sigma, params.h),
        ("sigma_above_diffraction", hbar * dt / (m * params.h), sigma),
        ("momentum_shift_small", m * g * dt * z_max, sigma_p),
        ("position_shift_small", 0.5 * g * dt * dt * z_max, big_sigma),
        ("width_shift_small", hbar * dt / (m * sigma) * math.sqrt(z_max), big_sigma),
        ("taylor_offsets_small", max(abs(params.h_plus), abs(params.h_minus)), params.d),
        ("floor_clearance", sigma, min(params.x_plus, params.x_minus)),
    ]
    entries = []
    for name, lhs, rhs in pairs:
        ratio = lhs / rhs if rhs > 0 else math.inf
        entries.append(RegimeEntry(name, lhs, rhs, ratio, ratio <= thr * _RATIO_GRACE))
    return RegimeReport(tuple(entries), all(e.satisfied for e in entries), thr)


# ---------------------------------------------------------------------------
# Presets and configuration
# ---------------------------------------------------------------------------

def _sr88(dt: float, sigma: float) -> PhysicalParams:
    # Sr-88 lattice-clock numbers: m ~ 1e-25 kg, transition 2.8 eV.
    # Geometry: 1 cm branch separation half a meter above the reference
    # floor, kink/reference centered between the arms, Taylor offsets of
    # 1.5e-4 / 0.5e-4 m, local gradient from a -GM/r profile.
    return build_params(
        m=1e-25,
        e0=0.0,
        e1=2.8 * EV,
        g=9.81,
        x_plus=0.51,
        x_minus=0.50,
        x0=0.505,
        x_plus0=0.51 - 1.5e-4,
        x_minus0=0.50 - 0.5e-4,
        sigma=sigma,
        dt=dt,
    )


_PRESET_BUILDERS = {
    "sr88_10s": lambda: _sr88(dt=10.0, sigma=1e-4),
    "sr88_100s": lambda: _sr88(dt=100.0, sigma=1e-3),
}


def preset(name: str) -> PhysicalParams:
    """Return a named parameter preset.

    Raises :class:`UnknownPresetError` naming the available presets for
    anything else; fully custom sets go through :func:`params_from_config`.
    """
    try:
        builder = _PRESET_BUILDERS[name]
    except KeyError:
        known = ", ".join(sorted(_PRESET_BUILDERS))
        raise UnknownPresetError(
            f"unknown preset {name!r}; available presets: {known}"
        ) from None
    return builder()


# Exact config keys: the core physics set plus scenario/bouncer extras.
_CONFIG_KEYS = {
    "physics.m_kg", "physics.E0_eV", "physics.E1_eV", "physics.g",
    "physics.g_plus", "physics.g_minus", "physics.V0_m2s2",
    "geometry.x_plus_m", "geometry.x_minus_m", "geometry.x0_m",
    "geometry.x_plus0_m", "geometry.x_minus0_m", "geometry.sigma_m",
    "time.dt_s", "phase.phi_rad", "regime.ratio_threshold",
    "scenario.name", "scenario.target", "bouncer.n_max",
}
_STRING_KEYS = {"scenario.name", "scenario.target"}


def load_config(path: str | Path) -> dict[str, str]:
    """Parse a flat ``key = value`` config file ('#' starts a comment)."""
    text = Path(path).read_text()
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if key not in _STRING_KEYS:
            try:
                number = float(value)
            except ValueError:
                raise ConfigError(f"line {lineno}: key {key!r} needs a number, got {value!r}") from None
            if not math.isfinite(number):
                raise ConfigError(f"line {lineno}: key {key!r} needs a finite number, got {value!r}")
        out[key] = value
    return out


def params_from_config(cfg: dict[str, str], *, ablate_time_dilation: bool = False) -> PhysicalParams:
    """Build parameters from config values over the sr88_10s baseline."""
    base = preset("sr88_10s")

    def num(key: str, default: float) -> float:
        return float(cfg[key]) if key in cfg else default

    try:
        return build_params(
            m=num("physics.m_kg", base.m),
            e0=num("physics.E0_eV", base.e0 / EV) * EV,
            e1=num("physics.E1_eV", base.e1 / EV) * EV,
            g=num("physics.g", base.g),
            g_plus=num("physics.g_plus", base.g_plus),
            g_minus=num("physics.g_minus", base.g_minus),
            x_plus=num("geometry.x_plus_m", base.x_plus),
            x_minus=num("geometry.x_minus_m", base.x_minus),
            x0=num("geometry.x0_m", base.x0),
            x_plus0=num("geometry.x_plus0_m", base.x_plus0),
            x_minus0=num("geometry.x_minus0_m", base.x_minus0),
            v0=num("physics.V0_m2s2", base.v0),
            sigma=num("geometry.sigma_m", base.sigma),
            dt=num("time.dt_s", base.dt),
            phi=num("phase.phi_rad", base.phi),
            ratio_threshold=num("regime.ratio_threshold", base.ratio_threshold),
            ablate_time_dilation=ablate_time_dilation,
        )
    except ParamsError as exc:
        raise ConfigError(f"invalid parameter values: {exc}") from exc
