"""Scenario parameters, the scenario record, regime checks, the Sr-88 baseline
and configuration.

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

    V_F(x) = g (x - x0),

measured from its value at ``x0``: a constant offset shifts each clock
level's phase by a target-independent constant that no QFI, FI or
detection probability can see.  The Mach-Zehnder scenario uses a piecewise
linear potential anchored at the two Taylor points ``x_plus0``/``x_minus0``
(where it is g (x_pm0 - x0)) with slopes ``g_plus``/``g_minus`` and a kink at ``x0``.

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
EARTH_RADIUS = 6.371e6             # m

# Most bouncer levels (Airy zeros) the program solves for: the cap of the
# automatic level count and of airy_zero.
BOUNCER_N_MAX_CAP = 10**4

# "a << b" means a/b <= 0.1, with slack so a ratio that lands exactly on 0.1
# (a 1 mm packet on the 1 cm branch separation has sigma/h = 0.1) does not
# fail on the last ulp of a decimal-literal division.
_RATIO_MAX = 0.1 * (1.0 + 1e-9)


class ParamsError(ValueError):
    """Raised when a parameter set violates its invariants."""


class ConfigError(ValueError):
    """Raised for malformed or unknown configuration input."""


@dataclass(frozen=True)
class PhysicalParams:
    """All scenario constants in SI, with derived ratios precomputed.

    Use :func:`build_params` instead of the raw constructor; it fills in
    the Taylor points and slopes and validates.
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
    sigma: float             # initial position-space width, m
    dt: float                # interferometric time, s
    phi: float               # controllable phase shifter, rad
    ablate_time_dilation: bool = False
    c: float = C_LIGHT
    hbar: float = HBAR
    z0: float = dataclasses.field(init=False, default=0.0)
    z1: float = dataclasses.field(init=False, default=0.0)

    def __post_init__(self, check: bool = True) -> None:
        # z_i is derived only from a usable m c^2; the checks below name a bad m.
        mc2 = self.m * self.c**2
        object.__setattr__(self, "z0", self.e0 / mc2 if mc2 > 0 else 0.0)
        object.__setattr__(self, "z1", self.e1 / mc2 if mc2 > 0 else 0.0)
        if not check:
            return
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
        upper = self.g_plus * self.h_plus + self.g * (self.x_plus0 - self.x0)
        lower = self.g_minus * self.h_minus + self.g * (self.x_minus0 - self.x0)
        return upper - lower

    @property
    def bar_g(self) -> float:
        return 0.5 * (self.g_plus + self.g_minus)

    @property
    def delta_g(self) -> float:
        return self.g_minus - self.g_plus

    def replace(self, *, check: bool = True, **changes) -> "PhysicalParams":
        """A copy with ``changes`` applied, validated like a new set.

        Same result as ``dataclasses.replace`` at a quarter of the cost:
        the fields are copied as a dict and only ``__post_init__`` runs.
        ``check=False`` derives z_i but skips the checks: for jets, and for
        arrays of sweep rows each checked on its own (``Scenario.column``).
        """
        unknown = changes.keys() - _INIT_FIELDS
        if unknown:
            raise TypeError(f"replace() got unknown or derived fields: {sorted(unknown)}")
        new = object.__new__(PhysicalParams)
        vars(new).update(vars(self), **changes)
        new.__post_init__(check)
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
    ablate_time_dilation: bool = False,
) -> PhysicalParams:
    """Build a validated parameter set, deriving what is not supplied.

    Taylor points default to the branch heights themselves (h_pm = 0),
    and the slopes ``g_pm`` default to the local gradient of a -GM/r profile
    around ``g``.
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
    return PhysicalParams(
        m=m, e0=e0, e1=e1, g=g, g_plus=g_plus, g_minus=g_minus,
        x_plus=x_plus, x_minus=x_minus, x0=x0,
        x_plus0=x_plus0, x_minus0=x_minus0,
        sigma=sigma, dt=dt, phi=phi,
        ablate_time_dilation=ablate_time_dilation,
    )


def require_bouncer_g(g: float) -> None:
    """Refuse a bouncer with g <= 0: a floor under a potential that does not
    rise holds no bound states, and the Airy length would be complex or infinite."""
    if not g > 0:
        raise ParamsError("physics.g: the bouncer needs g > 0: a floor under a potential "
                          f"that does not rise holds no bound states (got {g!r})")


def require_floor_clearance(params: PhysicalParams) -> None:
    """Refuse a bouncer packet within 3 widths of the floor, x_pm < 3 sigma:
    no level count holds it."""
    if min(params.x_plus, params.x_minus) < 3.0 * params.sigma:
        raise ParamsError("geometry.x_plus_m, geometry.x_minus_m, geometry.sigma_m: floor "
                          f"clearance x_pm >= 3 sigma is violated (x_plus = {params.x_plus!r}, "
                          f"x_minus = {params.x_minus!r}, sigma = {params.sigma!r})")


def require_kink_clearance(params: PhysicalParams) -> None:
    """Refuse a Mach-Zehnder branch within 5 spread widths Sigma of the kink, min |x_pm - x0|
    <= 5 Sigma.  Sigma divides by 2 m first: a sigma that underflows 2 m sigma gives inf, not 1/0."""
    clearance = min(abs(params.x_plus - params.x0), abs(params.x_minus - params.x0))
    width = math.hypot(params.sigma, params.hbar * params.dt / (2.0 * params.m) / params.sigma)
    if not clearance > 5.0 * width:
        raise ParamsError("geometry.x0_m, geometry.sigma_m, time.dt_s: a branch straddles the potential kink "
                          f"(kink clearance min |x_pm - x0| = {clearance!r}, 5 Sigma = {5.0 * width!r})")


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------

# Targets each scenario can estimate; the first is the default.
TARGETS = {
    "free_fall": ("g",),
    "mach_zehnder": ("delta_g", "bar_g"),
    "bouncer": ("g",),
}

# d(g, g_plus, g_minus) / d(target), with g_pm = bar_g -+ delta_g / 2.
_DIRECTIONS = {"g": (1.0, 0.0, 0.0), "delta_g": (0.0, -0.5, 0.5), "bar_g": (0.0, 1.0, 1.0)}
_SLOPES = ("g", "g_plus", "g_minus")


@dataclass(frozen=True)
class Scenario:
    """A parametrized state family: which interferometer, which parameter.
    The constructor is the one check of kind and target (a ConfigError); the
    methods that make states import ``gaussian``, so a bouncer sweep never does."""

    kind: str
    params: PhysicalParams
    target: str | None = None     # None: the kind's first target

    def __post_init__(self) -> None:
        if self.kind not in TARGETS:
            raise ConfigError(f"unknown scenario {self.kind!r} (use: {', '.join(TARGETS)})")
        if self.target is None:
            object.__setattr__(self, "target", TARGETS[self.kind][0])
        if self.target not in TARGETS[self.kind]:
            raise ConfigError(f"{self.kind} estimates {' or '.join(TARGETS[self.kind])}")

    def value(self) -> float:
        return getattr(self.params, self.target)

    def make_state(self, offset: float | None = None):
        """The scenario's state; with ``offset``, the state at the target value plus
        ``offset``, never rounded to a float: each slope the target moves is
        Diff(Diff(value, its share of the offset), 0) (see ``gaussian.Diff``)."""
        from .gaussian import Diff, evolve_state
        p = self.params
        if offset is not None:
            p = p.replace(check=False, **{name: Diff(Diff(getattr(p, name), d * offset), 0.0)
                                          for name, d in zip(_SLOPES, _DIRECTIONS[self.target]) if d})
        return evolve_state(p, self.kind)

    def detector_state(self):
        """The clock-free reference both detector routes interfere: the
        scenario's map at E0 = E1 = 0 and phi = 0."""
        from .gaussian import evolve_state
        return evolve_state(self.params.replace(e0=0.0, e1=0.0, phi=0.0, check=False), self.kind)

    def tangent(self) -> "Scenario":
        """This scenario with g, g_plus and g_minus as jets along the target:
        the states it makes carry their derivatives with respect to it."""
        from .gaussian import Jet
        p = self.params
        slopes = {name: Jet(getattr(p, name), d) for name, d in zip(_SLOPES, _DIRECTIONS[self.target])}
        return Scenario(self.kind, p.replace(check=False, **slopes), self.target)

    def column(self, name: str, values) -> "Scenario":
        """A sweep's rows as one scenario whose ``name`` (dt, sigma or g) is the
        array ``values``, unchecked: the caller built each row on its own first."""
        return Scenario(self.kind, self.params.replace(check=False, **{name: values}), self.target)


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

    def failing(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries if not e.satisfied)


def check_regime(params: PhysicalParams) -> RegimeReport:
    """Evaluate every separation-of-scales inequality behind the closed forms.

    "a << b" is operationalized as ``a/b <= 0.1``.  Unsatisfied entries
    are reported, never raised; the z-dependent entries use the raw
    (un-ablated) ratios since they describe the physics.
    """
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
        entries.append(RegimeEntry(name, lhs, rhs, ratio, ratio <= _RATIO_MAX))
    return RegimeReport(tuple(entries), all(e.satisfied for e in entries))


# ---------------------------------------------------------------------------
# The Sr-88 baseline and configuration
# ---------------------------------------------------------------------------

# The Sr-88 ten-second set, the baseline of every config.  Sr-88
# lattice-clock numbers: m ~ 1e-25 kg, transition 2.8 eV.  Geometry: 1 cm
# branch separation half a meter above the reference floor, kink/reference
# centered between the arms, Taylor offsets of 1.5e-4 / 0.5e-4 m, local
# gradient from a -GM/r profile.
SR88_10S = build_params(
    m=1e-25,
    e0=0.0,
    e1=2.8 * EV,
    g=9.81,
    x_plus=0.51,
    x_minus=0.50,
    x0=0.505,
    x_plus0=0.51 - 1.5e-4,
    x_minus0=0.50 - 0.5e-4,
    sigma=1e-4,
    dt=10.0,
)


# Config keys.  A numeric key maps to its build_params keyword and unit;
# the string keys name the scenario and its target.
_NUMERIC_KEYS = {
    "physics.m_kg": ("m", 1.0), "physics.E0_eV": ("e0", EV), "physics.E1_eV": ("e1", EV),
    "physics.g": ("g", 1.0), "physics.g_plus": ("g_plus", 1.0),
    "physics.g_minus": ("g_minus", 1.0),
    "geometry.x_plus_m": ("x_plus", 1.0), "geometry.x_minus_m": ("x_minus", 1.0),
    "geometry.x0_m": ("x0", 1.0), "geometry.x_plus0_m": ("x_plus0", 1.0),
    "geometry.x_minus0_m": ("x_minus0", 1.0), "geometry.sigma_m": ("sigma", 1.0),
    "time.dt_s": ("dt", 1.0), "phase.phi_rad": ("phi", 1.0),
}
_STRING_KEYS = {"scenario.name", "scenario.target"}


def read_text(path: str | Path) -> str:
    """The UTF-8 text of ``path``; text that is not UTF-8 is a ConfigError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_config(path: str | Path) -> dict[str, str]:
    """Parse a flat ``key = value`` config file ('#' starts a comment)."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _NUMERIC_KEYS and key not in _STRING_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if key in _NUMERIC_KEYS:
            try:
                number = float(value)
            except ValueError:
                raise ConfigError(f"line {lineno}: key {key!r} needs a number, got {value!r}") from None
            if not math.isfinite(number):
                raise ConfigError(f"line {lineno}: key {key!r} needs a finite number, got {value!r}")
        out[key] = value
    return out


def params_from_config(cfg: dict[str, str], *, ablate_time_dilation: bool = False) -> PhysicalParams:
    """Build parameters from config values over the ``SR88_10S`` baseline.

    Each keyword of ``_NUMERIC_KEYS`` takes its key's value times the key's
    unit; a missing key takes the baseline's value, divided by the unit and
    multiplied back.
    """
    values = {name: (float(cfg[key]) if key in cfg else getattr(SR88_10S, name) / unit) * unit
              for key, (name, unit) in _NUMERIC_KEYS.items()}
    try:
        return build_params(**values, ablate_time_dilation=ablate_time_dilation)
    except ParamsError as exc:
        raise ConfigError(f"invalid parameter values: {exc}") from exc
