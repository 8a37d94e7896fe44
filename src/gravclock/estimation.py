"""Quantum and classical Fisher information engines.

Three independent routes to the same quantities are provided and cross
checked against each other:

* closed forms (``qfi_ff_closed`` & friends), transcribed once from the
  analytic results and never tuned;
* a parametric pure-state engine (``qfi_pure_parametric``) that
  differentiates the Gaussian branch parameters and ledger coefficients
  by central finite differences and assembles
  ``G = 4 (<d psi|d psi> - |<psi|d psi>|^2)`` from closed-form pair
  moments -- no grids, no wrapped-phase differentiation;
* a qubit engine (``qubit_qfi``) for the clock-traced state, a path
  qubit by construction: |dr|^2 + (r.dr)^2 / (1 - |r|^2) from central
  differences of its Bloch vector r (``reduced_qfi_bloch``).

These two and the classical FI (``classical_fi``) share one step rule,
``_fd_step``, and one Richardson combination of the steps h and h/2,
``_richardson``; each evaluates its centre once.

Parameter conventions for the two interferometers:

* free fall estimates ``g`` (the slope of the linearized potential);
* the trapped Mach-Zehnder estimates ``delta_g = g_minus - g_plus`` or
  ``bar_g = (g_plus + g_minus)/2`` with the potential anchors held fixed.
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import PhysicalParams
from .gaussian import (
    ClockState,
    GaussianBranch,
    PairMoments,
    evolve_state,
    make_initial_state,
    wrap_angle,
)

_LD = np.longdouble


class StepUnderflowError(ValueError):
    """Finite-difference step vanished in floating point."""


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------

# Targets each scenario can estimate; the first is the default.
TARGETS = {
    "free_fall": ("g",),
    "mach_zehnder": ("delta_g", "bar_g"),
    "bouncer": ("g",),
}


@dataclass(frozen=True)
class Scenario:
    """A parametrized state family: which interferometer, which parameter."""

    kind: str
    params: PhysicalParams
    target: str = "g"

    def __post_init__(self) -> None:
        if self.kind not in TARGETS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.target not in TARGETS[self.kind]:
            allowed = ", ".join(TARGETS[self.kind])
            raise ValueError(
                f"target {self.target!r} not available for {self.kind!r} (use: {allowed})")

    def value(self) -> float:
        return getattr(self.params, self.target)

    def with_value(self, value: float) -> "Scenario":
        p = self.params
        if self.target == "g":
            new = p.replace(g=value)
        elif self.target == "delta_g":
            bar = p.bar_g
            new = p.replace(g_plus=bar - 0.5 * value, g_minus=bar + 0.5 * value)
        else:
            delta = p.delta_g
            new = p.replace(g_plus=value - 0.5 * delta, g_minus=value + 0.5 * delta)
        return Scenario(self.kind, new, self.target)

    def make_state(self, value: float | None = None) -> ClockState:
        sc = self if value is None else self.with_value(value)
        return evolve_state(make_initial_state(sc.params), sc.params, sc.kind)

    def phase_scale(self) -> float:
        """Estimate of |d(interference phase)/d(target)|, rad per unit."""
        p = self.params
        if self.kind == "free_fall":
            return 2.0 * p.m * p.dt * p.h / p.hbar
        lever = abs(p.h_bar_mz) + abs(p.delta_h)
        return p.m * max(p.z0, p.z1) * p.dt * lever / p.hbar

    def detector_phase_scale(self) -> float:
        """Like phase_scale but for the detector-frame (clock-beat) phases."""
        p = self.params
        if self.kind == "free_fall":
            return 2.0 * p.m * max(p.z0, p.z1) * p.dt * p.h / p.hbar
        return self.phase_scale()


def _ordered_components(state: ClockState) -> tuple[GaussianBranch, ...]:
    """Deterministic component order, stable across parameter perturbations."""
    return tuple(sorted(state.components,
                        key=lambda b: (b.path_label, b.internal_level)))


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def qfi_ff_closed(params: PhysicalParams) -> float:
    """Full-state QFI for g in free fall (three-term closed form).

    The middle term carries the clock-gravity coupling and is the sole
    source of the asymptotic dt^6 growth; with the coupling ablated the
    expression degrades gracefully to the dt^4 law (the first and last
    terms combine to (1/4) dt^4 / sigma^2 at long times).
    """
    p = params
    z0, z1 = p.z0_eff, p.z1_eff
    dz, zb = z1 - z0, 0.5 * (z0 + z1)
    mt = p.m * p.dt / p.hbar
    sig2 = p.spread_width**2
    first = 0.5 * ((1.0 + z0) ** 2 + (1.0 + z1) ** 2) * mt * mt * (4.0 * sig2 + p.h**2)
    middle = (mt * dz) ** 2 * (p.g * p.dt**2 / 6.0 + p.h_bar) ** 2
    last = (zb + 0.75) * p.dt**4 / p.sigma**2
    return first + middle - last


def qfi_ff_asymptotic(params: PhysicalParams) -> float:
    """Long-time limit of the free-fall QFI: g^2 dE^2 dt^6 / (36 hbar^2 c^4)."""
    p = params
    return (p.g * p.delta_e_eff * p.dt**3) ** 2 / (36.0 * p.hbar**2 * p.c**4)


def qfi_ff_reduced_closed(params: PhysicalParams) -> float:
    """QFI of the path-only (clock traced out) state, qubit approximation."""
    p = params
    dz, zb = p.delta_z_eff, p.z_bar_eff
    a = p.m * dz * p.dt * p.h / (2.0 * p.hbar)
    b = p.m * p.dt * p.h * (1.0 + zb) / p.hbar
    arg = p.m * dz * p.delta_v_ff * p.dt / (2.0 * p.hbar)
    return a * a + b * b * math.cos(arg) ** 2


def fi_ff_closed(params: PhysicalParams) -> float:
    """FI of the path-interference measurement: (dE h dt / 2 hbar c^2)^2."""
    p = params
    return (p.delta_e_eff * p.h * p.dt / (2.0 * p.hbar * p.c**2)) ** 2


def _mz_energies(params: PhysicalParams) -> tuple[float, float]:
    c2 = params.c**2
    return params.z0_eff * params.m * c2, params.z1_eff * params.m * c2


def qfi_mz_closed(params: PhysicalParams, target: str) -> float:
    """Full-state Mach-Zehnder QFI for delta_g or bar_g.

    Both vanish identically when the internal energies are zero: the
    trapped geometry is sensitive to gravity only through time dilation.
    """
    p = params
    e0, e1 = _mz_energies(p)
    sum_sq = e0 * e0 + e1 * e1
    de = e1 - e0
    sig2 = p.spread_width**2
    hc2 = p.hbar * p.c**2
    if target == "delta_g":
        return (p.dt / (4.0 * hc2)) ** 2 * (
            sum_sq * 8.0 * (sig2 + p.h_bar_mz**2) + de * de * p.delta_h**2)
    if target == "bar_g":
        return (p.dt / (math.sqrt(2.0) * hc2)) ** 2 * (
            sum_sq * (4.0 * sig2 + p.delta_h**2) + 2.0 * de * de * p.h_bar_mz**2)
    raise ValueError(f"unknown MZ target {target!r}")


def qfi_mz_reduced_closed(params: PhysicalParams, target: str) -> float:
    """Reduced-state Mach-Zehnder QFI (path-only, qubit approximation)."""
    p = params
    e0, e1 = _mz_energies(p)
    de, e_bar = e1 - e0, 0.5 * (e0 + e1)
    hc2 = p.hbar * p.c**2
    if target == "delta_g":
        lever = p.h_bar_mz
    elif target == "bar_g":
        lever = p.delta_h
    else:
        raise ValueError(f"unknown MZ target {target!r}")
    arg = de * p.delta_v_mz * p.dt / (2.0 * hc2)
    return (de * lever * p.dt / (2.0 * hc2)) ** 2 \
        + (e_bar * lever * p.dt / hc2) ** 2 * math.cos(arg) ** 2


def fi_mz_closed(params: PhysicalParams, target: str) -> float:
    """Measurement FI for the Mach-Zehnder: note the crossed levers.

    delta_g is read through the mean offset h_bar_mz, bar_g through the
    offset difference delta_h.
    """
    p = params
    e0, e1 = _mz_energies(p)
    de = e1 - e0
    hc2 = p.hbar * p.c**2
    if target == "delta_g":
        return (de * p.h_bar_mz * p.dt / (2.0 * hc2)) ** 2
    if target == "bar_g":
        return (de * p.delta_h * p.dt / (2.0 * hc2)) ** 2
    raise ValueError(f"unknown MZ target {target!r}")


def _closed(scenario: Scenario, free_fall, mach_zehnder) -> float:
    if scenario.kind == "free_fall":
        return free_fall(scenario.params)
    if scenario.kind == "mach_zehnder":
        return mach_zehnder(scenario.params, scenario.target)
    raise ValueError(f"no interferometer closed form for {scenario.kind!r}")


def closed_qfi(scenario: Scenario) -> float:
    return _closed(scenario, qfi_ff_closed, qfi_mz_closed)


def closed_reduced_qfi(scenario: Scenario) -> float:
    return _closed(scenario, qfi_ff_reduced_closed, qfi_mz_reduced_closed)


def closed_fi(scenario: Scenario) -> float:
    return _closed(scenario, fi_ff_closed, fi_mz_closed)


# ---------------------------------------------------------------------------
# Finite differences shared by the three numeric engines
# ---------------------------------------------------------------------------

def _fd_step(value: float, phase_scale: float = 0.0) -> float:
    """Central-difference step: 0.01 rad of phase when ``phase_scale`` (rad
    per parameter unit) is positive, since amplitudes oscillate on the
    phase's scale, not on |value|'s; else max(1e-5 |value|, 1e-9)."""
    step = 1e-2 / phase_scale if phase_scale > 0 else max(1e-5 * abs(value), 1e-9)
    if not math.isfinite(step) or value + step == value or value - step == value:
        raise StepUnderflowError(f"finite-difference step {step:g} vanishes at value {value:g}")
    return step


def _richardson(at, step: float) -> float:
    """(4 at(h/2) - at(h)) / 3: cancels the O(h^2) error of central differences."""
    full = at(step)
    return (4.0 * at(0.5 * step) - full) / 3.0


# ---------------------------------------------------------------------------
# Parametric pure-state QFI
# ---------------------------------------------------------------------------

def _parametric_qfi_at(scenario: Scenario, v0: float, step: float,
                       comps: tuple[GaussianBranch, ...]) -> float:
    """Unextrapolated QFI at ``v0`` from central differences of width
    ``step``; ``comps`` are the ordered components of the state at v0."""
    comps_lo = _ordered_components(scenario.make_state(v0 - step))
    comps_hi = _ordered_components(scenario.make_state(v0 + step))
    two_h_f = (v0 + step) - (v0 - step)
    two_h = _LD(two_h_f)

    damp, dmean, dvar, dchirp, dslope, dconst = [], [], [], [], [], []
    for b_lo, b_hi in zip(comps_lo, comps_hi):
        damp.append((b_hi.amplitude - b_lo.amplitude) / two_h_f)
        dmean.append((b_hi.mean_x - b_lo.mean_x) / two_h_f)
        dvar.append((b_hi.var_x - b_lo.var_x) / two_h_f)
        dchirp.append((b_hi.chirp - b_lo.chirp) / two_h_f)
        dslope.append((b_hi.ledger.slope - b_lo.ledger.slope) / two_h)
        dconst.append(b_hi.ledger.diff_constant(b_lo.ledger) / two_h)

    # Constant phase derivative per component, including the slope pivot.
    phase0 = [dc + ds * (_LD(b.mean_x) - b.ledger.x_ref)
              for dc, ds, b in zip(dconst, dslope, comps)]
    weights = [abs(b.amplitude) ** 2 for b in comps]
    wsum = sum(weights)
    gauge = sum((w * p0 for w, p0 in zip(weights, phase0)), _LD(0.0)) / wsum

    polys = []
    for k, b in enumerate(comps):
        c0 = -dvar[k] / (4.0 * b.var_x) + 1j * float(phase0[k] - gauge)
        c1 = dmean[k] * (1.0 / (2.0 * b.var_x) - 2j * b.chirp) + 1j * float(dslope[k])
        c2 = dvar[k] / (4.0 * b.var_x**2) + 1j * dchirp[k]
        polys.append((
            damp[k] + b.amplitude * c0,
            b.amplitude * c1,
            b.amplitude * c2,
        ))

    s_dd = 0.0j
    s_pd = 0.0j
    for j, bj in enumerate(comps):
        for k, bk in enumerate(comps):
            if bj.internal_level != bk.internal_level:
                continue
            pm = PairMoments(bj, bk)
            s_dd += pm.braket(polys[j], polys[k])
            s_pd += pm.braket([bj.amplitude], polys[k])
    return 4.0 * (s_dd.real - abs(s_pd) ** 2)


def qfi_pure_parametric(scenario: Scenario) -> float:
    """Pure-state QFI of the scenario family by parameter differentiation.

    Central differences of every Gaussian parameter and ledger term
    (extended precision for the phase coefficients), Richardson
    extrapolated over steps h and h/2.  The controllable phase enters as
    a parameter-independent amplitude, so the result is invariant in it.
    Both steps share the centre state.
    """
    v0 = scenario.value()
    step = _fd_step(v0)
    comps = _ordered_components(scenario.make_state(v0))
    return _richardson(lambda h: _parametric_qfi_at(scenario, v0, h, comps), step)


# ---------------------------------------------------------------------------
# Qubit reduction and the qubit (Bloch-vector) QFI
# ---------------------------------------------------------------------------

def _eval_points(params: PhysicalParams, scenario: str) -> tuple[np.longdouble, np.longdouble]:
    """The z-free trajectory centres (x_plus, x_minus) at the end, in extended
    precision: the fall distance dwarfs the branch separation, so forming
    x_s - g dt^2/2 in float64 would lose the digits the path difference lives in."""
    drop = 0.5 * _LD(params.g) * _LD(params.dt) ** 2 if scenario == "free_fall" else _LD(0.0)
    return _LD(params.x_plus) - drop, _LD(params.x_minus) - drop


def reduce_to_qubit(state: ClockState, params: PhysicalParams,
                    scenario: str = "free_fall") -> tuple[float, float]:
    """Semiclassical two-path model (gamma_0, gamma_1): gamma_i is level i's
    minus-vs-plus relative phase at the z-free trajectory centres (global
    per-level phases, widths and position dependence are dropped)."""
    if len(state.components) != 4:
        raise ValueError("qubit reduction expects the 4-component interferometer state")
    x_p, x_m = _eval_points(params, scenario)
    gammas = []
    for level in (0, 1):
        bp = state.branch("plus", level)
        bm = state.branch("minus", level)
        rel = bm.ledger.diff_at(x_m, bp.ledger, x_p)
        rel = rel + _LD(bm.chirp) * (x_m - _LD(bm.mean_x)) ** 2
        rel = rel - _LD(bp.chirp) * (x_p - _LD(bp.mean_x)) ** 2
        amp_phase = cmath.phase(bm.amplitude) - cmath.phase(bp.amplitude)
        gammas.append(wrap_angle(rel + _LD(amp_phase)))
    return gammas[0], gammas[1]


def reduced_bloch_vector(scenario: Scenario):
    """Bloch-vector function v -> r of the clock-traced state, the equal mixture
    of (1, e^{i gamma_i}) / sqrt(2): r = (cos g0 + cos g1, sin g0 + sin g1) / 2."""
    def at(value: float) -> np.ndarray:
        sc = scenario.with_value(value)
        g0, g1 = reduce_to_qubit(sc.make_state(), sc.params, sc.kind)
        return 0.5 * np.array([math.cos(g0) + math.cos(g1), math.sin(g0) + math.sin(g1)])
    return at


_PURE_FLOOR = 1e-12    # a state with 1 - |r|^2 below it is taken as pure


def qubit_qfi(bloch_fn, value: float, phase_scale: float = 0.0) -> float:
    """QFI of a qubit family (I + r(v).sigma)/2: |dr|^2 + (r.dr)^2 / (1 - |r|^2)
    (Zhong et al., PRA 87, 022337 (2013)), dr by central differences with the
    ``_fd_step`` rule, Richardson extrapolated.  Below ``_PURE_FLOOR`` the
    state is taken as pure and the second term is dropped, with a warning.
    """
    step = _fd_step(value, phase_scale)
    r_c = np.asarray(bloch_fn(value), dtype=float)
    mixedness = 1.0 - float(r_c @ r_c)
    if mixedness < _PURE_FLOOR:
        warnings.warn(f"qubit QFI: 1 - |r|^2 = {mixedness:.3g} is below {_PURE_FLOOR:g}; "
                      f"the state is taken as pure", stacklevel=2)
        mixedness = math.inf    # (r.dr)^2 / inf drops the mixed-state term

    def at(h: float) -> float:
        dr = (bloch_fn(value + h) - bloch_fn(value - h)) / ((value + h) - (value - h))
        return float(dr @ dr) + float(r_c @ dr) ** 2 / mixedness
    return _richardson(at, step)


def reduced_qfi_bloch(scenario: Scenario) -> float:
    """QFI of the clock-traced interferometer state, as a path qubit's."""
    return qubit_qfi(reduced_bloch_vector(scenario), scenario.value(), scenario.phase_scale())


# ---------------------------------------------------------------------------
# Detection probabilities and the classical FI
# ---------------------------------------------------------------------------

def detection_probabilities(state: ClockState, params: PhysicalParams,
                            scenario: str = "free_fall") -> tuple[float, float]:
    """Click probabilities of the path-interference detectors.

    The detectors are the clock-free evolved branches interfered with a
    +/- sign, so every phase that does not originate from time dilation
    is projected away; what survives per level i is the detector-frame
    relative phase, and

        P_pm = 1/2 +- (cos g0 + cos g1) / 4.

    Computed by term-by-term ledger subtraction against a clock-free
    reference evolution; P_plus + P_minus = 1 exactly by construction.
    """
    ref_params = params.replace(e0=0.0, e1=0.0)
    initial = make_initial_state(ref_params)
    # Only the level-0 reference branches are read.
    ref_state = evolve_state(
        ClockState((initial.branch("plus", 0), initial.branch("minus", 0))),
        ref_params, scenario)
    x_p, x_m = _eval_points(params, scenario)
    ref_rel = ref_state.branch("minus", 0).ledger.diff_at(
        x_m, ref_state.branch("plus", 0).ledger, x_p)
    cos_sum = 0.0
    for level in (0, 1):
        bp = state.branch("plus", level)
        bm = state.branch("minus", level)
        rel = bm.ledger.diff_at(x_m, bp.ledger, x_p)
        amp_phase = cmath.phase(bm.amplitude) - cmath.phase(bp.amplitude)
        cos_sum += math.cos(wrap_angle(rel - ref_rel + _LD(amp_phase)))
    p_plus = 0.5 + 0.25 * cos_sum
    return p_plus, 1.0 - p_plus


def _probabilities(prob_fn, value: float) -> np.ndarray:
    p = np.asarray(prob_fn(value), dtype=float)
    if np.any(p < 0):
        raise ValueError("probability function returned a negative probability")
    if abs(p.sum() - 1.0) > 1e-8:
        raise ValueError("outcome distribution does not sum to 1")
    return p


def _fi_at(prob_fn, value: float, step: float, p_c: np.ndarray) -> float:
    """Unextrapolated FI at ``value`` from central differences of width
    ``step``; ``p_c`` are the probabilities at ``value``."""
    p_hi = _probabilities(prob_fn, value + step)
    p_lo = _probabilities(prob_fn, value - step)
    two_h = (value + step) - (value - step)
    dp = (p_hi - p_lo) / two_h
    keep = p_c >= 1e-15
    # An outcome that is exactly impossible here and nearby carries no
    # information (P- under ablation); only the other exclusions are reported.
    reported = ~keep & ((p_c != 0.0) | (dp != 0.0))
    if np.any(reported):
        warnings.warn(
            f"classical FI excluded outcomes below 1e-15: {np.where(reported)[0].tolist()}",
            stacklevel=4)
    return float(np.sum(dp[keep] ** 2 / p_c[keep]))


def classical_fi(prob_fn, value: float, phase_scale: float = 0.0) -> float:
    """FI of a finite outcome distribution by central differences.

    The step follows ``_fd_step``: pass ``phase_scale`` (rad per parameter
    unit) when the distribution varies on a scale unrelated to |value|.
    Both steps share the centre probabilities.
    """
    step = _fd_step(value, phase_scale)
    p_c = _probabilities(prob_fn, value)
    return _richardson(lambda h: _fi_at(prob_fn, value, h, p_c), step)


def fi_numeric(scenario: Scenario) -> float:
    """Numeric FI of the detection probabilities for the scenario target."""
    def prob_fn(value: float):
        sc = scenario.with_value(value)
        return detection_probabilities(sc.make_state(), sc.params, sc.kind)
    return classical_fi(prob_fn, scenario.value(), scenario.detector_phase_scale())


def quadrature_phi(params: PhysicalParams, scenario: str = "free_fall") -> float:
    """Phase-shifter setting that parks the slow cosine at an extremum.

    There the measurement's sensitivity comes entirely from the
    time-dilation beat and the numeric FI meets the closed form.
    """
    dv = params.delta_v_ff if scenario == "free_fall" else params.delta_v_mz
    slow = params.e_bar_eff * dv * params.dt / (params.hbar * params.c**2)
    return -wrap_angle(_LD(slow))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class EstimationReport:
    """Per-method estimation results for one scenario point."""

    parameter_name: str
    qfi_closed: float | None = None
    qfi_parametric: float | None = None
    qfi_oracle: float | None = None
    qfi_reduced: float | None = None
    fi_closed: float | None = None
    fi_numeric: float | None = None
    crb_single_shot: float | None = None
    method_metadata: dict = dataclasses.field(default_factory=dict)

    def finalize(self) -> "EstimationReport":
        if self.qfi_closed is not None and self.qfi_closed > 0:
            self.crb_single_shot = 1.0 / self.qfi_closed
        return self

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)
