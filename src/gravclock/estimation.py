"""Quantum and classical Fisher information engines.

Three independent routes to the same quantities are provided and cross
checked against each other:

* closed forms (``qfi_ff_closed`` & friends), transcribed once from the
  analytic results and never tuned;
* a parametric pure-state engine (``qfi_pure_parametric``) that takes the
  exact derivatives of the Gaussian branch means, phases and slopes
  and assembles ``G = 4 (<d psi|d psi> - |<psi|d psi>|^2)`` from
  closed-form pair moments -- no grids, no wrapped-phase differentiation;
* a qubit engine (``qubit_qfi``) for the clock-traced state, a path
  qubit by construction: |dr|^2 + (r.dr)^2 / (1 - |r|^2) from its Bloch
  vector r and derivative dr (``reduced_qfi_bloch``).

These two and the classical FI (``classical_fi``) evaluate one state, made
on ``Scenario.tangent()``: its slopes are jets (``gaussian.Jet``), so every
derivative comes from the evolution maps' own arithmetic.  Every phase they
subtract or wrap is a float64 exact difference from the state's clock-free
frame (``gaussian.Frame``); one float64 cannot resolve raises ValueError
instead of being wrapped to noise.  On a column scenario
(``Scenario.column``) ``qfi_pure_parametric`` and ``fi_numeric`` return one
value per sweep row, checked row by row.

Every engine takes a ``core.Scenario`` (kind, parameters, target; also
importable from here) and makes its own state.  The path detectors
interfere the clock-free reference, which is every state's frame.

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

from .core import PhysicalParams, Scenario    # also looked up here (perfbench/checks.py)
from .gaussian import ClockState, GaussianBranch, Jet, PairMoments, as_float, py, split, wrap_angle


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def qfi_ff_closed(params: PhysicalParams) -> float:
    """Full-state QFI for g in free fall (three-term closed form).

    The middle term, (m dt dz / hbar)^2 (g dt^2 / 6 - h_bar)^2 with h_bar the
    branch midpoint less x0, carries the clock-gravity coupling and is the sole
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
    middle = (mt * dz) ** 2 * (p.g * p.dt**2 / 6.0 - p.h_bar) ** 2
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
    lever = _mz_lever(p, target)
    arg = de * p.delta_v_mz * p.dt / (2.0 * hc2)
    return (de * lever * p.dt / (2.0 * hc2)) ** 2 \
        + (e_bar * lever * p.dt / hc2) ** 2 * math.cos(arg) ** 2


def _mz_lever(params: PhysicalParams, target: str) -> float:
    """The crossed levers: delta_g is read through the mean offset h_bar_mz,
    bar_g through the offset difference delta_h."""
    if target not in ("delta_g", "bar_g"):
        raise ValueError(f"unknown MZ target {target!r}")
    return params.h_bar_mz if target == "delta_g" else params.delta_h


def fi_mz_closed(params: PhysicalParams, target: str) -> float:
    """Measurement FI for the Mach-Zehnder: note the crossed levers (``_mz_lever``)."""
    p = params
    e0, e1 = _mz_energies(p)
    hc2 = p.hbar * p.c**2
    return ((e1 - e0) * _mz_lever(p, target) * p.dt / (2.0 * hc2)) ** 2


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
# Parametric pure-state QFI
# ---------------------------------------------------------------------------

def qfi_pure_parametric(scenario: Scenario) -> float:
    """Pure-state QFI of the scenario family by parameter differentiation.

    One state is made on ``scenario.tangent()``: each branch's mean, phase
    and slope, and the frame, carry their exact derivatives (amplitudes,
    widths and chirps are parameter-free).  The controllable phase enters as
    a parameter-independent amplitude, so the result is invariant in it.  A
    branch's phase derivative at its centre, at fixed lab x, is the frame's
    z-free part (the cubic action's, the same on all four branches: a gauge,
    dropped before any sum) plus three addends of its own; their rounding
    over one Cramer-Rao width 1/sqrt(G) of the target must be a resolvable phase.
    """
    state = scenario.tangent().make_state()
    dorigin, drho = split(state.frame.origin)[1], split(state.frame.slope)[1]
    comps, c1s, phase0, sizes = [], [], [], []
    for jet in state.components:
        (mean, dmean), (phase, dphase), (slope, dslope) = map(split, (jet.mean_x, jet.phase, jet.slope))
        b = GaussianBranch(jet.amplitude, phase, slope, mean, jet.var_x, jet.chirp,
                           jet.internal_level, jet.path_label)
        comps.append(b)
        # Lab mean origin + x and lab slope rho + slope; the frame origin moves, x stays.
        c1s.append(b.amplitude * (py(dorigin + dmean) * (1.0 / (2.0 * b.var_x) - 2j * py(b.chirp))
                                  + 1j * py(drho + dslope)))
        addends = (dphase, (drho + dslope) * mean, -slope * dorigin)
        phase0.append(sum(addends))
        sizes.append(sum(map(abs, addends)))
    weights = [abs(b.amplitude) ** 2 for b in comps]
    gauge = sum(w * p0 for w, p0 in zip(weights, phase0)) / sum(weights)
    polys = [(b.amplitude * 1j * py(p0 - gauge), c1) for b, p0, c1 in zip(comps, phase0, c1s)]

    s_dd = 0.0j
    s_pd = 0.0j
    for j, bj in enumerate(comps):
        for k, bk in enumerate(comps):
            if bj.internal_level != bk.internal_level:
                continue
            pm = PairMoments(bj, bk)
            s_dd += pm.braket(polys[j], polys[k])
            s_pd += pm.braket([bj.amplitude], polys[k])
    qfi = as_float(4.0 * (np.asarray(s_dd, dtype=complex).real - abs(s_pd) ** 2))
    cr_width = np.sqrt(np.where(qfi > 0, qfi, np.inf))    # no check where qfi <= 0
    _require_resolved(np.maximum.reduce(sizes) / cr_width, "phase-derivative addends per CR width")
    return qfi


# ---------------------------------------------------------------------------
# Qubit reduction and the qubit (Bloch-vector) QFI
# ---------------------------------------------------------------------------

def _level_phase(state: ClockState, level: int, scenario: Scenario):
    """Level ``level``'s minus-vs-plus phase at the z-free trajectory centres,
    less the frame's (-rho h, the same on both levels), plus the amplitudes'.

    The z-free centres are the starts in the frame, which falls with them;
    the branches' exact differences give an O(z) phase, the slopes
    multiplying the separation rather than the lever arms.  A ValueError
    where float64 cannot resolve it.
    """
    params = scenario.params
    bp, bm = state.branch("plus", level), state.branch("minus", level)
    phase = (bm.phase - bp.phase) + bm.slope * (params.x_minus - params.x_plus) \
        + (bm.slope - bp.slope) * (params.x_plus - params.x0)
    _require_resolved(split(phase)[0], "level-relative phase")
    return phase + (cmath.phase(bm.amplitude) - cmath.phase(bp.amplitude))


_PHASE_ULP_MAX = 1e-3    # rad: the coarsest float64 ulp a phase may have
_EPS = float(np.finfo(float).eps)


def _require_resolved(phase, what: str) -> None:
    """ValueError where the float64 ulp of ``phase`` (rad; of any row of an
    array) exceeds _PHASE_ULP_MAX.  The message gives the first such row's phase."""
    if np.any(too_coarse := np.abs(phase) * _EPS > _PHASE_ULP_MAX):
        phase = float(np.asarray(phase)[too_coarse][0])
        raise ValueError(f"{what} {phase:.3g} rad is beyond float64 resolution "
                         f"(ulp {abs(phase) * _EPS:.3g} rad > {_PHASE_ULP_MAX:g} rad)")


# math.cos and math.sin on each element: numpy's own may round differently on another CPU.
_COS, _SIN = np.frompyfunc(math.cos, 1, 1), np.frompyfunc(math.sin, 1, 1)


def _cos_sin(phase) -> tuple:
    """(cos, sin) of a float or array, or of a jet with their derivatives."""
    value, d = split(phase)
    c, s = as_float(_COS(value)), as_float(_SIN(value))
    return (Jet(c, -s * d), Jet(s, c * d)) if isinstance(phase, Jet) else (c, s)


def reduce_to_qubit(scenario: Scenario) -> tuple[float, float]:
    """Semiclassical two-path model (gamma_0, gamma_1) of the scenario's state:
    gamma_i is level i's minus-vs-plus relative phase at the z-free trajectory
    centres (global per-level phases, widths and position dependence are
    dropped).  Each is the frame's path phase, one float for both levels, plus
    the level's exact difference.  On a scenario that carries jets, the gammas are jets."""
    state = scenario.make_state()
    path = wrap_angle(state.frame.slope * (scenario.params.x_minus - scenario.params.x_plus))
    return tuple(path + wrap_angle(_level_phase(state, level, scenario)) for level in (0, 1))


def _bloch(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Bloch vector r of the clock-traced state, the equal mixture of
    (1, e^{i gamma_i}) / sqrt(2), and its derivative dr along the target:
    r = (cos g0 + cos g1, sin g0 + sin g1) / 2."""
    (c0, s0), (c1, s1) = map(_cos_sin, reduce_to_qubit(scenario.tangent()))
    r, dr = zip(split(0.5 * (c0 + c1)), split(0.5 * (s0 + s1)))
    return np.array(r), np.array(dr)


_PURE_FLOOR = 1e-12    # a state with 1 - |r|^2 below it is taken as pure


def qubit_qfi(r, dr) -> float:
    """QFI of a qubit family (I + r(v).sigma)/2 at a point with Bloch vector r
    and derivative dr: |dr|^2 + (r.dr)^2 / (1 - |r|^2) (Zhong et al., PRA 87,
    022337 (2013)).  Below ``_PURE_FLOOR`` the state is taken as pure and the
    second term is dropped, with a warning.
    """
    r, dr = np.asarray(r, dtype=float), np.asarray(dr, dtype=float)
    mixedness = 1.0 - float(r @ r)
    if mixedness < _PURE_FLOOR:
        warnings.warn(f"qubit QFI: 1 - |r|^2 = {mixedness:.3g} is below {_PURE_FLOOR:g}; "
                      f"the state is taken as pure", stacklevel=2)
        mixedness = math.inf    # (r.dr)^2 / inf drops the mixed-state term
    return float(dr @ dr) + float(r @ dr) ** 2 / mixedness


def reduced_qfi_bloch(scenario: Scenario) -> float:
    """QFI of the clock-traced interferometer state, as a path qubit's."""
    return qubit_qfi(*_bloch(scenario))


# ---------------------------------------------------------------------------
# Detection probabilities and the classical FI
# ---------------------------------------------------------------------------

def detection_probabilities(scenario: Scenario) -> tuple[float, float]:
    """Click probabilities of the path-interference detectors on the scenario's state.

    The detectors are the clock-free evolved branches interfered with a
    +/- sign, so every phase that does not originate from time dilation
    is projected away; what survives per level i is the detector-frame
    relative phase, and

        P_pm = 1/2 +- (cos g0 + cos g1) / 4.

    The clock-free reference is the state's frame, so the detector-frame
    phase is the level's exact difference from it; P_plus + P_minus = 1
    exactly by construction.  On a scenario that carries jets, the
    probabilities are jets.
    """
    state = scenario.make_state()
    cos_sum = sum((_cos_sin(wrap_angle(_level_phase(state, level, scenario)))[0]
                   for level in (0, 1)), 0.0)
    p_plus = 0.5 + 0.25 * cos_sum
    return p_plus, 1.0 - p_plus


def classical_fi(p, dp) -> float:
    """FI sum_k dp_k^2 / p_k of a finite outcome distribution p with
    derivative dp; p_k and dp_k may be arrays, one element per row, giving
    one FI per row.  Outcomes below 1e-15 are excluded, with a warning unless
    they are exactly impossible and stay so (P- under ablation); a NaN outcome
    is kept, so its FI is NaN."""
    p, dp = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(dp, dtype=float))
    if np.any(p < 0):
        raise ValueError("outcome distribution has a negative probability")
    if np.any(np.abs(p.sum(axis=0) - 1.0) > 1e-8):
        raise ValueError("outcome distribution does not sum to 1")
    keep = ~(p < 1e-15)
    reported = ~keep & ((p != 0.0) | (dp != 0.0))
    for outcomes in dict.fromkeys(str(np.flatnonzero(row).tolist())
                                  for row in reported.reshape(len(p), -1).T if row.any()):
        warnings.warn(f"classical FI excluded outcomes below 1e-15: {outcomes}", stacklevel=2)
    fi = np.where(keep, dp**2 / np.where(keep, p, 1.0), 0.0).sum(axis=0)
    return fi if fi.ndim else float(fi)


def fi_numeric(scenario: Scenario) -> float:
    """Numeric FI of the detection probabilities for the scenario target."""
    p_plus, p_minus = detection_probabilities(scenario.tangent())
    return classical_fi(*zip(split(p_plus), split(p_minus)))


def quadrature_phi(scenario: Scenario) -> float:
    """Phase-shifter setting that parks the scenario's slow cosine at an extremum.

    There the measurement's sensitivity comes entirely from the
    time-dilation beat and the numeric FI meets the closed form.
    """
    params = scenario.params
    dv = params.delta_v_ff if scenario.kind == "free_fall" else params.delta_v_mz
    slow = params.e_bar_eff * dv * params.dt / (params.hbar * params.c**2)
    return -wrap_angle(slow)


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
