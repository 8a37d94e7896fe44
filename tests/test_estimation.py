"""Closed forms, the parametric and qubit QFI engines, probabilities, FI."""

from __future__ import annotations

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from conftest import CONFIG_DIR, _variant
from hypothesis import assume, given, settings, strategies as st

from gravclock import core, estimation as est, gaussian as ga, oracle

mp.mp.dps = 40


# ---------------------------------------------------------------------------
# Closed forms: structure
# ---------------------------------------------------------------------------

def test_qfi_ff_closed_zero_energy_structure():
    p = core.build_params(m=1e-25, e0=0.0, e1=0.0, g=9.81, x_plus=0.51,
                          x_minus=0.50, x0=0.505, sigma=1e-4, dt=10.0)
    mt = p.m * p.dt / p.hbar
    expected = mt * mt * (4.0 * p.spread_width**2 + p.h**2) - 0.75 * p.dt**4 / p.sigma**2
    assert est.qfi_ff_closed(p) == pytest.approx(expected, rel=1e-14)


def test_qfi_ff_closed_middle_term_vanishes_for_degenerate_clock(sr88_10s):
    p = sr88_10s.replace(e0=sr88_10s.e1)   # delta z = 0, z_bar != 0
    z = p.z1
    mt = p.m * p.dt / p.hbar
    expected = (1.0 + z) ** 2 * mt * mt * (4.0 * p.spread_width**2 + p.h**2) \
        - (z + 0.75) * p.dt**4 / p.sigma**2
    assert est.qfi_ff_closed(p) == pytest.approx(expected, rel=1e-14)


def test_qfi_ff_closed_positive_on_matrix(crosscheck_params):
    for p in crosscheck_params:
        assert est.qfi_ff_closed(p) > 0


def test_qfi_ff_asymptotic_trivials(sr88_10s):
    p = sr88_10s
    assert est.qfi_ff_asymptotic(p.replace(e0=0.0, e1=0.0)) == 0.0
    assert est.qfi_ff_asymptotic(p.replace(g=0.0)) == 0.0
    ratio = est.qfi_ff_asymptotic(p.replace(dt=2 * p.dt)) / est.qfi_ff_asymptotic(p)
    assert ratio == pytest.approx(64.0, rel=1e-14, abs=0)


def test_qfi_ff_reduced_structure(sr88_10s):
    p = sr88_10s.replace(e0=sr88_10s.e1)   # degenerate clock: cosine term only
    z = p.z1
    expected = (p.m * p.dt * p.h * (1.0 + z) / p.hbar) ** 2
    assert est.qfi_ff_reduced_closed(p) == pytest.approx(expected, rel=1e-14)
    # Quarter-period beat: only the clock-gap term survives.
    dz = sr88_10s.z1 - sr88_10s.z0
    dt_quarter = math.pi * p.hbar / (sr88_10s.m * dz * sr88_10s.g * sr88_10s.h)
    pq = sr88_10s.replace(dt=dt_quarter)
    first = (pq.m * (pq.z1 - pq.z0) * pq.dt * pq.h / (2 * pq.hbar)) ** 2
    assert est.qfi_ff_reduced_closed(pq) == pytest.approx(first, rel=1e-10)


def test_fi_ff_closed_trivials(sr88_10s):
    p = sr88_10s
    assert est.fi_ff_closed(p.replace(e0=0.0, e1=0.0)) == 0.0
    assert est.fi_ff_closed(p.replace(dt=2 * p.dt)) / est.fi_ff_closed(p) == pytest.approx(4.0)
    assert est.fi_ff_closed(p) <= est.qfi_ff_reduced_closed(p)


def test_qfi_mz_closed_null_without_internal_energy(sr88_10s):
    p = sr88_10s.replace(e0=0.0, e1=0.0)
    assert est.qfi_mz_closed(p, "delta_g") == 0.0
    assert est.qfi_mz_closed(p, "bar_g") == 0.0


def test_qfi_mz_closed_delta_h_zero_structure(sr88_10s):
    p = sr88_10s.replace(x_plus0=sr88_10s.x_plus - 1e-4,
                         x_minus0=sr88_10s.x_minus - 1e-4)
    assert p.delta_h == pytest.approx(0.0, abs=1e-18)
    e1 = p.z1_eff * p.m * p.c**2
    expected = (p.dt / (4 * p.hbar * p.c**2)) ** 2 * (p.e0**2 + e1**2) * 8.0 \
        * (p.spread_width**2 + p.h_bar_mz**2)
    assert est.qfi_mz_closed(p, "delta_g") == pytest.approx(expected, rel=1e-12, abs=0)


def test_qfi_mz_reduced_quarter_beat_structure(sr88_10s):
    """At a quarter beat only the clock-gap term of the reduced QFI survives."""
    p = sr88_10s
    dt_quarter = math.pi * p.hbar * p.c**2 / ((p.e1 - p.e0) * p.delta_v_mz)
    pq = p.replace(dt=dt_quarter)
    for target, lever in (("delta_g", pq.h_bar_mz), ("bar_g", pq.delta_h)):
        first = ((pq.e1 - pq.e0) * lever * pq.dt / (2 * pq.hbar * pq.c**2)) ** 2
        assert est.qfi_mz_reduced_closed(pq, target) == pytest.approx(first, rel=1e-9, abs=0)


def test_fi_mz_crossed_levers(sr88_10s):
    """delta_g reads the mean offset, bar_g reads the offset difference."""
    p1 = sr88_10s
    # Shift both Taylor offsets together: h_bar changes, delta_h fixed.
    p2 = p1.replace(x_plus0=p1.x_plus0 - 5e-5, x_minus0=p1.x_minus0 - 5e-5)
    assert p2.delta_h == pytest.approx(p1.delta_h)
    assert est.fi_mz_closed(p2, "bar_g") == pytest.approx(est.fi_mz_closed(p1, "bar_g"), rel=1e-9, abs=0)
    assert est.fi_mz_closed(p2, "delta_g") != pytest.approx(est.fi_mz_closed(p1, "delta_g"), rel=1e-3)
    # And the transposed move: delta_h changes, h_bar fixed.
    p3 = p1.replace(x_plus0=p1.x_plus0 - 5e-5, x_minus0=p1.x_minus0 + 5e-5)
    assert p3.h_bar_mz == pytest.approx(p1.h_bar_mz)
    assert est.fi_mz_closed(p3, "delta_g") == pytest.approx(est.fi_mz_closed(p1, "delta_g"), rel=1e-9, abs=0)
    assert est.fi_mz_closed(p3, "bar_g") != pytest.approx(est.fi_mz_closed(p1, "bar_g"), rel=1e-3)


# ---------------------------------------------------------------------------
# Parametric pure-state engine
# ---------------------------------------------------------------------------

class QubitPhaseFamily:
    """(|x+> + e^{i v}|x->)/sqrt(2) on well-separated packets: QFI = 1.  It
    supplies its own tangent: the phase v = 0.9 is a ledger jet (v, 1)."""

    def __init__(self, params):
        self.params = params

    def tangent(self):
        return self

    def phase(self):
        return ga.Jet(np.longdouble(0.9), np.longdouble(1.0))

    def make_state(self):
        p = self.params
        return ga.ClockState((
            ga.GaussianBranch(1 / math.sqrt(2), ga.empty_ledger(p.x0), p.x_plus,
                              p.sigma**2, 0.0, 0, "plus"),
            ga.GaussianBranch(1 / math.sqrt(2), ga.PhaseLedger.make({"v": self.phase()}, 0.0, p.x0),
                              p.x_minus, p.sigma**2, 0.0, 0, "minus"),
        ))


class FrozenFamily(QubitPhaseFamily):
    def phase(self):
        return 0.25


def test_parametric_qubit_family_unit_qfi(sr88_10s):
    fam = QubitPhaseFamily(sr88_10s)
    assert est.qfi_pure_parametric(fam) == pytest.approx(1.0, abs=1e-9)


def test_parametric_parameter_independent_zero(sr88_10s):
    fam = FrozenFamily(sr88_10s)
    assert est.qfi_pure_parametric(fam) == pytest.approx(0.0, abs=1e-12)


def test_parametric_vs_closed_free_fall(sr88_10s, crosscheck_params):
    for p in [sr88_10s, *crosscheck_params[:4]]:
        sc = est.Scenario("free_fall", p, "g")
        closed = est.qfi_ff_closed(p)
        assert est.qfi_pure_parametric(sc) == pytest.approx(closed, rel=5e-3)


def test_parametric_vs_closed_mz(sr88_10s):
    for target in ("delta_g", "bar_g"):
        sc = est.Scenario("mach_zehnder", sr88_10s, target)
        closed = est.qfi_mz_closed(sr88_10s, target)
        assert est.qfi_pure_parametric(sc) == pytest.approx(closed, rel=1e-2)


def test_parametric_invariant_under_phase_shifter(sr88_10s):
    a = est.qfi_pure_parametric(est.Scenario("free_fall", sr88_10s, "g"))
    b = est.qfi_pure_parametric(
        est.Scenario("free_fall", sr88_10s.replace(phi=1.1), "g"))
    assert a == pytest.approx(b, rel=1e-8)


@pytest.mark.parametrize("target,dt", [(t, dt) for t in ("delta_g", "bar_g")
                                       for dt in (5.0, 10.0, 30.0)])
def test_parametric_vs_closed_mz_sample_exact(target, dt):
    """On sr88_mz.cfg the tangents meet the closed form to rounding.  The
    central-difference stencil was 9.35e-6 off on delta_g: with_value forms
    g_pm = bar_g -+ delta_g / 2 in float64, so the step the map saw was
    3.5e-6 shorter than the one the stencil divided by."""
    params = core.params_from_config(core.load_config(CONFIG_DIR / "sr88_mz.cfg"))
    sc = est.Scenario("mach_zehnder", params.replace(dt=dt), target)
    assert est.qfi_pure_parametric(sc) == pytest.approx(est.closed_qfi(sc), rel=1e-12, abs=0)


@pytest.mark.parametrize("dt", [1e3, 1e4, 3e4, 1e5])
def test_parametric_vs_closed_free_fall_long_dt(dt):
    """Free fall far past the sample sweep: the stencil's gap grew to 1.1e-3
    at 1e5 s; the tangents stay within 1e-6."""
    params = core.params_from_config(core.load_config(CONFIG_DIR / "sr88_freefall.cfg"))
    sc = est.Scenario("free_fall", params.replace(dt=dt), "g")
    assert est.qfi_pure_parametric(sc) == pytest.approx(est.closed_qfi(sc), rel=1e-6, abs=0)


@pytest.mark.parametrize("dt", [1e3, 1e4, 3e4, 1e5])
def test_fi_numeric_vs_closed_at_quadrature_long_dt(dt):
    """The stencil's FI was 5.9e-6 off fi_closed at 1e3 and 1e4 s, 5.6e-5 at
    3e4 s and 7.0e-4 at 1e5 s."""
    params = core.params_from_config(core.load_config(CONFIG_DIR / "sr88_freefall.cfg"))
    p = params.replace(dt=dt)
    sc = est.Scenario("free_fall", p.replace(phi=est.quadrature_phi(p)), "g")
    assert est.fi_numeric(sc) == pytest.approx(est.closed_fi(sc), rel=1e-6, abs=0)


@pytest.mark.parametrize("engine", [est.qfi_pure_parametric, est.reduced_qfi_bloch,
                                    est.fi_numeric])
@pytest.mark.parametrize("kind,target", [("free_fall", "g"), ("mach_zehnder", "delta_g"),
                                         ("mach_zehnder", "bar_g")])
def test_engines_evolve_at_most_twice_per_point(sr88_10s, monkeypatch, engine, kind, target):
    """Each engine evaluates one point: the stencils evolved 5 states per
    parametric point and 10 per FI point (the state and its detector
    reference at the centre and at +-h, +-h/2)."""
    calls = []
    evolve = ga.evolve_state
    monkeypatch.setattr(est, "evolve_state", lambda *args: calls.append(args) or evolve(*args))
    engine(est.Scenario(kind, sr88_10s, target))
    assert 1 <= len(calls) <= 2


def test_jet_evolution_keeps_the_plain_values(sr88_10s):
    """The tangent run computes every value exactly as the plain one."""
    for kind, target in (("free_fall", "g"), ("mach_zehnder", "delta_g")):
        sc = est.Scenario(kind, sr88_10s, target)
        for plain, jet in zip(sc.make_state().components, sc.tangent().make_state().components):
            assert ga.split(jet.mean_x)[0] == plain.mean_x
            assert ga.split(jet.ledger.slope)[0] == plain.ledger.slope
            assert [ga.split(t)[0] for _, t in jet.ledger.terms] \
                == [t for _, t in plain.ledger.terms]


# ---------------------------------------------------------------------------
# Qubit reduction and the qubit (Bloch-vector) engine
# ---------------------------------------------------------------------------

def test_reduce_to_qubit_dt_zero(sr88_10s):
    p = sr88_10s.replace(dt=0.0)
    assert est.reduce_to_qubit(ga.make_initial_state(p), p) == (0.0, 0.0)
    sc = est.Scenario("free_fall", p, "g")
    # Both levels in phase: the path qubit is the pure state r = (1, 0).
    assert est.reduced_bloch_vector(sc)(p.g).tolist() == [1.0, 0.0]


def test_reduce_to_qubit_global_phase_invariance(sr88_10s):
    """A constant added to every branch ledger changes nothing observable."""
    p = sr88_10s
    state = ga.evolve_state(ga.make_initial_state(p), p, "free_fall")
    shifted = ga.ClockState(tuple(
        ga.GaussianBranch(
            b.amplitude,
            ga.PhaseLedger.make(dict(b.ledger.terms) | {"common": 137.5},
                                b.ledger.slope, b.ledger.x_ref),
            b.mean_x, b.var_x, b.chirp, b.internal_level, b.path_label)
        for b in state.components))
    q0 = est.reduce_to_qubit(state, p)
    q1 = est.reduce_to_qubit(shifted, p)
    assert q0 == pytest.approx(q1, abs=1e-12)
    assert est.detection_probabilities(state, p) == pytest.approx(
        est.detection_probabilities(shifted, p), abs=1e-14)


def test_reduce_to_qubit_interference_phase_extended_precision(sr88_10s):
    """gamma_i matches an independent mpmath evaluation to 1e-10 rad."""
    p = sr88_10s
    state = ga.evolve_state(ga.make_initial_state(p), p, "free_fall")
    gammas = est.reduce_to_qubit(state, p)
    for level, e_i in ((0, p.e0), (1, p.e1)):
        z = mp.mpf(e_i) / (mp.mpf(p.m) * mp.mpf(p.c) ** 2)
        gamma_ref = mp.mpf(p.m) * mp.mpf(p.g) * (1 + z) * mp.mpf(p.dt) \
            * mp.mpf(p.h) / mp.mpf(p.hbar)
        gamma_ref = float(mp.fmod(gamma_ref + mp.pi, 2 * mp.pi) - mp.pi)
        got = gammas[level]
        delta = (got - gamma_ref + math.pi) % (2 * math.pi) - math.pi
        assert abs(delta) < 1e-10


def test_qubit_parameter_independent_zero():
    assert est.qubit_qfi([0.3, -0.2, 0.1], [0.0, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)


def test_qubit_pure_rotation_unit_rate():
    """A pure qubit rotating at unit rate about z: QFI = |dr/dv|^2 = 1."""
    v = 0.7
    r, dr = [math.cos(v), math.sin(v), 0.0], [-math.sin(v), math.cos(v), 0.0]
    # |r| = 1: the mixed-state term is dropped and reported.
    with pytest.warns(UserWarning, match="taken as pure"):
        got = est.qubit_qfi(r, dr)
    assert got == pytest.approx(1.0, rel=1e-8)


def test_bloch_vs_reduced_closed(sr88_10s, crosscheck_params):
    for p in [sr88_10s, crosscheck_params[4]]:
        sc = est.Scenario("free_fall", p, "g")
        closed = est.qfi_ff_reduced_closed(p)
        assert est.reduced_qfi_bloch(sc) == pytest.approx(closed, rel=1e-2)
    for target in ("delta_g", "bar_g"):
        sc = est.Scenario("mach_zehnder", sr88_10s, target)
        closed = est.qfi_mz_reduced_closed(sr88_10s, target)
        assert est.reduced_qfi_bloch(sc) == pytest.approx(closed, rel=1e-2)


# ---------------------------------------------------------------------------
# Detection probabilities and classical FI
# ---------------------------------------------------------------------------

def test_probabilities_bare_interferometer():
    for phi in (0.0, 0.4, 2.0):
        p = core.build_params(m=1e-25, e0=0.0, e1=0.0, g=9.81, x_plus=0.51,
                              x_minus=0.50, x0=0.505, sigma=1e-4, dt=10.0, phi=phi)
        state = ga.evolve_state(ga.make_initial_state(p), p, "free_fall")
        got = est.detection_probabilities(state, p)
        assert got[0] == pytest.approx(0.5 * (1 + math.cos(phi)), abs=1e-12)
        assert got[0] + got[1] == 1.0


def test_probabilities_clock_visibility_loss(sr88_10s):
    """With the fast beat at quarter period the fringes wash out entirely."""
    p = sr88_10s
    dt_half = math.pi * p.hbar * p.c**2 / ((p.e1 - p.e0) * p.delta_v_ff)
    pq = p.replace(dt=dt_half)
    for phi in (0.0, 0.7, 1.9):
        pp = pq.replace(phi=phi)
        state = ga.evolve_state(ga.make_initial_state(pp), pp, "free_fall")
        got = est.detection_probabilities(state, pp)
        assert got[0] == pytest.approx(0.5, abs=1e-6)


def test_probabilities_match_two_cosine_form(sr88_10s, crosscheck_params):
    for p in [sr88_10s.replace(phi=0.3), crosscheck_params[7]]:
        state = ga.evolve_state(ga.make_initial_state(p), p, "free_fall")
        got = est.detection_probabilities(state, p)
        a = (p.e1 - p.e0) * p.delta_v_ff * p.dt / (2 * p.hbar * p.c**2)
        b = 0.5 * (p.e0 + p.e1) * p.delta_v_ff * p.dt / (p.hbar * p.c**2) + p.phi
        assert got[0] == pytest.approx(0.5 * (1 + math.cos(a) * math.cos(b)), abs=1e-9)
        assert got[0] + got[1] == 1.0


def test_probabilities_mz_form_and_grid(sr88_10s):
    """Trapped-arm probabilities follow the same two-cosine law with the
    piecewise potential difference, and match the grid projection."""
    from gravclock import oracle as orc
    p = sr88_10s.replace(phi=0.5)
    state = ga.evolve_state(ga.make_initial_state(p), p, "mach_zehnder")
    got = est.detection_probabilities(state, p, "mach_zehnder")
    a = (p.e1 - p.e0) * p.delta_v_mz * p.dt / (2 * p.hbar * p.c**2)
    b = 0.5 * (p.e0 + p.e1) * p.delta_v_mz * p.dt / (p.hbar * p.c**2) + p.phi
    assert got[0] == pytest.approx(0.5 * (1 + math.cos(a) * math.cos(b)), abs=1e-9)
    assert got[0] + got[1] == 1.0
    psi = orc.render(state, orc.grid_for_states(state))
    grid_probs = orc.probabilities_numeric(psi, p, "mach_zehnder")
    assert grid_probs[0] == pytest.approx(got[0], abs=1e-6)
    assert grid_probs[1] == pytest.approx(got[1], abs=1e-6)


def test_scenario_validation():
    p = core.SR88_10S
    with pytest.raises(ValueError, match="not available"):
        est.Scenario("free_fall", p, "delta_g")
    with pytest.raises(ValueError, match="unknown scenario"):
        est.Scenario("pendulum", p, "g")


def test_classical_fi_analytic_family():
    alpha, lam = 3.7, 1.1
    c, s = math.cos(alpha * lam), math.sin(alpha * lam)
    p, dp = (0.5 * (1 + c), 0.5 * (1 - c)), (-0.5 * alpha * s, 0.5 * alpha * s)
    assert est.classical_fi(p, dp) == pytest.approx(alpha**2, rel=1e-9)


def test_classical_fi_constant_distribution():
    assert est.classical_fi((0.25, 0.75), (0.0, 0.0)) == 0.0


def test_classical_fi_negative_probability_error():
    with pytest.raises(ValueError, match="negative"):
        est.classical_fi((-0.1, 1.1), (0.0, 0.0))


def test_classical_fi_excludes_tiny_outcomes():
    tiny, v = 1e-17, 0.8
    p = (tiny, 0.5 * (1 - tiny) * (1 + math.cos(v)), 0.5 * (1 - tiny) * (1 - math.cos(v)))
    dp = (0.0, -0.5 * (1 - tiny) * math.sin(v), 0.5 * (1 - tiny) * math.sin(v))
    with pytest.warns(UserWarning, match="excluded"):
        got = est.classical_fi(p, dp)
    assert got == pytest.approx(1.0, rel=1e-6)


def test_fi_numeric_vs_closed_at_quadrature(sr88_10s):
    phi_q = est.quadrature_phi(sr88_10s)
    p = sr88_10s.replace(phi=phi_q)
    sc = est.Scenario("free_fall", p, "g")
    assert est.fi_numeric(sc) == pytest.approx(est.fi_ff_closed(p), rel=1e-2)
    for target in ("delta_g", "bar_g"):
        pm = sr88_10s.replace(phi=est.quadrature_phi(sr88_10s, "mach_zehnder"))
        scm = est.Scenario("mach_zehnder", pm, target)
        assert est.fi_numeric(scm) == pytest.approx(est.fi_mz_closed(pm, target), rel=1e-2)


def test_fi_numeric_off_quadrature_reports_both(sr88_10s):
    """Away from quadrature the slow-fringe derivative adds information:
    the numeric FI exceeds the time-dilation-only closed form."""
    sc = est.Scenario("free_fall", sr88_10s, "g")   # phi = 0
    assert est.fi_numeric(sc) > est.fi_ff_closed(sr88_10s)


# ---------------------------------------------------------------------------
# Information ordering and ablation
# ---------------------------------------------------------------------------

def test_information_chain_free_fall(sr88_10s, crosscheck_params):
    for p in [sr88_10s, *crosscheck_params[:3]]:
        sc = est.Scenario("free_fall", p, "g")
        fi = est.fi_ff_closed(p)
        red = est.qfi_ff_reduced_closed(p)
        bloch = est.reduced_qfi_bloch(sc)
        full = est.qfi_pure_parametric(sc)
        assert fi <= red * (1 + 1e-6)
        assert bloch <= full * (1 + 1e-2)
        assert red <= full * (1 + 1e-6)


def test_information_chain_mz(sr88_10s):
    for target in ("delta_g", "bar_g"):
        fi = est.fi_mz_closed(sr88_10s, target)
        red = est.qfi_mz_reduced_closed(sr88_10s, target)
        full = est.qfi_mz_closed(sr88_10s, target)
        assert fi <= red * (1 + 1e-6)
        assert red <= full * (1 + 1e-6)


def test_ablation_kills_clock_terms(sr88_10s):
    p = sr88_10s.replace(ablate_time_dilation=True)
    assert est.qfi_ff_asymptotic(p) == 0.0
    assert est.fi_ff_closed(p) == 0.0
    assert est.qfi_mz_closed(p, "bar_g") == 0.0
    expected = est.qfi_ff_closed(sr88_10s.replace(e0=0.0, e1=0.0))
    assert est.qfi_ff_closed(p) == pytest.approx(expected, rel=1e-14)


def test_all_closed_forms_nonnegative(crosscheck_params):
    for p in crosscheck_params:
        values = [
            est.qfi_ff_closed(p), est.qfi_ff_asymptotic(p),
            est.qfi_ff_reduced_closed(p), est.fi_ff_closed(p),
            est.qfi_mz_closed(p, "delta_g"), est.qfi_mz_closed(p, "bar_g"),
            est.qfi_mz_reduced_closed(p, "delta_g"), est.qfi_mz_reduced_closed(p, "bar_g"),
            est.fi_mz_closed(p, "delta_g"), est.fi_mz_closed(p, "bar_g"),
        ]
        assert all(v >= 0.0 for v in values)


def test_report_json_field_names(sr88_10s):
    report = est.EstimationReport(parameter_name="g", qfi_closed=2.0).finalize()
    payload = report.to_json()
    for name in ("parameter_name", "qfi_closed", "qfi_parametric", "qfi_oracle",
                 "qfi_reduced", "fi_closed", "fi_numeric", "crb_single_shot",
                 "method_metadata"):
        assert f'"{name}"' in payload
    assert report.crb_single_shot == 0.5


# ---------------------------------------------------------------------------
# Regression pins and properties
# ---------------------------------------------------------------------------

# qfi_pure_parametric and fi_numeric on the sample configs at three drop
# times, re-recorded when forward-mode tangents replaced the central-difference
# stencils (MZ delta_g parametric moved 9.35e-6, free-fall FI up to 8.3e-8, the
# rest less than 1e-9; see CHANGES.md).
_PINS = {
    ('sr88_freefall', 'g', 5.0): (2248870189588729.5, 2.8001575557381958e-06),
    ('sr88_freefall', 'g', 10.0): (8995668258334950.0, 1.1198365935888806e-05),
    ('sr88_freefall', 'g', 30.0): (8.097901433300605e+16, 0.00010056775114163433),
    ('sr88_mz', 'delta_g', 5.0): (6.145381101315497e-10, 2.8001575547477266e-10),
    ('sr88_mz', 'delta_g', 10.0): (2.691726879747621e-09, 1.1198365932097141e-09),
    ('sr88_mz', 'delta_g', 30.0): (4.664868808298509e-08, 1.0056775122814111e-08),
    ('sr88_mz', 'bar_g', 5.0): (2.0381005062699384e-09, 2.8001575547477266e-10),
    ('sr88_mz', 'bar_g', 10.0): (9.086699781965442e-09, 1.1198365932097141e-09),
    ('sr88_mz', 'bar_g', 30.0): (1.7147288269871495e-07, 1.0056775122814111e-08),
}


@pytest.mark.parametrize("config,target,dt", sorted(_PINS))
def test_parametric_and_fi_numeric_pinned(config, target, dt):
    params = core.params_from_config(core.load_config(CONFIG_DIR / f"{config}.cfg"))
    kind = "free_fall" if target == "g" else "mach_zehnder"
    sc = est.Scenario(kind, params.replace(dt=dt), target)
    qfi, fi = _PINS[(config, target, dt)]
    assert est.qfi_pure_parametric(sc) == pytest.approx(qfi, rel=1e-13, abs=0)
    assert est.fi_numeric(sc) == pytest.approx(fi, rel=1e-13, abs=0)


@st.composite
def _regime_valid_sets(draw):
    """Parameter sets spanning the cross-check matrix ranges."""
    x_plus = draw(st.floats(0.508, 0.520))
    params = _variant(
        m=draw(st.floats(0.8e-25, 1.5e-25)),
        e0=draw(st.floats(0.0, 0.4)) * core.EV,
        e1=draw(st.floats(1.8, 4.0)) * core.EV,
        g=draw(st.floats(9.5, 10.2)),
        x_plus=x_plus,
        x0=0.5 + draw(st.floats(0.2, 0.6)) * (x_plus - 0.5),
        x_plus0=x_plus - draw(st.floats(1e-4, 2e-4)),
        x_minus0=0.5 + draw(st.floats(-2e-4, 1e-4)),
        sigma=draw(st.floats(0.6e-4, 3e-4)),
        dt=draw(st.floats(5.0, 30.0)),
        phi=draw(st.floats(0.0, 1.3)),
    )
    assume(core.check_regime(params).satisfied)
    return params


@settings(max_examples=30, deadline=None)
@given(_regime_valid_sets())
def test_information_chain_and_parametric_property(params):
    for kind, target in (("free_fall", "g"), ("mach_zehnder", "delta_g"),
                         ("mach_zehnder", "bar_g")):
        sc = est.Scenario(kind, params, target)
        fi = est.closed_fi(sc)
        red = est.closed_reduced_qfi(sc)
        full = est.closed_qfi(sc)
        assert fi <= red * (1 + 1e-6)
        assert red <= full * (1 + 1e-6)
        assert est.qfi_pure_parametric(sc) == pytest.approx(full, rel=1e-2)
        assert ga.state_norm_sq(sc.make_state()) == pytest.approx(1.0, abs=1e-9)
        p_plus, p_minus = est.detection_probabilities(sc.make_state(), params, kind)
        assert p_plus + p_minus == 1.0


@pytest.mark.parametrize("config", ["sr88_freefall", "sr88_mz"])
def test_fi_numeric_ablated_is_silent(config):
    """Under ablation P- is exactly 0 at and around the point: no warning."""
    cfg = core.load_config(CONFIG_DIR / f"{config}.cfg")
    params = core.params_from_config(cfg, ablate_time_dilation=True)
    sc = est.Scenario(cfg["scenario.name"], params, cfg["scenario.target"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert est.fi_numeric(sc) == 0.0


def test_bouncer_scenario_has_no_interferometer_routes():
    """The bouncer is a valid Scenario, but the Gaussian routes refuse it."""
    sc = est.Scenario("bouncer", core.params_from_config(
        core.load_config(CONFIG_DIR / "bouncer.cfg")))
    assert sc.value() == sc.params.g
    for route in (est.closed_qfi, est.closed_reduced_qfi, est.closed_fi,
                  est.qfi_pure_parametric, est.fi_numeric, oracle.qfi_numeric):
        with pytest.raises(ValueError):
            route(sc)
