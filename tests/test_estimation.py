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


@pytest.mark.parametrize("h_bar", [100.0, -100.0])
@pytest.mark.parametrize("dt", [1.0, 3.0])
def test_qfi_ff_closed_h_bar_sign_matches_parametric(h_bar, dt):
    """The middle term is (m t dz / hbar)^2 (g dt^2/6 - h_bar)^2, with h_bar the
    branch midpoint less x0.  At z1 = 5e-7 and h_bar = +-100 m the clock term
    is visible: with + h_bar the closed form was 1.63e-6 (1 s) and 1.47e-5
    (3 s) off the parametric engine, with the sign of h_bar."""
    p = _variant(e1=2.8e4 * core.EV, x0=0.505 - h_bar, dt=dt)
    assert p.h_bar == pytest.approx(h_bar, rel=1e-12)
    sc = est.Scenario("free_fall", p, "g")
    assert est.closed_qfi(sc) == pytest.approx(est.qfi_pure_parametric(sc), rel=1e-10, abs=0)


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
    supplies its own tangent: the phase v = 0.9 is a branch-phase jet (v, 1)."""

    def __init__(self, params):
        self.params = params

    def tangent(self):
        return self

    def phase(self):
        return ga.Jet(0.9, 1.0)

    def make_state(self):
        p = self.params
        return ga.ClockState((
            ga.GaussianBranch(1 / math.sqrt(2), 0.0, 0.0, p.x_plus, p.sigma**2, 0.0, 0, "plus"),
            ga.GaussianBranch(1 / math.sqrt(2), self.phase(), 0.0, p.x_minus,
                              p.sigma**2, 0.0, 0, "minus"),
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
    central-difference stencil was 9.35e-6 off on delta_g: it formed
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
    phi_q = est.quadrature_phi(est.Scenario("free_fall", p, "g"))
    sc = est.Scenario("free_fall", p.replace(phi=phi_q), "g")
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
    monkeypatch.setattr(ga, "evolve_state", lambda *args: calls.append(args) or evolve(*args))
    engine(est.Scenario(kind, sr88_10s, target))
    assert 1 <= len(calls) <= 2


@pytest.mark.parametrize("kind,target", [("free_fall", "g"), ("mach_zehnder", "delta_g"),
                                         ("mach_zehnder", "bar_g")])
def test_engines_vanish_at_dt_zero(sr88_10s, kind, target):
    """At dt = 0 the map is the identity, so the state does not depend on the
    target: the parametric QFI, the numeric FI and the qubit QFI are exactly
    0.0.  Both levels are in phase there, so the path qubit is pure and
    reduced_qfi_bloch says it drops the mixed-state term."""
    sc = est.Scenario(kind, sr88_10s.replace(dt=0.0), target)
    assert est.qfi_pure_parametric(sc) == 0.0
    assert est.fi_numeric(sc) == 0.0
    with pytest.warns(UserWarning, match="taken as pure"):
        assert est.reduced_qfi_bloch(sc) == 0.0


def test_jet_evolution_keeps_the_plain_values(sr88_10s):
    """The tangent run computes every value exactly as the plain one."""
    for kind, target in (("free_fall", "g"), ("mach_zehnder", "delta_g")):
        sc = est.Scenario(kind, sr88_10s, target)
        plain, jet = sc.make_state(), sc.tangent().make_state()
        for field in ("origin", "phase", "slope"):
            assert ga.split(getattr(jet.frame, field))[0] == getattr(plain.frame, field)
        for b, b_jet in zip(plain.components, jet.components):
            for field in ("mean_x", "phase", "slope"):
                assert ga.split(getattr(b_jet, field))[0] == getattr(b, field)


@pytest.mark.parametrize("kind,target,var,lo,hi", [
    ("free_fall", "g", "dt", 0.0, 300.0), ("free_fall", "g", "sigma", 1e-6, 1e-3),
    ("free_fall", "g", "g", -50.0, 50.0), ("mach_zehnder", "delta_g", "dt", 0.0, 50.0),
    ("mach_zehnder", "bar_g", "sigma", 3e-5, 5e-4)])
def test_jet_engines_on_a_column_equal_each_row(sr88_10s, kind, target, var, lo, hi):
    """On a column scenario the two jet engines give every row bit for bit its
    value on that row's plain scalars.  numpy's array loops round complex
    products and quotients, abs and float ** differently from Python's scalars
    (in up to ~40% of random operands, ~0.1% for x**2), so 600 random rows per
    sweep variable catch an array pass that leaves Python's arithmetic."""
    values = np.random.default_rng(31).uniform(lo, hi, 600)
    column = est.Scenario(kind, sr88_10s, target).column(var, values)
    rows = [est.Scenario(kind, sr88_10s.replace(**{var: v}), target) for v in values.tolist()]
    for engine in (est.qfi_pure_parametric, est.fi_numeric):
        assert np.broadcast_to(engine(column), values.shape).tolist() == list(map(engine, rows))


# ---------------------------------------------------------------------------
# Qubit reduction and the qubit (Bloch-vector) engine
# ---------------------------------------------------------------------------

def test_reduce_to_qubit_dt_zero(sr88_10s):
    p = sr88_10s.replace(dt=0.0)
    sc = est.Scenario("free_fall", p, "g")
    assert est.reduce_to_qubit(sc) == (0.0, 0.0)
    # Both levels in phase: the path qubit is the pure state r = (1, 0).
    assert est._bloch(sc)[0].tolist() == [1.0, 0.0]


def test_reduce_to_qubit_global_phase_invariance(sr88_10s, monkeypatch):
    """A constant added to every branch phase changes nothing observable."""
    sc = est.Scenario("free_fall", sr88_10s, "g")
    state = sc.make_state()
    shifted = ga.ClockState(tuple(
        ga.GaussianBranch(b.amplitude, b.phase + 137.5, b.slope, b.mean_x, b.var_x, b.chirp,
                          b.internal_level, b.path_label)
        for b in state.components), state.frame)
    q0 = est.reduce_to_qubit(sc)
    p0 = est.detection_probabilities(sc)
    monkeypatch.setattr(est.Scenario, "make_state", lambda self, offset=None: shifted)
    q1 = est.reduce_to_qubit(sc)
    assert q0 == pytest.approx(q1, abs=1e-12)
    assert p0 == pytest.approx(est.detection_probabilities(sc), abs=1e-14)


def test_reduce_to_qubit_interference_phase_extended_precision(sr88_10s):
    """gamma_1 - gamma_0 matches an independent mpmath evaluation to 1e-10 rad:
    each gamma_i is the frame's path phase, m g dt h / hbar = 9.3e8 rad, one
    float for both levels, plus the level's exact difference.  Each gamma_i
    alone is off by that float's rounding, 1.6e-7 rad, which rotates the Bloch
    vector and its derivative together and so changes no QFI."""
    p = sr88_10s
    gammas = est.reduce_to_qubit(est.Scenario("free_fall", p, "g"))
    refs = []
    for level, e_i in ((0, p.e0), (1, p.e1)):
        z = mp.mpf(e_i) / (mp.mpf(p.m) * mp.mpf(p.c) ** 2)
        refs.append(mp.mpf(p.m) * mp.mpf(p.g) * (1 + z) * mp.mpf(p.dt) * mp.mpf(p.h) / mp.mpf(p.hbar))
    for got, ref, tol in ((gammas[0], refs[0], 3e-7), (gammas[1], refs[1], 3e-7),
                          (gammas[1] - gammas[0], refs[1] - refs[0], 1e-10)):
        delta = float(mp.fmod(mp.mpf(got) - ref + mp.pi, 2 * mp.pi) - mp.pi)
        assert abs(delta) < tol


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
        got = est.detection_probabilities(est.Scenario("free_fall", p, "g"))
        assert got[0] == pytest.approx(0.5 * (1 + math.cos(phi)), abs=1e-12)
        assert got[0] + got[1] == 1.0


def test_probabilities_clock_visibility_loss(sr88_10s):
    """With the fast beat at quarter period the fringes wash out entirely."""
    p = sr88_10s
    dt_half = math.pi * p.hbar * p.c**2 / ((p.e1 - p.e0) * p.delta_v_ff)
    pq = p.replace(dt=dt_half)
    for phi in (0.0, 0.7, 1.9):
        pp = pq.replace(phi=phi)
        got = est.detection_probabilities(est.Scenario("free_fall", pp, "g"))
        assert got[0] == pytest.approx(0.5, abs=1e-6)


def test_probabilities_match_two_cosine_form(sr88_10s, crosscheck_params):
    for p in [sr88_10s.replace(phi=0.3), crosscheck_params[7]]:
        got = est.detection_probabilities(est.Scenario("free_fall", p, "g"))
        a = (p.e1 - p.e0) * p.delta_v_ff * p.dt / (2 * p.hbar * p.c**2)
        b = 0.5 * (p.e0 + p.e1) * p.delta_v_ff * p.dt / (p.hbar * p.c**2) + p.phi
        assert got[0] == pytest.approx(0.5 * (1 + math.cos(a) * math.cos(b)), abs=1e-9)
        assert got[0] + got[1] == 1.0


def test_probabilities_mz_form_and_grid(sr88_10s):
    """Trapped-arm probabilities follow the same two-cosine law with the
    piecewise potential difference, and match the grid projection."""
    from gravclock import oracle as orc
    p = sr88_10s.replace(phi=0.5)
    sc = est.Scenario("mach_zehnder", p, "delta_g")
    state = sc.make_state()
    got = est.detection_probabilities(sc)
    a = (p.e1 - p.e0) * p.delta_v_mz * p.dt / (2 * p.hbar * p.c**2)
    b = 0.5 * (p.e0 + p.e1) * p.delta_v_mz * p.dt / (p.hbar * p.c**2) + p.phi
    assert got[0] == pytest.approx(0.5 * (1 + math.cos(a) * math.cos(b)), abs=1e-9)
    assert got[0] + got[1] == 1.0
    psi = orc.render(state, orc.grid_for_states(state))
    grid_probs = orc.probabilities_numeric(psi, sc)
    assert grid_probs[0] == pytest.approx(got[0], abs=1e-6)
    assert grid_probs[1] == pytest.approx(got[1], abs=1e-6)


def test_scenario_validation():
    p = core.SR88_10S
    with pytest.raises(ValueError, match="free_fall estimates g"):
        est.Scenario("free_fall", p, "delta_g")
    with pytest.raises(ValueError, match="unknown scenario"):
        est.Scenario("pendulum", p, "g")


def test_scenario_target_defaults_to_the_kinds_first():
    """A Scenario built without a target estimates its kind's first target, as
    TARGETS says; the Mach-Zehnder used to default to g and raise ConfigError."""
    for kind, targets in core.TARGETS.items():
        assert est.Scenario(kind, core.SR88_10S).target == targets[0]
    with pytest.raises(core.ConfigError, match="unknown scenario"):
        est.Scenario("pendulum", core.SR88_10S)


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
    phi_q = est.quadrature_phi(est.Scenario("free_fall", sr88_10s, "g"))
    p = sr88_10s.replace(phi=phi_q)
    sc = est.Scenario("free_fall", p, "g")
    assert est.fi_numeric(sc) == pytest.approx(est.fi_ff_closed(p), rel=1e-2)
    for target in ("delta_g", "bar_g"):
        phi_mz = est.quadrature_phi(est.Scenario("mach_zehnder", sr88_10s, target))
        pm = sr88_10s.replace(phi=phi_mz)
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
# stencils, when the MZ anchors lost their constant offset, and when every
# phase became a float64 exact difference from the clock-free frame: the
# free-fall parametric QFI moved at most 4.4e-11 and the free-fall FI at most
# 6.7e-10, both toward the closed form and mpmath; the MZ values at most 4e-15
# (see CHANGES.md).
_PINS = {
    ('sr88_freefall', 'g', 5.0): (2248870189586434.5, 2.800157554731977e-06),
    ('sr88_freefall', 'g', 10.0): (8995668258351352.0, 1.1198365931861112e-05),
    ('sr88_freefall', 'g', 30.0): (8.097901432947408e+16, 0.00010056775120863417),
    ('sr88_mz', 'delta_g', 5.0): (6.145381101315485e-10, 2.8001575547326114e-10),
    ('sr88_mz', 'delta_g', 10.0): (2.691726879747616e-09, 1.1198365931854966e-09),
    ('sr88_mz', 'delta_g', 30.0): (4.664868808298508e-08, 1.0056775120862822e-08),
    ('sr88_mz', 'bar_g', 5.0): (2.038100506269933e-09, 2.800157554732561e-10),
    ('sr88_mz', 'bar_g', 10.0): (9.08669978196542e-09, 1.119836593185476e-09),
    ('sr88_mz', 'bar_g', 30.0): (1.714728826987149e-07, 1.00567751208627e-08),
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
        p_plus, p_minus = est.detection_probabilities(sc)
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


# ---------------------------------------------------------------------------
# Mach-Zehnder against mpmath with the exact potential difference
# ---------------------------------------------------------------------------

def _mz_mp(p, target):
    """mpmath (E0, E1, dt / (hbar c^2), delta_v_mz, d delta_v_mz / d target) of a
    Mach-Zehnder set, the anchors g (x_pm0 - x0) held fixed.  The derivative is
    the target's lever: -h_bar_mz for delta_g, delta_h for bar_g."""
    f = mp.mpf
    h_plus, h_minus = f(p.x_plus) - f(p.x_plus0), f(p.x_minus) - f(p.x_minus0)
    dv = f(p.g_plus) * h_plus + f(p.g) * (f(p.x_plus0) - f(p.x0)) \
        - f(p.g_minus) * h_minus - f(p.g) * (f(p.x_minus0) - f(p.x0))
    ddv = -(h_plus + h_minus) / 2 if target == "delta_g" else h_plus - h_minus
    return f(p.e0), f(p.e1), f(p.dt) / (f(p.hbar) * f(p.c) ** 2), dv, ddv


def _mz_params(dt):
    return core.params_from_config(core.load_config(CONFIG_DIR / "sr88_mz.cfg")).replace(dt=dt)


@pytest.mark.parametrize("target", ["delta_g", "bar_g"])
def test_mz_reduced_closed_against_mpmath(target):
    """qfi_mz_reduced_closed at 10 s within 1e-14 of its mpmath value with the
    exact potential difference (4.6e-11 off while the anchors carried V0)."""
    p = _mz_params(10.0)
    e0, e1, k, dv, lever = _mz_mp(p, target)
    ref = ((e1 - e0) * lever * k / 2) ** 2 \
        + ((e0 + e1) / 2 * lever * k) ** 2 * mp.cos((e1 - e0) * dv * k / 2) ** 2
    got = est.closed_reduced_qfi(est.Scenario("mach_zehnder", p, target))
    assert abs(got / ref - 1) <= 1e-14


@pytest.mark.parametrize("target", ["delta_g", "bar_g"])
@pytest.mark.parametrize("dt", [5.0, 10.0, 30.0])
def test_mz_fi_numeric_against_two_cosine_mpmath(target, dt):
    """fi_numeric within 1e-12 of the two-cosine detector model in mpmath,
    P_pm = 1/2 +- (cos gamma_0 + cos gamma_1) / 4 with gamma_i = E_i dv dt / (hbar c^2)
    and the exact potential difference dv (5.7e-12 to 1.9e-10 off with V0)."""
    p = _mz_params(dt)
    e0, e1, k, dv, ddv = _mz_mp(p, target)
    gammas = [e * dv * k for e in (e0, e1)]
    p_plus = mp.mpf(0.5) + sum(mp.cos(g) for g in gammas) / 4
    dp = -sum(mp.sin(g) * e * ddv * k for g, e in zip(gammas, (e0, e1))) / 4
    ref = dp**2 / p_plus + dp**2 / (1 - p_plus)
    got = est.fi_numeric(est.Scenario("mach_zehnder", p, target))
    assert abs(got / ref - 1) <= 1e-12


@pytest.mark.parametrize("config,target", [("sr88_freefall", "g"), ("sr88_mz", "delta_g"),
                                           ("sr88_mz", "bar_g")])
def test_every_ledger_term_is_observable(config, target):
    """Each branch's phase and slope, and the frame's, depend on the target or
    differ between the two paths of its level: a phase that does neither (a
    rest energy, a constant potential) shifts one level by a constant no route
    can see.  One that is zero on both paths (level 0's clock part at E0 = 0)
    is no phase at all."""
    params = core.params_from_config(core.load_config(CONFIG_DIR / f"{config}.cfg"))
    kind = "free_fall" if target == "g" else "mach_zehnder"
    state = est.Scenario(kind, params, target).tangent().make_state()
    for name in ("phase", "slope"):
        value, d = ga.split(getattr(state.frame, name))
        assert d != 0 or value == 0, name
        for level in (0, 1):
            plus, minus = (getattr(state.branch(path, level), name) for path in ("plus", "minus"))
            (v_p, d_p), (v_m, d_m) = ga.split(plus), ga.split(minus)
            assert d_p != 0 or d_m != 0 or v_p != v_m or v_p == v_m == 0, (level, name)
