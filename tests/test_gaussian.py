"""Branch algebra, evolution maps, overlaps, and their brute-force oracles."""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gravclock import core, gaussian as ga

mp.mp.dps = 40


def _toy_params(z1=3e-7, dt=0.6, **kw):
    """Natural-unit parameters where propagator quadrature is tractable."""
    base = dict(
        m=1.0, e0=0.0, e1=z1 * 1.0 * 100.0**2, g=1.7,
        x_plus=3.0, x_minus=0.5, x0=0.3, sigma=0.8, dt=dt, phi=0.0,
    )
    base.update(kw)
    p = core.build_params(**base)
    return p.replace(c=100.0, hbar=1.0)


# ---------------------------------------------------------------------------
# Difference-carrying values
# ---------------------------------------------------------------------------

def test_ledger_diff_term_by_term():
    """Phases are carried as Diffs of a shared reference part and an exact
    difference: a shared huge part cancels exactly, leaving the small
    difference, which one float64 sum would lose to ulp(4.25e16) = 8 rad."""
    big = 4.25e16
    a, b = ga.Diff(big, 0.5), ga.Diff(big, 0.2)
    gap = a - b
    assert gap.v == 0.0 and gap.d == pytest.approx(0.3, abs=1e-16)
    assert (a.v + a.d) - (b.v + b.d) != pytest.approx(0.3, abs=0.1)
    # Wrapped part by part, a Diff keeps its difference to float64 accuracy.
    assert ga.wrap_angle(ga.Diff(2 * math.pi * 2**20, 0.3)) == pytest.approx(0.3, abs=1e-9)


_finite = st.floats(-1e6, 1e6).filter(lambda x: x == 0.0 or abs(x) > 1e-60)   # no underflow


@settings(max_examples=200, deadline=None)
@given(_finite, _finite, _finite, _finite)
def test_diff_product_keeps_exact_difference(a, da, b, db):
    """The product's difference, a db + da b + da db, is (a + da)(b + db) - a b to
    within 3 ulp of its addends (checked against exact rationals): no
    cancellation against the reference product a b, however large."""
    prod = ga.Diff(a, da) * ga.Diff(b, db)
    assert prod.v == a * b
    exact = (Fraction(a) + Fraction(da)) * (Fraction(b) + Fraction(db)) - Fraction(a) * Fraction(b)
    scale = abs(a * db) + abs(da * b) + abs(da * db)
    assert abs(Fraction(prod.d) - exact) <= 3 * np.finfo(float).eps * Fraction(scale)
    total = ga.Diff(a, da) + ga.Diff(b, db) * 2.0
    assert (total.v, total.d) == (a + 2.0 * b, da + 2.0 * db)


def test_no_rest_mass_term_in_any_ledger(sr88_10s):
    """A branch keeps only its exact difference from the clock-free frame: no
    rest-energy phase (m c^2 dt / hbar ~ 8.5e26 rad at 10 s) and not the
    frame's cubic action (1.5e13 rad), which every branch shares."""
    state = ga.evolve_state(sr88_10s, "free_fall")
    assert abs(state.frame.phase) > 1e13
    for b in state.components:
        assert abs(b.phase) < 1e4 and abs(b.slope) < 10.0


# ---------------------------------------------------------------------------
# Initial state: the state at dt = 0
# ---------------------------------------------------------------------------

def test_initial_amplitudes_phi_zero(sr88_10s):
    state = ga.evolve_state(sr88_10s.replace(dt=0.0), "free_fall")
    assert len(state.components) == 4
    assert state.frame == ga.Frame(sr88_10s.x0, 0.0, 0.0)
    for b in state.components:
        assert b.amplitude == pytest.approx(0.5)
        assert b.slope == 0.0 and b.var_x == sr88_10s.sigma**2


def test_initial_amplitudes_phi_pi(sr88_10s):
    state = ga.evolve_state(sr88_10s.replace(phi=math.pi, dt=0.0), "free_fall")
    for b in state.components:
        if b.path_label == "minus":
            assert b.amplitude.real == pytest.approx(-0.5, abs=1e-15)


def test_initial_norm_includes_overlap(sr88_10s):
    assert ga.state_norm_sq(ga.evolve_state(sr88_10s.replace(dt=0.0), "free_fall")) \
        == pytest.approx(1.0, abs=1e-12)
    # Strongly overlapping geometry: the cross term is visible and signed.
    p = _toy_params(x_plus=1.5, x_minus=0.5, sigma=0.8, dt=0.0)
    expected = 1.0 + math.exp(-(1.0) ** 2 / (8 * 0.8**2))
    assert ga.state_norm_sq(ga.evolve_state(p, "free_fall")) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# Free-fall evolution
# ---------------------------------------------------------------------------

def test_freefall_dt_zero_identity(sr88_10s):
    """At dt = 0 either map alone gives the initial state: amplitudes 1/2 and
    e^{i phi}/2, the starting centres (from the frame's origin x0), width
    sigma, and zero chirp, phase and slope, in a frame that has not moved."""
    p = sr88_10s.replace(dt=0.0, phi=0.7)
    for scenario in ("free_fall", "mach_zehnder"):
        state = ga.evolve_state(p, scenario)
        assert [(b.path_label, b.internal_level) for b in state.components] \
            == [("plus", 0), ("plus", 1), ("minus", 0), ("minus", 1)]
        assert state.frame == ga.Frame(p.x0, 0.0, 0.0)
        for b in state.components:
            plus = b.path_label == "plus"
            assert b.amplitude == (0.5 if plus else 0.5 * complex(math.cos(0.7), math.sin(0.7)))
            assert b.mean_x == (p.x_plus if plus else p.x_minus) - p.x0
            assert b.var_x == p.sigma**2
            assert b.chirp == 0.0
            assert b.phase == 0.0 and b.slope == 0.0


def test_freefall_textbook_at_zero_internal_energy():
    p = core.build_params(m=1e-25, e0=0.0, e1=0.0, g=9.81, x_plus=0.51,
                          x_minus=0.50, x0=0.505, sigma=1e-4, dt=1.0)
    state = ga.evolve_state(p, "free_fall")
    b = state.branch("plus", 0)
    assert abs(p.hbar * (state.frame.slope + b.slope)) == pytest.approx(9.81e-25, rel=1e-12, abs=0)
    assert state.frame.origin + b.mean_x == pytest.approx(0.51 - 4.905, rel=1e-12)
    assert b.var_x == pytest.approx(1e-8 + (p.hbar / (2e-25 * 1e-4)) ** 2, rel=1e-12, abs=0)


def test_freefall_momentum_ratio_extended_precision(sr88_10s):
    """The levels' momenta are in the ratio 1 + z_1 : 1 + z_0 (z_0 = 0 here); the
    clock's part z_i is carried as an exact difference, to float64 accuracy."""
    p = sr88_10s
    state = ga.evolve_state(p, "free_fall")
    assert state.branch("plus", 0).slope == 0.0
    ratio = state.branch("plus", 1).slope / state.frame.slope
    ref = float(mp.mpf(p.e1) / (mp.mpf(p.m) * mp.mpf(p.c) ** 2))
    assert ratio == pytest.approx(ref, rel=1e-14, abs=0)


def _propagator_reference(p, level, x_c, xs):
    """Evolve the initial Gaussian with the linear-potential kernel (mpmath).

    Independent of the closed-form map: a straight quadrature of
    K(x,t;x') = sqrt(m*/(2 pi i hbar t)) exp{(i/hbar)[m*(x-x')^2/(2t)
    - F t (x+x')/2 - F^2 t^3/(24 m*)]} against the initial packet, with
    F the potential-energy slope and the potential's value at x = 0,
    -m (1+z) g x0, folded in afterwards.  Like the map, it has no
    rest-energy phase.
    """
    z = p.z_eff(level)
    m_eff = mp.mpf(p.m) / (1 - mp.mpf(z))
    force = mp.mpf(p.m) * (1 + mp.mpf(z)) * mp.mpf(p.g)
    const = -mp.mpf(p.m) * (1 + mp.mpf(z)) * mp.mpf(p.g) * mp.mpf(p.x0)
    t = mp.mpf(p.dt)
    hb = mp.mpf(p.hbar)
    sig = mp.mpf(p.sigma)
    x_c = mp.mpf(x_c)
    norm0 = (2 * mp.pi * sig**2) ** mp.mpf("-0.25")
    pref = mp.sqrt(m_eff / (2 * mp.pi * mp.mpc(0, 1) * hb * t))

    out = []
    for x in xs:
        xm = mp.mpf(x)

        def integrand(xp):
            action = m_eff * (xm - xp) ** 2 / (2 * t) \
                - force * t * (xm + xp) / 2 - force**2 * t**3 / (24 * m_eff)
            return mp.e**(mp.mpc(0, 1) / hb * action) \
                * mp.e**(-(xp - x_c) ** 2 / (4 * sig**2))

        val = pref * norm0 * mp.quad(integrand, [x_c - 14 * sig, x_c, x_c + 14 * sig])
        out.append(complex(val * mp.e**(-mp.mpc(0, 1) * const * t / hb)))
    return np.array(out)


def _lab_values(state, branch, xs):
    """The branch wavefunction at lab positions xs: sampled in its frame, with
    the frame's phase put back."""
    frame = state.frame
    x = np.asarray(xs) - frame.origin
    return ga.wavefunction_values(branch, x) * np.exp(1j * (frame.phase + frame.slope * x))


@pytest.mark.parametrize("z1", [0.0, 3e-7])
def test_freefall_full_map_vs_propagator_quadrature(z1):
    p = _toy_params(z1=z1)
    state = ga.evolve_state(p, "free_fall")
    evolved = state.branch("plus", 1)
    xs = state.frame.origin + evolved.mean_x + np.array([-1.2, -0.4, 0.0, 0.7, 1.5])
    got = _lab_values(state, evolved, xs)
    ref = _propagator_reference(p, 1, p.x_plus, xs)
    # The map drops the constant spreading (Gouy) phase, so compare up to
    # one global phase: the ratio must be constant and unimodular.
    ratio = ref / got
    assert np.max(np.abs(np.abs(ratio) - 1.0)) < 1e-9
    spread = np.max(np.abs(ratio / ratio[0] - 1.0))
    assert spread < 1e-9


def test_freefall_full_map_gouy_phase_value():
    # The dropped constant equals -arctan(eps)/2 with eps = hbar t / (2 m* sigma^2).
    p = _toy_params(z1=0.0)
    state = ga.evolve_state(p, "free_fall")
    evolved = state.branch("plus", 0)
    xs = np.array([state.frame.origin + evolved.mean_x + 0.3])
    ratio = _propagator_reference(p, 0, p.x_plus, xs)[0] / _lab_values(state, evolved, xs)[0]
    eps = p.hbar * p.dt / (2 * p.m * p.sigma**2)
    assert cmath.phase(ratio) == pytest.approx(-0.5 * math.atan(eps), abs=1e-9)


def test_freefall_full_vs_approx_differences(sr88_10s):
    """What the full map keeps beyond first order in z: the O(z) momentum
    boost, and the z^2 pieces of the cubic action and of the fall (against
    mpmath).  In the frame, which falls g dt^2 / 2 with the z-free phase, a
    branch's phase is (m g^2 dt^3 / 6 hbar)(2 z + z^2) and its centre sits
    (g dt^2 / 2) z^2 above its start; at z = 3e-7 a map without the z^2
    terms misses the phase by 1.5e-7."""
    p = sr88_10s
    full = ga.evolve_state(p, "free_fall").branch("plus", 1)
    assert p.hbar * full.slope == pytest.approx(-p.m * p.g * p.dt * p.z1, rel=1e-14, abs=0)
    p = _toy_params(z1=3e-7)
    full = ga.evolve_state(p, "free_fall").branch("plus", 1)
    z = mp.mpf(p.e1) / (mp.mpf(p.m) * mp.mpf(p.c) ** 2)
    g, dt = mp.mpf(p.g), mp.mpf(p.dt)
    phase = mp.mpf(p.m) * g**2 * dt**3 / (6 * mp.mpf(p.hbar)) * (2 * z + z**2)
    assert full.phase == pytest.approx(float(phase), rel=1e-13, abs=0)
    fall = ga._evolved_branch_map(p, "free_fall", 1, False)[0][1]
    assert -fall == pytest.approx(float(g * dt**2 / 2 * z**2), rel=1e-13, abs=0)


# ---------------------------------------------------------------------------
# Mach-Zehnder evolution
# ---------------------------------------------------------------------------

def test_mz_zero_energy_is_pure_spreading():
    p = _toy_params(z1=0.0, m=10.0, x_minus=0.5, x_plus=3.0, x0=1.4,
                    sigma=0.05, dt=0.05)
    out = ga.evolve_state(p, "mach_zehnder").branch("plus", 1)
    assert out.mean_x == p.x_plus - p.x0
    assert out.slope == 0.0 and out.phase == 0.0
    assert out.var_x > p.sigma**2 and out.chirp > 0


def test_mz_straddle_error(sr88_10s):
    p = sr88_10s.replace(x0=sr88_10s.x_minus + 1e-5)
    with pytest.raises(core.ParamsError, match="straddles"):
        ga.evolve_state(p, "mach_zehnder")


def test_mz_straddle_rule_is_core_kink_clearance(sr88_10s):
    """evolve_state refuses a Mach-Zehnder state exactly where
    core.require_kink_clearance refuses its parameters, on both sides of the
    boundary min |x_pm - x0| = 5 Sigma, at dt = 0 as at dt = 10 s."""
    refused = []
    for dt in (0.0, 10.0):
        for sigma in np.linspace(0.99e-3, 1.01e-3, 41):
            p = sr88_10s.replace(sigma=float(sigma), dt=dt)
            try:
                core.require_kink_clearance(p)
                by_core = False
            except core.ParamsError:
                by_core = True
            try:
                ga.evolve_state(p, "mach_zehnder")
                by_map = False
            except core.ParamsError:
                by_map = True
            assert by_core == by_map, (dt, sigma)
            refused.append(by_core)
    assert any(refused) and not all(refused)


def test_mz_path_phase_difference_extended_precision(sr88_10s):
    """The phase difference between arms at their starts matches a direct
    mpmath evaluation; the frame is trivial, so it is all the branches'."""
    p = sr88_10s
    state = ga.evolve_state(p, "mach_zehnder")
    assert state.frame == ga.Frame(p.x0, 0.0, 0.0)
    for level, e_i in ((0, p.e0), (1, p.e1)):
        bp, bm = state.branch("plus", level), state.branch("minus", level)
        got = (bm.phase + bm.slope * (p.x_minus - p.x0)) - (bp.phase + bp.slope * (p.x_plus - p.x0))
        v_p = mp.mpf(p.g_plus) * mp.mpf(p.h_plus) + mp.mpf(p.g) * (mp.mpf(p.x_plus0) - mp.mpf(p.x0))
        v_m = mp.mpf(p.g_minus) * mp.mpf(p.h_minus) + mp.mpf(p.g) * (mp.mpf(p.x_minus0) - mp.mpf(p.x0))
        z = mp.mpf(e_i) / (mp.mpf(p.m) * mp.mpf(p.c) ** 2)
        ref = float(-mp.mpf(p.dt) * mp.mpf(p.m) * z * (v_m - v_p) / mp.mpf(p.hbar))
        assert got == pytest.approx(ref, abs=1e-10)


# ---------------------------------------------------------------------------
# Overlaps
# ---------------------------------------------------------------------------

def _random_branch(rng, level=0):
    sigma = rng.uniform(5e-5, 2e-4)
    return ga.GaussianBranch(
        amplitude=complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        phase=rng.uniform(-6, 6),
        slope=rng.uniform(-5e3, 5e3),
        mean_x=rng.uniform(-2e-4, 2e-4),
        var_x=sigma**2,
        chirp=rng.uniform(-1e7, 1e7),
        internal_level=level,
        path_label="plus",
    )


def _braket_reference(pm, poly_a, poly_b):
    """<P_a psi_a|P_b psi_b> re-expanded and multiplied with numpy arrays."""
    def shifted(coeffs, off):
        out = np.zeros(len(coeffs), dtype=complex)
        for j, c in enumerate(coeffs):
            for k in range(j + 1):
                out[k] += c * math.comb(j, k) * off ** (j - k)
        return out
    pa = shifted(np.conj(poly_a), pm.off_a)
    pb = shifted(poly_b, pm.off_b)
    return pm.expect_u(np.convolve(pa, pb))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_braket_matches_numpy_reference(seed):
    rng = np.random.default_rng(seed)
    a, b = _random_branch(rng), _random_branch(rng)
    pm = ga.PairMoments(a, b)
    scale = 1.0 / math.sqrt(a.var_x)
    for na, nb in ((1, 1), (1, 2), (2, 1), (2, 2)):
        pa = [complex(*rng.standard_normal(2)) * scale**j for j in range(na)]
        pb = [complex(*rng.standard_normal(2)) * scale**j for j in range(nb)]
        got = pm.braket(pa, pb)
        ref = _braket_reference(pm, pa, pb)
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-12 * abs(pm.overlap))


def test_pair_moments_refuse_higher_degrees():
    """braket takes first-order polynomials and expect_u moments up to u^2,
    the most a product of two first-order polynomials needs."""
    rng = np.random.default_rng(3)
    pm = ga.PairMoments(_random_branch(rng), _random_branch(rng))
    with pytest.raises(ValueError, match="degree <= 1"):
        pm.braket((1.0, 0.0, 1.0), (1.0,))
    with pytest.raises(ValueError, match="degree <= 1"):
        pm.braket((1.0,), (1.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="up to degree 2"):
        pm.expect_u((1.0, 0.0, 0.0, 1.0))


@settings(max_examples=50, deadline=None)
@given(st.floats(-1e17, 1e17, allow_nan=False))
def test_wrap_angle_scalar_path_matches_array_path(x):
    for value in (x, x * 1.0000000001):
        fast = ga.wrap_angle(value)
        via_array = float(ga.wrap_angle(np.array([value]))[0])
        assert type(fast) is float
        assert -math.pi <= fast < math.pi
        assert math.copysign(1.0, fast) == math.copysign(1.0, via_array)
        assert fast == via_array


def test_overlap_self_is_one(sr88_10s):
    state = ga.evolve_state(sr88_10s, "free_fall")
    for b in state.components:
        assert ga.overlap(b, b) == pytest.approx(1.0, abs=1e-14)


def test_overlap_standard_separation():
    rng = np.random.default_rng(7)
    a = _random_branch(rng)
    sep = 1.7e-4
    b = ga.GaussianBranch(
        amplitude=1.0, phase=a.phase, slope=a.slope, mean_x=a.mean_x + sep,
        var_x=a.var_x, chirp=0.0, internal_level=0, path_label="minus")
    a0 = ga.GaussianBranch(
        amplitude=1.0, phase=a.phase, slope=a.slope, mean_x=a.mean_x,
        var_x=a.var_x, chirp=0.0, internal_level=0, path_label="plus")
    got = ga.overlap(a0, b)
    assert got == pytest.approx(math.exp(-sep**2 / (8 * a.var_x)), rel=1e-12, abs=0)


def test_overlap_levels_orthogonal(sr88_10s):
    state = ga.evolve_state(sr88_10s, "free_fall")
    assert ga.overlap(state.branch("plus", 0), state.branch("plus", 1)) == 0.0


def test_pair_moments_refuse_cross_level_pair(sr88_10s):
    """Branches of different levels are orthogonal: callers skip the pair, and
    building its moments raises."""
    state = ga.evolve_state(sr88_10s, "free_fall")
    with pytest.raises(ValueError, match="one internal level"):
        ga.PairMoments(state.branch("plus", 0), state.branch("plus", 1))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_overlap_conjugate_symmetry(seed):
    rng = np.random.default_rng(seed)
    a, b = _random_branch(rng), _random_branch(rng)
    ab = ga.overlap(a, b)
    ba = ga.overlap(b, a)
    assert ab == pytest.approx(np.conj(ba), abs=1e-14)
    assert abs(ab) <= 1.0 + 1e-12


def test_unitarity_of_evolution_maps(sr88_10s, crosscheck_params):
    for p in [sr88_10s, *crosscheck_params[:3]]:
        for scenario in ("free_fall", "mach_zehnder"):
            evolved = ga.evolve_state(p, scenario)
            assert ga.state_norm_sq(evolved) == pytest.approx(1.0, abs=1e-12)
