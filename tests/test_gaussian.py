"""Branch algebra, evolution maps, overlaps, and their brute-force oracles."""

from __future__ import annotations

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gravclock import core, gaussian as ga

mp.mp.dps = 40

_LD = np.longdouble


def _toy_params(z1=3e-7, dt=0.6, **kw):
    """Natural-unit parameters where propagator quadrature is tractable."""
    base = dict(
        m=1.0, e0=0.0, e1=z1 * 1.0 * 100.0**2, g=1.7,
        x_plus=3.0, x_minus=0.5, x0=0.3, sigma=0.8, dt=dt, phi=0.0,
        v0=0.9,
    )
    base.update(kw)
    p = core.build_params(**base)
    return p.replace(c=100.0, hbar=1.0)


# ---------------------------------------------------------------------------
# Phase ledger
# ---------------------------------------------------------------------------

def test_ledger_diff_term_by_term():
    big = 4.25e16
    a = ga.PhaseLedger.make({"huge": big, "small": 0.5}, slope=1.0, x_ref=0.0)
    b = ga.PhaseLedger.make({"huge": big, "small": 0.2}, slope=1.0, x_ref=0.0)
    # The shared huge term cancels exactly, leaving the small difference.
    assert float(a.diff_constant(b)) == pytest.approx(0.3, abs=1e-18)
    assert float(a.diff_at(2.0, b, 1.5)) == pytest.approx(0.3 + 0.5, abs=1e-15)


def test_ledger_diff_requires_common_origin():
    a = ga.PhaseLedger.make({}, 0.0, 0.0)
    b = ga.PhaseLedger.make({}, 0.0, 1.0)
    with pytest.raises(ValueError, match="x_ref"):
        a.diff_constant(b)


def test_no_rest_mass_term_in_any_ledger(sr88_10s):
    state = ga.evolve_state(ga.make_initial_state(sr88_10s), sr88_10s, "free_fall")
    for b in state.components:
        names = [name for name, _ in b.ledger.terms]
        assert all("mc2" not in n and "rest_mass" not in n for n in names)
        assert "rest_internal" in names
        # Each term is reduced mod 2 pi before float evaluation.
        assert abs(float(b.ledger.constant_wrapped())) < 2 * math.pi * (len(names) + 1)


# ---------------------------------------------------------------------------
# Initial state
# ---------------------------------------------------------------------------

def test_initial_amplitudes_phi_zero(sr88_10s):
    state = ga.make_initial_state(sr88_10s)
    assert len(state.components) == 4
    for b in state.components:
        assert b.amplitude == pytest.approx(0.5)
        assert b.ledger.slope == 0.0 and b.var_x == sr88_10s.sigma**2


def test_initial_amplitudes_phi_pi(sr88_10s):
    state = ga.make_initial_state(sr88_10s.replace(phi=math.pi))
    for b in state.components:
        if b.path_label == "minus":
            assert b.amplitude.real == pytest.approx(-0.5, abs=1e-15)


def test_initial_norm_includes_overlap(sr88_10s):
    assert ga.state_norm_sq(ga.make_initial_state(sr88_10s)) == pytest.approx(1.0, abs=1e-12)
    # Strongly overlapping geometry: the cross term is visible and signed.
    p = _toy_params(x_plus=1.5, x_minus=0.5, sigma=0.8)
    expected = 1.0 + math.exp(-(1.0) ** 2 / (8 * 0.8**2))
    assert ga.state_norm_sq(ga.make_initial_state(p)) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# Free-fall evolution
# ---------------------------------------------------------------------------

def _evolve(branch, params, scenario="free_fall"):
    """Evolution of one branch, through a one-branch state."""
    return ga.evolve_state(ga.ClockState((branch,)), params, scenario).components[0]


def test_freefall_dt_zero_identity(sr88_10s):
    p = sr88_10s.replace(dt=0.0)
    state = ga.make_initial_state(p)
    for b in state.components:
        assert _evolve(b, p) is b
        assert _evolve(b, p, "mach_zehnder") is b


def test_freefall_textbook_at_zero_internal_energy():
    p = core.build_params(m=1e-25, e0=0.0, e1=0.0, g=9.81, x_plus=0.51,
                          x_minus=0.50, x0=0.505, sigma=1e-4, dt=1.0)
    state = ga.evolve_state(ga.make_initial_state(p), p, "free_fall")
    b = state.branch("plus", 0)
    assert abs(p.hbar * float(b.ledger.slope)) == pytest.approx(9.81e-25, rel=1e-12, abs=0)
    assert b.mean_x == pytest.approx(0.51 - 4.905, rel=1e-12)
    assert b.var_x == pytest.approx(1e-8 + (p.hbar / (2e-25 * 1e-4)) ** 2, rel=1e-12, abs=0)


def test_freefall_momentum_ratio_extended_precision(sr88_10s):
    p = sr88_10s
    state = ga.evolve_state(ga.make_initial_state(p), p, "free_fall")
    ratio = float(state.branch("plus", 1).ledger.slope / state.branch("plus", 0).ledger.slope)
    ref = float(1 + mp.mpf(p.e1) / (mp.mpf(p.m) * mp.mpf(p.c) ** 2))
    assert ratio == pytest.approx(ref, rel=1e-13, abs=0)


def _propagator_reference(p, branch, xs):
    """Evolve the initial Gaussian with the linear-potential kernel (mpmath).

    Independent of the closed-form map: a straight quadrature of
    K(x,t;x') = sqrt(m*/(2 pi i hbar t)) exp{(i/hbar)[m*(x-x')^2/(2t)
    - F t (x+x')/2 - F^2 t^3/(24 m*)]} against the initial packet, with
    F the potential-energy slope and the constant potential/internal
    energies folded in afterwards.
    """
    z = p.z_eff(branch.internal_level)
    e_i = p.e1 if branch.internal_level == 1 else p.e0
    m_eff = mp.mpf(p.m) / (1 - mp.mpf(z))
    force = mp.mpf(p.m) * (1 + mp.mpf(z)) * mp.mpf(p.g)
    const = mp.mpf(p.m) * (1 + mp.mpf(z)) * (mp.mpf(p.v0) - mp.mpf(p.g) * mp.mpf(p.x0)) \
        + mp.mpf(e_i)
    t = mp.mpf(p.dt)
    hb = mp.mpf(p.hbar)
    sig = mp.mpf(p.sigma)
    x_c = mp.mpf(branch.mean_x)
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


@pytest.mark.parametrize("z1", [0.0, 3e-7])
def test_freefall_full_map_vs_propagator_quadrature(z1):
    p = _toy_params(z1=z1)
    branch = ga.make_initial_state(p).branch("plus", 1)
    evolved = _evolve(branch, p)
    xs = evolved.mean_x + np.array([-1.2, -0.4, 0.0, 0.7, 1.5])
    got = ga.wavefunction_values(evolved, xs)
    ref = _propagator_reference(p, branch, xs)
    # The map drops the constant spreading (Gouy) phase, so compare up to
    # one global phase: the ratio must be constant and unimodular.
    ratio = ref / got
    assert np.max(np.abs(np.abs(ratio) - 1.0)) < 1e-9
    spread = np.max(np.abs(ratio / ratio[0] - 1.0))
    assert spread < 1e-9


def test_freefall_full_map_gouy_phase_value():
    # The dropped constant equals -arctan(eps)/2 with eps = hbar t / (2 m* sigma^2).
    p = _toy_params(z1=0.0)
    branch = ga.make_initial_state(p).branch("plus", 0)
    evolved = _evolve(branch, p)
    xs = np.array([evolved.mean_x + 0.3])
    ratio = _propagator_reference(p, branch, xs)[0] / ga.wavefunction_values(evolved, xs)[0]
    eps = p.hbar * p.dt / (2 * p.m * p.sigma**2)
    assert cmath.phase(ratio) == pytest.approx(-0.5 * math.atan(eps), abs=1e-9)


def test_freefall_full_vs_approx_differences(sr88_10s):
    """What the full map keeps beyond first order in z: the O(z) momentum
    boost, and the z^2 piece of the cubic action (against mpmath)."""
    p = sr88_10s
    full = _evolve(ga.make_initial_state(p).branch("plus", 1), p)
    z = p.z1
    boost = float(p.hbar * full.ledger.slope + _LD(p.m) * p.g * p.dt)
    assert boost == pytest.approx(-p.m * p.g * p.dt * z, rel=1e-6, abs=0)
    # The ledger keeps z orders as separate terms, so the z^2 piece of
    # cubic_z = cubic (z - z^2) is isolated in extended precision.
    terms = dict(full.ledger.terms)
    z2_piece = float(terms["cubic_z"] - terms["cubic"] * _LD(z))
    ref = float(mp.mpf(p.m) * mp.mpf(p.g) ** 2 * mp.mpf(p.dt) ** 3
                / (6 * mp.mpf(p.hbar)) * mp.mpf(z) ** 2)
    assert z2_piece == pytest.approx(ref, rel=1e-9, abs=0)


def test_evolution_requires_pre_evolution_branch(sr88_10s):
    p = sr88_10s
    evolved = _evolve(ga.make_initial_state(p).branch("plus", 0), p)
    with pytest.raises(ga.EvolutionError):
        _evolve(evolved, p)


# ---------------------------------------------------------------------------
# Mach-Zehnder evolution
# ---------------------------------------------------------------------------

def test_mz_zero_energy_is_pure_spreading():
    p = _toy_params(z1=0.0, m=10.0, x_minus=0.5, x_plus=3.0, x0=1.4,
                    sigma=0.05, dt=0.05)
    branch = ga.make_initial_state(p).branch("plus", 1)
    out = _evolve(branch, p, "mach_zehnder")
    assert out.mean_x == branch.mean_x
    assert float(out.ledger.slope) == 0.0
    assert all(float(value) == 0.0 for _, value in out.ledger.terms)
    assert out.var_x > branch.var_x and out.chirp > 0


def test_mz_straddle_error(sr88_10s):
    p = sr88_10s.replace(x0=sr88_10s.x_minus + 1e-5)
    branch = ga.make_initial_state(p).branch("minus", 0)
    with pytest.raises(ga.EvolutionError, match="straddles"):
        _evolve(branch, p, "mach_zehnder")


def test_mz_path_phase_difference_extended_precision(sr88_10s):
    """Ledger difference between arms matches a direct mpmath evaluation."""
    p = sr88_10s
    state = ga.evolve_state(ga.make_initial_state(p), p, "mach_zehnder")
    for level, e_i in ((0, p.e0), (1, p.e1)):
        bp, bm = state.branch("plus", level), state.branch("minus", level)
        got = float(bm.ledger.diff_at(p.x_minus, bp.ledger, p.x_plus))
        v_p = mp.mpf(p.g_plus) * mp.mpf(p.h_plus) + mp.mpf(p.vn_plus0)
        v_m = mp.mpf(p.g_minus) * mp.mpf(p.h_minus) + mp.mpf(p.vn_minus0)
        z = mp.mpf(e_i) / (mp.mpf(p.m) * mp.mpf(p.c) ** 2)
        ref = float(-mp.mpf(p.dt) * mp.mpf(p.m) * z * (v_m - v_p) / mp.mpf(p.hbar))
        assert got == pytest.approx(ref, abs=1e-10)


# ---------------------------------------------------------------------------
# Overlaps
# ---------------------------------------------------------------------------

def _random_branch(rng, level=0, x_ref=0.0):
    sigma = rng.uniform(5e-5, 2e-4)
    return ga.GaussianBranch(
        amplitude=complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        ledger=ga.PhaseLedger.make(
            {"t1": rng.uniform(-3, 3), "t2": rng.uniform(-3, 3)},
            slope=rng.uniform(-5e3, 5e3), x_ref=x_ref),
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
    for na, nb in ((3, 3), (1, 3), (3, 1), (2, 3)):
        pa = [complex(*rng.standard_normal(2)) * scale**j for j in range(na)]
        pb = [complex(*rng.standard_normal(2)) * scale**j for j in range(nb)]
        got = pm.braket(pa, pb)
        ref = _braket_reference(pm, pa, pb)
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-12 * abs(pm.overlap))


@settings(max_examples=50, deadline=None)
@given(st.floats(-1e17, 1e17, allow_nan=False))
def test_wrap_angle_scalar_path_matches_array_path(x):
    for value in (x, _LD(x) * _LD("1.0000000001")):
        fast = ga.wrap_angle(value)
        via_array = float(ga.wrap_angle(np.array([value], dtype=_LD))[0])
        assert type(fast) is float
        assert math.copysign(1.0, fast) == math.copysign(1.0, via_array)
        assert fast == via_array


def test_overlap_self_is_one(sr88_10s):
    state = ga.evolve_state(ga.make_initial_state(sr88_10s), sr88_10s, "free_fall")
    for b in state.components:
        assert ga.overlap(b, b) == pytest.approx(1.0, abs=1e-14)


def test_overlap_standard_separation():
    rng = np.random.default_rng(7)
    a = _random_branch(rng)
    sep = 1.7e-4
    b = ga.GaussianBranch(
        amplitude=1.0, ledger=a.ledger, mean_x=a.mean_x + sep,
        var_x=a.var_x, chirp=0.0, internal_level=0, path_label="minus")
    a0 = ga.GaussianBranch(
        amplitude=1.0, ledger=a.ledger, mean_x=a.mean_x,
        var_x=a.var_x, chirp=0.0, internal_level=0, path_label="plus")
    got = ga.overlap(a0, b)
    assert got == pytest.approx(math.exp(-sep**2 / (8 * a.var_x)), rel=1e-12, abs=0)


def test_overlap_levels_orthogonal(sr88_10s):
    state = ga.evolve_state(ga.make_initial_state(sr88_10s), sr88_10s, "free_fall")
    assert ga.overlap(state.branch("plus", 0), state.branch("plus", 1)) == 0.0


def test_pair_moments_refuse_cross_level_pair(sr88_10s):
    """Branches of different levels are orthogonal: callers skip the pair, and
    building its moments raises, as a mismatched ledger x_ref does."""
    state = ga.evolve_state(ga.make_initial_state(sr88_10s), sr88_10s, "free_fall")
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
        initial = ga.make_initial_state(p)
        for scenario in ("free_fall", "mach_zehnder"):
            evolved = ga.evolve_state(initial, p, scenario)
            assert ga.state_norm_sq(evolved) == pytest.approx(1.0, abs=1e-12)


def test_extended_precision_guard(monkeypatch):
    ga.check_extended_precision(2.0**-63)
    ga.check_extended_precision(2.0**-112)
    with pytest.raises(ga.PrecisionError, match="2\\^-63"):
        ga.check_extended_precision(2.0**-52)
    if np.finfo(np.longdouble).eps <= 2.0**-63:
        ga.check_extended_precision()
    monkeypatch.setattr(ga, "_LD", np.float64)
    with pytest.raises(ga.PrecisionError):
        ga.check_extended_precision()
