"""Airy engine, bouncer spectrum, projection coefficients, long-time QFI."""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gravclock import bouncer as bc, core, oracle as orc
from gravclock.gaussian import wrap_angle

mp.mp.dps = 40

_trapz = getattr(np, "trapezoid", None) or np.trapz


# ---------------------------------------------------------------------------
# Airy engine against independent oracles
# ---------------------------------------------------------------------------

def test_ai_at_zero_against_gamma_oracle():
    # Ai(0) = 3^(-2/3) / Gamma(2/3), evaluated independently.
    ref = float(mp.mpf(3) ** mp.mpf("-2/3") / mp.gamma(mp.mpf("2/3")))
    assert bc.airy_ai(0.0) == pytest.approx(ref, abs=1e-14)
    assert ref == pytest.approx(0.3550280538878172, abs=1e-15)


def test_ai_positive_decreasing():
    ys = np.linspace(1.0, 20.0, 120)
    vals = bc.airy_ai(ys)
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) < 0)


def test_ai_out_of_range_guard():
    with pytest.raises(ValueError, match="1e3"):
        bc.airy_ai(1e3)
    with pytest.raises(ValueError):
        bc.airy_ai_prime(-2e3)


@pytest.mark.parametrize("y0", [-10.0, -1.0, 0.0, 1.0, 10.0])
def test_ai_ode_residual(y0):
    """|Ai'' - y Ai| < 1e-9 via a 7-point second-derivative stencil."""
    h = 0.02
    offsets = np.arange(-3, 4)
    weights = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0
    vals = bc.airy_ai(y0 + offsets * h)
    second = float(np.dot(weights, vals)) / h**2
    assert abs(second - y0 * bc.airy_ai(y0)) < 1e-9


def _ai_integral_representation(y: float) -> float:
    """(1/pi) Re int_0^inf exp(i(yu + u^3/3)) du on the rotated ray u = e^{i pi/6} v.

    Composite Simpson quadrature; completely independent of the engine's
    series/asymptotic machinery.
    """
    v_max = 9.0
    n = 40001
    v = np.linspace(0.0, v_max, n)
    rot = complex(math.cos(math.pi / 6), math.sin(math.pi / 6))
    u = rot * v
    f = rot * np.exp(1j * (y * u + u**3 / 3.0))
    h = v[1] - v[0]
    simpson = (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-2:2].sum()) * h / 3.0
    return float(simpson.real / math.pi)


@pytest.mark.parametrize("y", [-8.0, -5.5, -3.0, -1.0, -0.3, 0.0, 0.7, 2.0, 4.9, 7.5])
def test_ai_integral_representation_oracle(y):
    assert bc.airy_ai(y) == pytest.approx(_ai_integral_representation(y), abs=1e-9)


def _bisect_series_zero(lo: float, hi: float) -> float:
    """Bisection on the Maclaurin-series Ai over a bracketing interval."""
    def ai_series(y):
        return float(bc.AiryEngine._series(np.array([y]))[0][0])
    f_lo = ai_series(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = ai_series(mid)
        if f_lo * f_mid <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
        if hi - lo < 1e-14:
            break
    return 0.5 * (lo + hi)


def test_airy_zero_against_bisection_oracle():
    assert bc.airy_zero(1) == pytest.approx(_bisect_series_zero(-3.0, -2.0), abs=1e-10)
    assert bc.airy_zero(2) == pytest.approx(_bisect_series_zero(-5.0, -4.0), abs=1e-10)
    assert bc.airy_zero(1) == pytest.approx(-2.3381074105, abs=1e-9)
    assert bc.airy_zero(2) == pytest.approx(-4.0879494441, abs=1e-9)


def test_airy_zero_ordering_and_range_guard():
    zeros = bc.default_engine().zeros(100)
    assert np.all(np.diff(zeros) < 0)
    assert np.all(zeros < 0)
    assert np.all(np.abs(bc.airy_ai(zeros)) < 1e-10)
    with pytest.raises(ValueError):
        bc.airy_zero(0)
    with pytest.raises(ValueError):
        bc.airy_zero(10**4 + 1)


@pytest.mark.parametrize("count", [1, 2, 17, 454, 512, 1024, 3000])
def test_zeros_memoised_read_only_and_bit_equal_to_fresh_engine(count):
    engine = bc.default_engine()
    zeros = engine.zeros(count)
    assert engine.zeros(count) is zeros
    assert not zeros.flags.writeable
    with pytest.raises(ValueError):
        zeros[0] = 0.0
    fresh = bc.AiryEngine().zeros(count)
    assert fresh is not zeros
    assert np.array_equal(fresh.view(np.int64), zeros.view(np.int64))


def _auto_n_max_scalar(params):
    """The per-level loop that _auto_n_max replaced, kept as its reference."""
    engine = bc.default_engine()
    cap = core.BOUNCER_N_MAX_CAP
    best = 0.0
    n_lo = 1
    while n_lo <= cap:
        n_hi = min(n_lo + 511, cap)
        zeros = engine.zeros(n_hi)[n_lo - 1:]
        l0 = bc.gravitational_length(params, 0)
        s = params.sigma / l0
        for n_idx, z_n in zip(range(n_lo, n_hi + 1), zeros):
            mag = max(
                math.exp(-((z_n + params.x_plus / l0) / (2.0 * s)) ** 2),
                math.exp(-((z_n + params.x_minus / l0) / (2.0 * s)) ** 2),
            )
            best = max(best, mag)
            if best > 0 and mag < 1e-8 * best:
                return n_idx
        n_lo = n_hi + 1
    return cap


@settings(max_examples=40, deadline=None)
@given(x_minus=st.floats(5e-6, 8e-5), gap=st.floats(1e-7, 3e-5),
       sigma=st.floats(5e-7, 6e-6), g=st.floats(9.0, 10.5), m=st.floats(0.5e-25, 2e-25))
def test_auto_n_max_equals_scalar_reference(bouncer_params, x_minus, gap, sigma, g, m):
    params = bouncer_params.replace(x_minus=x_minus, x_plus=x_minus + gap, sigma=sigma,
                                    g=g, m=m)
    assert bc._auto_n_max(params) == _auto_n_max_scalar(params)


@pytest.mark.parametrize("x_plus,x_minus,blocks", [(3.8e-5, 3.2e-5, 1), (6e-5, 5.4e-5, 2),
                                                   (1.2e-4, 1.14e-4, 4)])
def test_auto_n_max_equals_scalar_reference_across_blocks(bouncer_params, x_plus, x_minus,
                                                          blocks):
    """The sample geometry (454 levels) and two whose cut lies in a later
    block of 512 zeros, so the running peak must carry across blocks."""
    params = bouncer_params.replace(x_plus=x_plus, x_minus=x_minus)
    n_max = bc._auto_n_max(params)
    assert n_max == _auto_n_max_scalar(params)
    assert (n_max - 1) // 512 + 1 == blocks


def test_auto_n_max_warns_at_the_cap(bouncer_params):
    params = bouncer_params.replace(x_plus=8e-4, x_minus=7.9e-4)
    with pytest.warns(UserWarning, match="n_max cap"):
        assert bc._auto_n_max(params) == core.BOUNCER_N_MAX_CAP
    assert _auto_n_max_scalar(params) == core.BOUNCER_N_MAX_CAP


def test_engine_accuracy_against_mpmath_grid():
    """Over [-170, 40] (rendered arguments reach -170; past 40, Ai < 1e-40):
    a dense grid, every table-interval edge, and +-1e-12 around each cutoff."""
    eng = bc.AiryEngine
    cutoffs = np.array([-eng.neg_cutoff, -eng.series_cutoff, eng.series_cutoff,
                        eng.pos_cutoff, bc._UNDERFLOW_Y])
    edges = np.arange(-eng.neg_cutoff, eng.pos_cutoff + 1e-9, bc._TABLE_WIDTH)
    ys = np.concatenate([np.linspace(-170.0, 40.0, 401), edges,
                         cutoffs - 1e-12, cutoffs + 1e-12])
    for y, ai, aip in zip(ys, bc.airy_ai(ys), bc.airy_ai_prime(ys)):
        assert ai == pytest.approx(float(mp.airyai(float(y))), abs=1e-12)
        assert aip == pytest.approx(float(mp.airyai(float(y), 1)), abs=2e-11)


def test_engine_against_scipy_dense_and_exact_underflow():
    special = pytest.importorskip("scipy.special")
    ys = np.linspace(-170.0, 40.0, 1 << 17)
    ai_ref, aip_ref, _, _ = special.airy(ys)
    assert np.max(np.abs(bc.airy_ai(ys) - ai_ref)) < 1e-12
    assert np.max(np.abs(bc.airy_ai_prime(ys) - aip_ref)) < 2e-11
    deep = np.linspace(np.nextafter(bc._UNDERFLOW_Y, np.inf), 170.0, 1001)
    assert np.all(bc.airy_ai(deep) == 0.0)
    assert np.all(bc.airy_ai_prime(deep) == 0.0)


def test_nan_gives_nan_and_empty_gives_empty():
    engine = bc.AiryEngine()
    engine.ai(np.linspace(-50.0, 50.0, 100_000))   # leaves freed memory behind
    y = np.tile([np.nan, 3.0], 5000)
    for evaluate in (engine.ai, engine.ai_prime):
        out = evaluate(y)
        assert np.all(np.isnan(out[0::2]))
        assert np.all(out[1::2] == evaluate(3.0))
    for evaluate in (bc.airy_ai, bc.airy_ai_prime):
        assert evaluate(np.array([])).shape == (0,)


def _region_reference(engine, y, derivative):
    """Each region's branch on that region's points, ascending, scattered back."""
    y = np.asarray(y, dtype=float).ravel()
    out = np.full_like(y, np.nan)
    out[y > bc._UNDERFLOW_Y] = 0.0
    regions = ((y < -engine.neg_cutoff, engine._asym_neg),
               ((y >= -engine.neg_cutoff) & (y <= engine.pos_cutoff), engine._chebyshev),
               ((y > engine.pos_cutoff) & (y <= bc._UNDERFLOW_Y), engine._asym_pos))
    for mask, branch in regions:
        where = np.flatnonzero(mask)
        where = where[np.argsort(y[where], kind="stable")]
        if where.size:
            out[where] = branch(y[where], derivative)
    return out


def _eval_inputs():
    rng = np.random.default_rng(6)
    ascending = np.linspace(-180.0, 120.0, 5000)
    laden = rng.permutation(np.concatenate([ascending, [np.nan] * 7, [np.inf, -np.inf] * 3]))
    blocks = np.linspace(-170.0, 40.0, 3 * bc._BLOCK + 5)
    return {
        "ascending": ascending,
        "descending": ascending[::-1],
        "shuffled": rng.permutation(ascending),
        "nan_inf_laden": laden,
        "multi_block": blocks,
        "multi_block_descending": blocks[::-1].copy(),
        "multi_block_shuffled": rng.permutation(blocks),
    }


@pytest.mark.parametrize("name", list(_eval_inputs()))
def test_eval_equals_region_by_region_reference(name):
    """Sorted-slice evaluation is bit-for-bit the per-region evaluation,
    whatever the input order, across blocks, and with NaN and +-inf."""
    y = _eval_inputs()[name]
    engine = bc.default_engine()
    with np.errstate(invalid="ignore"):          # -inf has no phase
        ai, aip = engine._eval(y, (False, True))
        ref = [_region_reference(engine, y, d) for d in (False, True)]
        np.testing.assert_array_equal(engine.ai(y), ref[0])
    np.testing.assert_array_equal(ai, ref[0])
    np.testing.assert_array_equal(aip, ref[1])
    assert np.all(np.isnan(ai[np.isnan(y)]))
    assert np.all(ai[y == np.inf] == 0.0)


def _half_angle_poles() -> np.ndarray:
    """y in [-170, -15] where (zeta - pi/4) / 2 is an odd multiple of pi/2,
    so tan blows up, with the floats one ulp either side."""
    zeta_range = [(2.0 / 3.0) * mp.mpf(t) ** 1.5 for t in (15, 170)]
    k_lo = int(mp.ceil((zeta_range[0] - mp.pi / 4) / mp.pi))
    k_hi = int(mp.floor((zeta_range[1] - mp.pi / 4) / mp.pi))
    ys = []
    for k in range(k_lo, k_hi + 1):
        if k % 2 == 0:
            continue
        zeta = mp.pi / 4 + k * mp.pi
        y = -float((mp.mpf(3) / 2 * zeta) ** (mp.mpf(2) / 3))
        ys += [np.nextafter(y, -np.inf), y, np.nextafter(y, np.inf)]
    return np.array(ys)


def test_asymptotic_phase_at_tangent_poles_against_mpmath():
    ys = _half_angle_poles()
    assert ys.min() >= -170.0 and ys.max() <= -bc.AiryEngine.neg_cutoff
    ai, aip = bc.airy_ai(ys), bc.airy_ai_prime(ys)
    assert np.all(np.isfinite(ai)) and np.all(np.isfinite(aip))
    for y, a, ap in zip(ys, ai, aip):
        assert a == pytest.approx(float(mp.airyai(float(y))), abs=1e-12)
        assert ap == pytest.approx(float(mp.airyai(float(y), 1)), abs=2e-11)


# ---------------------------------------------------------------------------
# Spectrum
# ---------------------------------------------------------------------------

def test_gravitational_length(bouncer_params):
    p = bouncer_params
    l0 = bc.gravitational_length(p, 0)
    direct = (p.hbar**2 / (2 * p.m**2 * p.g)) ** (1 / 3)
    assert l0 == pytest.approx(direct, rel=1e-12)      # E0 = 0 here
    l1 = bc.gravitational_length(p, 1)
    assert l1 / l0 == pytest.approx(((1 + p.z0) / (1 + p.z1)) ** (1 / 3), rel=1e-14)
    ref = float((mp.mpf(p.hbar) ** 2 / (2 * mp.mpf(p.m) ** 2 * mp.mpf(p.g)
                                        * (1 + mp.mpf(p.z1)))) ** mp.mpf("1/3"))
    assert l1 == pytest.approx(ref, rel=1e-13)
    assert 1e-7 < l0 < 1e-6        # micrometer scale for a Sr-mass atom


def test_spectrum_warns_without_floor_clearance(bouncer_params):
    squeezed = bouncer_params.replace(sigma=bouncer_params.x_minus)
    with pytest.warns(UserWarning, match="floor clearance"):
        bc.bouncer_spectrum(squeezed, 10)


def test_eigenfunctions_vanish_at_floor(bouncer_params):
    spec = bc.bouncer_spectrum(bouncer_params, 30)
    for i in (0, 1):
        vals = spec.norms[i] * bc.airy_ai(spec.zeros)
        assert np.all(np.abs(vals) < 1e-10 * np.abs(spec.norms[i]))


def test_eigenfunction_orthonormality_quadrature(bouncer_params):
    p = bouncer_params
    spec = bc.bouncer_spectrum(p, 20)
    l0 = spec.lengths[0]
    xs = np.linspace(0.0, l0 * (abs(spec.zeros[-1]) + 12.0), 120_001)
    basis = spec.norms[0][:, None] * bc.airy_ai(xs[None, :] / l0 + spec.zeros[:, None])
    gram = basis @ basis.T * (xs[1] - xs[0])
    assert np.max(np.abs(gram - np.eye(20))) < 1e-6


def test_energy_spacing_shrinks_like_n_to_minus_third(bouncer_params):
    spec = bc.bouncer_spectrum(bouncer_params, 400)
    n = np.arange(1, 401)
    spacing = np.diff(spec.energies[0])
    slope = np.polyfit(np.log(n[50:-1]), np.log(spacing[50:]), 1)[0]
    assert slope == pytest.approx(-1.0 / 3.0, abs=0.01)
    assert np.all(np.diff(spec.energies[0]) > 0)
    assert np.all(np.diff(spec.energies[1]) > 0)


# ---------------------------------------------------------------------------
# Projection coefficients
# ---------------------------------------------------------------------------

def test_coefficient_completeness_per_path(bouncer_params):
    proj = bc.bouncer_coefficients(bouncer_params)
    assert proj.tail < 1e-3
    for i in (0, 1):
        assert 1.0 - 1e-3 <= np.sum(proj.c_plus[i] ** 2) <= 1.0 + 1e-9
        assert 1.0 - 1e-3 <= np.sum(proj.c_minus[i] ** 2) <= 1.0 + 1e-9


def test_exact_coefficients_vs_quadrature_projection(bouncer_params):
    """Closed-form projections against direct <psi_n | gaussian> quadrature."""
    p = bouncer_params
    proj = bc.bouncer_coefficients(p, n_max=400)
    spec = proj.spectrum
    l0 = spec.lengths[0]
    xs = np.linspace(0.0, l0 * (abs(spec.zeros[-1]) + 12.0), 200_001)
    packet = (2 * math.pi * p.sigma**2) ** -0.25 \
        * np.exp(-(xs - p.x_plus) ** 2 / (4 * p.sigma**2))
    peak = int(np.argmax(np.abs(proj.c_plus[0])))
    for n_idx in (peak - 40, peak, peak + 40):
        psi_n = spec.norms[0][n_idx] * bc.airy_ai(xs / l0 + spec.zeros[n_idx])
        quad = float(_trapz(psi_n * packet, dx=xs[1] - xs[0]))
        assert proj.c_plus[0][n_idx] == pytest.approx(quad, rel=1e-6)


def test_destructive_combination_phi_pi(bouncer_params):
    p = bouncer_params.replace(phi=math.pi,
                               x_minus=bouncer_params.x_plus * (1 - 1e-14))
    with pytest.warns(UserWarning, match="destructive"):
        proj = bc.bouncer_coefficients(p, n_max=300)
    assert proj.renorm < 1e-6
    assert np.max(np.abs(proj.coefficients)) < 1e-7


def test_coefficients_raise_on_truncation(bouncer_params):
    """A basis missing more than 1e-3 of a path's mass raises: renormalizing
    the rest gave a wrong number (tail 1.00 at n_max = 2, 0.99995 at 120)."""
    for n_max in (2, 120):
        with pytest.raises(ValueError, match="truncation mass"):
            bc.bouncer_coefficients(bouncer_params, n_max=n_max)


# ---------------------------------------------------------------------------
# Time evolution and the long-time QFI
# ---------------------------------------------------------------------------

def test_spectral_norm_constant_in_time(bouncer_params):
    p = bouncer_params
    proj = bc.bouncer_coefficients(p)
    grid = bc.bouncer_grid(p, proj, n_points=2**13)
    norms = [bc.render_spectral(p, proj, t, grid).norm_sq()
             for t in (0.0, 0.05, 0.31, 1.7)]
    assert np.max(np.abs(np.array(norms) - 1.0)) < 1e-6


def test_render_spectral_against_mpmath_sum(bouncer_params):
    """The rendered state against sum_n c_n e^{-i E_n t / hbar} N_n Ai(x / l + z_n),
    summed with mpmath Ai on the same float64 arguments.

    The sample packet's weight sits hundreds of levels up, so its own
    first 20 coefficients are nearly zero; equal-weight coefficients with
    spread phases make every level count instead.
    """
    p = bouncer_params
    spec = bc.bouncer_spectrum(p, 20)
    flat = np.exp(0.7j * np.arange(2 * spec.n_max)).reshape(2, -1) / math.sqrt(2 * spec.n_max)
    unused = np.zeros((2, spec.n_max))
    proj = bc.BouncerProjection(spec, unused, unused, flat, 0.0, 1.0)
    grid = orc.Grid(0.0, max(spec.lengths) * (abs(spec.zeros[-1]) + 12.0), 256)
    ref = bc.spectral_phase_ref(p, proj)
    rendered = bc.render_spectral(p, proj, p.dt, grid, ref).channels
    expected = np.zeros_like(rendered)
    with mp.workdps(20):
        for i in (0, 1):
            for n in range(spec.n_max):
                rel_energy = float(spec.band[i, n] - ref.band_ref[i])
                phase = -mp.mpf(rel_energy) * mp.mpf(p.dt) / mp.mpf(p.hbar)
                amp = complex(mp.expj(phase)) * flat[i, n] * spec.norms[i, n]
                args = grid.xs() / spec.lengths[i] + spec.zeros[n]
                expected[i] += amp * np.array([float(mp.airyai(float(y))) for y in args])
    assert np.max(np.abs(rendered - expected)) <= 1e-12 * np.max(np.abs(expected))


def _unwindowed_render(p, proj, t, grid, ref):
    """render_spectral without the decay cut: every kept row in full, summed
    by the same 64-row contraction, so the window is the only difference."""
    engine = bc.default_engine()
    spec = proj.spectrum
    xs = grid.xs()
    channels = np.zeros((2, grid.n_points), dtype=complex)
    for i in (0, 1):
        weights = np.abs(proj.coefficients[i])
        keep = np.flatnonzero(weights > 1e-14 * weights.max())
        const_shift = -p.m * p.x0 * (1.0 + p.z_eff(i)) * (p.g - ref.g_ref)
        rel_energy = (spec.band[i, keep] - ref.band_ref[i]) + const_shift
        ld = np.longdouble
        phases = wrap_angle(-rel_energy.astype(ld) * ld(t) / ld(p.hbar))
        coeff = proj.coefficients[i, keep] * np.exp(1j * phases) * spec.norms[i, keep]
        for start in range(0, len(keep), bc._RENDER_ROWS):
            rows = slice(start, start + bc._RENDER_ROWS)
            basis = engine.ai(xs[None, :] / spec.lengths[i] + spec.zeros[keep[rows], None])
            re, im = np.einsum("cm,mn->cn", np.stack([coeff[rows].real, coeff[rows].imag]), basis)
            channels[i].real += re
            channels[i].imag += im
    return channels


def test_windowed_render_matches_unwindowed_reference(bouncer_params):
    """Cutting each basis row at y = 26 changes the state by nothing visible."""
    p = bouncer_params
    center = bc.bouncer_coefficients(p)
    grid = bc.bouncer_grid(p, center, n_points=2**13)
    ref = bc.spectral_phase_ref(p, center)
    shifted = p.replace(g=p.g * (1.0 + 1e-9))
    for params, proj in ((p, center),
                         (shifted, bc.bouncer_coefficients(shifted, center.spectrum.n_max))):
        rendered = bc.render_spectral(params, proj, p.dt, grid, ref).channels
        expected = _unwindowed_render(params, proj, p.dt, grid, ref)
        assert np.max(np.abs(rendered - expected)) <= 1e-15 * np.max(np.abs(expected))


def test_bouncer_oracle_regression_pin(bouncer_params):
    """The grid-fidelity oracle on configs/bouncer.cfg, pinned to 1e-10."""
    assert bc.bouncer_qfi_numeric(bouncer_params) == pytest.approx(933959.175490357, rel=1e-10)


def test_qfi_longtime_degenerate_distribution(bouncer_params):
    spec = bc.bouncer_spectrum(bouncer_params, 50)
    single = np.zeros((2, spec.n_max))
    single[0, 7] = 1.0
    frozen = bc.BouncerProjection(spec, single, single, single, 0.0, 1.0)
    assert bc.bouncer_qfi_longtime(bouncer_params, projection=frozen) == 0.0


def test_qfi_longtime_quadratic_in_dt(bouncer_params):
    p = bouncer_params
    base = bc.bouncer_qfi_longtime(p)
    assert bc.bouncer_qfi_longtime(p.replace(dt=2 * p.dt)) / base == pytest.approx(4.0)
