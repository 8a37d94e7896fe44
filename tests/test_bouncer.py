"""Airy engine, bouncer spectrum, projection coefficients, long-time QFI."""

from __future__ import annotations

import math
import warnings

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
    table/asymptotic machinery.
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


def _bisect_mpmath_zero(lo: float, hi: float) -> float:
    """Bisection on mpmath's Ai over a bracketing interval."""
    f_lo = mp.airyai(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = mp.airyai(mid)
        if f_lo * f_mid <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
        if hi - lo < 1e-14:
            break
    return 0.5 * (lo + hi)


def test_airy_zero_against_bisection_oracle():
    assert bc.airy_zero(1) == pytest.approx(_bisect_mpmath_zero(-3.0, -2.0), abs=1e-10)
    assert bc.airy_zero(2) == pytest.approx(_bisect_mpmath_zero(-5.0, -4.0), abs=1e-10)
    assert bc.airy_zero(1) == pytest.approx(-2.3381074105, abs=1e-9)
    assert bc.airy_zero(2) == pytest.approx(-4.0879494441, abs=1e-9)


def test_airy_zero_ordering_and_range_guard():
    zeros = bc.default_engine().zeros(100)
    assert np.all(np.diff(zeros) < 0)
    assert np.all(zeros < 0)
    assert np.all(np.abs(bc.airy_ai(zeros)) < 1e-10)
    for n in (0, 10**4 + 1, 2.5, 2.999):     # refused, not truncated to an integer
        with pytest.raises(ValueError):
            bc.airy_zero(n)


@pytest.fixture(scope="module")
def zero_table():
    """The first 1e4 negative zeros of Ai, one engine's table."""
    return bc.AiryEngine().zeros(core.BOUNCER_N_MAX_CAP)


@pytest.mark.parametrize("count", [1, 2, 17, 454, 512, 1024, 3000, 8679])
def test_zeros_memoised_read_only_and_bit_equal_to_fresh_engine(zero_table, count):
    """zeros(count) is a read-only prefix of its engine's one table, and a fresh
    engine's solve of that count alone is bit for bit the prefix of a 1e4-zero
    table: each zero's Newton iterates depend on its own start, and the
    elementwise stopping test takes 3 steps at every count (z_1 needs 3).  A test
    over the whole array, max|step| < 1e-13 max|z|, would stop counts from 8680
    on after 2 steps, up to 4.2e-16 relative away from these values."""
    fresh = bc.AiryEngine().zeros(count)
    assert fresh.tobytes() == zero_table[:count].tobytes()
    engine = bc.default_engine()
    zeros = engine.zeros(count)
    assert np.shares_memory(zeros, engine.zeros(1))
    for array in (fresh, zeros):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_zeros_of_one_newton_pass_equal_each_count_alone():
    """One engine serves every count from one table: a longer count solves it
    again from the first zero, a shorter one is its prefix, and each is bit for
    bit that count solved alone by a fresh engine."""
    counts = [1, 2, 17, 249, 450, 451, 454, 459, 512, 1516, 3000]
    engine = bc.AiryEngine()
    for count in counts:
        assert engine.zeros(count).size == count
    for count in counts[::-1]:
        zeros = engine.zeros(count)
        assert np.shares_memory(zeros, engine.zeros(counts[-1]))
        assert zeros.tobytes() == bc.AiryEngine().zeros(count).tobytes()
        assert not zeros.flags.writeable


@pytest.mark.parametrize("name,values", [("sigma", np.geomspace(1e-7, 3e-6, 30)),
                                         ("g", np.linspace(9.6, 10.0, 40))])
def test_auto_n_max_column_equals_each_row(bouncer_params, name, values):
    """One scan of a column counts each row's levels as a scan of that row alone
    (the sigma column reaches 1516 levels, three blocks of 512 zeros)."""
    column = bc._auto_n_max(bouncer_params.replace(check=False, **{name: values}))
    rows = [bc._auto_n_max(bouncer_params.replace(**{name: v})) for v in values.tolist()]
    assert column == rows
    assert max(rows) > 1024 if name == "sigma" else len(set(rows)) == 10


def _projection_scalar(params, n_max):
    """The per-path solve that ``_projections`` replaced, kept as its reference:
    one ``ai_log`` call per (level, path), every scalar a Python float."""
    spectrum = bc.bouncer_spectrum(params, n_max)
    paths = []
    for x in (params.x_plus, params.x_minus):
        for level in (0, 1):
            l_i = spectrum.lengths[level]
            s = params.sigma / l_i
            w = spectrum.zeros + x / l_i
            base = l_i * np.abs(spectrum.norms[level]) * (2.0 * math.pi * params.sigma**2) ** -0.25
            ai_sign, ln_ai = bc.default_engine().ai_log(w + s**4)
            ln_c = np.log(2.0 * math.sqrt(math.pi) * s * base) + s * s * w \
                + (2.0 / 3.0) * s**6 + ln_ai
            paths.append(np.sign(spectrum.norms[level]) * ai_sign * np.exp(ln_c))
    c_plus, c_minus = np.array(paths[:2]), np.array(paths[2:])
    combined = 0.5 * (c_plus + complex(math.cos(params.phi), math.sin(params.phi)) * c_minus)
    tail = max(abs(1.0 - float(np.sum(c * c))) for c in paths)
    renorm = math.sqrt(float(np.sum(np.abs(combined) ** 2)))
    return c_plus, c_minus, combined / renorm, tail, renorm


@pytest.mark.parametrize("name,values", [("sigma", np.geomspace(2e-7, 3e-6, 40)),
                                         ("g", np.linspace(9.6, 10.0, 40)),
                                         ("g", np.geomspace(1.0, 1e3, 150))])
def test_column_projections_equal_each_row_solve(bouncer_params, name, values):
    """Rows solved together (grouped by level count, 64 at a time) give bit for
    bit the projection of the per-path reference on that row alone: numpy's
    ``**`` (x**4, x**6, x**-0.25) and einsum round otherwise in ~5% of lines,
    which the QFI can hide."""
    projections = bc.bouncer_coefficients(bouncer_params.replace(check=False, **{name: values}))
    for value, proj in zip(values.tolist(), projections):
        row = bouncer_params.replace(**{name: value})
        c_plus, c_minus, coefficients, tail, renorm = _projection_scalar(row, bc._auto_n_max(row))
        assert proj.c_plus.tobytes() == c_plus.tobytes()
        assert proj.c_minus.tobytes() == c_minus.tobytes()
        assert proj.coefficients.tobytes() == coefficients.tobytes()
        assert (proj.tail, proj.renorm) == (tail, renorm)


def _auto_n_max_scalar(params, momentum_tail=True):
    """The per-level loop that _auto_n_max replaced, kept as its reference
    (with the stop rule's condition that level n lies past both peaks, and
    the momentum tail's exp(s^2 w + (2/3) s^6) past w = -s^4 unless
    ``momentum_tail`` is False: the position-only count it used to give)."""
    engine = bc.default_engine()
    cap = core.BOUNCER_N_MAX_CAP
    best = 0.0
    n_lo = 1

    def level_mag(w, s):
        expo = -(w / (2.0 * s)) ** 2
        if momentum_tail and w < -s**4:
            expo = max(expo, s * s * w + (2.0 / 3.0) * s**6)
        return math.exp(expo)

    while n_lo <= cap:
        n_hi = min(n_lo + 511, cap)
        zeros = engine.zeros(n_hi)[n_lo - 1:]
        l0 = bc.gravitational_length(params, 0)
        s = params.sigma / l0
        for n_idx, z_n in zip(range(n_lo, n_hi + 1), zeros):
            mag = max(level_mag(z_n + params.x_plus / l0, s),
                      level_mag(z_n + params.x_minus / l0, s))
            best = max(best, mag)
            past_peaks = z_n < -max(params.x_plus, params.x_minus) / l0
            if best > 0 and mag < 1e-8 * best and past_peaks:
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


def test_auto_n_max_past_both_path_peaks(bouncer_params):
    """With the paths 88 um apart the coefficients fall below 1e-8 of the
    lower path's peak long before the upper path's peak; the cut must lie
    past both, so the basis holds each path's mass."""
    params = bouncer_params.replace(x_plus=1.2e-4)
    n_max = bc._auto_n_max(params)
    l0 = bc.gravitational_length(params, 0)
    assert bc.default_engine().zeros(n_max)[-1] < -params.x_plus / l0
    assert n_max == _auto_n_max_scalar(params)
    assert bc.bouncer_coefficients(params).tail < 1e-9


def test_auto_n_max_warns_at_the_cap(bouncer_params):
    params = bouncer_params.replace(x_plus=8e-4, x_minus=7.9e-4)
    with pytest.warns(UserWarning, match="n_max cap"):
        assert bc._auto_n_max(params) == core.BOUNCER_N_MAX_CAP
    assert _auto_n_max_scalar(params) == core.BOUNCER_N_MAX_CAP


@pytest.mark.parametrize("sigma,position_only,levels", [(2e-7, 224, 458), (1e-7, 217, 1516)])
def test_auto_n_max_holds_narrow_packets(bouncer_params, sigma, position_only, levels):
    """A packet narrower than the Airy length (s = sigma / l0 = 0.52 and 0.26
    on configs/bouncer.cfg) reaches levels far above its position peak through
    its momentum width.  The position-only count missed 2.45e-2 and 41.7% of
    its mass (exit 3); the count with the momentum tail holds all of it."""
    params = bouncer_params.replace(sigma=sigma)
    assert _auto_n_max_scalar(params, momentum_tail=False) == position_only
    assert bc._auto_n_max(params) == _auto_n_max_scalar(params) == levels
    assert bc.bouncer_coefficients(params).tail < 1e-13


@pytest.mark.parametrize("signs", [(0, 0, 0, 0)] + [tuple(int(c) * 2 - 1 for c in f"{k:04b}")
                                                    for k in range(16)])
def test_momentum_tail_leaves_the_sample_counts(bouncer_params, signs):
    """configs/bouncer.cfg (454 levels) and the corners of the +-2% box of g,
    x+, x- and sigma that perfbench draws from: s ~ 7.8, so the momentum tail
    starts below 1e-8 (exp(-s^6 / 3)) and the count is the position-only one."""
    p = bouncer_params
    params = p.replace(**{name: getattr(p, name) * (1.0 + 0.02 * sign) for name, sign
                          in zip(("g", "x_plus", "x_minus", "sigma"), signs)})
    assert bc._auto_n_max(params) == _auto_n_max_scalar(params, momentum_tail=False)
    if signs == (0, 0, 0, 0):
        assert bc._auto_n_max(params) == 454


def test_projection_arrays_are_read_only(bouncer_params):
    """A dt column's rows share one projection, and every spectrum's zeros are
    a view of its engine's one table: no caller may write into them."""
    proj = bc.bouncer_coefficients(bouncer_params)
    for array in (proj.c_plus, proj.c_minus, proj.coefficients, proj.spectrum.band,
                  proj.spectrum.norms, proj.spectrum.zeros):
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 0.0


@pytest.mark.parametrize("dt", [0.0, 0.05, 0.7, 3.0])
def test_shared_projection_bit_identical_to_uncached_solve(bouncer_params, dt):
    """configs/bouncer.cfg with time.dt_s changed: the projection reads no dt, so a
    dt column (``core.Scenario.column``) is one set with one projection, bit for bit
    the solve at this dt alone and the per-path reference's."""
    params = bouncer_params.replace(dt=dt)
    shared = bc.bouncer_coefficients(bouncer_params.replace(check=False, dt=np.array([0.0, 0.05, 0.7, 3.0])))
    proj = bc.bouncer_coefficients(params)
    assert isinstance(shared, bc.BouncerProjection) and shared is not proj
    for name in ("c_plus", "c_minus", "coefficients"):
        assert getattr(shared, name).tobytes() == getattr(proj, name).tobytes()
    for name in ("zeros", "band", "norms"):
        assert getattr(shared.spectrum, name).tobytes() == getattr(proj.spectrum, name).tobytes()
    assert (shared.tail, shared.renorm, shared.spectrum.lengths, shared.spectrum.n_max) \
        == (proj.tail, proj.renorm, proj.spectrum.lengths, proj.spectrum.n_max)
    c_plus, c_minus, coefficients, tail, renorm = _projection_scalar(params, proj.spectrum.n_max)
    assert (proj.c_plus.tobytes(), proj.c_minus.tobytes(), proj.coefficients.tobytes()) \
        == (c_plus.tobytes(), c_minus.tobytes(), coefficients.tobytes())
    assert (proj.tail, proj.renorm) == (tail, renorm)


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
    for derivative in (False, True):
        out = engine.ai(y)[derivative]
        assert np.all(np.isnan(out[0::2]))
        assert np.all(out[1::2] == engine.ai(3.0)[derivative])
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
            out[where] = branch(y[where])[derivative]
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
        # Two regions with no table point between them: the empty table
        # region must be skipped, not passed to _chebyshev.
        "no_table_points": rng.permutation(np.concatenate(
            [np.linspace(-170.0, -15.5, 300), np.linspace(12.5, 108.0, 300)])),
        "all_nan": np.full(700, np.nan),
    }


@pytest.mark.parametrize("name", list(_eval_inputs()))
def test_eval_equals_region_by_region_reference(name):
    """Masked evaluation is bit-for-bit the per-region evaluation, whatever
    the input order, across blocks, and with NaN and +-inf."""
    y = _eval_inputs()[name]
    engine = bc.default_engine()
    with np.errstate(invalid="ignore"):          # -inf has no phase
        ai, aip = engine._eval(y)
        ref = [_region_reference(engine, y, d) for d in (False, True)]
        np.testing.assert_array_equal(engine.ai(y)[0], ref[0])
    np.testing.assert_array_equal(ai, ref[0])
    np.testing.assert_array_equal(aip, ref[1])
    assert np.all(np.isnan(ai[np.isnan(y)]))
    assert np.all(ai[y == np.inf] == 0.0)


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


_SINGLE_REGIONS = {
    "neg_asym": (-170.0, np.nextafter(-bc.AiryEngine.neg_cutoff, -np.inf)),
    "table": (-bc.AiryEngine.neg_cutoff, bc.AiryEngine.pos_cutoff),
    "pos_asym": (np.nextafter(bc.AiryEngine.pos_cutoff, np.inf), bc._UNDERFLOW_Y),
    "underflow": (np.nextafter(bc._UNDERFLOW_Y, np.inf), 170.0),
}


@pytest.mark.parametrize("region", [*_SINGLE_REGIONS, "mixed"])
def test_ai_shuffled_block_bit_equal_to_sorted(region):
    """A block within one region is evaluated as it stands, unsorted, and a
    mixed block (here with NaN and y > 108) through its region masks; in
    both, each point gets bit for bit the value of the region-by-region
    reference, which runs each region's formula on its points in ascending
    order."""
    rng = np.random.default_rng(9)
    if region == "mixed":
        ys = np.concatenate([np.linspace(-170.0, 150.0, bc._BLOCK - 8), [np.nan] * 8])
    else:
        ys = np.linspace(*_SINGLE_REGIONS[region], bc._BLOCK)
    order = rng.permutation(ys.size)
    engine = bc.default_engine()
    for derivative in (False, True):
        expected = _region_reference(engine, ys, derivative)
        shuffled = np.empty_like(ys)
        shuffled[order] = engine.ai(ys[order])[derivative]
        assert np.array_equal(_bits(shuffled), _bits(expected))


def test_chebyshev_on_concatenated_rows_equals_per_row():
    """Rows as the render cuts them, ascending each, concatenated: the table
    sum spreads its coefficients over runs of equal interval index, so the
    result is bit for bit that of each row on its own."""
    engine = bc.default_engine()
    base = np.linspace(0.0, 27.0, 4001)
    rows = [row[row <= engine.pos_cutoff]
            for row in (base + off for off in -engine.neg_cutoff + 0.37 * np.arange(40))]
    for derivative in (False, True):
        joined = engine._chebyshev(np.concatenate(rows))[derivative]
        per_row = np.concatenate([engine._chebyshev(row)[derivative] for row in rows])
        assert np.array_equal(_bits(joined), _bits(per_row))


def test_ai_rows_equals_per_row_ai():
    """ai_rows against one ai call per row, bit for bit: rows
    reaching every region (and past y = 108), an empty row, and one running
    to the end."""
    engine = bc.default_engine()
    base = np.linspace(0.0, 300.0, 20_001)
    offsets = -np.linspace(0.5, 180.0, 70)
    ends = np.searchsorted(base, 130.0 - offsets, side="right")
    ends[3], ends[-1] = 0, base.size
    out = np.full((offsets.size, base.size), np.nan)
    out_prime = np.full_like(out, np.nan)
    engine.ai_rows(base, offsets, ends, out, out_prime)
    for row, prime, offset, end in zip(out, out_prime, offsets, ends):
        y = base[:end] + offset
        ai, aip = engine.ai(y)
        assert np.array_equal(_bits(row[:end]), _bits(ai))
        assert np.array_equal(_bits(prime[:end]), _bits(aip))
        assert np.all(row[end:] == 0.0) and np.all(prime[end:] == 0.0)


def test_public_airy_contract_past_170_against_mpmath():
    """airy_ai holds 1e-12 and airy_ai_prime 2e-11 on (-1e3, -170), where the
    rounding of the phase zeta = (2/3) |y|^1.5 grows the error of Ai' to
    ~1.3e-11 near -1e3; 200 seeded points per band."""
    rng = np.random.default_rng(13)
    ys = np.concatenate([rng.uniform(-1000.0, -500.0, 200), rng.uniform(-500.0, -170.0, 200)])
    with mp.workdps(25):
        ai_ref = np.array([float(mp.airyai(float(y))) for y in ys])
        aip_ref = np.array([float(mp.airyai(float(y), 1)) for y in ys])
    assert np.max(np.abs(bc.airy_ai(ys) - ai_ref)) <= 1e-12
    assert np.max(np.abs(bc.airy_ai_prime(ys) - aip_ref)) <= 2e-11


def _taylor_order(shift, y_max):
    """The render's order rule: the first J <= 4 whose remainder bound
    (shift sqrt(1 + y_max))^(J+1) / (J+1)! is below 1e-16, else None (split)."""
    a = shift * math.sqrt(1.0 + y_max)
    return next((j for j in range(bc._TAYLOR_MAX + 1)
                 if a ** (j + 1) / math.factorial(j + 1) < 1e-16), None)


def test_taylor_shift_against_mpmath():
    """The render's shift kernel on rows with |y| up to 170.  Each derivative
    row is within 1e-13 (1 + |y|)^(j/2) of Ai^(j) = p_j(y) Ai + q_j(y) Ai'
    built from mpmath Ai and Ai' by the recurrence p_{j+1} = p_j' + y q_j,
    q_{j+1} = p_j + q_j', and the rows' Taylor sum at the largest shift the
    order-4 bound admits is within 1e-13 of mpmath Ai(y + delta) on the same
    float arguments, for both signs of delta."""
    engine = bc.default_engine()
    y_max = 170.0
    delta = (1e-16 * math.factorial(5)) ** 0.2 / math.sqrt(1.0 + y_max) * (1.0 - 1e-9)
    assert _taylor_order(delta, y_max) == bc._TAYLOR_MAX
    assert _taylor_order(1.001 * delta, y_max) is None
    y = np.linspace(-y_max, bc._RENDER_CUT_Y, 197)
    stack = np.empty((bc._TAYLOR_MAX + 1, y.size))
    stack[0], stack[1] = engine.ai(y)
    bc._airy_derivatives(stack, y)
    with mp.workdps(25):
        ai_aip = [(mp.airyai(float(v)), mp.airyai(float(v), 1)) for v in y]
    poly = np.polynomial.Polynomial
    p_j, q_j = poly([1.0]), poly([0.0])
    for j, row in enumerate(stack):
        expected = np.array([float(mp.mpf(p_j(v)) * a + mp.mpf(q_j(v)) * b)
                             for v, (a, b) in zip(y, ai_aip)])
        assert np.all(np.abs(row - expected) <= 1e-13 * (1.0 + np.abs(y)) ** (j / 2)), j
        p_j, q_j = p_j.deriv() + poly([0.0, 1.0]) * q_j, p_j + q_j.deriv()
    for shift in (delta, -delta):
        with mp.workdps(25):
            expected = np.array([float(mp.airyai(mp.mpf(float(v)) + mp.mpf(shift))) for v in y])
        shifted = sum(shift**j / math.factorial(j) * stack[j] for j in range(bc._TAYLOR_MAX + 1))
        assert np.max(np.abs(shifted - expected)) <= 1e-13


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
    assert l0 == pytest.approx(direct, rel=1e-12, abs=0)      # E0 = 0 here
    l1 = bc.gravitational_length(p, 1)
    assert l1 / l0 == pytest.approx(((1 + p.z0) / (1 + p.z1)) ** (1 / 3), rel=1e-14, abs=0)
    ref = float((mp.mpf(p.hbar) ** 2 / (2 * mp.mpf(p.m) ** 2 * mp.mpf(p.g)
                                        * (1 + mp.mpf(p.z1)))) ** mp.mpf("1/3"))
    assert l1 == pytest.approx(ref, rel=1e-13, abs=0)
    assert 1e-7 < l0 < 1e-6        # micrometer scale for a Sr-mass atom


@pytest.mark.parametrize("g", [-9.81, 0.0])
def test_library_refuses_nonpositive_g(bouncer_params, g):
    """Both bouncer paths go through gravitational_length, which names g.
    They used to fail late: a ComplexWarning and a TypeError for g < 0,
    a ZeroDivisionError for g = 0."""
    p = bouncer_params.replace(g=g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: bc.gravitational_length(p, 0),
                     lambda: bc.bouncer_spectrum(p, 10),
                     lambda: bc.bouncer_qfi_longtime(p)):
            with pytest.raises(ValueError, match=r"g > 0"):
                call()


def test_library_refuses_without_floor_clearance(bouncer_params):
    """A packet within 3 widths of the floor (x_pm < 3 sigma) is refused,
    naming floor clearance; the spectrum used to warn and go on."""
    squeezed = bouncer_params.replace(sigma=bouncer_params.x_minus)
    for call in (lambda: bc.bouncer_spectrum(squeezed, 10),
                 lambda: bc.bouncer_coefficients(squeezed)):
        with pytest.raises(core.ParamsError, match="floor clearance"):
            call()


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
    spacing = np.diff(spec.band[0])
    slope = np.polyfit(np.log(n[50:-1]), np.log(spacing[50:]), 1)[0]
    assert slope == pytest.approx(-1.0 / 3.0, abs=0.01)
    assert np.all(np.diff(spec.band[0]) > 0)
    assert np.all(np.diff(spec.band[1]) > 0)


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
    """Two coincident paths at phi = pi cancel to a combined norm below 1e-6:
    a ValueError saying so, with no warning.  The near-null coefficients used
    to come back unnormalized with a warning, and every value built on them
    was wrong (see ``test_bouncer_near_null_projection_exit_3``)."""
    p = bouncer_params.replace(phi=math.pi,
                               x_minus=bouncer_params.x_plus * (1 - 1e-14))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="paths cancel"):
            bc.bouncer_coefficients(p)


def test_coefficients_raise_on_mass_above_one(bouncer_params):
    """The mass check is two-sided: a wide packet clear of the floor gets
    infinite coefficient masses from the closed form at the 1e4 level cap,
    which the one-sided check read as no truncation at all."""
    p = bouncer_params.replace(sigma=1e-3, x_plus=1.2e-2, x_minus=1e-2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # the n_max cap warning
        with pytest.raises(ValueError, match="truncation mass"):
            bc.bouncer_coefficients(p)


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
    grid = bc.bouncer_grid(p, proj)
    norms = [bc.render_spectral(p, [(p.g, proj)], t, grid, proj)[0].norm_sq()
             for t in (0.0, 0.05, 0.31, 1.7)]
    assert np.max(np.abs(np.array(norms) - 1.0)) < 1e-6


def test_render_spectral_against_mpmath_sum(bouncer_params):
    """The rendered state against sum_n c_n e^{-i E_n t / hbar} N_n Ai(x / l + z_n),
    summed with mpmath Ai on the same float64 arguments, the phases included:
    each float64 phase is within its rounding, 4e-16 of its size, of mpmath's.

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
    rendered = bc.render_spectral(p, [(p.g, proj)], p.dt, grid, proj)[0]
    band_ref = _band_mean(proj)
    expected = np.zeros_like(rendered.channels)
    floor = np.zeros((2, 8), dtype=complex)       # d^k/dx^k at x = 0, k = 0..7
    floor_scale = np.zeros((2, 8))
    with mp.workdps(20):
        # Ai^(k)(z_n) depends on the level n only: one set per n serves both internal levels.
        ai_ks = [np.array([float(mp.airyai(float(z_n), derivative=k)) for k in range(8)])
                 for z_n in spec.zeros]
        for i in (0, 1):
            for n, ai_k in enumerate(ai_ks):
                rel_energy = float(spec.band[i, n] - band_ref[i])
                exact = -mp.mpf(rel_energy) * mp.mpf(p.dt) / mp.mpf(p.hbar)
                phase = wrap_angle(rel_energy * (-p.dt / p.hbar))
                assert abs(mp.fmod(exact - phase + mp.pi, 2 * mp.pi) - mp.pi) \
                    <= 4e-16 * abs(exact) + 1e-15
                amp = complex(mp.expj(phase)) * flat[i, n] * spec.norms[i, n]
                args = grid.xs() / spec.lengths[i] + spec.zeros[n]
                expected[i] += amp * np.array([float(mp.airyai(float(y))) for y in args])
                terms = amp * spec.lengths[i] ** -np.arange(8.0)
                floor[i] += terms * ai_k
                # |Ai^(k)(z_n)| <= |Ai'(z_n)| (1 + |z_n|)^(k/2): the size of each term
                floor_scale[i] += np.abs(terms * ai_k[1]) * (1.0 - spec.zeros[n]) ** (np.arange(8) / 2)
    assert np.max(np.abs(rendered.channels - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert np.all(np.abs(rendered.floor_derivatives - floor) <= 1e-14 * floor_scale)


def test_floor_terms_normalize_an_eigenfunction(bouncer_params):
    """The ground state N Ai(x / l + z_1) on configs/bouncer.cfg's lambda/8 lattice:
    the plain trapezoid misses its unit norm by the leading floor term
    -20 / 30240 (h / l)^6 (3.5e-11; f^(5)(0) = 20 / l^6 for every level), and the
    Euler-Maclaurin floor terms through h^8, from mpmath derivatives, bring it
    within 1e-14.  Higher levels leave more: the h^10 term grows with |z_n|
    (2.3e-13 at the sample packet's dominant level, 8e-13 at its top one)."""
    p = bouncer_params
    proj = bc.bouncer_coefficients(p)
    grid = bc.bouncer_grid(p, proj)
    spec, h = proj.spectrum, grid.spacing
    l, z, norm = spec.lengths[0], spec.zeros[0], spec.norms[0, 0]
    channels = np.zeros((2, grid.n_points), dtype=complex)
    channels[0] = norm * bc.airy_ai(grid.xs() / l + z)
    floor = np.zeros((2, 8), dtype=complex)
    with mp.workdps(30):
        floor[0] = [norm * l ** -k * float(mp.airyai(float(z), derivative=k)) for k in range(8)]
    plain = orc.GridWavefunction(grid, channels).norm_sq() - 1.0
    assert plain == pytest.approx(-20.0 / 30240.0 * (h / l) ** 6, rel=1e-2)
    assert abs(orc.GridWavefunction(grid, channels, floor).norm_sq() - 1.0) <= 1e-14


def _stencil(p, center, offsets):
    """(g, projection) at p.g + each offset, on the center's level count."""
    n_max = center.spectrum.n_max
    return [(g, bc.bouncer_coefficients(p.replace(g=g), n_max)) for g in (p.g + o for o in offsets)]


def _oracle_offset(p, center):
    """The first offset the bouncer oracle asks for."""
    return 2.0 * math.sqrt(2e-4 / bc.bouncer_qfi_longtime(p, projection=center))


def _band_mean(proj):
    """Each level's band energy averaged over its weights: the phase reference
    render_spectral takes from the projection at the base g."""
    weights = np.abs(proj.coefficients) ** 2
    return [float((w @ band) / w.sum()) for w, band in zip(weights, proj.spectrum.band)]


def _render_layout(p, family, t, center):
    """The rows render_spectral keeps (any state and level above 1e-14 of its
    largest weight) and the coefficient row of every state and level, phased
    against center's band means and the level constants at p.g: center's band
    less its mean, and the exact change of the band (it scales as g^(2/3)) and
    of the level constant, each wrapped on its own."""
    weights = np.abs(np.array([proj.coefficients for _, proj in family]))
    rows = np.flatnonzero(np.any(weights > 1e-14 * weights.max(axis=2, keepdims=True),
                                 axis=(0, 1)))
    coeff = np.empty((len(family), 2, rows.size), dtype=complex)
    band_ref = _band_mean(center)
    for s, (g, proj) in enumerate(family):
        scaling = math.expm1(math.log1p((g - p.g) / p.g) * (2.0 / 3.0))
        for i in (0, 1):
            band = center.spectrum.band[i, rows]
            shift = band * scaling - p.m * p.x0 * (1.0 + p.z_eff(i)) * (g - p.g)
            phases = wrap_angle((band - band_ref[i]) * (-t / p.hbar)) + wrap_angle(shift * (-t / p.hbar))
            coeff[s, i] = proj.coefficients[i, rows] * np.exp(1j * phases) * proj.spectrum.norms[i, rows]
    return rows, coeff


def _unwindowed_render(p, family, t, grid, center):
    """render_spectral without the decay cut: Ai and Ai' on every kept row in
    full, the same Taylor shift from the family's base and the same 12-row
    contraction, so the window is the only difference."""
    engine = bc.default_engine()
    xs = grid.xs()
    zeros = family[0][1].spectrum.zeros
    rows, coeff = _render_layout(p, family, t, center)
    l_base = bc.gravitational_length(p, 0)
    kappa = 1.0 / np.array([proj.spectrum.lengths for _, proj in family]) - 1.0 / l_base
    order = _taylor_order(np.max(np.abs(kappa)) * grid.x_max,
                             max(bc._RENDER_CUT_Y, -zeros[rows].min()))
    channels = np.zeros((len(family), 2, grid.n_points), dtype=complex)
    for start in range(0, rows.size, bc._RENDER_ROWS):
        sel = slice(start, start + bc._RENDER_ROWS)
        y = xs / l_base + zeros[rows[sel], None]
        stack = np.empty((bc._TAYLOR_MAX + 1, *y.shape))
        stack[0], stack[1] = engine.ai(y)
        bc._airy_derivatives(stack, y)
        for s in range(len(family)):
            for i in (0, 1):
                c = coeff[s, i, sel]
                sums = np.einsum("cm,jmn->jcn", np.stack([c.real, c.imag]), stack[:order + 1])
                for j in range(order, 0, -1):
                    sums[j - 1] += kappa[s, i] * xs / j * sums[j]
                re, im = sums[0]
                channels[s, i].real += re
                channels[s, i].imag += im
    return channels


def test_windowed_render_matches_unwindowed_reference(bouncer_params):
    """Cutting each basis row at y = 26 changes the state by nothing visible,
    for the base g and the oracle's stencil g -+ d/2 rendered as one family."""
    p = bouncer_params
    center = bc.bouncer_coefficients(p)
    grid = bc.bouncer_grid(p, center)
    d = _oracle_offset(p, center)
    family = [(p.g, center), *_stencil(p, center, (-0.5 * d, 0.5 * d))]
    rendered = [psi.channels for psi in bc.render_spectral(p, family, p.dt, grid, center)]
    expected = _unwindowed_render(p, family, p.dt, grid, center)
    for got, want in zip(rendered, expected):
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def _per_row_render(p, family, t, grid, center, bases):
    """render_spectral with no Taylor shift: every row of every state and
    level evaluated directly at that state and level's own length, one
    engine.ai call per row, and summed by one einsum per 12-row chunk.
    Rows (s, i) stop at the decay cut of the length bases[s, i]: the
    family's base, or the base a split renders them from."""
    engine = bc.default_engine()
    xs = grid.xs()
    zeros = family[0][1].spectrum.zeros
    rows, coeff = _render_layout(p, family, t, center)
    channels = np.zeros((len(family), 2, grid.n_points), dtype=complex)
    for s, (_, proj) in enumerate(family):
        for i in (0, 1):
            ends = np.searchsorted(xs / bases[s, i], bc._RENDER_CUT_Y - zeros[rows], side="right")
            for start in range(0, rows.size, bc._RENDER_ROWS):
                sel = slice(start, start + bc._RENDER_ROWS)
                width = int(ends[sel].max())
                basis = np.zeros((len(ends[sel]), width))
                for row, z_n, end in zip(basis, zeros[rows[sel]], ends[sel]):
                    row[:end] = engine.ai(xs[:end] / proj.spectrum.lengths[i] + z_n)[0]
                c = coeff[s, i, sel]
                re, im = np.einsum("cm,mn->cn", np.stack([c.real, c.imag]), basis)
                channels[s, i, :width].real += re
                channels[s, i, :width].imag += im
    return channels


def _assert_matches_per_row(rendered, expected, exact):
    """Within 2e-15 of the largest value on the (state, level) pairs in exact
    (unshifted: the same basis, summed by a matrix product in another order;
    measured <= 4.9e-16), within 5e-13 on the others (Taylor-shifted)."""
    for s, i in np.ndindex(expected.shape[:2]):
        got, want = rendered[s].channels[i], expected[s, i]
        tol = 2e-15 if (s, i) in exact else 5e-13
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want)), (s, i)


def test_render_spectral_matches_per_row_reference(bouncer_params):
    """On the oracle's grid, the base g and the oracle's stencil g -+ d/2 as
    one family: level 0 at the base (no shift) is within 2e-15 of the per-row
    render, and every shifted state and level within 5e-13 of it."""
    p = bouncer_params
    center = bc.bouncer_coefficients(p)
    grid = bc.bouncer_grid(p, center)
    d = _oracle_offset(p, center)
    family = [(p.g, center), *_stencil(p, center, (-0.5 * d, 0.5 * d))]
    rendered = bc.render_spectral(p, family, p.dt, grid, center)
    bases = np.full((len(family), 2), bc.gravitational_length(p, 0))
    _assert_matches_per_row(rendered, _per_row_render(p, family, p.dt, grid, center, bases),
                            exact={(0, 0)})


def test_render_splits_family_past_taylor_bound(bouncer_params):
    """At d = 1e-2 g the shifts fail the order-4 bound, so the family is
    rendered as families of one, each from its own level 0: level 0 within
    2e-15, level 1 (shifted from level 0) within 5e-13."""
    p = bouncer_params
    center = bc.bouncer_coefficients(p)
    grid = bc.bouncer_grid(p, center)
    d = 1e-2 * p.g
    family = _stencil(p, center, (-0.5 * d, 0.5 * d))
    lengths = np.array([proj.spectrum.lengths for _, proj in family])
    shift = np.max(np.abs(1.0 / lengths - 1.0 / bc.gravitational_length(p, 0))) * grid.x_max
    assert _taylor_order(shift, bc._RENDER_CUT_Y) is None
    rendered = bc.render_spectral(p, family, p.dt, grid, center)
    _assert_matches_per_row(rendered, _per_row_render(p, family, p.dt, grid, center, lengths[:, [0, 0]]),
                            exact={(0, 0), (1, 0)})


def test_render_splits_state_whose_levels_fail_taylor_bound(bouncer_params):
    """A clock at z_1 = 9e-7 on a grid reaching 2000 Airy lengths: the two
    levels' shift fails the bound even in a family of one, so each level is
    rendered from its own length, both within 2e-15 of the per-row render.
    Twenty equal-weight levels keep the rows short."""
    p = bouncer_params.replace(e1=9e-7 * bouncer_params.m * core.C_LIGHT**2)
    spec = bc.bouncer_spectrum(p, 20)
    flat = np.exp(0.7j * np.arange(2 * spec.n_max)).reshape(2, -1) / math.sqrt(2 * spec.n_max)
    unused = np.zeros((2, spec.n_max))
    proj = bc.BouncerProjection(spec, unused, unused, flat, 0.0, 1.0)
    grid = orc.Grid(0.0, 2000.0 * max(spec.lengths), 2**13)
    lengths = np.array([spec.lengths])
    assert _taylor_order(abs(1.0 / lengths[0, 1] - 1.0 / lengths[0, 0]) * grid.x_max,
                            bc._RENDER_CUT_Y) is None
    rendered = bc.render_spectral(p, [(p.g, proj)], p.dt, grid, proj)
    _assert_matches_per_row(rendered, _per_row_render(p, [(p.g, proj)], p.dt, grid, proj, lengths),
                            exact={(0, 0), (0, 1)})


def test_bouncer_oracle_regression_pin(bouncer_params):
    """The grid Bures oracle on configs/bouncer.cfg, pinned to 1e-13.

    The amplitude miss is a sum of squares, so rounding in the rendered
    channels is not amplified: a 1-ulp relative perturbation of every
    channel moves the value ~1e-15 (test_oracle_rounding_noise_floor).
    Computed from the fidelity F, the floor was ~1e-12 and the pin 1e-10;
    the miss form moved the value from 933959.1754951946 (9.1e-12).
    The value moves with the lattice's point count (finer lattices:
    test_bouncer_oracle_converged_on_rule_grid), so a change to
    bouncer_grid's rule re-records it.  The render is held to the per-row
    render by test_render_spectral_matches_per_row_reference.  G formed from
    the offsets fl(g -+ d/2) realize, not the nominal d, moved it from
    933959.1754873187 (2.5e-10).  The lambda/8 lattice with Euler-Maclaurin
    floor terms moved it from 933959.1757203402 (the lambda/16 trapezoid,
    6.9e-13 above an uncorrected lambda/64 lattice's 933959.1757196998;
    now 2.9e-13 above it).  Band phases rendered as a part common to the
    family and an exact O(offset) part moved it from 933959.1757199719
    (1.4e-10): the pair's phase differences carried each state's float64
    band rounding, up to 5.2e-11 rad, and now carry 2.5e-16 rad.
    """
    assert bc.bouncer_qfi_numeric(bouncer_params) == pytest.approx(933959.175850703, rel=1e-13)


@pytest.mark.parametrize("refine, dt", [(2, None), (4, None), (2, 5.0), (4, 5.0)],
                         ids=["2", "4", "2-dt5", "4-dt5"])
def test_bouncer_oracle_converged_on_rule_grid(bouncer_params, monkeypatch, refine, dt):
    """On configs/bouncer.cfg, and at dt = 5 s, lattices 2x and 4x finer than
    bouncer_grid's on the same span move qfi_oracle by < 1e-12 relative: the
    rule-sized grid is converged.  At dt = 5 s the lambda/16 trapezoid without
    floor terms read -1.1e-12 against a lambda/48 lattice; lambda/8 with them ~4e-13."""
    p = bouncer_params if dt is None else bouncer_params.replace(dt=dt)
    rule = bc.bouncer_grid
    expected = bc.bouncer_qfi_numeric(p)

    def finer(*args):
        grid = rule(*args)
        return orc.Grid(0.0, grid.x_max, refine * (grid.n_points - 1) + 1)

    monkeypatch.setattr(bc, "bouncer_grid", finer)
    assert abs(bc.bouncer_qfi_numeric(p) - expected) <= 1e-12 * expected


@pytest.mark.parametrize("dt", [0.0, 1e-7])
def test_oracle_offset_search_keeps_g_positive(bouncer_params, monkeypatch, dt):
    """At dt = 0 or 1e-7 s the state's g-dependence is below fidelity
    resolution, so the first offset has g - d/2 <= 0 (at dt = 0 the
    long-time QFI is 0 and the search starts at its cap): an OracleError
    naming the offset, raised before any state is rendered or any at g <= 0
    is built.  It used to surface as the config error "physics.g: the
    bouncer needs g > 0 (got -0.48)", and dt = 0 rendered seven families
    (~4 s) before it."""
    asked, renders = [], []
    coefficients = bc.bouncer_coefficients
    monkeypatch.setattr(bc, "bouncer_coefficients",
                        lambda p, *args: asked.append(p.g) or coefficients(p, *args))
    monkeypatch.setattr(bc, "render_spectral", lambda *args: renders.append(args))
    with pytest.raises(orc.OracleError, match=r"offset d = \S+ .*below fidelity resolution"):
        bc.bouncer_qfi_numeric(bouncer_params.replace(dt=dt))
    assert min(asked) > 0
    assert renders == []


@pytest.mark.parametrize("x_plus", [None, 1.2e-4], ids=["bouncer_cfg", "separated"])
def test_bouncer_grid_is_fewest_points_resolving_airy(bouncer_params, x_plus):
    """bouncer_grid spans the floor to 12 Airy lengths past the highest turning
    point kept (weight above 1e-16 of the largest) on the fewest points whose
    spacing is at most 1/8 of the shortest Airy wavelength there."""
    p = bouncer_params if x_plus is None else bouncer_params.replace(x_plus=x_plus)
    proj = bc.bouncer_coefficients(p)
    grid = bc.bouncer_grid(p, proj)
    weights = np.abs(proj.coefficients) ** 2
    z_top = -proj.spectrum.zeros[np.flatnonzero((weights > 1e-16 * weights.max()).any(axis=0))[-1]]
    assert grid.x_min == 0.0
    assert grid.x_max == pytest.approx(max(proj.spectrum.lengths) * (z_top + 12.0), rel=1e-15, abs=0)
    step = 2.0 * math.pi * min(proj.spectrum.lengths) / math.sqrt(z_top) / 8.0
    assert grid.spacing <= step * (1.0 + 1e-12)
    assert orc.Grid(0.0, grid.x_max, grid.n_points - 1).spacing > step * (1.0 - 1e-12)


def test_bouncer_oracle_renders_one_family(bouncer_params, monkeypatch):
    """One oracle run on configs/bouncer.cfg renders the stencil g -+ d/2,
    g -+ d/4 as one family, fills it with one ai_rows call per 12-row chunk
    of the kept rows, and asks the miss for exactly d, then d/2."""
    families, offsets, chunks = [], [], []
    render, ai_rows, richardson = bc.render_spectral, bc.AiryEngine.ai_rows, orc.richardson_bures_qfi

    def counting_render(params, family, *args):
        families.append(family)
        return render(params, family, *args)

    def counting_ai_rows(self, *args):
        chunks.append(args[1].size)
        return ai_rows(self, *args)

    def recording_richardson(miss_at, value, delta):
        return richardson(lambda d: offsets.append(d) or miss_at(d), value, delta)

    monkeypatch.setattr(bc, "render_spectral", counting_render)
    monkeypatch.setattr(bc.AiryEngine, "ai_rows", counting_ai_rows)
    monkeypatch.setattr(orc, "richardson_bures_qfi", recording_richardson)   # bouncer looks it up there
    p = bouncer_params
    bc.bouncer_qfi_numeric(p)
    (family,) = families
    d = offsets[0]
    assert offsets == [d, 0.5 * d]
    assert [g for g, _ in family] == [p.g - 0.5 * d, p.g + 0.5 * d, p.g - 0.25 * d, p.g + 0.25 * d]
    kept, _ = _render_layout(p, family, p.dt, bc.bouncer_coefficients(p))
    assert len(chunks) == math.ceil(kept.size / bc._RENDER_ROWS)
    assert sum(chunks) == kept.size


def test_render_evaluates_each_packed_block_once(bouncer_params, monkeypatch):
    """One render on configs/bouncer.cfg: each ai_rows call packs its rows'
    points region by region, and each nonempty region takes one
    ``AiryEngine.ai`` call for Ai and Ai' together, whose sizes sum to the
    rows' kept points; ``ai_prime`` is never called."""
    engine = bc.AiryEngine
    ai, ai_prime, ai_rows = engine.ai, engine.ai_prime, engine.ai_rows
    checked, calls, primes = [], [], []

    def packing_ai_rows(self, base, offsets, ends, *outs):
        y = np.concatenate([base[:end] + offset for offset, end in zip(offsets, ends)])
        regions = np.unique(np.searchsorted(self._region_ends(), y))
        calls.clear()
        ai_rows(self, base, offsets, ends, *outs)
        assert len(calls) == regions.size
        assert sum(calls) == int(np.sum(ends))
        checked.append(len(calls))

    def counting_ai(self, y):
        calls.append(np.size(y))
        return ai(self, y)

    p = bouncer_params
    center = bc.bouncer_coefficients(p)
    monkeypatch.setattr(engine, "ai_rows", packing_ai_rows)
    monkeypatch.setattr(engine, "ai", counting_ai)
    monkeypatch.setattr(engine, "ai_prime", lambda self, y: primes.append(y) or ai_prime(self, y))
    bc.render_spectral(p, [(p.g, center)], p.dt, bc.bouncer_grid(p, center), center)
    assert checked and all(checked)
    assert not primes, f"ai_prime called {len(primes)} times"


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
