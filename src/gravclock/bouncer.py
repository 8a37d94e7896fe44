"""Quantum bouncer with an internal clock: Airy spectra and the dt^2 QFI.

A linear gravitational potential over an infinite floor at ``x = 0``
quantizes each internal level into shifted-Airy eigenfunctions

    psi_{i,n}(x) = N_{i,n} Ai(x / l_i + z_n),
    N_{i,n} = 1 / (sqrt(l_i) Ai'(z_n)),
    l_i = (hbar^2 / (2 m^2 g (1 + z_i)))^(1/3),

with ``z_n`` the (negative) Airy zeros and eigenvalues

    E_{i,n} = -m g (z_n l_i + x0) (1 + z_i) + E_i,

the potential measured from its value at ``x0``.

Projecting the two-height initial superposition on this basis gives
time-independent coefficients, so the long-time QFI for g grows only as
dt^2 times the variance of dE/dg over the level distribution.

The Airy engine is self-contained: one float64 piecewise-Chebyshev table
of Ai and Ai' on [-15, 12], built once from one float64 march
of the Airy ODE, the DLMF 9.7 asymptotic expansions outside it, and
evaluation in cache-sized blocks, each taken whole when it lies in one
region and split by one boolean mask per region otherwise, Ai and Ai'
together from one region dispatch (see ``AiryEngine``).  Every level
count's Airy zeros are a read-only prefix of one table.  The grid render
draws a family of states (the oracle's Bures stencil) from one basis,
Ai and Ai' of x / l_0 + z_n up
to a decay cut past which Ai is below 1e-39, with phases against the
centre projection's band means; each state and level is a Taylor shift
of its argument by the Airy ODE to the first order whose remainder bound
is below 1e-16 (at most 4, else families of one; see ``render_spectral``
and ``AiryEngine.ai_rows``), on a lambda/8 lattice whose trapezoid sums take
Euler-Maclaurin floor terms from each state's derivatives at the floor.
Gaussian projections of Ai come from the two-sided Laplace transform:

    Int Ai(u) exp(-(u - w)^2 / (4 s^2)) du
        = 2 sqrt(pi) s exp(s^2 w + (2/3) s^6) Ai(w + s^4),

evaluated in log space because the two factors overflow separately.
The projection reads no dt, so a dt sweep solves one; a g or sigma sweep counts
all rows' levels in one scan and solves each count's rows at once.
The module loads ``core`` and numpy; oracle functions import the rest when called.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import BOUNCER_N_MAX_CAP, PhysicalParams, require_bouncer_g, require_floor_clearance

AI_ZERO = 0.3550280538878172    # Ai(0), DLMF 9.2.3

_SQRT_PI = math.sqrt(math.pi)
_LOG_2_SQRT_PI = math.log(2.0 * _SQRT_PI)

# Ai(y) and Ai'(y) underflow double precision past this argument (Ai(108)
# ~ 3e-326), so these points are set to exactly 0 without evaluation.
_UNDERFLOW_Y = 108.0
# Points per evaluation block: each temporary is at most 128 kB.
_BLOCK = 1 << 14
# Rendered basis rows stop here: Ai(26) ~ 1e-39, so the rest of a row is 0.
_RENDER_CUT_Y = 26.0
# Render chunks: Ai and four derivatives on 12 rows of n points take 480 n bytes (1.4 MB at
# 2890, configs/bouncer.cfg), a 4-state family's sums over 2048 points 1.3 MB; Taylor orders <= 4.
_RENDER_ROWS, _RENDER_COLS, _TAYLOR_MAX = 12, 2048, 4
# Table intervals and Chebyshev degree: degree 13 already reaches rounding
# error (~1e-15) on width-1/2 intervals at y = -15; 14 leaves a margin.
_TABLE_WIDTH = 0.5
_TABLE_DEGREE = 14
# The table's extended-precision knots: march step (y = 0 is a knot), and Taylor terms per step.
_KNOT_STEP, _TAYLOR_TERMS = 0.25, 40
# Rows of a g or sigma column solved together: at most 64 x 4 path lines of n_max levels.
_ROW_BLOCK = 64


class AiryConvergenceError(RuntimeError):
    """Zero finding failed to converge (should not happen with safeguards)."""


def _u_coefficients(count: int) -> np.ndarray:
    """Asymptotic series coefficients u_k of the Airy expansions."""
    u = [1.0]
    for k in range(1, count):
        u.append(u[-1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1)
                 / ((2 * k - 1) * 216.0 * k))
    return np.array(u)


_U_COEFFS = _u_coefficients(15)
_V_COEFFS = _U_COEFFS * np.array(
    [(6 * k + 1) / (1.0 - 6 * k) if k else 1.0 for k in range(15)])
_ALT = (-1.0) ** np.arange(15)
# DLMF 9.7.5-6: sum_k (-1)^k {u,v}_k zeta^-k for y > 0, for Ai then Ai'.
_POS_SERIES = (_ALT * _U_COEFFS, _ALT * _V_COEFFS)
# DLMF 9.7.9-10: even and odd halves, sum_k (-1)^k {u,v}_{2k(+1)} zeta^-2k.
# Twelve terms reach 1e-16 relative from zeta(15) = 38.7 on.
_NEG_EVEN = (_ALT[:6] * _U_COEFFS[0:12:2], _ALT[:6] * _V_COEFFS[0:12:2])
_NEG_ODD = (_ALT[:6] * _U_COEFFS[1:12:2], _ALT[:6] * _V_COEFFS[1:12:2])


def _horner(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] x^k, for at least two coefficients."""
    acc = coeffs[-1] * x
    acc += coeffs[-2]
    for c in coeffs[-3::-1]:
        acc *= x
        acc += c
    return acc


class AiryEngine:
    """Ai and Ai' on the real line from one table and two asymptotic sums.

    One float64 table of piecewise Chebyshev interpolants (degree 14 on
    width-1/2 intervals) covers [-neg_cutoff, pos_cutoff] for both Ai and
    Ai'.  It is built once, on first use, from float64 values
    at its nodes: one Taylor march of the Airy ODE leftward from the
    asymptotic seed at pos_cutoff + 1/2 (the stable direction for Ai, which
    grows as the march goes), with every knot scaled so that the one at
    y = 0 equals Ai(0).  The seed picks the decaying solution and Ai(0) its
    scale; the seed alone carries the float64 rounding of its exponent
    zeta = 29.5, and its knot at 0 is off by 1e-15.  The coefficients come
    from one DCT-I of the node values, and the points are summed by one
    Clenshaw pass, each coefficient row spread by ``repeat`` over the runs
    of points that share an interval, so the points need not be sorted.

    Outside the table the DLMF 9.7 asymptotic expansions apply.  Each
    region's formula gives Ai and Ai' together from one shared prelude;
    on the negative axis the cosine and sine of the phase come from one
    half-angle tangent.  Ai and Ai' are exactly 0 past y = 108.  ``ai``
    returns the pair, evaluated in fixed blocks of 2^14 points, so
    temporaries stay cache-sized whatever the call size.  A block whose
    points all lie in one region goes to that region's formula as it
    stands, in any order.  Any other block (the zeros and the Laplace
    arguments span several) sends each region's points to that region's
    formula through one boolean mask per region.  Every formula is
    elementwise, so a point's value does not depend on the block it came
    in.  NaN gives NaN.  ``ai_rows`` fills many shifted rows of one
    ascending base at once, one ``ai`` call per region the rows reach.

    Against mpmath over [-170, 40] the absolute error is below 6e-14 for
    Ai and 8e-13 for Ai' (the tests gate 1e-12 and 2e-11).  It is ~1e-15
    on the table and grows on the negative axis with the rounding of the
    phase zeta = (2/3) |y|^1.5: to 4e-13 for Ai and 1.3e-11 for Ai' at -1e3.
    """

    series_cutoff = 4.5     # no region boundary: perfbench's tracer labels |y| <= 4.5 "series"
    neg_cutoff = 15.0
    pos_cutoff = 12.0

    # -- node values ----------------------------------------------------------

    @staticmethod
    def _taylor_step(y0, f, fp, h):
        """Advance (Ai, Ai') from y0 to y0 + h via the ODE's Taylor series.

        Works elementwise on arrays as well as on scalars.
        """
        coeffs = [f, fp, y0 * f / 2]
        for n in range(1, _TAYLOR_TERMS - 2):
            coeffs.append((y0 * coeffs[n] + coeffs[n - 1]) / ((n + 1) * (n + 2)))
        val = der = 0.0
        for c in reversed(coeffs):
            val = val * h + c
        for k in range(len(coeffs) - 1, 0, -1):
            der = der * h + k * coeffs[k]
        return val, der

    # -- asymptotic expansions ----------------------------------------------

    @staticmethod
    def _asym_pos(y: np.ndarray, log: bool = False) -> tuple[np.ndarray, np.ndarray] | np.ndarray:
        """(Ai(y), Ai'(y)) for y > pos_cutoff; with log=True, log|Ai(y)| alone,
        which stays finite where Ai underflows."""
        zeta = (2.0 / 3.0) * y * np.sqrt(y)
        inv, quarter = 1.0 / zeta, 0.25 * np.log(y)
        ln_ai = np.log(_horner(_POS_SERIES[0], inv)) - zeta - _LOG_2_SQRT_PI - quarter
        if log:
            return ln_ai
        ln_aip = np.log(_horner(_POS_SERIES[1], inv)) - zeta - _LOG_2_SQRT_PI + quarter
        return np.exp(ln_ai), -np.exp(ln_aip)

    @staticmethod
    def _asym_neg(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(Ai(y), Ai'(y)) for y < -neg_cutoff, from one zeta, phase and |y|^(1/4).

        cos and sin of the phase theta = zeta - pi/4 come from one tangent,
        tau = tan(theta / 2): cos = (1 - tau^2) / (1 + tau^2) and
        sin = 2 tau / (1 + tau^2).  numpy's float64 tan is vectorised where
        cos and sin may fall back to scalar libm, and both identities are
        well conditioned in tau, up to |tau| ~ 1e16 at the poles.  Each
        temporary is reused in place once its value is spent.
        """
        t = -y
        root = np.sqrt(t)
        zeta = (2.0 / 3.0) * t
        zeta *= root
        inv = 1.0 / zeta
        inv2 = inv * inv
        even, even_p = (_horner(coeffs, inv2) for coeffs in _NEG_EVEN)
        odd, odd_p = (_horner(coeffs, inv2) * inv for coeffs in _NEG_ODD)
        tau = np.subtract(zeta, 0.25 * math.pi, out=zeta)
        tau *= 0.5
        np.tan(tau, out=tau)
        tau2 = np.multiply(tau, tau, out=inv2)
        scale = np.add(1.0, tau2, out=inv)
        np.divide(1.0, scale, out=scale)
        cos = np.subtract(1.0, tau2, out=tau2)
        cos *= scale
        sin = np.multiply(2.0, tau, out=tau)
        sin *= scale
        quarter = np.sqrt(root, out=root)
        # Ai = (cos even + sin odd) / (sqrt(pi) quarter), Ai' = (sin even' - cos odd') quarter / sqrt(pi)
        even *= cos
        even += np.multiply(odd, sin, out=odd)
        even /= quarter * _SQRT_PI
        even_p *= sin
        even_p -= np.multiply(odd_p, cos, out=odd_p)
        even_p *= np.divide(quarter, _SQRT_PI, out=quarter)
        return even, even_p

    # -- the table ----------------------------------------------------------

    @functools.cached_property
    def _table(self) -> np.ndarray:
        """Chebyshev coefficients of Ai and Ai', shape (degree + 1, 2, intervals)."""
        # Knots every _KNOT_STEP from one leftward march off the asymptotic
        # seed, scaled so that the knot at y = 0 is Ai(0).
        y = self.pos_cutoff + 0.5
        f, fp = (float(v[0]) for v in self._asym_pos(np.array([y])))
        knots = [(y, f, fp)]
        while y > -self.neg_cutoff - 0.5:
            f, fp = self._taylor_step(y, f, fp, -_KNOT_STEP)
            y -= _KNOT_STEP
            knots.append((y, f, fp))
        knot_y, knot_f, knot_fp = (np.array(col) for col in zip(*knots))
        scale = AI_ZERO / knot_f[knot_y == 0][0]
        knot_f, knot_fp = knot_f * scale, knot_fp * scale

        # Chebyshev extreme points of every interval, one column each.
        n_iv = round((self.pos_cutoff + self.neg_cutoff) / _TABLE_WIDTH)
        d = _TABLE_DEGREE
        j = np.arange(d + 1)
        cheb_x = np.cos(np.pi * j / d)
        centers = -self.neg_cutoff + _TABLE_WIDTH * (np.arange(n_iv) + 0.5)
        nodes = centers + 0.5 * _TABLE_WIDTH * cheb_x[:, None]
        near = np.abs(knot_y[:, None, None] - nodes).argmin(axis=0)
        values = self._taylor_step(knot_y[near], knot_f[near], knot_fp[near],
                                   nodes - knot_y[near])

        # DCT-I: interpolant coefficients from values at the extreme points.
        weights = np.ones(d + 1)
        weights[[0, d]] = 0.5
        dct = (2.0 / d) * np.cos(np.pi * np.outer(j, j) / d)
        dct *= weights[:, None] * weights[None, :]
        return np.stack([dct @ v for v in values], axis=1)

    def _chebyshev(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(Ai, Ai') by one Clenshaw sum of each point's own interval series,
        in any order, both functions' rows summed together.

        Each coefficient row reaches its points by one ``repeat`` over the
        runs of equal interval index: one run per interval for ascending
        input, a few per row for ascending rows laid end to end.
        """
        table = self._table
        u = (y + self.neg_cutoff) / _TABLE_WIDTH
        idx = np.minimum(u.astype(np.intp), table.shape[2] - 1)
        s = 2.0 * (u - idx) - 1.0
        edges = np.flatnonzero(idx[1:] != idx[:-1]) + 1
        bounds = np.concatenate(([0], edges, [idx.size]))
        counts = bounds[1:] - bounds[:-1]
        runs = table[:, :, idx[bounds[:-1]]]     # (degree + 1, 2, one column per run)
        two_s = 2.0 * s
        b1 = runs[-1].repeat(counts, axis=1)
        b2 = np.zeros_like(b1)
        for row in runs[-2:0:-1]:
            # b_k = c_k + 2 s b_{k+1} - b_{k+2}, written over b_{k+2}.
            b2 -= two_s * b1
            np.subtract(row.repeat(counts, axis=1), b2, out=b2)
            b1, b2 = b2, b1
        ai, aip = runs[0].repeat(counts, axis=1) + s * b1 - b2
        return ai, aip

    # -- public evaluation ----------------------------------------------------

    def _region_ends(self) -> np.ndarray:
        """Upper ends of the evaluation regions, for ``searchsorted``.

        y < -neg_cutoff is y <= the float below it; the table runs to
        pos_cutoff, the positive sum to 108, past which the value is 0;
        NaN sorts after inf.  With side="left", ``searchsorted`` gives a
        point's region: 0 negative sum, 1 table, 2 positive sum, 3 zero,
        4 NaN.
        """
        return np.array([np.nextafter(-self.neg_cutoff, -np.inf), self.pos_cutoff,
                         _UNDERFLOW_Y, np.inf])

    def _eval(self, y) -> tuple[np.ndarray, np.ndarray]:
        """(Ai, Ai') of y, each shaped like y, from one region dispatch per block.

        A block whose minimum and maximum lie in one region is evaluated as
        it stands.  Any other block (several regions, or NaN) sends the
        points of each region present to that region's formula through one
        boolean mask per region.
        """
        y = np.asarray(y, dtype=float)
        flat = y.ravel()
        ai, aip = np.empty_like(flat), np.empty_like(flat)
        cuts = self._region_ends()
        branches = (self._asym_neg, self._chebyshev, self._asym_pos,
                    lambda ys: (0.0, 0.0), lambda ys: (np.nan, np.nan))
        for start in range(0, flat.size, _BLOCK):
            block = flat[start:start + _BLOCK]
            part, part_p = ai[start:start + _BLOCK], aip[start:start + _BLOCK]
            # min and max are NaN if any point is.
            lo, hi = np.searchsorted(cuts, [block.min(), block.max()]).tolist()
            if lo == hi < 4:
                part[:], part_p[:] = branches[lo](block)
                continue
            regions = np.searchsorted(cuts, block)
            for region, branch in enumerate(branches):
                mask = regions == region
                if mask.any():
                    part[mask], part_p[mask] = branch(block[mask])
        return ai.reshape(y.shape), aip.reshape(y.shape)

    def ai(self, y) -> tuple[np.ndarray, np.ndarray] | tuple[float, float]:
        """(Ai(y), Ai'(y)): arrays shaped like y, or floats for a scalar y."""
        ai, aip = self._eval(y)
        return (float(ai), float(aip)) if np.ndim(y) == 0 else (ai, aip)

    def ai_prime(self, y) -> np.ndarray | float:
        return self.ai(y)[1]

    def ai_rows(self, base: np.ndarray, offsets: np.ndarray, ends: np.ndarray,
                out: np.ndarray, out_prime: np.ndarray) -> None:
        """Fill out[j, :ends[j]] with Ai(base[:ends[j]] + offsets[j]), out_prime
        likewise with Ai', and the rest of both rows with 0.

        base must be ascending, so every row is.  The rows' points are cut
        into regions by ``searchsorted``; each region's slices of all rows
        go through one ``ai`` call as one array and are copied back, bit for
        bit what one call per row gives.
        """
        cuts = self._region_ends()
        spans = []
        for row, prime, offset, end in zip(out, out_prime, offsets, ends):
            np.add(base[:end], offset, out=row[:end])
            row[end:] = prime[end:] = 0.0
            bounds = [0, *np.searchsorted(row[:end], cuts, side="right").tolist()]
            spans.append([(row[lo:hi], prime[lo:hi]) for lo, hi in zip(bounds, bounds[1:])])
        for region in zip(*spans):
            args = np.concatenate([row for row, _ in region])
            if args.size:
                values, slopes = self.ai(args)
                at = 0
                for row, prime in region:
                    row[:], prime[:] = values[at:at + row.size], slopes[at:at + row.size]
                    at += row.size

    def ai_log(self, y) -> tuple[np.ndarray, np.ndarray]:
        """(sign of Ai(y), log|Ai(y)|): from ``ai`` up to pos_cutoff, beyond
        it from the asymptotic sum, finite far past where Ai underflows."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        sign, out = np.ones_like(y), np.empty_like(y)
        small = y <= self.pos_cutoff
        vals = self.ai(y[small])[0]
        sign[small] = np.sign(vals)
        with np.errstate(divide="ignore"):
            out[small] = np.log(np.abs(vals))
        out[~small] = self._asym_pos(y[~small], log=True)
        return sign, out

    # -- zeros ------------------------------------------------------------------

    def zeros(self, n_max: int) -> np.ndarray:
        """First n_max negative zeros of Ai: a read-only prefix of one table per engine,
        solved again from the first zero when a longer prefix is asked for.

        Safeguarded Newton from the DLMF 9.9 asymptotic start stops once every step
        is below 1e-13 of its zero.  Each zero's iterates depend on its own start
        alone, so a prefix is bit for bit the solve of that count.
        """
        table = vars(self).get("_zero_table", ())
        if len(table) < n_max:
            t = 3.0 * math.pi * (4.0 * np.arange(1, n_max + 1, dtype=float) - 1.0) / 8.0
            t2 = t * t
            table = -(t ** (2.0 / 3.0)) * (1.0 + 5.0 / 48.0 / t2 - 5.0 / 36.0 / t2**2
                                           + 77125.0 / 82944.0 / t2**3)
            for iteration in range(100):
                f, fp = self._eval(table)
                step = np.clip(f / fp, -0.5, 0.5)
                table = table - step
                if np.all(np.abs(step) < 1e-13 * np.abs(table)):
                    break
            else:
                raise AiryConvergenceError("Airy zero Newton did not converge in 100 iterations")
            table.flags.writeable = False
            self._zero_table = table
        return table[:n_max]


@functools.cache
def default_engine() -> AiryEngine:
    return AiryEngine()


def airy_ai(y):
    """Ai(y) to 1e-12 absolute for |y| < 1e3."""
    if np.any(np.abs(y) >= 1e3):
        raise ValueError("airy_ai supports |y| < 1e3; use the spectral helpers beyond")
    return default_engine().ai(y)[0]


def airy_ai_prime(y):
    """Ai'(y) to 1e-12 absolute for -170 <= y < 1e3 and 2e-11 for -1e3 < y < -170."""
    if np.any(np.abs(y) >= 1e3):
        raise ValueError("airy_ai_prime supports |y| < 1e3")
    return default_engine().ai_prime(y)


def airy_zero(n: int) -> float:
    """n-th negative zero of Ai, integral 1 <= n <= 1e4, to 1e-10."""
    if not 1 <= n <= BOUNCER_N_MAX_CAP or n != int(n):
        raise ValueError(f"airy_zero supports integral 1 <= n <= {BOUNCER_N_MAX_CAP}, got {n!r}")
    return float(default_engine().zeros(int(n))[-1])


# ---------------------------------------------------------------------------
# Spectrum, projections, QFI
# ---------------------------------------------------------------------------

def gravitational_length(params: PhysicalParams, level: int) -> float:
    """Characteristic Airy length of internal level i; refuses g <= 0."""
    require_bouncer_g(params.g)
    z = params.z_eff(level)
    return (params.hbar**2 / (2.0 * params.m**2 * params.g * (1.0 + z))) ** (1.0 / 3.0)


@dataclass(frozen=True)
class BouncerSpectrum:
    """Eigensystem of E_{i,n} = band_{i,n} - m g x0 (1 + z_i) + E_i.

    Only the n-dependent band is stored: the level constant is one phase per
    internal level, whose g-dependence ``denergy_dg`` and the render add analytically.
    """

    n_max: int
    zeros: np.ndarray          # z_n < 0, shape (n_max,)
    lengths: tuple[float, float]
    band: np.ndarray           # J, shape (2, n_max): m g (-z_n) l_i (1 + z_i)
    norms: np.ndarray          # m^-1/2 (signed), shape (2, n_max)


def bouncer_spectrum(params: PhysicalParams, n_max: int, aip: np.ndarray | None = None) -> BouncerSpectrum:
    """Discrete eigensystem of the floored linear potential (``aip``: Ai'(z_n), if known)."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    require_floor_clearance(params)
    engine = default_engine()
    zeros = engine.zeros(n_max)
    aip = engine.ai_prime(zeros) if aip is None else aip
    lengths = (gravitational_length(params, 0), gravitational_length(params, 1))
    band = np.empty((2, n_max))
    norms = np.empty((2, n_max))
    for i in (0, 1):
        z_i = params.z_eff(i)
        l_i = lengths[i]
        band[i] = params.m * params.g * (-zeros) * l_i * (1.0 + z_i)
        norms[i] = 1.0 / (math.sqrt(l_i) * aip)
    band.flags.writeable = norms.flags.writeable = False
    return BouncerSpectrum(n_max, zeros, lengths, band, norms)


@dataclass(frozen=True)
class BouncerProjection:
    spectrum: BouncerSpectrum
    c_plus: np.ndarray         # real, shape (2, n_max): <psi_{i,n}|psi_+>
    c_minus: np.ndarray
    coefficients: np.ndarray   # complex, shape (2, n_max): renormalized c_{i,n}
    tail: float                # worst |1 - mass| over (level, path)
    renorm: float              # norm of the raw coefficient vector


def _swept(params: PhysicalParams) -> str | None:
    """The field of a column (``core.Scenario.column``) that the projection reads: g or sigma."""
    return next((name for name in ("g", "sigma") if np.ndim(getattr(params, name))), None)


def _rows(params: PhysicalParams) -> list[PhysicalParams]:
    """The scalar sets of a g or sigma column, in order; [params] for any other set."""
    name = _swept(params)
    return [params] if name is None else [params.replace(check=False, **{name: v})
                                          for v in getattr(params, name).tolist()]


def _auto_n_max(params: PhysicalParams) -> int | list[int]:
    """Smallest n past both paths' peaks where their coefficients die to 1e-8, at most 1e4
    (on a g or sigma column, one per row).

    A path at x has |c_n| ~ exp(s^2 w + (2/3) s^6) |Ai(w + s^4)|, w = z_n + x / l0, s = sigma / l0.
    Above its peak (w < 0) that is at most the Gaussian exp(-(w / 2s)^2) down to w = -s^4; past
    it, on the momentum tail, Ai oscillates and |c_n| falls only as exp(s^2 w + (2/3) s^6), so
    there the larger of the two is the estimate.  For s > 1.96 the tail starts below 1e-8
    (exp(-s^6 / 3)) and changes no count; s = 0.52 needs 458 levels, the Gaussian alone 224.

    Levels are scanned in blocks of 512 zeros, each in one pass over all rows (each row's
    l0, s, s^4 and s^6 Python floats): the running peak (carried across blocks) includes
    level n itself, and the first level below 1e-8 of it that also lies past the upper path's
    peak, z_n < -max(x+, x-) / l0, is the answer.  Without that second condition two
    well-separated paths stop the scan in the gap between their peaks."""
    engine = default_engine()
    rows = _rows(params)
    lengths = [gravitational_length(p, 0) for p in rows]
    s = [p.sigma / l0 for p, l0 in zip(rows, lengths)]
    l0, s, s4, c6 = (np.array(v)[:, None] for v in
                     (lengths, s, [x**4 for x in s], [(2.0 / 3.0) * x**6 for x in s]))
    z_top = -max(params.x_plus, params.x_minus) / l0
    counts = np.zeros(len(rows), dtype=int)
    best = np.zeros_like(l0)
    block_size = 512
    for n_lo in range(1, BOUNCER_N_MAX_CAP + 1, block_size):
        n_hi = min(n_lo + block_size - 1, BOUNCER_N_MAX_CAP)
        zeros = engine.zeros(n_hi)[n_lo - 1:]
        mag = np.zeros((len(rows), zeros.size))
        for x in (params.x_plus, params.x_minus):
            w = zeros + x / l0
            expo = -(w / (2.0 * s)) ** 2
            np.maximum(expo, s * s * w + c6, out=expo, where=w < -s4)
            np.maximum(mag, np.exp(expo), out=mag)
        peak = np.maximum(np.maximum.accumulate(mag, axis=1), best)
        done = (peak > 0) & (mag < 1e-8 * peak) & (zeros < z_top)
        found = done.any(axis=1) & (counts == 0)
        counts[found] = n_lo + done[found].argmax(axis=1)
        if counts.all():
            break
        best = peak[:, -1:]
    else:
        warnings.warn("coefficient auto-selection hit the n_max cap of 1e4", stacklevel=3)
        counts[counts == 0] = BOUNCER_N_MAX_CAP
    return counts.tolist() if _swept(params) else int(counts[0])


def bouncer_coefficients(params: PhysicalParams, n_max: int | None = None
                         ) -> BouncerProjection | list[BouncerProjection]:
    """Projection of the two-height superposition on the bouncer basis.

    Each path's coefficients come from the Laplace-transform closed form
    in log space; a basis missing more than 1e-3 of either path's mass
    raises ValueError rather than renormalize the rest to a wrong number.
    The combined coefficients (c+ + e^{i phi} c-)/2 are renormalized to
    unit total mass (ignoring branch overlap); the factor is reported, and
    one below 1e-6 (the paths cancel) raises ValueError.
    Nothing here reads dt, so a dt column is one set and gives one projection.
    A g or sigma column gives one per row: one level-count scan covers every
    row, and the rows that share a count are solved together.
    """
    rows = _rows(params)
    counts = np.broadcast_to(_auto_n_max(params) if n_max is None else n_max, len(rows)).tolist()
    solved = {n: iter(_projections([p for p, c in zip(rows, counts) if c == n], n))
              for n in dict.fromkeys(counts)}
    out = [next(solved[n]) for n in counts]
    return out if _swept(params) else out[0]


def _projections(rows: list[PhysicalParams], n_max: int) -> list[BouncerProjection]:
    """Each row's projection at ``n_max`` levels, bit for bit its own solve: one Ai'(z_n)
    for all spectra, one ``ai_log`` call for every row's four <psi_{i,n} | Gaussian at x>.

    Only per-level arrays are stacked: each (row, path, level) line's l_i, s = sigma / l_i,
    s^4, s^6, x / l_i and (2 pi sigma^2)^(-1/4) are Python floats (numpy's ``**`` rounds
    otherwise), each mass is a sum along one line, and rows are checked in order.
    """
    engine = default_engine()
    aip = engine.ai_prime(engine.zeros(n_max))
    spectra = [bouncer_spectrum(p, n_max, aip) for p in rows]
    lines = [(l_i, p.sigma / l_i, (p.sigma / l_i) ** 4, (p.sigma / l_i) ** 6, x / l_i,
              (2.0 * math.pi * p.sigma**2) ** -0.25)
             for p, sp in zip(rows, spectra) for x in (p.x_plus, p.x_minus) for l_i in sp.lengths]
    l_i, s, s4, s6, shift, quarter = (np.array(v)[:, None] for v in zip(*lines))
    norms = np.stack([sp.norms for sp in spectra for _ in (0, 1)]).reshape(-1, n_max)
    w = spectra[0].zeros + shift
    ai_sign, ln_ai = engine.ai_log(w + s4)
    ln_c = np.log(2.0 * _SQRT_PI * s * (l_i * np.abs(norms) * quarter)) + s * s * w \
        + (2.0 / 3.0) * s6 + ln_ai
    with np.errstate(over="ignore"):
        paths = (np.sign(norms) * ai_sign * np.exp(ln_c)).reshape(len(rows), 2, 2, n_max)
    paths.flags.writeable = False
    out = []
    for p, sp, (c_plus, c_minus), masses in zip(rows, spectra, paths,
                                                np.sum(paths * paths, axis=-1).tolist()):
        # Two-sided: a mass above 1 (infinite, at the level cap) is no better than one below.
        tail = max(abs(1.0 - mass) for mass in (*masses[0], *masses[1]))
        if not tail <= 1e-3:
            advice = ("no level count up to the cap holds this packet" if n_max == BOUNCER_N_MAX_CAP
                      else "more levels would hold more of it")
            raise ValueError(f"coefficient truncation mass |1 - mass| = {tail:.2e} > 1e-3 at "
                             f"{n_max} levels; {advice}")
        combined = 0.5 * (c_plus + complex(math.cos(p.phi), math.sin(p.phi)) * c_minus)
        renorm = math.sqrt(float(np.sum(np.abs(combined) ** 2)))
        if renorm < 1e-6:
            raise ValueError(f"the two paths cancel at phi = {p.phi!r}: the combined "
                             f"projection has norm {renorm:.2e} < 1e-6, no state to normalize")
        coefficients = combined / renorm
        coefficients.flags.writeable = False
        out.append(BouncerProjection(sp, c_plus, c_minus, coefficients, tail, renorm))
    return out


def denergy_dg(params: PhysicalParams, spectrum: BouncerSpectrum) -> np.ndarray:
    """Analytic dE_{i,n}/dg with the anchor V(x0) held fixed.

    d l_i / d g = -l_i / (3 g), so the zero-point term contributes with a
    2/3 factor.
    """
    out = np.empty_like(spectrum.band)
    for i in (0, 1):
        z_i = params.z_eff(i)
        l_i = spectrum.lengths[i]
        out[i] = params.m * (-(2.0 / 3.0) * spectrum.zeros * l_i
                             - params.x0) * (1.0 + z_i)
    return out


def bouncer_qfi_longtime(params: PhysicalParams, projection: BouncerProjection | None = None
                         ) -> float | list[float]:
    """Long-time QFI for g: (4 dt^2 / hbar^2) Var(dE/dg) over |c_{i,n}|^2.

    On a column (``core.Scenario.column``) it gives one value per row, each bit for
    bit its one-row value: a dt column has one projection and one variance, and a g
    or sigma column is solved ``_ROW_BLOCK`` rows at a time by ``bouncer_coefficients``.
    """
    name = _swept(params)
    variances = []
    for lo in range(0, getattr(params, name).size if name else 1, _ROW_BLOCK):
        block = params.replace(check=False, **{name: getattr(params, name)[lo:lo + _ROW_BLOCK]}) \
            if name else params
        projections = projection if projection is not None else bouncer_coefficients(block)
        for proj in projections if name else [projections]:
            weights = np.abs(proj.coefficients) ** 2
            de = denergy_dg(params, proj.spectrum)
            mean = float(np.sum(weights * de))
            variances.append(float(np.sum(weights * de * de)) - mean * mean)
    dts, variances = (a.tolist() for a in np.broadcast_arrays(params.dt, variances))
    values = [4.0 * dt**2 / params.hbar**2 * max(var, 0.0) for dt, var in zip(dts, variances)]
    return values if name or np.ndim(params.dt) else values[0]


# ---------------------------------------------------------------------------
# Grid rendering of the spectral state (for the Bures oracle)
# ---------------------------------------------------------------------------

def bouncer_grid(params: PhysicalParams, projection: BouncerProjection) -> Grid:
    """Grid from the floor to 12 Airy lengths past the highest contributing turning point, on
    the fewest points spaced <= 1/8 of the shortest Airy wavelength there (2890 on
    configs/bouncer.cfg); the trapezoid's O(h^6) floor error is left to the floor terms."""
    from .oracle import Grid
    weights = np.abs(projection.coefficients) ** 2
    z_sel = projection.spectrum.zeros[np.any(weights > 1e-16 * weights.max(), axis=0)]
    l_max = max(projection.spectrum.lengths)
    x_max = l_max * (float(np.max(-z_sel)) + 12.0)
    lam_min = 2.0 * math.pi * min(projection.spectrum.lengths) / math.sqrt(np.max(-z_sel))
    return Grid(0.0, x_max, math.ceil(x_max / (lam_min / 8.0)) + 1)   # steps <= lam_min / 8


def _airy_derivatives(stack: np.ndarray, y: np.ndarray) -> None:
    """Fill stack[2:5] with Ai'' = y Ai, Ai''' = Ai + y Ai' and Ai'''' = y^2 Ai + 2 Ai'
    (Airy ODE, DLMF 9.2.1) from Ai in stack[0] and Ai' in stack[1]; y may be stack[4]."""
    np.multiply(y, stack[1], out=stack[3])
    stack[3] += stack[0]
    np.multiply(y, stack[0], out=stack[2])
    np.multiply(y, stack[2], out=stack[4])
    stack[4] += stack[1]
    stack[4] += stack[1]


def render_spectral(params: PhysicalParams, family: list[tuple[float, BouncerProjection]],
                    t: float, grid: Grid, center: BouncerProjection) -> list[GridWavefunction]:
    """Sample sum_n c_{i,n} e^{-i E_{i,n} t / hbar} psi_{i,n}(x) for each state of
    ``family``, a sequence of (g, projection at that g) on one level count.

    Phases are relative to each level's constant at ``params.g`` and band mean
    under ``center`` (the projection at ``params.g``), shared by the states
    compared, in two parts wrapped one by one: the centre band less that
    mean, common to every state (so its rounding cancels to first order in
    the offset), and an exact O(offset) part, band_c ((g_s / g)^(2/3) - 1)
    (the band scales as g^(2/3)) plus the level constant's analytic x0
    term.  One basis serves every state and level: Ai and Ai' of
    y = x / l_0 + z_n (l_0 the level-0 length at ``params.g``) up to
    the decay cut y = 26 (Ai(26) ~ 1e-39), one ``AiryEngine.ai_rows`` call
    per 12-row chunk.  State s, level i is the Taylor sum of Ai(y + Delta),
    Delta = x (1 / l_{s,i} - 1 / l_0), up to the first order J whose bound
    (max|Delta| sqrt(1 + max|y|))^(J+1) / (J+1)! is below 1e-16 (J = 4 at the
    oracle's offsets; Delta = 0 is exact).  Past J = 4 a family is split into
    families of one, each from its own level 0, and a state into its levels.
    Per column block, one matrix product per order j contracts the rows (re,
    im) of every state and level with the chunk's Ai^(j)(y), summed in powers
    of each one's Delta.  Kept rows: any state and level above 1e-14 of its largest.
    Each state's floor derivatives d^k/dx^k at x = 0, k = 0..7, are
    l_{s,i}^(-k-1/2) sum_n c_n p_k(z_n) over the same rows and phases, with
    Ai^(k)(z_n) = p_k(z_n) Ai'(z_n) and N_{i,n} Ai'(z_n) = l_i^(-1/2): no Airy call.
    """
    from .gaussian import wrap_angle
    from .oracle import GridWavefunction
    xs = grid.xs()
    zeros = family[0][1].spectrum.zeros
    weights = np.abs(np.array([proj.coefficients for _, proj in family]))
    rows = np.flatnonzero((weights > 1e-14 * weights.max(axis=2, keepdims=True)).any(axis=(0, 1)))
    lengths = np.array([proj.spectrum.lengths for _, proj in family])
    coeff = np.empty((len(family), 2, 2, rows.size))      # state, level, (re, im), row
    floor = np.empty((len(family), 2, 8), dtype=complex)   # state, level, d^k/dx^k at x = 0
    z = zeros[rows]     # p_k(z), from Ai^(k+2) = y Ai^(k) + k Ai^(k-1) (DLMF 9.2.1) at Ai = 0
    floor_p = np.array([0 * z, 0 * z + 1, 0 * z, z, 0 * z + 2, z * z, 6 * z, z**3 + 10])
    one_plus_z = 1.0 + np.array([[params.z_eff(0)], [params.z_eff(1)]])
    band_ref = np.array([float((w @ band) / w.sum()) if w.sum() > 0 else 0.0
                         for w, band in zip(np.abs(center.coefficients) ** 2, center.spectrum.band)])
    rate = -t / params.hbar
    band_c = center.spectrum.band[:, rows]
    common = wrap_angle((band_c - band_ref[:, None]) * rate)
    for s, (g_value, proj) in enumerate(family):
        offset = g_value - params.g        # exact (Sterbenz) for g_value in [g/2, 2g]
        scaling = math.expm1(math.log1p(offset / params.g) * (2.0 / 3.0))
        shift = band_c * scaling - params.m * params.x0 * one_plus_z * offset
        c = proj.coefficients[:, rows] * np.exp(1j * (common + wrap_angle(shift * rate)))
        floor[s] = (c @ floor_p.T) * lengths[s, :, None] ** (-0.5 - np.arange(8))
        c = c * proj.spectrum.norms[:, rows]
        coeff[s] = np.stack([c.real, c.imag], axis=1)
    y_max = max(_RENDER_CUT_Y, -float(z.min(initial=0.0)))
    channels = np.zeros((len(family), 2, grid.n_points), dtype=complex)
    basis = np.empty((_TAYLOR_MAX + 1, min(_RENDER_ROWS, rows.size), grid.n_points))
    groups = [(gravitational_length(params, 0), [(s, i) for s in range(len(family)) for i in (0, 1)])]
    while groups:
        l_base, members = groups.pop()
        s_idx, i_idx = np.array(members).T
        kappa = 1.0 / lengths[s_idx, i_idx] - 1.0 / l_base
        a = float(np.max(np.abs(kappa))) * grid.x_max * math.sqrt(1.0 + y_max)
        order = next((j for j in range(_TAYLOR_MAX + 1)        # remainder bound below 1e-16
                      if a ** (j + 1) / math.factorial(j + 1) < 1e-16), None)
        if order is None:        # split a family into states, a state into levels
            states = set(s_idx.tolist())
            groups += ([(lengths[s, 0], [(s, 0), (s, 1)]) for s in states] if len(states) > 1
                       else [(lengths[s, i], [(s, i)]) for s, i in members])
            continue
        cmat = coeff[s_idx, i_idx].reshape(-1, rows.size)       # (member, re/im) x row
        scaled = xs / l_base
        ends = np.searchsorted(scaled, _RENDER_CUT_Y - zeros[rows], side="right")
        for start in range(0, rows.size, _RENDER_ROWS):
            sel = slice(start, start + _RENDER_ROWS)
            width = int(ends[sel].max())
            stack = basis[:, :len(ends[sel]), :width]
            default_engine().ai_rows(scaled, zeros[rows[sel]], ends[sel], stack[0], stack[1])
            _airy_derivatives(stack, np.add(scaled[:width], zeros[rows[sel], None], out=stack[4]))
            # Real coefficients times the real basis, never copied to complex.
            for lo in range(0, width, _RENDER_COLS):
                cols = slice(lo, min(lo + _RENDER_COLS, width))
                sums = (cmat[:, sel] @ stack[:order + 1, :, cols]).reshape(order + 1, kappa.size, 2, -1)
                delta = (kappa[:, None] * xs[cols])[:, None, :]
                for j in range(order, 0, -1):    # Horner: sums[0] += sum_j delta^j / j! sums[j]
                    sums[j - 1] += delta / j * sums[j]
                for (s, i), (re, im) in zip(members, sums[0]):
                    channels[s, i, cols].real += re
                    channels[s, i, cols].imag += im
    return [GridWavefunction(grid, ch, d) for ch, d in zip(channels, floor)]


def bouncer_qfi_numeric(params: PhysicalParams) -> float:
    """Bures QFI (``oracle.bures_miss``) of the state rendered at t = dt (the dt^2 oracle),
    on the lambda/8 ``bouncer_grid`` with Euler-Maclaurin floor terms through h^8.

    An offset d renders ``bures_stencil`` at d and at d/2, g -+ d/2 and g -+ d/4,
    as one family (see ``render_spectral``); its g -+ d/4 pair answers the d/2
    call that follows.  An offset with d/2 >= g, which
    the search reaches only from below the fidelity window, raises OracleError:
    at once, before any render, where the long-time QFI is 0 (dt = 0).
    """
    from .oracle import OracleError, bures_miss, bures_stencil, richardson_bures_qfi
    center = bouncer_coefficients(params)
    grid = bouncer_grid(params, center)
    # Start the offset search where the long-time QFI puts 1 - F at 2e-4.
    guess = bouncer_qfi_longtime(params, projection=center)
    delta = 2.0 * math.sqrt(2e-4 / guess) if guess > 0 else math.inf
    pairs = {}       # offset -> its two states, from the last family rendered

    def miss_at(d: float) -> float:
        if not 0.5 * d < params.g:
            raise OracleError(f"offset d = {d:g} would step g = {params.g:g} to g - d/2 <= 0: "
                              "the state's g-dependence is below fidelity resolution")
        if d not in pairs:
            family = [(g, bouncer_coefficients(params.replace(g=g), center.spectrum.n_max))
                      for g in (*bures_stencil(params.g, d), *bures_stencil(params.g, 0.5 * d))]
            states = render_spectral(params, family, params.dt, grid, center)
            pairs.clear()
            pairs.update({d: states[:2], 0.5 * d: states[2:]})
        return bures_miss(*pairs[d])

    qfi, resolved = richardson_bures_qfi(miss_at, params.g, delta)
    if not resolved:
        warnings.warn("bouncer QFI below fidelity resolution", stacklevel=2)
    return qfi
