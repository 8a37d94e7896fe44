"""Quantum bouncer with an internal clock: Airy spectra and the dt^2 QFI.

A linear gravitational potential over an infinite floor at ``x = 0``
quantizes each internal level into shifted-Airy eigenfunctions

    psi_{i,n}(x) = N_{i,n} Ai(x / l_i + z_n),
    N_{i,n} = 1 / (sqrt(l_i) Ai'(z_n)),
    l_i = (hbar^2 / (2 m^2 g (1 + z_i)))^(1/3),

with ``z_n`` the (negative) Airy zeros and eigenvalues

    E_{i,n} = m (-g (z_n l_i + x0) + V0) (1 + z_i) + E_i.

Projecting the two-height initial superposition on this basis gives
time-independent coefficients, so the long-time QFI for g grows only as
dt^2 times the variance of dE/dg over the level distribution.

The Airy engine is self-contained: one float64 piecewise-Chebyshev table
of Ai and Ai' on [-15, 12], built once from extended-precision series and
ODE marching, the DLMF 9.7 asymptotic expansions outside it, and
evaluation in cache-sized blocks, each taken whole when it lies in one
region and split by one boolean mask per region otherwise (see
``AiryEngine``).  The Airy zeros are solved once per count and shared
read-only, so a sweep solves each level count once.  The grid render
draws a family of states (the oracle's Bures stencil) from one basis, Ai
and Ai' of x / l_0 + z_n up to a decay cut past which Ai is below 1e-39;
each state and level is a Taylor shift of its argument by the Airy ODE
to the first order whose remainder bound is below 1e-16 (at most 4, else
families of one; see ``render_spectral`` and ``AiryEngine.ai_rows``).
Gaussian projections of Ai come from the two-sided Laplace transform:

    Int Ai(u) exp(-(u - w)^2 / (4 s^2)) du
        = 2 sqrt(pi) s exp(s^2 w + (2/3) s^6) Ai(w + s^4),

evaluated in log space because the two factors overflow separately.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import BOUNCER_N_MAX_CAP, PhysicalParams, require_bouncer_g, require_floor_clearance
from .gaussian import wrap_angle
from .oracle import Grid, GridWavefunction, bures_miss, richardson_bures_qfi

_LD = np.longdouble

AI_ZERO = _LD("0.35502805388781723926006318600418317639797917419917724058332651030081004245")
AIP_ZERO = _LD("-0.25881940379280679840518356018920396347909113835536239261196040809129874")

_SQRT_PI = math.sqrt(math.pi)
_LOG_2_SQRT_PI = math.log(2.0 * _SQRT_PI)

# Ai(y) and Ai'(y) underflow double precision past this argument (Ai(108)
# ~ 3e-326), so these points are set to exactly 0 without evaluation.
_UNDERFLOW_Y = 108.0
# Points per evaluation block: each temporary is at most 128 kB.
_BLOCK = 1 << 14
# Rendered basis rows stop here: Ai(26) ~ 1e-39, so the rest of a row is 0.
_RENDER_CUT_Y = 26.0
# Render chunks: Ai and four derivatives on 12 rows of n points take 480 n bytes (3.9 MB at
# 2^13, configs/bouncer.cfg), a 4-state family's sums over 2048 points 1.3 MB; Taylor orders <= 4.
_RENDER_ROWS, _RENDER_COLS, _TAYLOR_MAX = 12, 2048, 4
# Table intervals and Chebyshev degree: degree 13 already reaches rounding
# error (~1e-15) on width-1/2 intervals at y = -15; 14 leaves a margin.
_TABLE_WIDTH = 0.5
_TABLE_DEGREE = 14


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
# DLMF 9.7.5-6: sum_k (-1)^k {u,v}_k zeta^-k for y > 0, indexed by derivative.
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
    Ai'.  It is built once, on first use, from extended-precision values
    at its nodes: the Maclaurin series on |y| <= series_cutoff, and Taylor
    marching of the Airy ODE beyond it (leftward from the series on the
    negative axis; inward from the asymptotic seed on the positive axis,
    which is the stable direction).  A bare series/asymptotic split cannot
    reach 1e-12 in that band.  The coefficients come from one DCT-I of the
    node values, and the points are summed by one Clenshaw pass, each
    coefficient row spread by ``repeat`` over the runs of points that share
    an interval, so the points need not be sorted.

    Outside the table the DLMF 9.7 asymptotic expansions apply, each
    computing only the function asked for; on the negative axis the cosine
    and sine of the phase come from one half-angle tangent.  Ai and Ai' are
    exactly 0 past y = 108.  Arguments are evaluated in fixed blocks of 2^14
    points, so temporaries stay cache-sized whatever the call size.  A
    block whose points all lie in one region goes to that region's formula
    as it stands, in any order.  Any other block (the zeros and the
    Laplace arguments span several) sends each region's points to that
    region's formula through one boolean mask per region.  Every formula
    is elementwise, so a point's value does not depend on the block it
    came in.  NaN gives NaN.  ``ai_rows`` fills many shifted rows of one
    ascending base at once, gathering their points region by region into
    full single-region blocks.

    Against mpmath over [-170, 40] the absolute error is below 6e-14 for
    Ai and 8e-13 for Ai' (the tests gate 1e-12 and 2e-11).  It is ~1e-15
    on the table and grows on the negative axis with the rounding of the
    phase zeta = (2/3) |y|^1.5: to 4e-13 for Ai and 1.3e-11 for Ai' at -1e3.
    """

    series_cutoff = 4.5
    neg_cutoff = 15.0
    pos_cutoff = 12.0

    # -- extended-precision node values -------------------------------------

    @staticmethod
    def _series(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y = np.asarray(y, dtype=_LD)
        y3 = y * y * y
        ai = AI_ZERO + AIP_ZERO * y
        term_a = np.full_like(y, AI_ZERO)        # chain n = 0 mod 3
        term_b = AIP_ZERO * y                    # chain n = 1 mod 3
        aip = np.full_like(y, AIP_ZERO)
        dterm_a = np.full_like(y, AIP_ZERO)      # chain m = 0 mod 3 of Ai'
        dterm_b = (AI_ZERO / 2) * y * y          # chain m = 2 mod 3 of Ai'
        aip = aip + dterm_b
        n_a, n_b = 0, 1
        m_a, m_b = 0, 2
        for _ in range(34):
            term_a = term_a * y3 / ((n_a + 2) * (n_a + 3))
            n_a += 3
            term_b = term_b * y3 / ((n_b + 2) * (n_b + 3))
            n_b += 3
            ai = ai + term_a + term_b
            dterm_a = dterm_a * y3 / ((m_a + 1) * (m_a + 3))
            m_a += 3
            dterm_b = dterm_b * y3 / ((m_b + 1) * (m_b + 3))
            m_b += 3
            aip = aip + dterm_a + dterm_b
        return ai, aip

    @staticmethod
    def _taylor_step(y0, f, fp, h, n_terms: int = 40):
        """Advance (Ai, Ai') from y0 to y0 + h via the ODE's Taylor series.

        Works elementwise on arrays as well as on scalars.
        """
        coeffs = [f, fp, y0 * f / 2]
        for n in range(1, n_terms - 2):
            coeffs.append((y0 * coeffs[n] + coeffs[n - 1]) / ((n + 1) * (n + 2)))
        val = _LD(0.0)
        der = _LD(0.0)
        for c in reversed(coeffs):
            val = val * h + c
        for k in range(len(coeffs) - 1, 0, -1):
            der = der * h + k * coeffs[k]
        return val, der

    def _march(self, y_start: float, y_stop: float, f: _LD, fp: _LD,
               step: float = 0.25):
        """March the ODE from y_start to y_stop, recording knots."""
        knots = [(_LD(y_start), f, fp)]
        y = _LD(y_start)
        h = _LD(step if y_stop > y_start else -step)
        n_steps = int(math.ceil(abs(y_stop - y_start) / step))
        for _ in range(n_steps):
            f, fp = self._taylor_step(y, f, fp, h)
            y = y + h
            knots.append((y, f, fp))
        return knots

    # -- asymptotic expansions ----------------------------------------------

    @staticmethod
    def _asym_pos(y: np.ndarray, derivative: bool, log: bool = False) -> np.ndarray:
        """Ai(y) (or Ai'(y)) for y > pos_cutoff; with log=True, log|Ai(y)|
        (or log|Ai'(y)|), which stays finite where the value underflows."""
        zeta = (2.0 / 3.0) * y * np.sqrt(y)
        ln = (np.log(_horner(_POS_SERIES[derivative], 1.0 / zeta)) - zeta - _LOG_2_SQRT_PI
              + (0.25 if derivative else -0.25) * np.log(y))
        if log:
            return ln
        return -np.exp(ln) if derivative else np.exp(ln)

    @staticmethod
    def _asym_neg(y: np.ndarray, derivative: bool) -> np.ndarray:
        """Ai(y) (or Ai'(y)) for y < -neg_cutoff.

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
        even = _horner(_NEG_EVEN[derivative], inv2)
        odd = _horner(_NEG_ODD[derivative], inv2)
        odd *= inv
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
        if derivative:
            # (sin even - cos odd) quarter / sqrt(pi)
            sin *= even
            cos *= odd
            sin -= cos
            quarter /= _SQRT_PI
            sin *= quarter
            return sin
        # (cos even + sin odd) / (sqrt(pi) quarter)
        cos *= even
        sin *= odd
        cos += sin
        quarter *= _SQRT_PI
        cos /= quarter
        return cos

    # -- the table ----------------------------------------------------------

    @functools.cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        """Chebyshev coefficients of Ai and Ai', (degree + 1, intervals) each."""
        # Knots every 0.25, with extended-precision (Ai, Ai') at each.
        ys = np.arange(-self.series_cutoff, self.series_cutoff + 0.125, 0.25)
        f, fp = self._series(ys)
        knots = list(zip(ys.astype(_LD), f, fp))
        knots += self._march(-self.series_cutoff, -self.neg_cutoff - 0.5, f[0], fp[0])
        seed_y = self.pos_cutoff + 0.5
        seed = np.array([seed_y])
        ai0, aip0 = (_LD(self._asym_pos(seed, derivative)[0]) for derivative in (False, True))
        knots += self._march(seed_y, self.series_cutoff, ai0, aip0)
        knot_y, knot_f, knot_fp = (np.array(col) for col in zip(*knots))

        # Chebyshev extreme points of every interval, one column each.
        n_iv = round((self.pos_cutoff + self.neg_cutoff) / _TABLE_WIDTH)
        d = _TABLE_DEGREE
        j = np.arange(d + 1)
        cheb_x = np.cos(np.pi * j / d)
        centers = -self.neg_cutoff + _TABLE_WIDTH * (np.arange(n_iv) + 0.5)
        nodes = centers.astype(_LD) + _LD(0.5 * _TABLE_WIDTH) * cheb_x.astype(_LD)[:, None]
        near = np.abs(knot_y.astype(float)[:, None, None] - nodes.astype(float)).argmin(axis=0)
        values = self._taylor_step(knot_y[near], knot_f[near], knot_fp[near],
                                   nodes - knot_y[near])

        # DCT-I: interpolant coefficients from values at the extreme points.
        weights = np.ones(d + 1)
        weights[[0, d]] = 0.5
        dct = (2.0 / d) * np.cos(np.pi * np.outer(j, j) / d)
        dct *= weights[:, None] * weights[None, :]
        return tuple((dct.astype(_LD) @ v).astype(float) for v in values)

    def _chebyshev(self, y: np.ndarray, derivative: bool) -> np.ndarray:
        """Clenshaw sum of each point's own interval series, in any order.

        Each coefficient row reaches its points by one ``repeat`` over the
        runs of equal interval index: one run per interval for ascending
        input, a few per row for ascending rows laid end to end.
        """
        coeffs = self._table[derivative]
        u = (y + self.neg_cutoff) / _TABLE_WIDTH
        idx = np.minimum(u.astype(np.intp), coeffs.shape[1] - 1)
        s = 2.0 * (u - idx) - 1.0
        edges = np.flatnonzero(idx[1:] != idx[:-1]) + 1
        bounds = np.concatenate(([0], edges, [idx.size]))
        counts = bounds[1:] - bounds[:-1]
        runs = coeffs[:, idx[bounds[:-1]]]       # one column per run
        two_s = 2.0 * s
        b1 = runs[-1].repeat(counts)
        b2 = np.zeros_like(s)
        for row in runs[-2:0:-1]:
            # b_k = c_k + 2 s b_{k+1} - b_{k+2}, written over b_{k+2}.
            b2 -= two_s * b1
            np.subtract(row.repeat(counts), b2, out=b2)
            b1, b2 = b2, b1
        return runs[0].repeat(counts) + s * b1 - b2

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

    def _eval(self, y, derivatives: tuple[bool, ...] = (False,)) -> list[np.ndarray]:
        """Ai (False) and/or Ai' (True) of y, one array per entry of derivatives.

        A block whose minimum and maximum lie in one region is evaluated as
        it stands.  Any other block (several regions, or NaN) sends the
        points of each region present to that region's formula through one
        boolean mask per region.
        """
        y = np.asarray(y, dtype=float)
        flat = y.ravel()
        outs = [np.empty_like(flat) for _ in derivatives]
        cuts = self._region_ends()
        branches = (self._asym_neg, self._chebyshev, self._asym_pos,
                    lambda ys, derivative: 0.0, lambda ys, derivative: np.nan)
        for start in range(0, flat.size, _BLOCK):
            block = flat[start:start + _BLOCK]
            parts = [out[start:start + _BLOCK] for out in outs]
            # min and max are NaN if any point is.
            lo, hi = np.searchsorted(cuts, [block.min(), block.max()]).tolist()
            if lo == hi < 4:
                for derivative, part in zip(derivatives, parts):
                    part[:] = branches[lo](block, derivative)
                continue
            regions = np.searchsorted(cuts, block)
            for region, branch in enumerate(branches):
                mask = regions == region
                if mask.any():
                    ys = block[mask]
                    for derivative, part in zip(derivatives, parts):
                        part[mask] = branch(ys, derivative)
        return [out.reshape(y.shape) for out in outs]

    def ai(self, y) -> np.ndarray | float:
        out = self._eval(y)[0]
        return float(out) if np.ndim(y) == 0 else out

    def ai_rows(self, base: np.ndarray, offsets: np.ndarray, ends: np.ndarray,
                out: np.ndarray, out_prime: np.ndarray) -> None:
        """Fill out[j, :ends[j]] with Ai(base[:ends[j]] + offsets[j]), out_prime
        likewise with Ai', and the rest of both rows with 0.

        base must be ascending, so every row is.  The rows' points are cut
        into regions by ``searchsorted`` and, region by region, copied into
        one reused 2^14-point buffer; each filled buffer goes through ``ai``
        and ``ai_prime`` as a single-region block and is copied back, bit for
        bit what one call per row gives.
        """
        cuts = self._region_ends()
        bounds = []
        for row, prime, offset, end in zip(out, out_prime, offsets, ends):
            np.add(base[:end], offset, out=row[:end])
            row[end:] = prime[end:] = 0.0
            bounds.append([0, *np.searchsorted(row[:end], cuts, side="right").tolist()])
        buf = np.empty(_BLOCK)
        for region in range(len(cuts)):
            targets, fill = [], 0            # (out, out_prime) views copied into buf, in order
            for row, prime, bound in zip(out, out_prime, bounds):
                lo, hi = bound[region], bound[region + 1]
                while lo < hi:
                    n = min(hi - lo, _BLOCK - fill)
                    targets.append((row[lo:lo + n], prime[lo:lo + n]))
                    buf[fill:fill + n] = targets[-1][0]
                    fill += n
                    lo += n
                    if fill == _BLOCK:
                        self._scatter(buf, targets)
                        targets, fill = [], 0
            if fill:
                self._scatter(buf[:fill], targets)

    def _scatter(self, args: np.ndarray, targets: list[tuple[np.ndarray, np.ndarray]]) -> None:
        """Ai and Ai' of args, copied in consecutive pieces into the (Ai, Ai') targets."""
        cuts = np.cumsum([target.size for target, _ in targets])[:-1]
        for (target, prime), value, slope in zip(targets, np.split(self.ai(args), cuts),
                                                 np.split(self.ai_prime(args), cuts)):
            target[:], prime[:] = value, slope

    def ai_prime(self, y) -> np.ndarray | float:
        out = self._eval(y, (True,))[0]
        return float(out) if np.ndim(y) == 0 else out

    def ai_log(self, y) -> tuple[np.ndarray, np.ndarray]:
        """(sign of Ai(y), log|Ai(y)|): from ``ai`` up to pos_cutoff, beyond
        it from the asymptotic sum, finite far past where Ai underflows."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        sign = np.ones_like(y)
        out = np.empty_like(y)
        small = y <= self.pos_cutoff
        if np.any(small):
            vals = self.ai(y[small])
            sign[small] = np.sign(vals)
            with np.errstate(divide="ignore"):
                out[small] = np.log(np.abs(vals))
        out[~small] = self._asym_pos(y[~small], False, log=True)
        return sign, out

    # -- zeros ------------------------------------------------------------------

    @functools.lru_cache(maxsize=64)
    def zeros(self, n_max: int) -> np.ndarray:
        """First n_max negative zeros of Ai via safeguarded Newton.

        The zeros depend on the count alone, so each count is solved once
        per engine and the read-only array is shared.  A count is never
        served by slicing a longer solve: Newton stops on a criterion over
        the whole array, so ``zeros(m)[:n]`` and ``zeros(n)`` can differ in
        their last bits.
        """
        n = np.arange(1, n_max + 1, dtype=float)
        t = 3.0 * math.pi * (4.0 * n - 1.0) / 8.0
        t2 = t * t
        z = -(t ** (2.0 / 3.0)) * (1.0 + 5.0 / 48.0 / t2 - 5.0 / 36.0 / t2**2
                                   + 77125.0 / 82944.0 / t2**3)
        for iteration in range(100):
            f, fp = self._eval(z, (False, True))
            step = f / fp
            step = np.clip(step, -0.5, 0.5)
            z = z - step
            if np.max(np.abs(step)) < 1e-13 * np.max(np.abs(z)):
                break
        else:
            raise AiryConvergenceError("Airy zero Newton did not converge in 100 iterations")
        z.flags.writeable = False
        return z


@functools.cache
def default_engine() -> AiryEngine:
    return AiryEngine()


def airy_ai(y):
    """Ai(y) to 1e-12 absolute for |y| < 1e3."""
    if np.any(np.abs(y) >= 1e3):
        raise ValueError("airy_ai supports |y| < 1e3; use the spectral helpers beyond")
    return default_engine().ai(y)


def airy_ai_prime(y):
    """Ai'(y) to 1e-12 absolute for -170 <= y < 1e3 and 2e-11 for -1e3 < y < -170."""
    if np.any(np.abs(y) >= 1e3):
        raise ValueError("airy_ai_prime supports |y| < 1e3")
    return default_engine().ai_prime(y)


def airy_zero(n: int) -> float:
    """n-th negative zero of Ai, 1 <= n <= 1e4, to 1e-10."""
    if not 1 <= n <= BOUNCER_N_MAX_CAP:
        raise ValueError(f"airy_zero supports 1 <= n <= {BOUNCER_N_MAX_CAP}")
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
    """Eigensystem split as E_{i,n} = level_const_i + band_{i,n}.

    The split matters numerically: the level constant (anchor potential
    plus internal energy) dwarfs the n-dependent band by many orders, so
    phase differences between nearby parameter values must never be
    formed by subtracting full eigenvalues.
    """

    n_max: int
    zeros: np.ndarray          # z_n < 0, shape (n_max,)
    lengths: tuple[float, float]
    level_const: np.ndarray    # J, shape (2,)
    band: np.ndarray           # J, shape (2, n_max): m g (-z_n) l_i (1 + z_i)
    norms: np.ndarray          # m^-1/2 (signed), shape (2, n_max)

    @property
    def energies(self) -> np.ndarray:
        return self.level_const[:, None] + self.band


def bouncer_spectrum(params: PhysicalParams, n_max: int) -> BouncerSpectrum:
    """Discrete eigensystem of the floored linear potential."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    require_floor_clearance(params)
    engine = default_engine()
    zeros = engine.zeros(n_max)
    aip = engine.ai_prime(zeros)
    lengths = (gravitational_length(params, 0), gravitational_length(params, 1))
    level_const = np.empty(2)
    band = np.empty((2, n_max))
    norms = np.empty((2, n_max))
    for i in (0, 1):
        z_i = params.z_eff(i)
        e_i = params.e1 if i else params.e0
        l_i = lengths[i]
        level_const[i] = params.m * (-params.g * params.x0 + params.v0) * (1.0 + z_i) + e_i
        band[i] = params.m * params.g * (-zeros) * l_i * (1.0 + z_i)
        norms[i] = 1.0 / (math.sqrt(l_i) * aip)
    return BouncerSpectrum(n_max, zeros, lengths, level_const, band, norms)


@dataclass(frozen=True)
class BouncerProjection:
    spectrum: BouncerSpectrum
    c_plus: np.ndarray         # real, shape (2, n_max): <psi_{i,n}|psi_+>
    c_minus: np.ndarray
    coefficients: np.ndarray   # complex, shape (2, n_max): renormalized c_{i,n}
    tail: float                # worst |1 - mass| over (level, path)
    renorm: float              # norm of the raw coefficient vector


def _path_projection(params: PhysicalParams, spectrum: BouncerSpectrum,
                     level: int, x_center: float) -> np.ndarray:
    """<psi_{level,n} | Gaussian at x_center> from the Laplace-transform
    closed form of the module docstring, in log space."""
    l_i = spectrum.lengths[level]
    s = params.sigma / l_i
    w = spectrum.zeros + x_center / l_i
    base = l_i * np.abs(spectrum.norms[level]) * (2.0 * math.pi * params.sigma**2) ** -0.25
    ai_sign, ln_ai = default_engine().ai_log(w + s**4)
    ln_c = np.log(2.0 * _SQRT_PI * s * base) + s * s * w + (2.0 / 3.0) * s**6 + ln_ai
    with np.errstate(over="ignore"):
        mag = np.exp(ln_c)
    return np.sign(spectrum.norms[level]) * ai_sign * mag


def _auto_n_max(params: PhysicalParams) -> int:
    """Smallest n past both paths' peaks where their coefficients die to 1e-8, at most 1e4.

    Levels are scanned in blocks of 512 zeros, each block in one pass: the
    running peak (carried across blocks) includes level n itself, and the
    first level below 1e-8 of it that also lies past the upper path's peak,
    z_n < -max(x+, x-) / l0, is the answer.  Without that second condition
    two well-separated paths stop the scan in the gap between their peaks.
    """
    engine = default_engine()
    l0 = gravitational_length(params, 0)
    s = params.sigma / l0
    z_top = -max(params.x_plus, params.x_minus) / l0
    best = 0.0
    block_size = 512
    for n_lo in range(1, BOUNCER_N_MAX_CAP + 1, block_size):
        n_hi = min(n_lo + block_size - 1, BOUNCER_N_MAX_CAP)
        zeros = engine.zeros(n_hi)[n_lo - 1:]
        mag = np.maximum(np.exp(-((zeros + params.x_plus / l0) / (2.0 * s)) ** 2),
                         np.exp(-((zeros + params.x_minus / l0) / (2.0 * s)) ** 2))
        peak = np.maximum(np.maximum.accumulate(mag), best)
        done = np.flatnonzero((peak > 0) & (mag < 1e-8 * peak) & (zeros < z_top))
        if done.size:
            return n_lo + int(done[0])
        best = float(peak[-1])
    warnings.warn("coefficient auto-selection hit the n_max cap of 1e4", stacklevel=3)
    return BOUNCER_N_MAX_CAP


def bouncer_coefficients(params: PhysicalParams, n_max: int | None = None) -> BouncerProjection:
    """Projection of the two-height superposition on the bouncer basis.

    Each path's coefficients come from the Laplace-transform closed form
    in log space; a basis missing more than 1e-3 of either path's mass
    raises ValueError rather than renormalize the rest to a wrong number.
    The combined coefficients (c+ + e^{i phi} c-)/2 are renormalized to
    unit total mass (ignoring branch overlap); the factor is reported.
    """
    if n_max is None:
        n_max = _auto_n_max(params)
    spectrum = bouncer_spectrum(params, n_max)
    c_plus = np.empty((2, n_max))
    c_minus = np.empty((2, n_max))
    for i in (0, 1):
        c_plus[i] = _path_projection(params, spectrum, i, params.x_plus)
        c_minus[i] = _path_projection(params, spectrum, i, params.x_minus)
    phase = complex(math.cos(params.phi), math.sin(params.phi))
    combined = 0.5 * (c_plus + phase * c_minus)
    masses = [float(np.sum(c * c)) for c in (c_plus[0], c_plus[1], c_minus[0], c_minus[1])]
    # Two-sided: a mass above 1 (infinite, at the level cap) is no better than one below.
    tail = max(abs(1.0 - mass) for mass in masses)
    if not tail <= 1e-3:
        advice = ("no level count up to the cap holds this packet" if n_max == BOUNCER_N_MAX_CAP
                  else "raise n_max or leave it unset")
        raise ValueError(f"coefficient truncation mass |1 - mass| = {tail:.2e} > 1e-3 at "
                         f"n_max = {n_max}; {advice}")
    total = float(np.sum(np.abs(combined) ** 2))
    renorm = math.sqrt(total)
    if renorm < 1e-6:
        # Destructive interference of the two path projections: leave the
        # (near-null) coefficients unscaled rather than dividing by ~0.
        warnings.warn("combined projection nearly null (destructive phase); "
                      "coefficients left unnormalized", stacklevel=2)
        return BouncerProjection(spectrum, c_plus, c_minus, combined, tail, renorm)
    return BouncerProjection(spectrum, c_plus, c_minus, combined / renorm, tail, renorm)


def denergy_dg(params: PhysicalParams, spectrum: BouncerSpectrum) -> np.ndarray:
    """Analytic dE_{i,n}/dg with the anchor V(x0) held fixed.

    d l_i / d g = -l_i / (3 g), so the zero-point term contributes with a
    2/3 factor.
    """
    out = np.empty_like(spectrum.energies)
    for i in (0, 1):
        z_i = params.z_eff(i)
        l_i = spectrum.lengths[i]
        out[i] = params.m * (-(2.0 / 3.0) * spectrum.zeros * l_i
                             - params.x0) * (1.0 + z_i)
    return out


def bouncer_qfi_longtime(params: PhysicalParams, n_max: int | None = None,
                         projection: BouncerProjection | None = None) -> float:
    """Long-time QFI for g: (4 dt^2 / hbar^2) Var(dE/dg) over |c_{i,n}|^2."""
    proj = projection if projection is not None else bouncer_coefficients(params, n_max)
    weights = np.abs(proj.coefficients) ** 2
    de = denergy_dg(params, proj.spectrum)
    mean = float(np.sum(weights * de))
    var = float(np.sum(weights * de * de)) - mean * mean
    return 4.0 * params.dt**2 / params.hbar**2 * max(var, 0.0)


# ---------------------------------------------------------------------------
# Grid rendering of the spectral state (for the Bures oracle)
# ---------------------------------------------------------------------------

def bouncer_grid(params: PhysicalParams, projection: BouncerProjection) -> Grid:
    """Grid from the floor to 12 Airy lengths past the highest contributing turning point, on
    the smallest power of two of points spaced <= 1/16 of the shortest Airy wavelength there."""
    weights = np.abs(projection.coefficients) ** 2
    z_sel = projection.spectrum.zeros[np.any(weights > 1e-16 * weights.max(), axis=0)]
    l_max = max(projection.spectrum.lengths)
    x_max = l_max * (float(np.max(-z_sel)) + 12.0)
    lam_min = 2.0 * math.pi * min(projection.spectrum.lengths) / math.sqrt(np.max(-z_sel))
    n_resolve = int(math.ceil(x_max / (lam_min / 16.0)))     # intervals of <= lam_min / 16
    return Grid(0.0, x_max, 1 << n_resolve.bit_length())


@dataclass(frozen=True)
class SpectralPhaseRef:
    """Common phase reference for comparing spectral states at nearby g.

    The level constants differ between two parameter values only through
    the -m g x0 (1+z_i) term; that difference is formed analytically as a
    single small product, never by subtracting the huge constants.
    """

    g_ref: float
    band_ref: np.ndarray      # J, shape (2,)


def spectral_phase_ref(params: PhysicalParams,
                       projection: BouncerProjection) -> SpectralPhaseRef:
    weights = np.abs(projection.coefficients) ** 2
    band_ref = np.empty(2)
    for i in (0, 1):
        wsum = weights[i].sum()
        band_ref[i] = float((weights[i] @ projection.spectrum.band[i]) / wsum) \
            if wsum > 0 else 0.0
    return SpectralPhaseRef(params.g, band_ref)


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
                    t: float, grid: Grid, ref: SpectralPhaseRef) -> list[GridWavefunction]:
    """Sample sum_n c_{i,n} e^{-i E_{i,n} t / hbar} psi_{i,n}(x) for each state of
    ``family``, a sequence of (g, projection at that g) on one level count.

    Phases are relative to ``ref`` (per-level constants and band mean), shared
    by the states compared; the constants' g-variation is restored exactly
    via the analytic x0 term.  One basis serves every state and level: Ai and
    Ai' of y = x / l_0 + z_n (l_0 the level-0 length at ``params.g``) up to
    the decay cut y = 26 (Ai(26) ~ 1e-39), one ``AiryEngine.ai_rows`` call
    per 12-row chunk.  State s, level i is the Taylor sum of Ai(y + Delta),
    Delta = x (1 / l_{s,i} - 1 / l_0), up to the first order J whose bound
    (max|Delta| sqrt(1 + max|y|))^(J+1) / (J+1)! is below 1e-16 (J = 4 at the
    oracle's offsets; Delta = 0 is exact).  Past J = 4 a family is split into
    families of one, each from its own level 0, and a state into its levels.
    Per column block, one matrix product per order j contracts the rows (re,
    im) of every state and level with the chunk's Ai^(j)(y), summed in powers
    of each one's Delta.  Kept rows: any state and level above 1e-14 of its largest.
    """
    xs = grid.xs()
    zeros = family[0][1].spectrum.zeros
    weights = np.abs(np.array([proj.coefficients for _, proj in family]))
    rows = np.flatnonzero((weights > 1e-14 * weights.max(axis=2, keepdims=True)).any(axis=(0, 1)))
    lengths = np.array([proj.spectrum.lengths for _, proj in family])
    coeff = np.empty((len(family), 2, 2, rows.size))      # state, level, (re, im), row
    one_plus_z = 1.0 + np.array([[params.z_eff(0)], [params.z_eff(1)]])
    for s, (g_value, proj) in enumerate(family):
        const_shift = -params.m * params.x0 * one_plus_z * (g_value - ref.g_ref)
        rel_energy = (proj.spectrum.band[:, rows] - ref.band_ref[:, None]) + const_shift
        phases = wrap_angle(-rel_energy.astype(_LD) * _LD(t) / _LD(params.hbar))
        c = proj.coefficients[:, rows] * np.exp(1j * phases) * proj.spectrum.norms[:, rows]
        coeff[s] = np.stack([c.real, c.imag], axis=1)
    y_max = max(_RENDER_CUT_Y, -float(zeros[rows].min(initial=0.0)))
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
    return [GridWavefunction(grid, ch) for ch in channels]


def bouncer_qfi_numeric(params: PhysicalParams, n_max: int | None = None) -> float:
    """Bures QFI (``oracle.bures_miss``) of the state rendered at t = dt (the dt^2 oracle).

    An offset d renders the stencil g -+ d/2, g -+ d/4 as one family (see
    ``render_spectral``); its g -+ d/4 pair answers the d/2 call that follows,
    at the same g values since 0.5 d is exact.
    """
    center = bouncer_coefficients(params, n_max)
    grid = bouncer_grid(params, center)
    ref = spectral_phase_ref(params, center)
    # Start the offset search where the long-time QFI puts 1 - F at 2e-4.
    guess = bouncer_qfi_longtime(params, projection=center)
    delta = 2.0 * math.sqrt(2e-4 / guess) if guess > 0 else None
    pairs = {}       # offset -> its two states, from the last family rendered

    def miss_at(d: float) -> float:
        if d not in pairs:
            family = [(g, bouncer_coefficients(params.replace(g=g), center.spectrum.n_max))
                      for g in (params.g + d * np.array([-0.5, 0.5, -0.25, 0.25])).tolist()]
            states = render_spectral(params, family, params.dt, grid, ref)
            pairs.clear()
            pairs.update({d: states[:2], 0.5 * d: states[2:]})
        return bures_miss(*pairs[d])

    qfi, resolved = richardson_bures_qfi(miss_at, params.g, delta)
    if not resolved:
        warnings.warn("bouncer QFI below fidelity resolution", stacklevel=2)
    return qfi
