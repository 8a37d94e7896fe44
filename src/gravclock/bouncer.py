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
evaluation in cache-sized sorted blocks cut into one slice per region
(see ``AiryEngine``).  The Airy zeros are solved once per count and
shared read-only, so a sweep solves each level count once.  The grid
render evaluates each basis row only up to a decay cut, past which Ai is
below 1e-39 (see ``render_spectral``).
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

from .core import BOUNCER_N_MAX_CAP, PhysicalParams
from .gaussian import wrap_angle
from .oracle import Grid, GridWavefunction, fidelity, richardson_bures_qfi

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
# Basis rows per render chunk: 64 rows of 2^14 points take 8 MB.
_RENDER_ROWS = 64
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
    node values, and the points of a sorted slice are summed by one
    Clenshaw pass, each coefficient row spread over them by ``repeat``.

    Outside the table the DLMF 9.7 asymptotic expansions apply, each
    computing only the function asked for; on the negative axis the cosine
    and sine of the phase come from one half-angle tangent.  Ai and Ai' are
    exactly 0 past y = 108.  Arguments are evaluated in fixed blocks of 2^14
    points, so temporaries stay cache-sized whatever the call size.  Each
    block is put in ascending order (a view when it is already monotone,
    as every production argument array is; an argsort otherwise) and cut
    by ``searchsorted`` into one slice per region.  NaN gives NaN.

    Against mpmath over [-170, 40] the absolute error is below 6e-14 for
    Ai and 8e-13 for Ai' (the tests gate 1e-12 and 2e-11).  It is ~1e-15
    on the table and grows on the negative axis with the rounding of the
    phase zeta = (2/3) |y|^1.5.
    """

    series_cutoff = 4.5
    neg_cutoff = 15.0
    pos_cutoff = 12.0

    def __init__(self) -> None:
        self._coeffs = None        # (Ai, Ai') tables, (degree + 1, intervals)

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

    def _table(self):
        if self._coeffs is None:
            self._coeffs = self._chebyshev_coefficients()
        return self._coeffs

    def _chebyshev_coefficients(self) -> tuple[np.ndarray, np.ndarray]:
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
        """Clenshaw sum of each point's own interval series, for ascending y.

        The points of an interval are contiguous, so each coefficient row
        reaches its points by one ``repeat`` over the interval counts.
        """
        coeffs = self._table()[derivative]
        n_iv = coeffs.shape[1]
        u = (y + self.neg_cutoff) / _TABLE_WIDTH
        idx = np.minimum(u.astype(np.intp), n_iv - 1)
        counts = np.diff(np.searchsorted(idx, np.arange(n_iv + 1)))
        s = 2.0 * (u - idx) - 1.0
        two_s = 2.0 * s
        b1 = coeffs[-1].repeat(counts)
        b2 = np.zeros_like(s)
        for row in coeffs[-2:0:-1]:
            # b_k = c_k + 2 s b_{k+1} - b_{k+2}, written over b_{k+2}.
            b2 -= two_s * b1
            np.subtract(row.repeat(counts), b2, out=b2)
            b1, b2 = b2, b1
        return coeffs[0].repeat(counts) + s * b1 - b2

    # -- public evaluation ----------------------------------------------------

    def _eval(self, y, derivatives: tuple[bool, ...] = (False,)) -> list[np.ndarray]:
        """Ai (False) and/or Ai' (True) of y, one array per entry of derivatives."""
        y = np.asarray(y, dtype=float)
        flat = y.ravel()
        outs = [np.empty_like(flat) for _ in derivatives]
        # Upper ends of the regions for searchsorted(side="right"): y < -neg_cutoff
        # is y <= the float below it.  Past 108 the value is 0; NaN sorts last.
        cuts = np.array([np.nextafter(-self.neg_cutoff, -np.inf), self.pos_cutoff,
                         _UNDERFLOW_Y, np.inf])
        branches = (self._asym_neg, self._chebyshev, self._asym_pos)
        for start in range(0, flat.size, _BLOCK):
            block = flat[start:start + _BLOCK]
            parts = [out[start:start + _BLOCK] for out in outs]
            order = None
            if block[0] <= block[-1] and np.all(block[:-1] <= block[1:]):
                ys, views = block, parts
            elif block[0] > block[-1] and np.all(block[:-1] >= block[1:]):
                ys, views = block[::-1], [part[::-1] for part in parts]
            else:                            # unsorted or NaN-laden
                order = np.argsort(block)
                ys = block[order]
                views = [np.empty_like(ys) for _ in parts]
            ends = np.searchsorted(ys, cuts, side="right").tolist()
            for derivative, view in zip(derivatives, views):
                for branch, lo, hi in zip(branches, [0, *ends], ends):
                    if hi > lo:
                        view[lo:hi] = branch(ys[lo:hi], derivative)
                view[ends[2]:ends[3]] = 0.0
                view[ends[3]:] = np.nan
            if order is not None:
                for part, view in zip(parts, views):
                    part[order] = view
        return [out.reshape(y.shape) for out in outs]

    def ai(self, y) -> np.ndarray | float:
        out = self._eval(y)[0]
        return float(out) if np.ndim(y) == 0 else out

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
    """Ai'(y) to ~1e-12 absolute for |y| < 1e3."""
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
    """Characteristic Airy length of internal level i."""
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
    if min(params.x_plus, params.x_minus) < 3.0 * params.sigma:
        warnings.warn("floor clearance x_pm >> sigma is violated; the Gaussian "
                      "tail touches the floor", stacklevel=2)
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
    tail: float                # worst truncation mass over (level, path)
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
    """Smallest n past the peak where both paths' coefficients die to 1e-8, at most 1e4.

    Levels are scanned in blocks of 512 zeros, each block in one pass: the
    running peak (carried across blocks) includes level n itself, and the
    first level below 1e-8 of it is the answer.
    """
    engine = default_engine()
    l0 = gravitational_length(params, 0)
    s = params.sigma / l0
    best = 0.0
    block_size = 512
    for n_lo in range(1, BOUNCER_N_MAX_CAP + 1, block_size):
        n_hi = min(n_lo + block_size - 1, BOUNCER_N_MAX_CAP)
        zeros = engine.zeros(n_hi)[n_lo - 1:]
        mag = np.maximum(np.exp(-((zeros + params.x_plus / l0) / (2.0 * s)) ** 2),
                         np.exp(-((zeros + params.x_minus / l0) / (2.0 * s)) ** 2))
        peak = np.maximum(np.maximum.accumulate(mag), best)
        done = np.flatnonzero((peak > 0) & (mag < 1e-8 * peak))
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
    tail = max(0.0, 1.0 - min(masses))
    if tail > 1e-3:
        raise ValueError(f"coefficient truncation mass {tail:.2e} > 1e-3 at n_max = {n_max}; "
                         "raise n_max or leave it unset")
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
# Grid rendering of the spectral state (for the fidelity oracle)
# ---------------------------------------------------------------------------

def bouncer_grid(params: PhysicalParams, projection: BouncerProjection,
                 n_points: int = 2**14) -> Grid:
    """Grid from the floor to past the highest contributing turning point."""
    weights = np.abs(projection.coefficients) ** 2
    keep = weights > 1e-16 * weights.max()
    z_sel = projection.spectrum.zeros[np.any(keep, axis=0)]
    l_max = max(projection.spectrum.lengths)
    x_max = l_max * (float(np.max(-z_sel)) + 12.0)
    # Resolve the shortest Airy oscillation with ~16 points.
    lam_min = 2.0 * math.pi * min(projection.spectrum.lengths) / math.sqrt(np.max(-z_sel))
    n_resolve = int(math.ceil(x_max / (lam_min / 16.0)))
    return Grid(0.0, x_max, max(n_points, 1 << n_resolve.bit_length()))


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


def render_spectral(params: PhysicalParams, projection: BouncerProjection,
                    t: float, grid: Grid, ref: SpectralPhaseRef | None = None) -> GridWavefunction:
    """Sample sum_n c_{i,n} e^{-i E_{i,n} t / hbar} psi_{i,n}(x).

    Phases are taken relative to ``ref`` (per-level constants and band
    mean), which callers comparing two states must share; the remaining
    per-level constant is physically irrelevant only within a level, so
    its g-variation is restored exactly via the analytic x0 term.

    Each basis row Ai(x / l_i + z_n) is ascending in its argument and is
    evaluated only up to the decay cut y = 26 (Ai(26) ~ 1e-39); past it
    the row is exactly 0.  Rows go into 64-row bases, and a chunk's sum
    stops at the cut of its highest level, which reaches furthest in x.
    """
    engine = default_engine()
    spectrum = projection.spectrum
    xs = grid.xs()
    channels = np.zeros((2, grid.n_points), dtype=complex)
    if ref is None:
        ref = spectral_phase_ref(params, projection)
    for i in (0, 1):
        weights = np.abs(projection.coefficients[i])
        keep = np.where(weights > 1e-14 * weights.max())[0]
        l_i = spectrum.lengths[i]
        z_i = params.z_eff(i)
        const_shift = -params.m * params.x0 * (1.0 + z_i) * (params.g - ref.g_ref)
        scaled = xs / l_i
        # Row n is evaluated on scaled[:ends[n]]; past it y > _RENDER_CUT_Y.
        ends = np.searchsorted(scaled, _RENDER_CUT_Y - spectrum.zeros[keep], side="right")
        basis = np.empty((min(_RENDER_ROWS, len(keep)), grid.n_points))
        for start in range(0, len(keep), _RENDER_ROWS):
            sel = keep[start:start + _RENDER_ROWS]
            sel_ends = ends[start:start + _RENDER_ROWS]
            width = int(sel_ends.max())
            rows = basis[:len(sel), :width]
            for row, z_n, end in zip(rows, spectrum.zeros[sel], sel_ends):
                row[:end] = engine.ai(scaled[:end] + z_n)
                row[end:] = 0.0
            rel_energy = (spectrum.band[i, sel] - ref.band_ref[i]) + const_shift
            phases = wrap_angle(-rel_energy.astype(_LD) * _LD(t) / _LD(params.hbar))
            coeff = (projection.coefficients[i, sel] * np.exp(1j * phases)
                     * spectrum.norms[i, sel])
            # Real and imaginary rows times the real basis: the basis is never
            # copied to complex.  einsum keeps the product on this thread;
            # BLAS worker threads would spin between chunks, costing more CPU
            # than they save.
            re, im = np.einsum("cm,mn->cn", np.stack([coeff.real, coeff.imag]), rows)
            channels[i, :width].real += re
            channels[i, :width].imag += im
    return GridWavefunction(grid, channels)


def bouncer_qfi_numeric(params: PhysicalParams, n_max: int | None = None) -> float:
    """Fidelity QFI of the state rendered at t = dt (the dt^2 oracle)."""
    center = bouncer_coefficients(params, n_max)
    n_fixed = center.spectrum.n_max
    grid = bouncer_grid(params, center)
    ref = spectral_phase_ref(params, center)
    # Start the offset search where the long-time QFI puts 1 - F near 1e-4.
    guess = bouncer_qfi_longtime(params, projection=center)
    delta = 2.0 * math.sqrt(2e-4 / guess) if guess > 0 else None

    def state_at(g_value: float) -> GridWavefunction:
        proj = bouncer_coefficients(params.replace(g=g_value), n_fixed)
        return render_spectral(params.replace(g=g_value), proj, params.dt, grid, ref)

    qfi, resolved = richardson_bures_qfi(lambda lo, hi: fidelity(state_at(lo), state_at(hi)),
                                         params.g, delta)
    if not resolved:
        warnings.warn("bouncer QFI below fidelity resolution", stacklevel=2)
    return qfi

