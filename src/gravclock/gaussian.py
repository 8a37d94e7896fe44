"""Complex-Gaussian branch algebra and closed-form evolution maps.

A branch is one arm x internal-level component of the interferometric
superposition, stored as a unit-norm Gaussian

    psi(x) = (2 pi S^2)^(-1/4) exp(-(x-X)^2 / (4 S^2))
             * exp(i [ L(x) + q (x - X)^2 ]),

where ``L(x) = sum(terms) + b (x - x_ref)`` is a *phase ledger*: the
constant part is kept as labeled extended-precision coefficients so that
phase differences between components are formed term-by-term before any
modular reduction (the cubic action reaches 1.5e13 rad at dt = 10 s; only
differences are observable).  A ledger holds only terms that depend on the
target or differ between the two paths of one level: a phase that does
neither shifts one level by a constant no route can see.  ``q`` is the
quadratic chirp that free spreading generates; the exact linear-potential
evolution is Gaussian-preserving, and the chirp is required for the evolved
state to be the exact solution rather than a minimum-uncertainty lookalike.

Sign conventions: x points up, the potential slope g is positive, so a
freely falling branch acquires negative mean momentum ``-m g dt (1+z)``
(the ledger slope times hbar).  Quoted magnitudes elsewhere refer to
|mean momentum|.

``evolve_state`` applies either closed-form map, exact free fall in the
linearized potential or the trapped Mach-Zehnder arm; there is no time
stepping anywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PhysicalParams, require_kink_clearance

_LD = np.longdouble
# Multiplying a float by _LD_ONE promotes it to longdouble exactly, in a
# tenth of the time of the np.longdouble constructor.
_LD_ONE = _LD(1.0)
_LD_ZERO = _LD(0.0)
TWO_PI_LD = _LD("6.283185307179586476925286766559005768")
PI_LD = _LD("3.141592653589793238462643383279502884")


class Jet:
    """A value and its derivative along one direction of parameter space.

    Arithmetic on jets is forward-mode differentiation (Griewank & Walther,
    *Evaluating Derivatives*, 2nd ed., SIAM 2008): ``evolve_state`` on
    parameters whose slopes g, g_plus and g_minus are jets gives a state
    whose means and ledgers are jets, each value computed exactly as without
    them.  Values and derivatives may be arrays, one element per sweep row.
    """

    __slots__ = ("v", "d")
    __array_ufunc__ = None    # numpy scalars defer to the reflected operators

    def __init__(self, v, d) -> None:
        self.v, self.d = v, d

    def __neg__(self) -> "Jet":
        return Jet(-self.v, -self.d)

    def __add__(self, other) -> "Jet":
        v, d = split(other)
        return Jet(self.v + v, self.d + d)

    def __sub__(self, other) -> "Jet":
        return self + -other

    def __rsub__(self, other) -> "Jet":
        return -self + other

    def __mul__(self, other) -> "Jet":
        v, d = split(other)
        return Jet(self.v * v, self.d * v + self.v * d)

    def __truediv__(self, other) -> "Jet":    # by a number, not a jet
        return Jet(self.v / other, self.d / other)

    __radd__, __rmul__ = __add__, __mul__


def split(x) -> tuple:
    """(value, derivative) of a jet; (x, 0.0) of anything else."""
    return (x.v, x.d) if isinstance(x, Jet) else (x, 0.0)


def py(x):
    """x with Python's scalar arithmetic: an array becomes an object array of Python
    floats or complexes.  numpy's own complex, ``**`` and abs loops round otherwise."""
    return x.astype(object) if isinstance(x, np.ndarray) else x


def as_float(x):
    """float(x), element by element for an array."""
    return x.astype(float) if isinstance(x, np.ndarray) else float(x)


class PrecisionError(RuntimeError):
    """Raised where numpy's longdouble is too short for the phase ledger."""


def check_extended_precision(eps: float | None = None) -> None:
    """Refuse to reduce ledger phases without a 64-bit longdouble mantissa.

    Ledger phases reach 1e13-1e15 rad, so reducing them mod 2 pi keeps
    ~1e-4 rad only with the x87 80-bit format (eps = 2^-63) or better.
    Where ``longdouble`` is plain float64 (eps = 2^-52) the reduced phase
    would be noise; this raises instead.  ``eps`` defaults to the
    platform's ``np.finfo(np.longdouble).eps``.  Run once at import.
    """
    if eps is None:
        eps = float(np.finfo(_LD).eps)
    if eps > 2.0**-63:
        raise PrecisionError(
            f"numpy longdouble has eps {eps:.3g} > 2^-63; the extended-precision "
            "phase ledger needs the 80-bit x87 format or wider")


check_extended_precision()


def wrap_angle(value) -> np.ndarray | float:
    """Reduce an extended-precision phase to (-pi, pi] in float64 (a jet's value)."""
    if isinstance(value, Jet):
        return Jet(wrap_angle(value.v), as_float(value.d))
    if isinstance(value, (float, _LD)):
        return float((value + PI_LD) % TWO_PI_LD - PI_LD)
    reduced = np.mod(np.asarray(value, dtype=_LD) + PI_LD, TWO_PI_LD) - PI_LD
    out = np.asarray(reduced, dtype=float)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class PhaseLedger:
    """Labeled decomposition of a branch phase, L(x) = sum(terms) + b (x - x_ref)."""

    terms: tuple[tuple[str, float], ...]   # (name, coefficient in rad); longdouble-valued
    slope: float                           # b, rad/m (stored as longdouble)
    x_ref: float                           # m

    def constant_wrapped(self) -> np.longdouble:
        """Sum of the terms, each reduced mod 2 pi before summation."""
        total = _LD_ZERO
        for _, value in self.terms:
            total = total + value % TWO_PI_LD
        return total

    def diff_constant(self, other: "PhaseLedger") -> np.longdouble:
        """Term-by-term difference of the constants (exact where terms match)."""
        if self.x_ref != other.x_ref:
            raise ValueError("ledger difference requires identical x_ref")
        mine = dict(self.terms)
        theirs = dict(other.terms)
        total = _LD_ZERO
        for name in sorted(mine.keys() | theirs.keys()):
            total = total + (mine.get(name, _LD_ZERO) - theirs.get(name, _LD_ZERO))
        return total

    def diff_at(self, x_self: float, other: "PhaseLedger", x_other: float) -> np.longdouble:
        """self(x_self) - other(x_other), constants subtracted term-by-term.

        The slope contribution is regrouped so that equal slopes multiply
        the (small) evaluation-point difference rather than the large
        lever arms separately; rounding then scales with the physical
        phase difference instead of the absolute phases.
        """
        out = self.diff_constant(other)
        x_self = _LD(x_self)
        out = out + other.slope * (x_self - _LD(x_other))
        out = out + (self.slope - other.slope) * (x_self - self.x_ref)
        return out


@dataclass(frozen=True)
class GaussianBranch:
    """One path (x) internal-level component of the clock state.

    ``amplitude`` is the superposition coefficient; the wavefunction
    itself is unit-norm by construction, so the component's contribution
    to the total norm is |amplitude| (up to cross-branch overlaps).
    """

    amplitude: complex
    ledger: PhaseLedger
    mean_x: float           # m  (the mean momentum is hbar * ledger.slope)
    var_x: float            # m^2
    chirp: float            # rad/m^2, quadratic phase about mean_x
    internal_level: int     # 0 | 1
    path_label: str         # "plus" | "minus"

    def __post_init__(self) -> None:
        if not np.all((self.var_x > 0) & np.isfinite(self.var_x)):   # every row's
            raise ValueError("var_x must be positive and finite")
        if not (math.isfinite(self.amplitude.real) and math.isfinite(self.amplitude.imag)):
            raise ValueError("amplitude must be finite")
        if self.internal_level not in (0, 1):
            raise ValueError("internal_level must be 0 or 1")
        if self.path_label not in ("plus", "minus"):
            raise ValueError("path_label must be 'plus' or 'minus'")


@dataclass(frozen=True)
class ClockState:
    """Superposition of Gaussian branches over the two internal levels."""

    components: tuple[GaussianBranch, ...]

    def branch(self, path: str, level: int) -> GaussianBranch:
        for b in self.components:
            if b.path_label == path and b.internal_level == level:
                return b
        raise KeyError((path, level))


# ---------------------------------------------------------------------------
# State construction and evolution
# ---------------------------------------------------------------------------

def _spreading(params: PhysicalParams, z: float) -> tuple[float, float]:
    """Evolved variance and chirp for effective mass m/(1-z)."""
    m_eff = params.m / (1.0 - z)
    sigma2 = as_float(py(params.sigma) ** 2)
    eps = params.hbar * params.dt / (2.0 * m_eff * sigma2)
    var = sigma2 * (1.0 + eps * eps)
    chirp = params.hbar * params.dt / (8.0 * m_eff * sigma2 * var)
    return var, chirp


def _evolved_branch_map(params: PhysicalParams, scenario: str, level: int,
                        above_kink: bool) -> tuple:
    """(ledger, fall distance, var_x, chirp) of an evolved branch.

    They depend only on the branch's level and, on the Mach-Zehnder, on
    its side of the kink, so branches that share those share the map.
    Ledger terms promote each float to longdouble exactly inside the
    arithmetic instead of calling the (slow) longdouble constructor.
    """
    z = params.z_eff(level)
    m, g, dt, hb = params.m, params.g, params.dt, params.hbar
    dt_l, hb_l = _LD_ONE * dt, _LD_ONE * hb
    if scenario == "mach_zehnder":
        var, chirp = _spreading(params, 0.0)
        if above_kink:
            g_side, x_side0 = params.g_plus, params.x_plus0
        else:
            g_side, x_side0 = params.g_minus, params.x_minus0
        # V_MZ(x) = g_side (x - x_side0) + g (x_side0 - x0), re-anchored at x_ref = x0.
        # The fixed anchor and the slope-dependent constant live in separate
        # ledger terms so parameter differentiation never subtracts a tiny
        # g-dependent piece from a larger constant.
        terms = {
            "potential_anchor": -dt_l * m * z * (g * (x_side0 - params.x0)) / hb_l,
            "potential_slope_const": -dt_l * m * z * g_side
            * (_LD_ONE * params.x0 - x_side0) / hb_l,
        }
        slope = -dt_l * m * z * g_side / hb_l
        ledger = PhaseLedger(tuple(terms.items()), slope, float(params.x0))
        return ledger, 0.0, var, chirp
    var, chirp = _spreading(params, z)
    zl, g_l = _LD_ONE * z, _LD_ONE * g
    # z-orders are stored as separate ledger terms: the clock corrections
    # sit ~10 decades below the leading coefficients, so folding them into
    # one number would push them under the extended-precision ulp.
    cubic = -(m * g_l * g_l * dt_l**3 / (6 * hb_l))
    terms = {"cubic": cubic, "cubic_z": cubic * (zl - zl * zl)}
    slope = -m * g_l * (1 + zl) * dt_l / hb_l
    ledger = PhaseLedger(tuple(terms.items()), slope, float(params.x0))
    return ledger, 0.5 * g * dt * dt * (1.0 - z * z), var, chirp


def evolve_state(params: PhysicalParams, scenario: str) -> ClockState:
    """The interferometer state after dt under the scenario's closed-form map.

    It starts as the equal superposition of the two heights and the two
    clock levels: amplitude 1/2 on the plus path and e^{i phi}/2 on the
    minus path, width sigma, zero momentum.  The amplitudes ignore the
    branch overlap, which is exponentially small in the validated regime
    (the exact norm is always available through :func:`state_norm_sq`).

    Free fall is exact evolution in the linearized potential
    V_F = g (x - x0): internal level i feels effective mass
    m/(1-z_i) and potential m (1+z_i) V_F, so over a time dt

        mean_x -> x_c - (g dt^2 / 2)(1 - z_i^2)
        S_i^2  -> sigma^2 + (hbar dt (1 - z_i) / (2 m sigma))^2

    and the phase ledger gains

        cubic = -(m g^2 dt^3 / 6 hbar)(1 + z_i - z_i^2)
        slope = -m g (1+z_i) dt / hbar

    with x_ref = x0; hbar * slope is the mean momentum.  The rest-energy
    phase -dt E_i / hbar, like the spreading (Gouy) phase, is the same on
    both paths of a level and independent of g, so the map drops it.  The cubic
    constant is the bracketed classical action term; dimensional analysis
    fixes its prefactor to g^2/6 (the g/3 form sometimes quoted is a
    misprint).  The exact bracket is (1+z)^2(1-z); the z^3 difference from
    the truncated form used here is far below double precision for any
    physical z.

    On the trapped Mach-Zehnder arm the potential couples only through
    time dilation.  The trap cancels the gravitational force on the
    center of mass, so each branch stays put and spreads freely; level i
    only accumulates (less the rest-energy phase)

        L(x) = -dt m z_i V_MZ(x) / hbar

    on its own side of the kink; ``core.require_kink_clearance`` refuses a
    branch within five spread widths of the kink, at dt = 0 too.  The tiny
    momentum implied by the phase slope (-dt E_i g_side / c^2, many orders
    below the momentum width) is the quoted <p> = 0 at the working order.

    The map is computed once per level (and kink side), since branches
    differ in nothing else but their centre.  At dt = 0 it is the identity,
    bit for bit.  Slopes given as :class:`Jet` objects carry their
    derivatives into the means and ledgers (nothing else depends on them).
    On a column (``core.Scenario.column``: dt, sigma or g an array of sweep
    rows) every map is computed for all rows at once, each row's element
    exactly its one-row value; the rows' kink clearance was checked one by one.
    """
    if scenario not in ("free_fall", "mach_zehnder"):
        raise ValueError(f"unknown scenario {scenario!r}")
    trapped = scenario == "mach_zehnder"
    if trapped and np.ndim(params.dt) == np.ndim(params.sigma) == 0:
        require_kink_clearance(params)
    minus_amp = 0.5 * complex(math.cos(params.phi), math.sin(params.phi))
    maps: dict[tuple, tuple] = {}
    components = []
    for path, x_c, amp in (("plus", params.x_plus, 0.5 + 0.0j),
                           ("minus", params.x_minus, minus_amp)):
        for level in (0, 1):
            key = (level, trapped and x_c > params.x0)
            if key not in maps:
                maps[key] = _evolved_branch_map(params, scenario, *key)
            ledger, fall, var, chirp = maps[key]
            components.append(GaussianBranch(amp, ledger, x_c - fall, var, chirp, level, path))
    return ClockState(tuple(components))


# ---------------------------------------------------------------------------
# Overlaps and Gaussian pair moments
# ---------------------------------------------------------------------------

class PairMoments:
    """Closed-form integrals over a pair of branches of one internal level.

    conj(psi_a) psi_b = C exp(-alpha u^2 + beta u) in the shifted
    coordinate u = x - (X_a + X_b)/2, so <P_a psi_a | P_b psi_b> with P_a,
    P_b first order reduces to Gaussian moments up to u^2.  The huge, shared
    ledger constants enter only through their term-by-term difference,
    computed in extended precision and wrapped once.  Branches whose fields
    are arrays give array moments, complex ones in Python's arithmetic (``py``).
    """

    __slots__ = ("overlap", "_mu", "_s2", "off_a", "off_b")

    def __init__(self, a: GaussianBranch, b: GaussianBranch) -> None:
        if a.internal_level != b.internal_level or a.ledger.x_ref != b.ledger.x_ref:
            raise ValueError("pair moments require one internal level and a common ledger x_ref")
        d = b.mean_x - a.mean_x
        x_mid = 0.5 * (a.mean_x + b.mean_x)
        inv4a = 1.0 / (4.0 * a.var_x)
        inv4b = 1.0 / (4.0 * b.var_x)
        alpha = (inv4a + inv4b) + 1j * py(a.chirp - b.chirp)
        dslope = b.ledger.slope - a.ledger.slope
        db = as_float(dslope)
        beta = d * (inv4b - inv4a) + 1j * py(db - (a.chirp + b.chirp) * d)
        gamma_re = -0.25 * d * d * (inv4a + inv4b)
        gamma_im_small = 0.25 * d * d * (b.chirp - a.chirp)
        # Term-by-term ledger difference in extended precision.
        big_phase = b.ledger.diff_constant(a.ledger) \
            + dslope * (_LD_ONE * x_mid - a.ledger.x_ref)
        lam = wrap_angle(big_phase)
        norm_a = py(2.0 * math.pi * a.var_x) ** -0.25
        norm_b = py(2.0 * math.pi * b.var_x) ** -0.25
        z_int = _complex_ufunc(np.sqrt, np.pi / alpha) * _complex_ufunc(np.exp, beta * beta / (4.0 * alpha))
        self.overlap = norm_a * norm_b \
            * _complex_ufunc(np.exp, gamma_re + 1j * py(gamma_im_small + lam)) * z_int
        self._mu = beta / (2.0 * alpha)
        self._s2 = 1.0 / (2.0 * alpha)
        self.off_a = py(0.5 * d)      # (x - X_a) = u + off_a
        self.off_b = py(-0.5 * d)     # (x - X_b) = u + off_b

    def expect_u(self, coeffs) -> complex:
        """overlap * E[poly(u)] for poly given by ascending coeffs in u, degree <= 2."""
        # E[u^k] for the shifted complex Gaussian, k = 0..2.
        moments = (1.0, self._mu, self._mu * self._mu + self._s2)
        if len(coeffs) > len(moments):
            raise ValueError("pair moments implemented up to degree 2")
        acc = 0.0j
        for c, m_k in zip(coeffs, moments):
            acc += c * m_k
        return self.overlap * acc

    def braket(self, poly_a, poly_b) -> complex:
        """<P_a psi_a | P_b psi_b> for first-order P_a = c0 + c1 (x - X_a), P_b
        likewise about X_b, each given as (c0,) or (c0, c1).

        Conjugation of P_a is applied here; both are re-expanded in u.
        """
        if len(poly_a) > 2 or len(poly_b) > 2:
            raise ValueError("braket takes polynomials of degree <= 1")
        a0, a1 = (c.conjugate() for c in (*poly_a, 0j)[:2])
        b0, b1 = (*poly_b, 0j)[:2]
        a0, b0 = a0 + a1 * self.off_a, b0 + b1 * self.off_b
        return self.expect_u((a0 * b0, a0 * b1 + a1 * b0, a1 * b1))


def _complex_ufunc(f, z):
    """f (np.sqrt or np.exp, whose loops round as the scalars do) of z as Python complexes."""
    return py(f(z.astype(complex))) if isinstance(z, np.ndarray) else complex(f(z))


def overlap(a: GaussianBranch, b: GaussianBranch) -> complex:
    """<a|b> of the unit-norm branch wavefunctions (amplitudes excluded).

    Zero across internal levels; includes envelope separation, linear
    and quadratic phases, and the extended-precision ledger difference.
    """
    return PairMoments(a, b).overlap if a.internal_level == b.internal_level else 0j


def state_norm_sq(state: ClockState) -> float:
    """Exact squared norm, amplitude-weighted with all cross overlaps."""
    total = 0.0j
    comps = state.components
    for j, a in enumerate(comps):
        total += abs(a.amplitude) ** 2
        for b in comps[j + 1:]:
            total += 2.0 * (np.conj(a.amplitude) * b.amplitude * overlap(a, b)).real
    return float(total.real)


def wavefunction_values(branch: GaussianBranch, x: np.ndarray) -> np.ndarray:
    """Sample the unit-norm branch wavefunction on an array of positions.

    The per-point phase is assembled in extended precision (each ledger
    term reduced mod 2 pi separately) and wrapped before exponentiation.
    """
    x = np.asarray(x, dtype=float)
    const = branch.ledger.constant_wrapped()
    xl = x.astype(_LD)
    phase_ld = const + _LD(branch.ledger.slope) * (xl - _LD(branch.ledger.x_ref))
    dx = x - branch.mean_x
    phase = wrap_angle(np.mod(phase_ld, TWO_PI_LD)) + branch.chirp * dx * dx
    envelope = (2.0 * math.pi * branch.var_x) ** -0.25 \
        * np.exp(-dx * dx / (4.0 * branch.var_x))
    return envelope * np.exp(1j * phase)
