"""Complex-Gaussian branch algebra and closed-form evolution maps.

A branch is one arm x internal-level component of the interferometric
superposition, stored as a unit-norm Gaussian

    psi(x) = (2 pi S^2)^(-1/4) exp(-(x-X)^2 / (4 S^2))
             * exp(i [ R(x) + phase + slope x + q (x - X)^2 ]),

in the *frame* of its state (``Frame``), the scenario's clock-free map at
its target value: x is measured from where that map carries the potential's
anchor x0, and R(x), its phase, is one function for every branch.  The
maps run on ``Diff`` numbers, so ``phase`` and ``slope`` are the branch's
exact difference from R, the clock's part (~1e3 rad at dt = 10 s, against
a cubic action of 1.5e13 rad): a route that compares branches of one state
never needs R, and every phase it subtracts or wraps is a float64
difference.  ``q`` is the quadratic chirp that free spreading generates;
the exact linear-potential evolution is Gaussian-preserving, and the chirp
is required for the evolved state to be the exact solution rather than a
minimum-uncertainty lookalike.

Sign conventions: x points up, the potential slope g is positive, so a
freely falling branch acquires negative mean momentum ``-m g dt (1+z)``
(hbar times the frame's slope plus the branch's).  Quoted magnitudes
elsewhere refer to |mean momentum|.

``evolve_state`` applies either closed-form map, exact free fall in the
linearized potential or the trapped Mach-Zehnder arm; there is no time
stepping anywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PhysicalParams, require_kink_clearance

_TWO_PI = 2.0 * math.pi


class _Pair:
    """A number of two parts, ``v`` and ``d``: the arithmetic a jet and a Diff share."""

    __slots__ = ("v", "d")
    __array_ufunc__ = None    # numpy scalars defer to the reflected operators

    def __init__(self, v, d) -> None:
        self.v, self.d = v, d

    def __neg__(self):
        return type(self)(-self.v, -self.d)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __truediv__(self, other):    # by a number
        return type(self)(self.v / other, self.d / other)


class Jet(_Pair):
    """A value and its derivative along one direction of parameter space.

    Arithmetic on jets is forward-mode differentiation (Griewank & Walther,
    *Evaluating Derivatives*, 2nd ed., SIAM 2008): ``evolve_state`` on
    parameters whose slopes g, g_plus and g_minus are jets gives a state
    whose means, phases and frame are jets, each value computed exactly as
    without them.  Values and derivatives may be arrays, one element per
    sweep row.  A jet combined with a ``Diff`` goes inside it.
    """

    __slots__ = ()

    def __add__(self, other) -> "Jet":
        if isinstance(other, Diff):
            return NotImplemented
        v, d = split(other)
        return Jet(self.v + v, self.d + d)

    def __mul__(self, other) -> "Jet":
        if isinstance(other, Diff):
            return NotImplemented
        v, d = split(other)
        return Jet(self.v * v, self.d * v + self.v * d)

    __radd__, __rmul__ = __add__, __mul__


class Diff(_Pair):
    """A value as its reference part ``v`` and its exact difference ``d`` from it.

    The product keeps the d d' term, so the polynomial evolution maps (degree
    <= 2 in g, g_pm and z) give every difference to float64 relative accuracy,
    however large the reference part (carrying exact differences is the
    standard replacement for extended precision: Dekker, Numer. Math. 18, 224
    (1971)).  ``evolve_state`` seeds z as Diff(0, z): the reference is the
    clock-free map.  The grid oracle seeds g as Diff(Diff(g, offset), 0), so
    an output is Diff(Diff(at the target, offset's part), Diff(clock's part,
    cross term)), four floats, each shared where it can be: by every branch,
    by both levels, by both states.  Parts may be jets or arrays.
    """

    __slots__ = ()

    def __add__(self, other) -> "Diff":
        if isinstance(other, Diff):
            return Diff(self.v + other.v, self.d + other.d)
        return Diff(self.v + other, self.d)

    def __mul__(self, other) -> "Diff":
        if isinstance(other, Diff):
            return Diff(self.v * other.v, self.v * other.d + self.d * other.v + self.d * other.d)
        return Diff(self.v * other, self.d * other)

    __radd__, __rmul__ = __add__, __mul__


def split(x) -> tuple:
    """(value, derivative) of a jet; (x, 0.0) of anything else."""
    return (x.v, x.d) if isinstance(x, Jet) else (x, 0.0)


def _ref_and_diff(x: Diff) -> tuple:
    """(reference, difference) of a map output: its innermost reference part,
    and the rest with its parts kept apart (a Diff, where an offset's
    clock-free part is one of them)."""
    return (x.v.v, Diff(x.v.d, x.d)) if isinstance(x.v, Diff) else (x.v, x.d)


def _total(x):
    """The value a Diff stands for, its parts summed; anything else as it is."""
    return _total(x.v) + _total(x.d) if isinstance(x, Diff) else x


def py(x):
    """x with Python's scalar arithmetic: an array becomes an object array of Python
    floats or complexes.  numpy's own complex, ``**`` and abs loops round otherwise."""
    return x.astype(object) if isinstance(x, np.ndarray) else x


def as_float(x):
    """float(x), element by element for an array."""
    return x.astype(float) if isinstance(x, np.ndarray) else float(x)


def wrap_angle(value):
    """A phase reduced mod 2 pi to [-pi, pi), element by element for an array;
    a jet's value; each part of a Diff on its own, so a large reference part
    loses nothing of the exact difference beside it."""
    if isinstance(value, Jet):
        return Jet(wrap_angle(value.v), value.d)
    if isinstance(value, Diff):
        return wrap_angle(value.v) + wrap_angle(value.d)
    return (value + math.pi) % _TWO_PI - math.pi


@dataclass(frozen=True)
class Frame:
    """A state's clock-free reference: lab position = ``origin`` + x, and phase
    R(x) = ``phase`` + ``slope`` x, shared by every branch (jets on a tangent)."""

    origin: float    # m: where x = 0 lies in the lab, x0 less the reference's fall
    phase: float     # rad
    slope: float     # rad/m


@dataclass(frozen=True)
class GaussianBranch:
    """One path (x) internal-level component of the clock state.

    ``amplitude`` is the superposition coefficient; the wavefunction
    itself is unit-norm by construction, so the component's contribution
    to the total norm is |amplitude| (up to cross-branch overlaps).
    Positions and phases are relative to the state's ``Frame``.
    """

    amplitude: complex
    phase: float            # rad: phase less the frame's, at x = 0
    slope: float            # rad/m: phase gradient less the frame's
    mean_x: float           # m, from the frame's origin
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
    frame: Frame = Frame(0.0, 0.0, 0.0)

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
    """(fall, phase at the fallen x0, slope, var_x, chirp) of an evolved branch,
    the first three (reference, difference) pairs: the clock-free map at the
    target value, and the rest (``_ref_and_diff``).

    They depend only on the branch's level and, on the Mach-Zehnder, on
    its side of the kink, so branches that share those share the map.
    """
    z = Diff(0.0, params.z_eff(level))
    m, g, dt, hb = params.m, params.g, params.dt, params.hbar
    if scenario == "mach_zehnder":
        var, chirp = _spreading(params, 0.0)
        if above_kink:
            g_side, x_side0 = params.g_plus, params.x_plus0
        else:
            g_side, x_side0 = params.g_minus, params.x_minus0
        # V_MZ(x) = g_side (x - x_side0) + g (x_side0 - x0), re-anchored at x0.
        # The fixed anchor and the slope-dependent constant are separate
        # products, so differentiation never subtracts a tiny g-dependent
        # piece from a larger constant.
        lever = -dt * m * z / hb
        slope = lever * g_side
        phase = lever * (g * (x_side0 - params.x0)) + slope * (params.x0 - x_side0)
        return (0.0, 0.0), _ref_and_diff(phase), _ref_and_diff(slope), var, chirp
    var, chirp = _spreading(params, params.z_eff(level))
    fall = _ref_and_diff(0.5 * g * dt * dt * (1 - z * z))
    cubic = -(m * g * g * (dt * dt * dt) / (6 * hb)) * (1 + z - z * z)
    slope = -m * g * (1 + z) * dt / hb
    # The lab phase cubic + slope (x - x0), at the reference's fallen x0.
    return fall, _ref_and_diff(cubic - slope * fall[0]), _ref_and_diff(slope), var, chirp


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

    and the lab phase is

        L_i(x) = -(m g^2 dt^3 / 6 hbar)(1 + z_i - z_i^2) - (m g (1+z_i) dt / hbar)(x - x0),

    whose gradient times hbar is the mean momentum.  The rest-energy
    phase -dt E_i / hbar, like the spreading (Gouy) phase, is the same on
    both paths of a level and independent of g, so the map drops it.  The cubic
    constant is the bracketed classical action term; dimensional analysis
    fixes its prefactor to g^2/6 (the g/3 form sometimes quoted is a
    misprint).  The exact bracket is (1+z)^2(1-z); the z^3 difference from
    the truncated form used here is far below double precision for any
    physical z.  The frame is this map at z = 0: it falls g dt^2 / 2 and
    carries the z-free phase, and each branch keeps the exact rest.

    On the trapped Mach-Zehnder arm the potential couples only through
    time dilation.  The trap cancels the gravitational force on the
    center of mass, so each branch stays put and spreads freely; level i
    only accumulates (less the rest-energy phase)

        L(x) = -dt m z_i V_MZ(x) / hbar

    on its own side of the kink, all of it the branch's (the frame is
    trivial); ``core.require_kink_clearance`` refuses a branch within five
    spread widths of the kink, at dt = 0 too.  The tiny momentum implied by
    the phase slope (-dt E_i g_side / c^2, many orders below the momentum
    width) is the quoted <p> = 0 at the working order.

    The map is computed once per level (and kink side), since branches
    differ in nothing else but their centre.  At dt = 0 it is the identity
    (each mean x_c - x0 in the frame), bit for bit.  Slopes given as :class:`Jet` objects carry their
    derivatives into the means, phases and frame (nothing else depends on
    them); slopes given as :class:`Diff` objects carry an offset exactly.
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
            (fall_ref, fall), (phase_ref, phase), (slope_ref, slope), var, chirp = maps[key]
            components.append(GaussianBranch(amp, phase, slope, (x_c - params.x0) - _total(fall),
                                             var, chirp, level, path))
    # Every map's reference part is the same z-free value at the target.
    return ClockState(tuple(components), Frame(params.x0 - fall_ref, phase_ref, slope_ref))


# ---------------------------------------------------------------------------
# Overlaps and Gaussian pair moments
# ---------------------------------------------------------------------------

class PairMoments:
    """Closed-form integrals over a pair of branches of one internal level.

    conj(psi_a) psi_b = C exp(-alpha u^2 + beta u) in the shifted
    coordinate u = x - (X_a + X_b)/2, so <P_a psi_a | P_b psi_b> with P_a,
    P_b first order reduces to Gaussian moments up to u^2.  The frame's
    phase cancels; the branches' exact phase differences enter, wrapped
    once.  Branches whose fields are arrays give array moments, complex
    ones in Python's arithmetic (``py``).
    """

    __slots__ = ("overlap", "_mu", "_s2", "off_a", "off_b")

    def __init__(self, a: GaussianBranch, b: GaussianBranch) -> None:
        if a.internal_level != b.internal_level:
            raise ValueError("pair moments require one internal level")
        d = b.mean_x - a.mean_x
        x_mid = 0.5 * (a.mean_x + b.mean_x)
        inv4a = 1.0 / (4.0 * a.var_x)
        inv4b = 1.0 / (4.0 * b.var_x)
        alpha = (inv4a + inv4b) + 1j * py(a.chirp - b.chirp)
        dslope = b.slope - a.slope
        beta = d * (inv4b - inv4a) + 1j * py(dslope - (a.chirp + b.chirp) * d)
        gamma_re = -0.25 * d * d * (inv4a + inv4b)
        gamma_im_small = 0.25 * d * d * (b.chirp - a.chirp)
        lam = wrap_angle((b.phase - a.phase) + dslope * x_mid)
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
    """<a|b> of the unit-norm branch wavefunctions of one state (amplitudes excluded).

    Zero across internal levels; includes envelope separation, linear
    and quadratic phases, and the branches' phase difference.
    """
    return PairMoments(a, b).overlap if a.internal_level == b.internal_level else 0j


def state_norm_sq(state: ClockState) -> float:
    """Exact squared norm, amplitude-weighted with all cross overlaps."""
    total_sq = 0.0j
    comps = state.components
    for j, a in enumerate(comps):
        total_sq += abs(a.amplitude) ** 2
        for b in comps[j + 1:]:
            total_sq += 2.0 * (np.conj(a.amplitude) * b.amplitude * overlap(a, b)).real
    return float(total_sq.real)


def wavefunction_values(branch: GaussianBranch, x: np.ndarray) -> np.ndarray:
    """Sample the unit-norm branch wavefunction on an array of positions in its
    frame, less the frame's phase R(x).

    The branch's phase is wrapped (a Diff's parts one by one) before
    exponentiation.
    """
    x = np.asarray(x, dtype=float)
    dx = x - branch.mean_x
    phase = wrap_angle(branch.phase + branch.slope * x) + branch.chirp * dx * dx
    envelope = (2.0 * math.pi * branch.var_x) ** -0.25 \
        * np.exp(-dx * dx / (4.0 * branch.var_x))
    return envelope * np.exp(1j * phase)
