"""Brute-force grid verification of the closed-form machinery.

Every Gaussian-algebra result in this package can be recomputed here the
dumb way: sample the wavefunction on a uniform grid, take trapezoid
inner products, and get the QFI from the Bures amplitude miss between
two nearby parameter values (1 - |<a|b>| ~ G d^2 / 8 for unit states).
Nothing in this module reuses the closed-form overlap or QFI paths
(``PairMoments``, ``overlap``), so agreement is evidence, not tautology.

Both compared states are rendered in their common frame (``gaussian.Frame``)
times e^(-i R(x)), the conjugate of the clock-free reference's phase, which
leaves every <a_i|b_i> unchanged.  What is left is each branch's exact
difference from R, three floats (the states carry their offset exactly,
``Scenario.make_state``): the clock's part at the target, the offset's
clock-free part and their O(d z) cross term.

Rendering samples each branch on the grid lattice x_k = x_min + k dx, of
the fewest points that resolve the narrowest width with ``POINTS_PER_SIGMA``
(``grid_for_states``).  A branch's phase is evaluated only twice, each
part wrapped on its own: at the grid's first point, phi0, and per step,
theta = slope dx.  Per point the phase phi0 + k theta + q (x_k - X)^2 is
then formed in float64 (error about k ulp, ~1.5e-12 rad at the ~3000
points a cross-check set needs at most).  Every branch shares that anchor
at k = 0, whatever its window, so a part two branches or both states share
(the clock's part of a free-fall level) is the same float in each and its
rounding cancels in every inner product.  Only the points within
+-``WINDOW_SIGMAS`` widths of a branch centre are evaluated; the envelope
there is e^(-8.5^2/4) ~ 1.4e-8 of its peak, and the rest of the grid stays
exactly zero.  ``gaussian.wavefunction_values`` stays the arbitrary-x
reference sampler; the renderer does not use it.

The amplitude miss 1 - |<a|b>| / (|a| |b|) is a trapezoid sum of squares
over both level channels, never a subtraction from 1.  The QFI comes from
one bisection on the offset d: it accepts the first d whose drop lies in
the Bures window and quarters when d is halved (a drop taken past a
fidelity revival fails that check and bounds the search from above), and
Richardson-combines the d and d/2 estimates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import Scenario
from .gaussian import ClockState, GaussianBranch, wrap_angle

# Half-width of a branch's evaluation window, in widths (see the module
# docstring); grid_for_states pads by the same amount.
WINDOW_SIGMAS = 8.5
# What render demands of a grid: it reaches REACH_SIGMAS widths beyond every
# branch centre, with a spacing below the smallest width / POINTS_PER_SIGMA.
REACH_SIGMAS = 8.0
POINTS_PER_SIGMA = 16.0


class GridError(ValueError):
    """Grid does not support the requested operation."""


class OracleError(RuntimeError):
    """A numerical oracle failed to produce a trustworthy value."""


@dataclass(frozen=True)
class Grid:
    """Uniform spatial grid."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self) -> None:
        if self.n_points < 2 or self.x_max <= self.x_min:
            raise GridError("grid needs x_max > x_min and at least two points")

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)


def grid_for_states(*states: ClockState) -> Grid:
    """Grid covering every branch of every state to +-WINDOW_SIGMAS, on the fewest points, at
    most 2^22, whose spacing is below sigma_min / POINTS_PER_SIGMA (what ``render`` checks)."""
    lo, hi, sigma_min = math.inf, -math.inf, math.inf
    for state in states:
        for b in state.components:
            s = math.sqrt(b.var_x)
            if math.isnan(b.mean_x):
                raise GridError("a branch centre is not a number")
            lo = min(lo, b.mean_x - WINDOW_SIGMAS * s)
            hi = max(hi, b.mean_x + WINDOW_SIGMAS * s)
            sigma_min = min(sigma_min, s)
    span, step = hi - lo, sigma_min / POINTS_PER_SIGMA
    if not 0 < span < (2**22 - 1) * step:                 # an empty or infinite span fails too
        raise GridError(f"states span {span:g} m against a {sigma_min:g} m width; "
                        "rendering them on one grid is not feasible")
    return Grid(lo, hi, math.floor(span / step) + 2)      # n - 1 > span / step: Grid.spacing < step


# Euler-Maclaurin weights B_2k / (2k)! of h^2k f^(2k-1) at the grid's first point, k = 1..4.
_EULER_MACLAURIN = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0)


@dataclass(frozen=True)
class GridWavefunction:
    """Two internal-level channels sampled on a common grid.

    ``floor_derivatives`` (complex, shape (2, 8)) holds each channel's d^k/dx^k,
    k = 0..7, at the grid's first point (the bouncer's floor, where the trapezoid
    errs by O(h^6)) of a state decayed at the last.  ``norm_sq`` and ``inner`` add
    the Euler-Maclaurin terms (DLMF 2.10.1) through h^8, f^(2k-1) by Leibniz.  The
    Gaussian windows vanish at both ends: their derivatives are zeros, and so are
    their terms.
    """

    grid: Grid
    channels: np.ndarray      # complex, shape (2, n_points)
    floor_derivatives: np.ndarray = field(default_factory=lambda: np.zeros((2, 8), dtype=complex))

    def norm_sq(self) -> float:
        f = self.channels.view(float).reshape(2, -1, 2)
        return self.grid.spacing * _trapezoid(f, f) + _floor_terms(self, self).real

    def inner(self, other: "GridWavefunction") -> complex:
        """Trapezoid <self|other> over both level channels, as float sums: <a|a> is real."""
        if self.grid != other.grid:
            raise GridError("inner product requires a common grid")
        a, b = (w.channels.view(float).reshape(2, -1, 2) for w in (self, other))
        im = _trapezoid(a[..., :1], b[..., 1:]) - _trapezoid(a[..., 1:], b[..., :1])
        return self.grid.spacing * complex(_trapezoid(a, b), im) + _floor_terms(self, other)


def _floor_terms(a: GridWavefunction, b: GridWavefunction) -> complex:
    """sum_k B_2k / (2k)! h^2k f^(2k-1)(x_min), f = sum_i conj(a_i) b_i, k = 1..4."""
    da, db, h = a.floor_derivatives, b.floor_derivatives, a.grid.spacing
    total = 0j
    for k, weight in enumerate(_EULER_MACLAURIN, start=1):
        f_m = sum(math.comb(2 * k - 1, j) * np.vdot(da[:, j], db[:, 2 * k - 1 - j]) for j in range(2 * k))
        total += weight * h ** (2 * k) * f_m
    return complex(total)


def _trapezoid(u: np.ndarray, v: np.ndarray) -> float:
    """Unit-spacing trapezoid sum of u v along axis 1 of (level, point, part)
    float arrays: fused np.einsum sums, never a BLAS reduction."""
    ends = slice(None, None, u.shape[1] - 1)
    total, edges = (np.einsum("lkc,lkc->", p, q) for p, q in ((u, v), (u[:, ends], v[:, ends])))
    return float(total - 0.5 * edges)


def _branch_window(branch: GaussianBranch, grid: Grid) -> tuple[slice, np.ndarray]:
    """The unit-norm branch wavefunction on the lattice points within
    +-WINDOW_SIGMAS widths of its centre: (slice of the grid, values).

    The phase is the lattice phase of the module docstring, anchored at
    the grid's first point whatever the window.
    """
    step = grid.spacing
    s = math.sqrt(branch.var_x)
    lo = (branch.mean_x - WINDOW_SIGMAS * s - grid.x_min) / step
    hi = (branch.mean_x + WINDOW_SIGMAS * s - grid.x_min) / step
    k_lo = 0 if lo <= 0 else math.ceil(lo)
    k_hi = grid.n_points - 1 if hi >= grid.n_points - 1 else math.floor(hi)
    phi0 = wrap_angle(branch.phase + branch.slope * grid.x_min)
    theta = wrap_angle(branch.slope * step)
    k = np.arange(k_lo, k_hi + 1, dtype=float)
    dx = (grid.x_min - branch.mean_x) + k * step
    dx2 = dx * dx
    phase = phi0 + k * theta + branch.chirp * dx2
    envelope = (2.0 * math.pi * branch.var_x) ** -0.25 * np.exp(-dx2 / (4.0 * branch.var_x))
    return slice(k_lo, k_hi + 1), envelope * np.exp(1j * phase)


def render(state: ClockState, grid: Grid) -> GridWavefunction:
    """Sample every branch onto the grid (amplitude-weighted, per level).

    Refuses grids that are too narrow or too coarse for the state: the
    grid must reach REACH_SIGMAS widths beyond every branch center and
    resolve the smallest width with POINTS_PER_SIGMA points.
    """
    for b in state.components:
        s = math.sqrt(b.var_x)
        if b.mean_x - REACH_SIGMAS * s < grid.x_min or b.mean_x + REACH_SIGMAS * s > grid.x_max:
            raise GridError(
                f"grid [{grid.x_min:g}, {grid.x_max:g}] too narrow; need "
                f"[{b.mean_x - REACH_SIGMAS * s:g}, {b.mean_x + REACH_SIGMAS * s:g}]")
        if grid.spacing >= s / POINTS_PER_SIGMA:
            raise GridError(
                f"grid spacing {grid.spacing:g} too coarse; need < {s / POINTS_PER_SIGMA:g}")
    channels = np.zeros((2, grid.n_points), dtype=complex)
    for b in state.components:
        window, values = _branch_window(b, grid)
        channels[b.internal_level, window] += b.amplitude * values
    return GridWavefunction(grid, channels)


def bures_miss(psi_a: GridWavefunction, psi_b: GridWavefunction) -> float:
    """Bures amplitude miss 1 - |<a|b>| / (|a| |b|) as (1/2) |a^ - e^(-i arg<a|b>) b^|^2 of the
    normalized states: a sum of squares (plus the difference state's floor terms),
    exactly 0 for a state against itself."""
    # |a^ - u b^|^2 = |a - u (|a| / |b|) b|^2 / |a|^2, u = e^(-i arg<a|b>): one scaled copy of b.
    norm_sq_a, unit = psi_a.norm_sq(), np.exp(-1j * np.angle(psi_a.inner(psi_b)))
    scale = -unit * math.sqrt(norm_sq_a / psi_b.norm_sq())
    diff = psi_b.channels * scale + psi_a.channels
    floor = psi_b.floor_derivatives * scale + psi_a.floor_derivatives
    return 0.5 * GridWavefunction(psi_a.grid, diff, floor).norm_sq() / norm_sq_a


# The largest |G(d/2)/G(d) - 1| an accepted Richardson pair may show.  Where
# the oracle agrees with the closed forms it is at most 5.2e-4 (free fall at
# 1 s; 4.3e-4 over every perfbench oracle draw of seeds 1-20); at dt = 100 s
# on configs/sr88_freefall.cfg it is 3.6e-2, and the value was 6.04e-2 off.
PAIR_RESIDUAL_MAX = 1e-2


def bures_stencil(value: float, d: float) -> tuple[float, float]:
    """The two parameter values an offset d compares: fl(value - d/2), fl(value + d/2);
    exactly -d/2 and d/2 about a value of 0."""
    return value - 0.5 * d, value + 0.5 * d


def richardson_bures_qfi(miss_at, value: float,
                         delta: float | None = None) -> tuple[float, bool]:
    """Bures QFI at ``value`` from ``miss_at(d)``, the :func:`bures_miss` m of the states at
    ``bures_stencil(value, d)``.  A caller that carries its offsets exactly
    passes ``value`` 0 and its own starting ``delta``.

    One geometric bisection on the offset d, starting at ``delta`` (default
    1e-6 relative), looks for a drop 1 - F = m (2 - m) in [1e-6, 1e-2] that also
    shows the Bures scaling: the drop at d/2, asked for right after d (a caller
    may render both stencils at once), must be a quarter of it (0.2 to 0.3).
    An offset whose drop fails that check lies past the quadratic regime,
    typically on a fidelity revival; it becomes the upper bracket, and the
    search restarts from d/2 below it, whose miss it already has.  An accepted
    pair gives the Richardson combination (4 G(d/2) - G(d)) / 3 of G = 8 m / s^2,
    s the offset the two stencil values realize, not the nominal d.  A pair
    whose |G(d/2)/G(d) - 1| exceeds ``PAIR_RESIDUAL_MAX`` raises OracleError
    naming it: the two offsets do not agree on G.  A step
    down from a finite drop to an offset whose stencil values round to one
    float raises OracleError: the target's float64 spacing cannot resolve
    the Bures window.
    Weakly coupled parameters legitimately need huge offsets to produce a
    resolvable drop (their phases stay tiny, so the Bures quadratic regime
    extends); only a truly parameter-independent state exhausts the offset
    cap, and then the below-window estimate is returned with ``resolved`` False.
    """
    lo, hi = 1e-6, 1e-2
    delta_cap = 1e8 * max(abs(value), 1.0)
    d = min(delta if delta is not None else 1e-6 * max(abs(value), 1.0), delta_cap)
    d_small = None   # largest offset known to sit below the window
    d_big = None     # smallest offset known to sit above it or to fail the check
    known = None     # the miss at d when a failed pair already asked for it

    def bures(m: float, x: float) -> float:      # G = 8 m / s^2 at the realized offset s
        v_lo, v_hi = bures_stencil(value, x)
        return 8.0 * m / (v_hi - v_lo) ** 2

    for _ in range(60):
        v_lo, v_hi = bures_stencil(value, d)
        if d_big is not None and not math.isnan(drop) and v_lo == v_hi:     # the states coincide
            raise OracleError(f"float64 resolution limit: the offset search reached d = {d:.3g}, "
                              f"where {value:g} -+ d/2 round to one value (float64 spacing "
                              f"{math.ulp(value):.3g}); the target cannot resolve the Bures window")
        miss, known = (miss_at(d) if known is None else known), None
        drop = miss * (2.0 - miss)
        if lo <= drop <= hi:
            known = miss_at(0.5 * d)
            if 0.2 <= known * (2.0 - known) / drop <= 0.3:
                half, full = bures(known, 0.5 * d), bures(miss, d)
                if not abs(half / full - 1.0) <= PAIR_RESIDUAL_MAX:
                    raise OracleError(
                        f"offsets d = {d:.3g} and d/2 disagree: |G(d/2)/G(d) - 1| = "
                        f"{abs(half / full - 1.0):.2e} > {PAIR_RESIDUAL_MAX:.0e}, so the Bures "
                        "expansion does not hold at the accepted pair")
                return (4.0 * half - full) / 3.0, True
            d_big, d_small, d = d, None, 0.5 * d
        elif drop < lo:
            if d >= delta_cap:
                return bures(miss, d), False
            d_small = d
            d = min(d * 8.0 if d_big is None else math.sqrt(d * d_big), delta_cap)
        else:
            d_big = d
            d = d / 8.0 if d_small is None else math.sqrt(d * d_small)
    raise OracleError(f"no offset among 60 put 1-F in [{lo:g}, {hi:g}] with the Bures "
                      f"d^2 scaling; the last gave 1-F = {drop:g}")


def qfi_numeric(scenario: Scenario, delta: float | None = None) -> float:
    """Bures QFI from the grid: G = 8 m / d^2, m = 1 - |<psi(v - d/2)|psi(v + d/2)>|.

    The offset is auto-tuned and checked by :func:`richardson_bures_qfi`,
    from ``delta`` (default 1e-6 max(|v|, 1)).  The states carry the offset
    exactly (``Scenario.make_state``), so they realize d itself.  Each miss
    evaluation (:func:`bures_miss`) renders both states on one shared grid.
    """
    if delta is None:
        delta = 1e-6 * max(abs(scenario.value()), 1.0)

    def miss_at(d: float) -> float:
        s_lo, s_hi = (scenario.make_state(offset) for offset in bures_stencil(0.0, d))
        grid = grid_for_states(s_lo, s_hi)
        return bures_miss(render(s_lo, grid), render(s_hi, grid))

    qfi, resolved = richardson_bures_qfi(miss_at, 0.0, delta)
    if not resolved:
        warnings.warn("parameter sensitivity below fidelity resolution; "
                      "returning the below-window Bures estimate", stacklevel=2)
    return qfi


def detector_wavefunctions(scenario: Scenario, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Path-space detector states: the branches of ``scenario.detector_state()`` interfered."""
    ref = scenario.detector_state()
    plus = np.zeros(grid.n_points, dtype=complex)
    minus = np.zeros(grid.n_points, dtype=complex)
    for out, path in ((plus, "plus"), (minus, "minus")):
        window, values = _branch_window(ref.branch(path, 0), grid)
        out[window] = values
    d_plus = (plus + minus) / math.sqrt(2.0)
    d_minus = (plus - minus) / math.sqrt(2.0)
    return d_plus, d_minus


def probabilities_numeric(psi: GridWavefunction, scenario: Scenario) -> tuple[float, float]:
    """Detector probabilities by quadrature projection (``inner``), per level channel."""
    zero = np.zeros(psi.grid.n_points, dtype=complex)
    return tuple(sum(abs(GridWavefunction(psi.grid, np.stack(rows)).inner(psi)) ** 2
                     for rows in ((det, zero), (zero, det)))
                 for det in detector_wavefunctions(scenario, psi.grid))

