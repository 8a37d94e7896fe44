"""Brute-force grid verification of the closed-form machinery.

Every Gaussian-algebra result in this package can be recomputed here the
dumb way: sample the wavefunction on a uniform grid, take trapezoid
inner products, and get the QFI from the Bures amplitude miss between
two nearby parameter values (1 - |<a|b>| ~ G d^2 / 8 for unit states).
Nothing in this module reuses the closed-form overlap or QFI paths
(``PairMoments``, ``overlap``), so agreement is evidence, not tautology.

Rendering samples each branch on the grid lattice x_k = x_min + k dx, of
the fewest points (a power of two, at least 2^10) that resolve the
narrowest width with 16 (``grid_for_states``).  The extended-precision
phase ledger is evaluated only twice per branch: its phase at the grid's
first point, phi0 = L(x_min), and the per-step increment theta = b dx,
both wrapped to (-pi, pi].  Per point the phase phi0 + k theta +
q (x_k - X)^2 is then formed in float64 (error about k ulp, ~2e-12 rad at
2^12 points, the most a cross-check set needs).  Every branch shares that
anchor at k = 0, whatever its window: branches with equal ledgers (the two
paths of one level) get bit-identical phi0, so their relative phase
carries none of the ~1e-4 rad longdouble rounding of a 1e15 rad lever arm.
Anchoring each window at its own first point would give each branch its
own such rounding (at dt = 30 s, oracle vs closed 2e-4 instead of 3e-5).
Only the points within +-8.5 widths of a branch centre are evaluated; the
envelope there is e^(-8.5^2/4) ~ 1.4e-8 of its peak, and the rest of the
grid stays exactly zero.  ``gaussian.wavefunction_values`` stays the
arbitrary-x reference sampler; the renderer does not use it.

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
from dataclasses import dataclass

import numpy as np

from .core import PhysicalParams
from .estimation import Scenario
from .gaussian import (
    ClockState,
    GaussianBranch,
    evolve_state,
    make_initial_state,
    wrap_angle,
)

_LD = np.longdouble

# Half-width of a branch's evaluation window, in widths (see the module
# docstring); grid_for_states pads by the same amount.
WINDOW_SIGMAS = 8.5


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
    """Grid covering every branch of every state to +-WINDOW_SIGMAS, on the smallest power of
    two of points, at least 2^10, whose spacing is below sigma_min / 16 (what ``render`` checks)."""
    lo, hi, sigma_min = math.inf, -math.inf, math.inf
    for state in states:
        for b in state.components:
            s = math.sqrt(b.var_x)
            lo = min(lo, b.mean_x - WINDOW_SIGMAS * s)
            hi = max(hi, b.mean_x + WINDOW_SIGMAS * s)
            sigma_min = min(sigma_min, s)
    n = 1 << 10
    while not (hi - lo) / (n - 1) < sigma_min / 16.0:    # Grid.spacing; NaN reaches the cap
        n *= 2
        if n > 2**22:
            raise GridError(f"states span {hi - lo:g} m against a {sigma_min:g} m width; "
                            "rendering them on one grid is not feasible")
    return Grid(lo, hi, n)


@dataclass(frozen=True)
class GridWavefunction:
    """Two internal-level channels sampled on a common grid."""

    grid: Grid
    channels: np.ndarray      # complex, shape (2, n_points)

    def norm_sq(self) -> float:
        f = self.channels.view(float).reshape(2, -1, 2)
        return self.grid.spacing * _trapezoid(f, f)

    def inner(self, other: "GridWavefunction") -> complex:
        """Trapezoid <self|other> over both level channels, as float sums: <a|a> is real."""
        if self.grid != other.grid:
            raise GridError("inner product requires a common grid")
        a, b = (w.channels.view(float).reshape(2, -1, 2) for w in (self, other))
        im = _trapezoid(a[..., :1], b[..., 1:]) - _trapezoid(a[..., 1:], b[..., :1])
        return self.grid.spacing * complex(_trapezoid(a, b), im)


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
    ledger = branch.ledger
    slope = _LD(ledger.slope)
    phi0 = wrap_angle(ledger.constant_wrapped()
                      + slope * (_LD(grid.x_min) - _LD(ledger.x_ref)))
    theta = wrap_angle(slope * _LD(step))
    k = np.arange(k_lo, k_hi + 1, dtype=float)
    dx = (grid.x_min - branch.mean_x) + k * step
    dx2 = dx * dx
    phase = phi0 + k * theta + branch.chirp * dx2
    envelope = (2.0 * math.pi * branch.var_x) ** -0.25 * np.exp(-dx2 / (4.0 * branch.var_x))
    return slice(k_lo, k_hi + 1), envelope * np.exp(1j * phase)


def render(state: ClockState, grid: Grid) -> GridWavefunction:
    """Sample every branch onto the grid (amplitude-weighted, per level).

    Refuses grids that are too narrow or too coarse for the state: the
    grid must reach 8 widths beyond every branch center and resolve the
    smallest width with 16 points.
    """
    for b in state.components:
        s = math.sqrt(b.var_x)
        if b.mean_x - 8.0 * s < grid.x_min or b.mean_x + 8.0 * s > grid.x_max:
            raise GridError(
                f"grid [{grid.x_min:g}, {grid.x_max:g}] too narrow; need "
                f"[{b.mean_x - 8.0 * s:g}, {b.mean_x + 8.0 * s:g}]")
        if grid.spacing >= s / 16.0:
            raise GridError(
                f"grid spacing {grid.spacing:g} too coarse; need < {s / 16.0:g}")
    channels = np.zeros((2, grid.n_points), dtype=complex)
    for b in state.components:
        window, values = _branch_window(b, grid)
        channels[b.internal_level, window] += b.amplitude * values
    return GridWavefunction(grid, channels)


def bures_miss(psi_a: GridWavefunction, psi_b: GridWavefunction) -> float:
    """Bures amplitude miss 1 - |<a|b>| / (|a| |b|) as (1/2) |a^ - e^(-i arg<a|b>) b^|^2 of the
    normalized states: a sum of squares, never negative and exactly 0 for a state against itself."""
    # |a^ - u b^|^2 = |a - u (|a| / |b|) b|^2 / |a|^2, u = e^(-i arg<a|b>): one scaled copy of b.
    norm_sq_a, unit = psi_a.norm_sq(), np.exp(-1j * np.angle(psi_a.inner(psi_b)))
    diff = psi_b.channels * (-unit * math.sqrt(norm_sq_a / psi_b.norm_sq())) + psi_a.channels
    return 0.5 * GridWavefunction(psi_a.grid, diff).norm_sq() / norm_sq_a


def richardson_bures_qfi(miss_at, value: float,
                         delta: float | None = None) -> tuple[float, bool]:
    """Bures QFI at ``value`` from ``miss_at(d)``, the :func:`bures_miss` m at value -+ d/2.

    One geometric bisection on the offset d, starting at ``delta`` (default
    1e-6 relative), looks for a drop 1 - F = m (2 - m) in [1e-6, 1e-2] that also
    shows the Bures scaling: the drop at d/2, asked for right after d (a caller
    may render both stencils at once), must be a quarter of it (0.2 to 0.3).
    An offset whose drop fails that check lies past the quadratic regime,
    typically on a fidelity revival; it becomes the upper bracket, and the
    search restarts from d/2 below it, whose miss it already has.  An accepted
    pair gives the Richardson combination (4 G(d/2) - G(d)) / 3 of G = 8 m / d^2.
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
    for _ in range(60):
        miss, known = (miss_at(d) if known is None else known), None
        drop = miss * (2.0 - miss)
        if lo <= drop <= hi:
            known = miss_at(0.5 * d)
            if 0.2 <= known * (2.0 - known) / drop <= 0.3:
                return 8.0 * (16.0 * known - miss) / (3.0 * d * d), True
            d_big, d_small, d = d, None, 0.5 * d
        elif drop < lo:
            if d >= delta_cap:
                return 8.0 * miss / (d * d), False
            d_small = d
            d = min(d * 8.0 if d_big is None else math.sqrt(d * d_big), delta_cap)
        else:
            d_big = d
            d = d / 8.0 if d_small is None else math.sqrt(d * d_small)
    raise OracleError(f"no offset among 60 put 1-F in [{lo:g}, {hi:g}] with the Bures "
                      f"d^2 scaling; the last gave 1-F = {drop:g}")


def qfi_numeric(scenario: Scenario, delta: float | None = None) -> float:
    """Bures QFI from the grid: G = 8 m / d^2, m = 1 - |<psi(v - d/2)|psi(v + d/2)>|.

    The offset is auto-tuned and checked by :func:`richardson_bures_qfi`.
    Each miss evaluation (:func:`bures_miss`) renders both perturbed states
    on one shared grid.
    """
    value = scenario.value()

    def miss_at(d: float) -> float:
        s_lo = scenario.make_state(value - 0.5 * d)
        s_hi = scenario.make_state(value + 0.5 * d)
        grid = grid_for_states(s_lo, s_hi)
        return bures_miss(render(s_lo, grid), render(s_hi, grid))

    qfi, resolved = richardson_bures_qfi(miss_at, value, delta)
    if not resolved:
        warnings.warn("parameter sensitivity below fidelity resolution; "
                      "returning the below-window Bures estimate", stacklevel=2)
    return qfi


def detector_wavefunctions(params: PhysicalParams, scenario: str,
                           grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Path-space detector states: clock-free evolved branches interfered."""
    ref_params = params.replace(e0=0.0, e1=0.0)
    initial = make_initial_state(ref_params.replace(phi=0.0))
    # Only the level-0 reference branches are read.
    ref = evolve_state(ClockState((initial.branch("plus", 0), initial.branch("minus", 0))),
                       ref_params, scenario)
    plus = np.zeros(grid.n_points, dtype=complex)
    minus = np.zeros(grid.n_points, dtype=complex)
    for out, path in ((plus, "plus"), (minus, "minus")):
        window, values = _branch_window(ref.branch(path, 0), grid)
        out[window] = values
    d_plus = (plus + minus) / math.sqrt(2.0)
    d_minus = (plus - minus) / math.sqrt(2.0)
    return d_plus, d_minus


def probabilities_numeric(psi: GridWavefunction, params: PhysicalParams,
                          scenario: str = "free_fall") -> tuple[float, float]:
    """Detector probabilities by quadrature projection (``inner``), per level channel."""
    zero = np.zeros(psi.grid.n_points, dtype=complex)
    return tuple(sum(abs(GridWavefunction(psi.grid, np.stack(rows)).inner(psi)) ** 2
                     for rows in ((det, zero), (zero, det)))
                 for det in detector_wavefunctions(params, scenario, psi.grid))

