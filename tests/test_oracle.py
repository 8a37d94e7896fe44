"""Grid rendering, quadrature overlaps, Bures miss and QFI, projected probabilities."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from gravclock import bouncer as bc, cli, core, estimation as est, gaussian as ga, oracle as orc

from conftest import CONFIG_DIR

_trapz = getattr(np, "trapezoid", None) or np.trapz


def _random_branch(rng, level=0, path="plus"):
    sigma = rng.uniform(5e-5, 2e-4)
    return ga.GaussianBranch(
        amplitude=1.0 + 0.0j,
        phase=rng.uniform(-3, 3),
        slope=rng.uniform(-4e3, 4e3),
        mean_x=rng.uniform(-2e-4, 2e-4),
        var_x=sigma**2,
        chirp=rng.uniform(-1e7, 1e7),
        internal_level=level,
        path_label=path,
    )


class PhaseFamily:
    """Synthetic two-branch family (|x+> + e^{i v} |x->)/sqrt(2): QFI = 1."""

    def __init__(self, params):
        self.params = params

    def value(self) -> float:
        return self.params.phi

    def make_state(self, offset: float | None = None) -> ga.ClockState:
        p = self.params
        value = self.value() + (offset or 0.0)
        amp = complex(math.cos(value), math.sin(value)) / math.sqrt(2.0)
        return ga.ClockState((
            ga.GaussianBranch(1.0 / math.sqrt(2.0), 0.0, 0.0, p.x_plus,
                              p.sigma**2, 0.0, 0, "plus"),
            ga.GaussianBranch(amp, 0.0, 0.0, p.x_minus,
                              p.sigma**2, 0.0, 0, "minus"),
        ))


class ConstantFamily(PhaseFamily):
    def make_state(self, offset: float | None = None) -> ga.ClockState:
        return super().make_state()


# ---------------------------------------------------------------------------
# Rendering and norms
# ---------------------------------------------------------------------------

def test_render_single_branch_norm(sr88_10s):
    p = sr88_10s
    state = ga.ClockState((ga.GaussianBranch(1.0, 0.0, 0.0, p.x_plus, p.sigma**2, 0.0, 0, "plus"),))
    psi = orc.render(state, orc.grid_for_states(state))
    assert psi.norm_sq() == pytest.approx(1.0, abs=1e-8)


def test_render_two_separated_branches_norm(sr88_10s):
    state = ga.evolve_state(sr88_10s.replace(dt=0.0), "free_fall")
    psi = orc.render(state, orc.grid_for_states(state))
    assert psi.norm_sq() == pytest.approx(1.0, abs=1e-8)


def test_render_norm_matches_closed_form_with_overlap():
    """Grid-integrated norm of a strongly overlapping superposition."""
    p = core.build_params(m=1.0, e0=0.0, e1=0.0, g=1.0, x_plus=1.5,
                          x_minus=0.5, x0=1.0, sigma=0.8, dt=0.0, phi=0.6)
    p = p.replace(c=100.0, hbar=1.0)
    state = ga.evolve_state(p, "free_fall")
    psi = orc.render(state, orc.grid_for_states(state))
    assert psi.norm_sq() == pytest.approx(ga.state_norm_sq(state), abs=1e-8)


def test_render_rejects_narrow_or_coarse_grid(sr88_10s):
    state = ga.evolve_state(sr88_10s.replace(dt=0.0), "free_fall")
    with pytest.raises(orc.GridError, match="too narrow"):
        orc.render(state, orc.Grid(sr88_10s.x_minus, sr88_10s.x_plus, 2**12))
    good = orc.grid_for_states(state)
    with pytest.raises(orc.GridError, match="too coarse"):
        orc.render(state, orc.Grid(good.x_min, good.x_max, 64))


def test_overlap_matches_grid_quadrature():
    """The closed-form overlap against direct trapezoid integration."""
    rng = np.random.default_rng(42)
    for _ in range(12):
        a, b = _random_branch(rng), _random_branch(rng)
        state = ga.ClockState((a, b))
        grid = orc.grid_for_states(state)
        xs = grid.xs()
        va = ga.wavefunction_values(a, xs)
        vb = ga.wavefunction_values(b, xs)
        quad = complex(_trapz(np.conj(va) * vb, dx=grid.spacing))
        closed = ga.overlap(a, b)
        assert closed == pytest.approx(quad, abs=1e-8)


def test_pair_moments_match_grid_quadrature():
    """Polynomial-weighted brackets (the parametric engine's primitives)."""
    rng = np.random.default_rng(11)
    for _ in range(6):
        a, b = _random_branch(rng), _random_branch(rng)
        pa = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2)]
        pb = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2)]
        state = ga.ClockState((a, b))
        grid = orc.grid_for_states(state)
        xs = grid.xs()
        va = ga.wavefunction_values(a, xs) * np.polyval(pa[::-1], xs - a.mean_x)
        vb = ga.wavefunction_values(b, xs) * np.polyval(pb[::-1], xs - b.mean_x)
        quad = complex(_trapz(np.conj(va) * vb, dx=grid.spacing))
        closed = ga.PairMoments(a, b).braket(pa, pb)
        assert closed == pytest.approx(quad, abs=2e-8 * max(1.0, abs(quad)))


# ---------------------------------------------------------------------------
# Windowed lattice-phase kernel
# ---------------------------------------------------------------------------

def _full_lattice(monkeypatch, branch, grid):
    with monkeypatch.context() as m:
        m.setattr(orc, "WINDOW_SIGMAS", math.inf)
        return orc._branch_window(branch, grid)


def test_window_matches_full_lattice(sr88_10s, monkeypatch):
    """Outside its +-8.5 sigma window a branch is only the Gaussian tail."""
    p = sr88_10s
    state = ga.evolve_state(p, "free_fall")
    grid = orc.grid_for_states(state)
    tail = math.exp(-8.5**2 / 4.0)
    for b in state.components:
        window, values = orc._branch_window(b, grid)
        full_window, full = _full_lattice(monkeypatch, b, grid)
        assert full_window == slice(0, grid.n_points)
        assert window.stop - window.start < grid.n_points // 4
        windowed = np.zeros(grid.n_points, dtype=complex)
        windowed[window] = values
        assert np.array_equal(windowed[window], full[window])
        peak = (2.0 * math.pi * b.var_x) ** -0.25
        assert np.max(np.abs(windowed - full)) <= tail * peak


def test_kernel_matches_reference_sampler(monkeypatch):
    """On short lever arms the lattice phase equals the per-point phase."""
    rng = np.random.default_rng(5)
    for _ in range(6):
        b = _random_branch(rng)
        grid = orc.grid_for_states(ga.ClockState((b,)))
        _window, values = _full_lattice(monkeypatch, b, grid)
        ref = ga.wavefunction_values(b, grid.xs())
        assert np.max(np.abs(values - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_render_and_detector_share_kernel(sr88_10s):
    """With time dilation ablated the detector pair spans the evolved state,
    so P+ + P- = 1; sampling the two on different phase lattices loses ~1e-6."""
    p = sr88_10s.replace(phi=0.8, ablate_time_dilation=True)
    state = ga.evolve_state(p, "free_fall")
    psi = orc.render(state, orc.grid_for_states(state))
    p_plus, p_minus = orc.probabilities_numeric(psi, est.Scenario("free_fall", p, "g"))
    assert p_plus + p_minus == pytest.approx(1.0, abs=1e-8)


def test_oracle_vs_closed_at_30s_anchor(crosscheck_params):
    """Branches ~4.6 km down: the lab phase has ~1e15 rad lever arms, which the
    frame takes off before anything is rendered."""
    p = crosscheck_params[9]
    closed = est.qfi_ff_closed(p)
    got = orc.qfi_numeric(est.Scenario("free_fall", p, "g"))
    assert abs(got - closed) / closed <= 1e-4


# ---------------------------------------------------------------------------
# Bures miss
# ---------------------------------------------------------------------------

def test_fidelity_self_unity(sr88_10s):
    """A state against itself misses by exactly 0 (F = 1)."""
    state = ga.evolve_state(sr88_10s.replace(dt=0.0), "free_fall")
    psi = orc.render(state, orc.grid_for_states(state))
    assert orc.bures_miss(psi, psi) == 0.0


def test_fidelity_disjoint_channels_zero(sr88_10s):
    """Orthogonal level channels: |<a|b>| = 0 (F = 0), so the miss is 1."""
    p = sr88_10s
    b0 = ga.GaussianBranch(1.0, 0.0, 0.0, p.x_plus, p.sigma**2, 0.0, 0, "plus")
    b1 = ga.GaussianBranch(1.0, 0.0, 0.0, p.x_plus, p.sigma**2, 0.0, 1, "plus")
    s0, s1 = ga.ClockState((b0,)), ga.ClockState((b1,))
    grid = orc.grid_for_states(s0, s1)
    assert orc.bures_miss(orc.render(s0, grid), orc.render(s1, grid)) == pytest.approx(1.0, abs=1e-10)


def test_fidelity_grid_mismatch_error(sr88_10s):
    state = ga.evolve_state(sr88_10s.replace(dt=0.0), "free_fall")
    g1 = orc.grid_for_states(state)
    g2 = orc.Grid(g1.x_min, g1.x_max, g1.n_points + 8)
    with pytest.raises(orc.GridError, match="common grid"):
        orc.render(state, g1).inner(orc.render(state, g2))


def test_bures_expansion_against_closed_qfi(sr88_10s):
    """The amplitude miss 1 - |<a|b>| tracks G d^2 / 8 for a small parameter offset."""
    sc = est.Scenario("free_fall", sr88_10s, "g")
    g_closed = est.qfi_ff_closed(sr88_10s)
    d = 2.0e-10
    s_lo, s_hi = sc.make_state(-d / 2), sc.make_state(d / 2)
    grid = orc.grid_for_states(s_lo, s_hi)
    miss = orc.bures_miss(orc.render(s_lo, grid), orc.render(s_hi, grid))
    assert miss == pytest.approx(g_closed * d * d / 8.0, rel=1e-3)


# ---------------------------------------------------------------------------
# Bures QFI
# ---------------------------------------------------------------------------

def test_qfi_numeric_phase_family(sr88_10s):
    fam = PhaseFamily(sr88_10s.replace(phi=0.4))
    got = orc.qfi_numeric(fam)
    assert got == pytest.approx(1.0, abs=1e-4)


def test_qfi_numeric_parameter_independent(sr88_10s):
    fam = ConstantFamily(sr88_10s)
    with pytest.warns(UserWarning, match="below fidelity resolution"):
        got = orc.qfi_numeric(fam)
    assert abs(got) < 1e-6


def test_qfi_numeric_free_fall_vs_closed(sr88_10s):
    sc = est.Scenario("free_fall", sr88_10s, "g")
    closed = est.qfi_ff_closed(sr88_10s)
    assert orc.qfi_numeric(sc) == pytest.approx(closed, rel=1e-2)


def test_qfi_numeric_vs_parametric(sr88_10s, crosscheck_params):
    for p in (sr88_10s, crosscheck_params[5]):
        sc = est.Scenario("free_fall", p, "g")
        assert orc.qfi_numeric(sc) == pytest.approx(
            est.qfi_pure_parametric(sc), rel=1e-2)


# Regime-valid free-fall sets on which the offset search once accepted a
# drop taken past a fidelity revival (1 - F ~ 1e-2 at d, ~1 at d/2), and
# oracle vs closed missed by 1.1e-2 and 8.1e-2.  The first is the
# benchmark's fixed Bures-edge set, the second its seed-7 range draw.
BURES_EDGE = dict(m=1.0308e-25, e0=0.3154 * core.EV, e1=2.4670 * core.EV, g=9.81745,
                  x_plus=0.514458, x_minus=0.5, x0=0.503667, x_plus0=0.514496,
                  x_minus0=0.500119, sigma=1.22955e-4, dt=23.7591, phi=0.364531)
RANGE_SEED7 = dict(m=1.3219440946348222e-25, e0=0.072450116485804517 * core.EV,
                   e1=3.9476190056214064 * core.EV, g=9.5420156083697201,
                   g_plus=9.5420155936255835, g_minus=9.5420156231138566,
                   x_plus=0.51001258623187484, x_minus=0.5, x0=0.50215012233364853,
                   x_plus0=0.50987154348754438, x_minus0=0.50002719879742974,
                   sigma=0.00012249359726128066, dt=26.805912821170633,
                   phi=0.35309007095671407)


@pytest.mark.parametrize("kw", [BURES_EDGE, RANGE_SEED7], ids=["bures_edge", "range_seed7"])
def test_qfi_numeric_past_fidelity_revival(kw):
    p = core.build_params(**kw)
    assert core.check_regime(p).satisfied
    closed = est.qfi_ff_closed(p)
    got = orc.qfi_numeric(est.Scenario("free_fall", p, "g"))
    assert abs(got - closed) / closed <= 1e-3


def test_richardson_rejects_fidelity_revival():
    """|<a|b>| = |cos(k d)| has G = 4 k^2; the first offset tried, 1e-6, sits just
    past the revival at k d = pi, where 1 - F = 3.6e-3 is inside the window."""
    k = (math.pi + 0.06) / 1e-6
    calls = []

    def miss(d):
        calls.append(d)
        return 1.0 - abs(math.cos(k * d))

    qfi, resolved = orc.richardson_bures_qfi(miss, 0.0)
    assert resolved
    assert qfi == pytest.approx(4.0 * k * k, rel=1e-6)
    assert max(calls[2:]) < 1e-6


def _two_stage_bures_reference(miss_at, value, delta=None):
    """The earlier two-stage offset search, kept as a reference: an inner
    bisection for a drop 1 - F = m (2 - m) inside [1e-6, 1e-2], then the d/2
    scaling check, re-searching below every offset that fails it; each
    amplitude miss m gives G = 8 m / s^2, s = fl(value + d/2) - fl(value - d/2)
    the offset the two compared values realize."""

    def bures(m, d):
        return 8.0 * m / ((value + 0.5 * d) - (value - 0.5 * d)) ** 2

    def tune(d, too_big):
        lo, hi = 1e-6, 1e-2
        delta_cap = 1e8 * max(abs(value), 1.0)
        d = min(d if d is not None else 1e-6 * max(abs(value), 1.0), delta_cap)
        d_small, d_big = None, too_big
        for _ in range(40):
            miss = miss_at(d)
            drop = miss * (2.0 - miss)
            if lo <= drop <= hi:
                return d, miss, True
            if drop < lo:
                if d >= delta_cap:
                    return d, miss, False
                d_small = d
                d = min(d * 8.0 if d_big is None else math.sqrt(d * d_big), delta_cap)
            else:
                d_big = d
                d = d / 8.0 if d_small is None else math.sqrt(d * d_small)
        raise orc.OracleError("inner search exhausted")

    d, too_big = delta, None
    for _ in range(20):
        d, miss, resolved = tune(d, too_big)
        if not resolved:
            return bures(miss, d), False
        miss_half = miss_at(0.5 * d)
        if 0.2 <= miss_half * (2.0 - miss_half) / (miss * (2.0 - miss)) <= 0.3:
            return (4.0 * bures(miss_half, 0.5 * d) - bures(miss, d)) / 3.0, True
        too_big, d = d, 0.5 * d
    raise orc.OracleError("outer search exhausted")


def _cos2(k):
    """The miss of F = cos^2(k d): m = 1 - |cos(k d)|."""
    return lambda d: 1.0 - abs(math.cos(k * d))


def _grown_into_revival(d):
    """The miss of 1 - F = 4e5 d^2 up to d = 3e-6, 0.5 up to 6e-6, then a
    revival at 5e-3.  From 1e-6 (below the window) the search grows to 8e-6,
    whose drop fails the d^2 check; the re-search below it starts above the
    window at 4e-6 and must not bisect towards the stale lower offset 1e-6."""
    return 1.0 - math.sqrt(1.0 - (4e5 * d * d if d <= 3e-6 else 0.5 if d <= 6e-6 else 5e-3))


# (miss, value, start delta): F = cos^2(k d) has G = 4 k^2.  The
# revival cases put the first offset just past k d = pi, where 1 - F =
# 3.6e-3 is inside the window but fails the d^2 check.
_BURES_CASES = {
    "smooth": (_cos2(40.0), 0.0, None),
    "smooth_start": (_cos2(40.0), 9.81, 3e-2),
    "revival": (_cos2((math.pi + 0.06) / 1e-6), 0.0, None),
    "revival_start": (_cos2((math.pi + 0.06) / 4e-4), 9.81, 4e-4),
    "revival_after_growth": (_grown_into_revival, 0.0, None),
    "constant": (lambda d: 0.0, 0.0, None),
}


@pytest.mark.parametrize("name", list(_BURES_CASES))
def test_richardson_asks_for_the_two_stage_offsets(name):
    """The one-loop search returns what the two-stage search returned and
    asks the miss for the same offsets, in the same order, but never twice
    for one: after a pair fails the d^2 check, the two-stage search asked
    again for the d/2 it had just asked for (the revival cases)."""
    miss, value, delta = _BURES_CASES[name]
    asked = {"new": [], "ref": []}

    def recording(key):
        def fn(d):
            asked[key].append(d)
            return miss(d)
        return fn

    got = orc.richardson_bures_qfi(recording("new"), value, delta)
    ref = _two_stage_bures_reference(recording("ref"), value, delta)
    assert got == ref
    repeats = [i for i in range(1, len(asked["ref"])) if asked["ref"][i] == asked["ref"][i - 1]]
    assert asked["new"] == [d for i, d in enumerate(asked["ref"]) if i not in repeats]
    assert len(set(asked["new"])) == len(asked["new"])
    assert bool(repeats) is name.startswith("revival")
    assert got[1] is (name != "constant")


def test_richardson_unplaceable_drop_raises():
    with pytest.raises(orc.OracleError, match="no offset"):
        orc.richardson_bures_qfi(lambda d: math.nan, 1.0)


def test_richardson_refuses_offsets_below_float64_spacing():
    """Every resolvable offset of 1.0 overshoots the window, so the search steps
    down until 1 -+ d/2 round to 1.0: an OracleError naming the limit, where the
    search used to run out of offsets with "1-F = 0"."""
    asked = []

    def miss(d):
        asked.append(d)
        lo, hi = orc.bures_stencil(1.0, d)
        return 0.5 if hi > lo else 0.0

    with pytest.raises(orc.OracleError, match="float64 resolution limit"):
        orc.richardson_bures_qfi(miss, 1.0)
    assert min(asked) >= math.ulp(1.0) / 2


@pytest.mark.parametrize("ratio,accepted", [(0.25, True), (0.252, True), (0.2528, False),
                                            (0.2478, True), (0.2465, False), (0.21, False),
                                            (0.29, False)])
def test_richardson_refuses_a_pair_whose_offsets_disagree(ratio, accepted):
    """A pair inside the 0.2-0.3 drop check may still give G(d/2) and G(d) up to
    20% apart: past |G(d/2)/G(d) - 1| = 1e-2 the search raises OracleError
    naming the residual.  Here the first offset's drop is 1e-3 and d/2's is
    ``ratio`` of it, so the residual is about |4 ratio - 1|: 7.8e-3 at 0.252,
    1.1e-2 at 0.2528, 9.0e-3 at 0.2478 and 1.4e-2 at 0.2465."""
    def miss(d):
        drop = 1e-3 if d == 1e-6 else ratio * 1e-3
        return 1.0 - math.sqrt(1.0 - drop)

    if accepted:
        assert orc.richardson_bures_qfi(miss, 0.0)[1]
    else:
        with pytest.raises(orc.OracleError, match=r"\|G\(d/2\)/G\(d\) - 1\| = .* > 1e-02"):
            orc.richardson_bures_qfi(miss, 0.0)


@pytest.mark.parametrize("dt", ["10", "30", "100", "1000", "1e4", "1e5"])
def test_freefall_oracle_meets_closed_form_at_long_dt(dt):
    """Rendered as exact differences from the frame, with the offset carried
    exactly, the free-fall oracle on sr88_freefall.cfg is within 1e-6 of
    qfi_closed (itself within 1e-10 of the exact QFI) out to 1e5 s.  With
    the longdouble phase ledger it was -2.2e-9 off at 10 s and +8.2e-6 at
    30 s, exit 3 at 1e2 s (its offsets disagreed by 3.6e-2), +1.11e-3 with
    exit 0 at 1e3 s, and at 1e4 and 1e5 s the Bures window lay below ulp(g).
    With the offset's part and the clock's in one float it was 4.9e-6 off at
    1e5 s: that float, ~1e9 rad, rounded differently on the two levels."""
    scenario = _sample_scenario("sr88_freefall.cfg", {"time.dt_s": dt})
    assert abs(orc.qfi_numeric(scenario) / est.closed_qfi(scenario) - 1.0) <= 1e-6


def test_grid_refinement_convergence(sr88_10s, crosscheck_params):
    """A 16x finer lattice on the rule-sized grid's span moves the amplitude
    miss by < 1e-6 relative, at an offset with a miss of ~1e-4 (the middle of
    the Bures window): free fall, both MZ targets and the 30-s anchor set."""
    for kind, target, p in [("free_fall", "g", sr88_10s), ("mach_zehnder", "delta_g", sr88_10s),
                            ("mach_zehnder", "bar_g", sr88_10s), ("free_fall", "g", crosscheck_params[9])]:
        sc = est.Scenario(kind, p, target)
        d = math.sqrt(8e-4 / est.closed_qfi(sc))
        s_lo, s_hi = sc.make_state(-d / 2), sc.make_state(d / 2)
        grid = orc.grid_for_states(s_lo, s_hi)
        fine = orc.Grid(grid.x_min, grid.x_max, 16 * (grid.n_points - 1) + 1)
        coarse, refined = (orc.bures_miss(orc.render(s_lo, g), orc.render(s_hi, g)) for g in (grid, fine))
        assert 1e-5 < refined < 1e-3, (kind, target)
        assert abs(coarse - refined) / refined < 1e-6, (kind, target)


def _oracle_grids(scenario, monkeypatch):
    """(states, grid) of every grid_for_states call one qfi_numeric run makes."""
    calls, rule = [], orc.grid_for_states

    def recording(*states):
        calls.append((states, rule(*states)))
        return calls[-1][1]

    with monkeypatch.context() as m:
        m.setattr(orc, "grid_for_states", recording)
        orc.qfi_numeric(scenario)
    return calls


def test_grid_is_fewest_points_render_accepts(crosscheck_params, monkeypatch):
    """At the oracle's own offsets, on the sample configs and the cross-check
    sets (free fall and the MZ target), every grid renders both states, and the
    same span on one point fewer is too coarse for one of them."""
    scenarios = [_sample_scenario(name) for name in ("sr88_freefall.cfg", "sr88_mz.cfg")]
    for i, p in enumerate(crosscheck_params):
        scenarios += [est.Scenario("free_fall", p, "g"),
                      est.Scenario("mach_zehnder", p, "delta_g" if i % 2 == 0 else "bar_g")]
    for scenario in scenarios:
        calls = _oracle_grids(scenario, monkeypatch)
        assert calls
        for states, grid in calls:
            for state in states:
                orc.render(state, grid)
            with pytest.raises(orc.GridError, match="too coarse"):
                for state in states:
                    orc.render(state, orc.Grid(grid.x_min, grid.x_max, grid.n_points - 1))


def test_grid_refuses_span_past_cap():
    """Branches 2^18 widths apart need more than 2^22 points at 16 per width,
    and an infinite centre has no finite span: both are refused."""
    b = _random_branch(np.random.default_rng(0))
    s = math.sqrt(b.var_x)
    near = ga.ClockState((b, replace(b, mean_x=b.mean_x + 2**17 * s)))
    assert orc.grid_for_states(near).n_points < 2**22
    for far in (b.mean_x + 2**18 * s, math.inf):
        with pytest.raises(orc.GridError, match="not feasible"):
            orc.grid_for_states(ga.ClockState((b, replace(b, mean_x=far))))


@pytest.mark.parametrize("nan_first", [True, False], ids=["nan_first", "nan_second"])
def test_grid_refuses_nan_branch(nan_first):
    """A branch whose centre is NaN is a GridError, in either order.  It used
    to be dropped from the span (min and max keep the other operand), and
    render then failed in _branch_window with a bare ValueError.  (A width is
    positive and finite by GaussianBranch's own check.)"""
    b = _random_branch(np.random.default_rng(0))
    branches = (replace(b, mean_x=math.nan), b)
    state = ga.ClockState(branches if nan_first else branches[::-1])
    with pytest.raises(orc.GridError, match="not a number"):
        orc.grid_for_states(state)


# Sample configs for the whole-oracle checks: (config, overrides, the miss
# evaluations its offset search makes, as when the oracle computed F).
_SAMPLE_ORACLES = {
    "sr88_freefall": ("sr88_freefall.cfg", {}, 7),
    "sr88_mz": ("sr88_mz.cfg", {}, 11),
    "bouncer_dt_0.1": ("bouncer.cfg", {"time.dt_s": "0.1"}, 2),
}


def _sample_scenario(name, overrides=None):
    cfg = {**core.load_config(CONFIG_DIR / name), **(overrides or {})}
    return est.Scenario(cfg["scenario.name"], core.params_from_config(cfg), cfg["scenario.target"])


@pytest.mark.parametrize("case", list(_SAMPLE_ORACLES))
def test_oracle_rounding_noise_floor(case, monkeypatch):
    """Multiplying every rendered channel by 1 + 2e-16 N(0, 1) moves qfi_oracle
    by at most 1e-14 relative (4 seeds): the miss is a sum of squares, with no
    subtraction from 1.  Computed from F, the free-fall and bouncer values
    moved ~6e-12.  The oracle runs once, recording the states behind every
    offset it asks for; each seed replays the same search on perturbed copies."""
    name, overrides, n_asked = _SAMPLE_ORACLES[case]
    scenario = _sample_scenario(name, overrides)
    search, miss = orc.richardson_bures_qfi, orc.bures_miss
    asked, pairs, args = [], {}, []

    def recording_search(miss_at, value, delta):
        args.extend((value, delta))
        return search(lambda d: asked.append(d) or miss_at(d), value, delta)

    def recording_miss(psi_a, psi_b):
        pairs[asked[-1]] = (psi_a, psi_b)
        return miss(psi_a, psi_b)

    # bouncer looks both up in oracle when its oracle runs.
    monkeypatch.setattr(orc, "richardson_bures_qfi", recording_search)
    monkeypatch.setattr(orc, "bures_miss", recording_miss)
    qfi = cli.ROUTES[scenario.kind]["oracle"][0][1](scenario)
    assert len(asked) == n_asked
    assert search(lambda d: miss(*pairs[d]), *args) == (qfi, True)
    for seed in range(4):
        rng = np.random.default_rng(seed)

        def noisy(psi):
            scale = 1.0 + 2e-16 * rng.standard_normal(psi.channels.shape)
            return replace(psi, channels=psi.channels * scale)

        got, resolved = search(lambda d: miss(*map(noisy, pairs[d])), *args)
        assert resolved
        assert abs(got - qfi) <= 1e-14 * abs(qfi)


def test_mz_oracle_matches_closed_form():
    """On configs/sr88_mz.cfg the states differ only in phase; the miss puts
    the oracle within 1e-11 of the closed form (1.3e-10 when computed from F)."""
    scenario = _sample_scenario("sr88_mz.cfg")
    closed = est.closed_qfi(scenario)
    assert abs(orc.qfi_numeric(scenario) - closed) <= 1e-11 * closed


def test_freefall_oracle_matches_parametric():
    """On configs/sr88_freefall.cfg the accepted offsets realize fl(g + d/2) -
    fl(g - d/2) = d (1 - 3.1e-6) and d/2 (1 + 8.8e-6); G formed from the nominal
    d put the oracle 2.56e-5 off the parametric engine."""
    scenario = _sample_scenario("sr88_freefall.cfg")
    assert abs(orc.qfi_numeric(scenario) / est.qfi_pure_parametric(scenario) - 1.0) <= 1e-6


# ---------------------------------------------------------------------------
# Projected probabilities
# ---------------------------------------------------------------------------

def _detector_state(params, sign):
    state = ga.evolve_state(params.replace(e0=0.0, e1=0.0, phi=0.0), "free_fall")
    bp = state.branch("plus", 0)
    bm = state.branch("minus", 0)
    amp = sign / math.sqrt(2.0)
    return ga.ClockState((
        ga.GaussianBranch(1 / math.sqrt(2), bp.phase, bp.slope, bp.mean_x,
                          bp.var_x, bp.chirp, 0, "plus"),
        ga.GaussianBranch(amp, bm.phase, bm.slope, bm.mean_x,
                          bm.var_x, bm.chirp, 0, "minus"),
    ), state.frame)


@pytest.mark.parametrize("sign,expected", [(1.0, (1.0, 0.0)), (-1.0, (0.0, 1.0))])
def test_probabilities_on_detector_states(sr88_10s, sign, expected):
    state = _detector_state(sr88_10s, sign)
    grid = orc.grid_for_states(state)
    psi = orc.render(state, grid)
    got = orc.probabilities_numeric(psi, est.Scenario("free_fall", sr88_10s, "g"))
    assert got[0] == pytest.approx(expected[0], abs=1e-8)
    assert got[1] == pytest.approx(expected[1], abs=1e-8)


def test_probabilities_evolved_state_vs_closed(sr88_10s):
    sc = est.Scenario("free_fall", sr88_10s.replace(phi=0.8), "g")
    state = sc.make_state()
    psi = orc.render(state, orc.grid_for_states(state))
    grid_p = orc.probabilities_numeric(psi, sc)
    closed_p = est.detection_probabilities(sc)
    assert grid_p[0] == pytest.approx(closed_p[0], abs=1e-6)
    assert grid_p[1] == pytest.approx(closed_p[1], abs=1e-6)
    assert grid_p[0] + grid_p[1] <= 1.0 + 1e-8
    assert grid_p[0] + grid_p[1] == pytest.approx(1.0, abs=1e-6)
